#include "trace/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/prng.hpp"

namespace agtram::trace {

using common::Rng;

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Open-addressing (linear probing, load <= 1/2) table giving each distinct
/// 32-bit id a dense slot in first-seen order.  Every u32 is a valid id: an
/// empty cell is marked by slot 0 in the stored `slot + 1`, not by a
/// reserved key.
class IdSlots {
 public:
  /// Slot of `id`, assigning the next one on first sight.
  std::uint32_t intern(std::uint32_t id) {
    if (2 * (ids_.size() + 1) > cells_.size()) grow();
    Cell& cell = cells_[probe(id)];
    if (cell.slot1 == 0) {
      cell = Cell{id, static_cast<std::uint32_t>(ids_.size()) + 1};
      ids_.push_back(id);
    }
    return cell.slot1 - 1;
  }

  /// Slot of an id already interned (an unknown id is a caller bug).
  std::uint32_t at(std::uint32_t id) const {
    return cells_[probe(id)].slot1 - 1;
  }

  std::size_t size() const noexcept { return ids_.size(); }
  std::uint32_t id(std::uint32_t slot) const { return ids_[slot]; }

 private:
  struct Cell {
    std::uint32_t key = 0;
    std::uint32_t slot1 = 0;  // slot + 1; 0 = empty
  };

  std::size_t probe(std::uint32_t id) const {
    const std::size_t mask = cells_.size() - 1;
    // Fibonacci hashing spreads dense and IP-like ids alike.
    std::size_t i = static_cast<std::size_t>(
                        (id * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (cells_[i].slot1 != 0 && cells_[i].key != id) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(std::max<std::size_t>(64, 2 * old.size()), Cell{});
    for (const Cell& cell : old) {
      if (cell.slot1 != 0) cells_[probe(cell.key)] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::vector<std::uint32_t> ids_;
};

/// One pass over the logs: a slot per distinct object and client, the
/// number of days each object appears in, its request count, and each
/// client's request count.
struct Census {
  IdSlots objects;
  IdSlots clients;
  std::vector<std::uint32_t> object_days;
  std::vector<std::uint64_t> object_requests;
  std::vector<std::uint64_t> client_requests;
};

Census take_census(const std::vector<DayLog>& days) {
  Census census;
  std::vector<std::uint32_t> last_day;  // per object slot: day index + 1
  for (std::uint32_t d = 0; d < days.size(); ++d) {
    for (const Request& r : days[d].requests) {
      const std::uint32_t o = census.objects.intern(r.object);
      if (o == last_day.size()) {
        last_day.push_back(0);
        census.object_days.push_back(0);
        census.object_requests.push_back(0);
      }
      if (last_day[o] != d + 1) {
        last_day[o] = d + 1;
        ++census.object_days[o];
      }
      ++census.object_requests[o];
      const std::uint32_t c = census.clients.intern(r.client);
      if (c == census.client_requests.size()) census.client_requests.push_back(0);
      ++census.client_requests[c];
    }
  }
  return census;
}

/// Object slots present in every day, ordered by ascending id.
std::vector<std::uint32_t> all_day_slots(const Census& census,
                                         std::size_t day_count) {
  std::vector<std::uint32_t> slots;
  for (std::uint32_t o = 0; o < census.object_days.size(); ++o) {
    if (census.object_days[o] == day_count) slots.push_back(o);
  }
  std::sort(slots.begin(), slots.end(), [&](std::uint32_t a, std::uint32_t b) {
    return census.objects.id(a) < census.objects.id(b);
  });
  return slots;
}

/// Client slots of the `k` busiest clients (ties: lower id first), ordered
/// by ascending id.
std::vector<std::uint32_t> top_client_slots(const Census& census,
                                            std::uint32_t k) {
  std::vector<std::uint32_t> slots(census.clients.size());
  for (std::uint32_t c = 0; c < slots.size(); ++c) slots[c] = c;
  std::sort(slots.begin(), slots.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ca = census.client_requests[a];
    const std::uint64_t cb = census.client_requests[b];
    if (ca != cb) return ca > cb;
    return census.clients.id(a) < census.clients.id(b);
  });
  if (slots.size() > k) slots.resize(k);
  std::sort(slots.begin(), slots.end(), [&](std::uint32_t a, std::uint32_t b) {
    return census.clients.id(a) < census.clients.id(b);
  });
  return slots;
}

}  // namespace

std::vector<ObjectId> objects_in_all_days(const std::vector<DayLog>& days) {
  if (days.empty()) return {};
  const Census census = take_census(days);
  std::vector<ObjectId> result;
  for (std::uint32_t o : all_day_slots(census, days.size())) {
    result.push_back(census.objects.id(o));
  }
  return result;
}

std::vector<ClientId> top_clients(const std::vector<DayLog>& days,
                                  std::uint32_t k) {
  const Census census = take_census(days);
  std::vector<ClientId> result;
  for (std::uint32_t c : top_client_slots(census, k)) {
    result.push_back(census.clients.id(c));
  }
  return result;
}

std::vector<std::vector<std::uint32_t>> map_clients_to_servers(
    const std::vector<ClientId>& clients, const PipelineConfig& cfg) {
  if (cfg.servers == 0) throw std::invalid_argument("servers must be >= 1");
  if (cfg.min_fanout == 0 || cfg.min_fanout > cfg.max_fanout) {
    throw std::invalid_argument("require 1 <= min_fanout <= max_fanout");
  }
  Rng rng(cfg.seed);
  std::vector<std::vector<std::uint32_t>> mapping(clients.size());
  const std::uint32_t cap = std::min(cfg.max_fanout, cfg.servers);
  const std::uint32_t floor = std::min(cfg.min_fanout, cap);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const auto fanout = static_cast<std::uint32_t>(
        rng.between(floor, cap));
    std::unordered_set<std::uint32_t> chosen;
    while (chosen.size() < fanout) {
      chosen.insert(static_cast<std::uint32_t>(rng.below(cfg.servers)));
    }
    mapping[c].assign(chosen.begin(), chosen.end());
    std::sort(mapping[c].begin(), mapping[c].end());
  }
  return mapping;
}

Workload run_pipeline(const std::vector<DayLog>& days,
                      const PipelineConfig& cfg) {
  Workload out;
  if (days.empty()) return out;

  // 1-2. Objects present in every day log and the top-K clients, each
  //      compacted to dense indices (k, c) through their census slots.
  const Census census = take_census(days);
  std::vector<std::uint32_t> object_k(census.objects.size(), kNone);
  const std::vector<std::uint32_t> kept = all_day_slots(census, days.size());
  const std::size_t n = kept.size();
  out.object_ids.reserve(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    object_k[kept[k]] = k;
    out.object_ids.push_back(census.objects.id(kept[k]));
  }
  std::vector<std::uint32_t> client_c(census.clients.size(), kNone);
  std::vector<ClientId> clients;
  for (std::uint32_t c : top_client_slots(census, cfg.top_clients)) {
    client_c[c] = static_cast<std::uint32_t>(clients.size());
    clients.push_back(census.clients.id(c));
  }
  const auto k_of = [&](const Request& r) {
    return object_k[census.objects.at(r.object)];
  };
  const auto c_of = [&](const Request& r) {
    return client_c[census.clients.at(r.client)];
  };

  // 3. Per-object delivered-size statistics (Welford, in request order) over
  //    the surviving records, and the top clients' requests grouped by
  //    object (stable, so each group is in request order).  A kept object's
  //    census count bounds its group.
  std::vector<std::uint64_t> size_count(n, 0);
  std::vector<double> size_mean(n, 0.0), size_m2(n, 0.0);
  std::vector<std::uint64_t> group_begin(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    group_begin[k + 1] = group_begin[k] + census.object_requests[kept[k]];
  }
  std::vector<std::uint64_t> group_end(group_begin.begin(),
                                       group_begin.end() - 1);
  std::vector<std::uint32_t> grouped_client(group_begin[n]);
  for (const DayLog& day : days) {
    for (const Request& r : day.requests) {
      const std::uint32_t k = k_of(r);
      if (k == kNone) continue;
      ++size_count[k];
      const double delta = static_cast<double>(r.units) - size_mean[k];
      size_mean[k] += delta / static_cast<double>(size_count[k]);
      size_m2[k] += delta * (static_cast<double>(r.units) - size_mean[k]);

      const std::uint32_t c = c_of(r);
      if (c == kNone) continue;
      grouped_client[group_end[k]++] = c;
      ++out.total_requests;
    }
  }

  out.object_units.resize(n);
  out.size_variance.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.object_units[k] = static_cast<std::uint32_t>(
        std::max(1.0, std::round(size_mean[k])));
    out.size_variance[k] =
        size_count[k] > 1
            ? size_m2[k] / static_cast<double>(size_count[k] - 1)
            : 0.0;
  }

  //    Count each (client, object) pair within its object's group.  Pair
  //    ids run in group order from next_pair[k]; a bit marks the grouped
  //    position of each pair's first request.
  std::vector<std::uint64_t> pair_count;
  std::vector<std::uint64_t> next_pair(n);
  std::vector<std::uint64_t> first_bit((group_begin[n] + 63) / 64, 0);
  {
    std::vector<std::uint32_t> seen_in(clients.size(), kNone);
    std::vector<std::uint64_t> pair_of(clients.size());
    for (std::uint32_t k = 0; k < n; ++k) {
      next_pair[k] = pair_count.size();
      for (std::uint64_t j = group_begin[k]; j < group_end[k]; ++j) {
        const std::uint32_t c = grouped_client[j];
        if (seen_in[c] != k) {
          seen_in[c] = k;
          pair_of[c] = pair_count.size();
          pair_count.push_back(0);
          first_bit[j / 64] |= std::uint64_t{1} << (j % 64);
        }
        ++pair_count[pair_of[c]];
      }
    }
  }
  std::vector<std::uint32_t>().swap(grouped_client);

  // 4. The remainder coins below are drawn in the iteration order of an
  //    unordered_map<u64, u64> keyed c * n + k that received each pair once,
  //    at its first request — the order the trace goldens pin.  Replaying
  //    the grouping in request order meets each object's pairs in id order.
  const auto mapping = map_clients_to_servers(clients, cfg);
  std::pmr::monotonic_buffer_resource arena(
      std::max<std::size_t>(1024, 40 * pair_count.size()));
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> demand(&arena);
  std::vector<std::uint64_t> row_bound(n, 0);
  std::copy(group_begin.begin(), group_begin.end() - 1, group_end.begin());
  for (const DayLog& day : days) {
    for (const Request& r : day.requests) {
      const std::uint32_t k = k_of(r);
      if (k == kNone) continue;
      const std::uint32_t c = c_of(r);
      if (c == kNone) continue;
      const std::uint64_t j = group_end[k]++;
      if ((first_bit[j / 64] >> (j % 64)) & 1) {
        const std::uint64_t count = pair_count[next_pair[k]++];
        demand.emplace(static_cast<std::uint64_t>(c) * n + k, count);
        row_bound[k] += std::min<std::uint64_t>(count, mapping[c].size() + 1);
      }
    }
  }

  //    Spread each client's per-object demand across its servers as evenly
  //    as possible, with the remainder assigned pseudo-randomly
  //    (deterministic in the seed), bucketing the rows by object.
  out.reads.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.reads[k].reserve(row_bound[k]);
  Rng rng(cfg.seed ^ 0xabcdef1234567890ULL);
  for (const auto& [key, count] : demand) {
    const auto c = static_cast<std::uint32_t>(key / n);
    const auto k = static_cast<std::uint32_t>(key % n);
    const auto& servers = mapping[c];
    auto& rows = out.reads[k];
    const std::uint64_t base = count / servers.size();
    std::uint64_t remainder = count % servers.size();
    for (std::uint32_t s : servers) {
      std::uint64_t share = base;
      if (remainder > 0 && rng.chance(0.5)) {
        ++share;
        --remainder;
      }
      if (share > 0) rows.push_back(ServerReads{s, share});
    }
    // Any leftover goes to the client's first server.
    if (remainder > 0) rows.push_back(ServerReads{servers.front(), remainder});
  }

  // Rows sorted by server, one per server.
  for (auto& rows : out.reads) {
    std::sort(rows.begin(), rows.end(),
              [](const ServerReads& a, const ServerReads& b) {
                return a.server < b.server;
              });
    std::size_t kept_rows = 0;
    for (const ServerReads& row : rows) {
      if (kept_rows > 0 && rows[kept_rows - 1].server == row.server) {
        rows[kept_rows - 1].reads += row.reads;
      } else {
        rows[kept_rows++] = row;
      }
    }
    rows.resize(kept_rows);
  }
  return out;
}

}  // namespace agtram::trace
