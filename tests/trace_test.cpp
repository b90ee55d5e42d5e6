// Unit tests for src/trace: the synthetic World Cup generator, log
// serialisation, and the log-processing pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/prng.hpp"

#include "trace/access_log.hpp"
#include "trace/pipeline.hpp"
#include "trace/worldcup.hpp"

namespace {

using namespace agtram::trace;

WorldCupConfig tiny_config() {
  WorldCupConfig cfg;
  cfg.days = 3;
  cfg.object_universe = 50;
  cfg.core_objects = 20;
  cfg.clients = 15;
  cfg.requests_per_day = 2000;
  cfg.seed = 99;
  return cfg;
}

// ----------------------------------------------------------- generator

TEST(WorldCup, ProducesRequestedDayCount) {
  const auto days = generate_worldcup_trace(tiny_config());
  ASSERT_EQ(days.size(), 3u);
  for (std::uint32_t d = 0; d < 3; ++d) EXPECT_EQ(days[d].day_index, d);
}

TEST(WorldCup, CoreObjectsPresentEveryDay) {
  const auto cfg = tiny_config();
  const auto days = generate_worldcup_trace(cfg);
  for (const DayLog& day : days) {
    std::unordered_set<ObjectId> seen;
    for (const Request& r : day.requests) seen.insert(r.object);
    for (ObjectId k = 0; k < cfg.core_objects; ++k) {
      EXPECT_TRUE(seen.contains(k)) << "day " << day.day_index << " object " << k;
    }
  }
}

TEST(WorldCup, TrafficRampsAcrossDays) {
  auto cfg = tiny_config();
  cfg.day_ramp = 0.5;
  const auto days = generate_worldcup_trace(cfg);
  EXPECT_GT(days.back().requests.size(), days.front().requests.size());
}

TEST(WorldCup, DeterministicInSeed) {
  const auto a = generate_worldcup_trace(tiny_config());
  const auto b = generate_worldcup_trace(tiny_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].requests.size(), b[d].requests.size());
    for (std::size_t i = 0; i < a[d].requests.size(); ++i) {
      EXPECT_EQ(a[d].requests[i].client, b[d].requests[i].client);
      EXPECT_EQ(a[d].requests[i].object, b[d].requests[i].object);
      EXPECT_EQ(a[d].requests[i].units, b[d].requests[i].units);
    }
  }
}

TEST(WorldCup, AllFieldsInRange) {
  const auto cfg = tiny_config();
  for (const DayLog& day : generate_worldcup_trace(cfg)) {
    for (const Request& r : day.requests) {
      EXPECT_LT(r.client, cfg.clients);
      EXPECT_LT(r.object, cfg.object_universe);
      EXPECT_GE(r.units, 1u);
    }
  }
}

TEST(WorldCup, ObjectSizesDeterministicAndBounded) {
  const auto cfg = tiny_config();
  const auto a = worldcup_object_sizes(cfg);
  const auto b = worldcup_object_sizes(cfg);
  ASSERT_EQ(a.size(), cfg.object_universe);
  EXPECT_EQ(a, b);
  for (auto s : a) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, cfg.max_object_units);
  }
}

TEST(WorldCup, PopularityIsZipfSkewed) {
  auto cfg = tiny_config();
  cfg.requests_per_day = 20000;
  const auto days = generate_worldcup_trace(cfg);
  std::vector<std::size_t> counts(cfg.object_universe, 0);
  for (const auto& day : days) {
    for (const Request& r : day.requests) ++counts[r.object];
  }
  // Rank 0 should dominate the median object by a wide margin.
  EXPECT_GT(counts[0], 8 * counts[cfg.object_universe / 2]);
}

TEST(WorldCup, InvalidConfigsThrow) {
  auto cfg = tiny_config();
  cfg.days = 0;
  EXPECT_THROW(generate_worldcup_trace(cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.core_objects = cfg.object_universe + 1;
  EXPECT_THROW(generate_worldcup_trace(cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.requests_per_day = cfg.core_objects - 1;
  EXPECT_THROW(generate_worldcup_trace(cfg), std::invalid_argument);
}

TEST(WorldCup, DailyFluxRotatesTheHotSet) {
  auto cfg = tiny_config();
  cfg.object_universe = 400;
  cfg.core_objects = 5;
  cfg.requests_per_day = 30000;
  cfg.daily_flux = 0.5;
  const auto days = generate_worldcup_trace(cfg);

  const auto top_object = [&](const DayLog& day) {
    std::vector<std::size_t> counts(cfg.object_universe, 0);
    for (const Request& r : day.requests) ++counts[r.object];
    // Exclude the forced core from the ranking.
    std::size_t best = cfg.core_objects;
    for (std::size_t k = cfg.core_objects; k < counts.size(); ++k) {
      if (counts[k] > counts[best]) best = k;
    }
    return best;
  };
  // With half the universe reshuffled daily, the non-core hot object
  // should differ between day 0 and at least one later day.
  const std::size_t day0 = top_object(days[0]);
  bool rotated = false;
  for (std::size_t d = 1; d < days.size(); ++d) {
    rotated = rotated || top_object(days[d]) != day0;
  }
  EXPECT_TRUE(rotated);
}

TEST(WorldCup, ZeroFluxKeepsTheLawStable) {
  auto cfg = tiny_config();
  cfg.daily_flux = 0.0;
  const auto a = generate_worldcup_trace(cfg);
  cfg.daily_flux = 0.0;
  const auto b = generate_worldcup_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].requests.size(), b[d].requests.size());
  }
}

// FNV-1a over every field of every request, in order.
std::uint64_t trace_digest(const std::vector<DayLog>& days) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  add(days.size());
  for (const DayLog& day : days) {
    add(day.day_index);
    add(day.requests.size());
    for (const Request& r : day.requests) {
      add(r.client);
      add(r.object);
      add(r.units);
    }
  }
  return h;
}

// Pinned from the binary-search samplers the guided ones replaced: the
// generator's output, RNG draw order included, must not move.
TEST(WorldCup, OutputDigestIsPinned) {
  EXPECT_EQ(trace_digest(generate_worldcup_trace(tiny_config())),
            0x3fd322d8af38a074ULL);
  WorldCupConfig flux;
  flux.days = 4;
  flux.object_universe = 600;
  flux.core_objects = 150;
  flux.clients = 70;
  flux.requests_per_day = 20000;
  flux.daily_flux = 0.25;
  flux.seed = 2024;
  EXPECT_EQ(trace_digest(generate_worldcup_trace(flux)),
            0xb733736ac7b183d4ULL);
}

// ------------------------------------------------------- serialisation

TEST(AccessLog, RoundTrip) {
  DayLog log;
  log.day_index = 4;
  log.requests = {{1, 2, 30}, {5, 6, 70}};
  std::stringstream ss;
  write_day_log(ss, log);
  const DayLog parsed = read_day_log(ss);
  EXPECT_EQ(parsed.day_index, 4u);
  ASSERT_EQ(parsed.requests.size(), 2u);
  EXPECT_EQ(parsed.requests[1].client, 5u);
  EXPECT_EQ(parsed.requests[1].object, 6u);
  EXPECT_EQ(parsed.requests[1].units, 70u);
}

TEST(AccessLog, MalformedLineThrows) {
  std::stringstream ss("4 1 junk\n");
  EXPECT_THROW(read_day_log(ss), std::runtime_error);
}

TEST(AccessLog, MixedDaysThrow) {
  std::stringstream ss("1 1 1 1\n2 1 1 1\n");
  EXPECT_THROW(read_day_log(ss), std::runtime_error);
}

// The message of read_day_log's error for `text`, or "" if it parsed.
std::string parse_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_day_log(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(AccessLog, RejectsNegativeField) {
  // "-1" must not wrap to client 4294967295.
  EXPECT_NE(parse_error("0 1 5 3\n0 -1 5 3\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("-0 1 5 3\n"), "");
}

TEST(AccessLog, RejectsPlusSign) {
  EXPECT_NE(parse_error("0 +1 5 3\n").find("line 1"), std::string::npos);
}

TEST(AccessLog, RejectsTrailingToken) {
  EXPECT_NE(parse_error("0 1 5 3\n\n0 1 5 3 junk\n").find("line 3"),
            std::string::npos);
  EXPECT_NE(parse_error("0 1 5 3 4\n"), "");
}

TEST(AccessLog, RejectsFractionalUnits) {
  EXPECT_NE(parse_error("0 1 5 3.7\n").find("line 1"), std::string::npos);
  EXPECT_NE(parse_error("0 1 5 3e2\n"), "");
}

TEST(AccessLog, RejectsOverflow) {
  EXPECT_EQ(parse_error("0 4294967295 5 3\n"), "");
  EXPECT_NE(parse_error("0 4294967296 5 3\n").find("line 1"),
            std::string::npos);
  EXPECT_NE(parse_error("0 1 99999999999999999999 3\n"), "");
}

TEST(AccessLog, RejectsMissingField) {
  EXPECT_NE(parse_error("0 1 5\n").find("line 1"), std::string::npos);
  EXPECT_NE(parse_error("   \n"), "");
}

TEST(AccessLog, AcceptsSurroundingWhitespace) {
  std::stringstream ss("  7\t4294967295  0 12 \r\n7 1 2 3\n");
  const DayLog log = read_day_log(ss);
  EXPECT_EQ(log.day_index, 7u);
  ASSERT_EQ(log.requests.size(), 2u);
  EXPECT_EQ(log.requests[0].client, 4294967295u);
  EXPECT_EQ(log.requests[0].object, 0u);
  EXPECT_EQ(log.requests[0].units, 12u);
}

TEST(AccessLog, MixedDaysNameTheLine) {
  EXPECT_NE(parse_error("1 1 1 1\n1 2 2 2\n2 1 1 1\n").find("line 3"),
            std::string::npos);
}

// ------------------------------------------------------------ pipeline

std::vector<DayLog> crafted_days() {
  // day 0: objects {0,1,2}; day 1: objects {0,1}; object 2 misses day 1.
  DayLog d0{0, {{0, 0, 10}, {0, 1, 20}, {1, 2, 30}, {1, 0, 10}}};
  DayLog d1{1, {{0, 0, 10}, {2, 1, 22}, {0, 1, 18}}};
  return {d0, d1};
}

TEST(Pipeline, ObjectsInAllDays) {
  const auto objects = objects_in_all_days(crafted_days());
  EXPECT_EQ(objects, (std::vector<ObjectId>{0, 1}));
}

TEST(Pipeline, ObjectsInAllDaysEmptyInput) {
  EXPECT_TRUE(objects_in_all_days({}).empty());
}

TEST(Pipeline, TopClientsByVolumeWithTieBreak) {
  // client 0: 5 requests, client 1: 2, client 2: 1
  const auto days = crafted_days();
  EXPECT_EQ(top_clients(days, 1), (std::vector<ClientId>{0}));
  EXPECT_EQ(top_clients(days, 2), (std::vector<ClientId>{0, 1}));
  EXPECT_EQ(top_clients(days, 10), (std::vector<ClientId>{0, 1, 2}));
}

TEST(Pipeline, MappingRespectsFanoutBounds) {
  PipelineConfig cfg;
  cfg.servers = 10;
  cfg.min_fanout = 2;
  cfg.max_fanout = 4;
  cfg.seed = 3;
  const std::vector<ClientId> clients{1, 2, 3, 4, 5};
  const auto mapping = map_clients_to_servers(clients, cfg);
  ASSERT_EQ(mapping.size(), clients.size());
  for (const auto& servers : mapping) {
    EXPECT_GE(servers.size(), 2u);
    EXPECT_LE(servers.size(), 4u);
    std::set<std::uint32_t> unique(servers.begin(), servers.end());
    EXPECT_EQ(unique.size(), servers.size());  // distinct servers
    for (auto s : servers) EXPECT_LT(s, 10u);
  }
}

TEST(Pipeline, MappingInvalidConfigThrows) {
  PipelineConfig cfg;
  cfg.servers = 0;
  EXPECT_THROW(map_clients_to_servers({1}, cfg), std::invalid_argument);
  cfg.servers = 4;
  cfg.min_fanout = 3;
  cfg.max_fanout = 2;
  EXPECT_THROW(map_clients_to_servers({1}, cfg), std::invalid_argument);
}

TEST(Pipeline, RunPipelinePreservesDemandVolume) {
  PipelineConfig cfg;
  cfg.servers = 6;
  cfg.top_clients = 10;
  cfg.min_fanout = 1;
  cfg.max_fanout = 2;
  cfg.seed = 8;
  const Workload wl = run_pipeline(crafted_days(), cfg);

  // Objects 0 and 1 survive; object 2 (absent on day 1) is dropped.
  ASSERT_EQ(wl.object_count(), 2u);
  EXPECT_EQ(wl.object_ids, (std::vector<ObjectId>{0, 1}));

  // Total surviving requests: all records touching objects 0/1 = 6.
  EXPECT_EQ(wl.total_requests, 6u);

  // Per-object demand conservation across the client->server split:
  // object 0 has 3 requests, object 1 has 3.
  for (std::size_t k = 0; k < 2; ++k) {
    std::uint64_t reads = 0;
    for (const auto& row : wl.reads[k]) {
      reads += row.reads;
      EXPECT_LT(row.server, 6u);
    }
    EXPECT_EQ(reads, 3u) << "object " << k;
  }
}

TEST(Pipeline, SizeStatistics) {
  PipelineConfig cfg;
  cfg.servers = 4;
  cfg.seed = 9;
  const Workload wl = run_pipeline(crafted_days(), cfg);
  // Object 0 delivered units: 10, 10, 10 -> mean 10, variance 0.
  EXPECT_EQ(wl.object_units[0], 10u);
  EXPECT_EQ(wl.size_variance[0], 0.0);
  // Object 1 delivered units: 20, 22, 18 -> mean 20, variance 4.
  EXPECT_EQ(wl.object_units[1], 20u);
  EXPECT_NEAR(wl.size_variance[1], 4.0, 1e-9);
}

TEST(Pipeline, DeterministicInSeed) {
  PipelineConfig cfg;
  cfg.servers = 8;
  cfg.seed = 10;
  const Workload a = run_pipeline(crafted_days(), cfg);
  const Workload b = run_pipeline(crafted_days(), cfg);
  ASSERT_EQ(a.object_count(), b.object_count());
  for (std::size_t k = 0; k < a.object_count(); ++k) {
    ASSERT_EQ(a.reads[k].size(), b.reads[k].size());
    for (std::size_t r = 0; r < a.reads[k].size(); ++r) {
      EXPECT_EQ(a.reads[k][r].server, b.reads[k][r].server);
      EXPECT_EQ(a.reads[k][r].reads, b.reads[k][r].reads);
    }
  }
}

TEST(Pipeline, EndToEndWithGeneratedTrace) {
  auto cfg = tiny_config();
  const auto days = generate_worldcup_trace(cfg);
  PipelineConfig pipe;
  pipe.servers = 12;
  pipe.top_clients = 10;
  pipe.seed = 5;
  const Workload wl = run_pipeline(days, pipe);
  // The guaranteed core survives the present-in-all-days filter.
  EXPECT_GE(wl.object_count(), cfg.core_objects);
  EXPECT_GT(wl.total_requests, 0u);
  for (std::size_t k = 0; k < wl.object_count(); ++k) {
    EXPECT_GE(wl.object_units[k], 1u);
    for (const auto& row : wl.reads[k]) EXPECT_LT(row.server, 12u);
  }
}


// ------------------------------------------------- legacy pipeline oracle

// The node-hashing pipeline run_pipeline replaced, kept verbatim as a
// differential oracle: the flat pipeline must reproduce it byte for byte,
// remainder coins included.

std::vector<ObjectId> legacy_objects_in_all_days(
    const std::vector<DayLog>& days) {
  if (days.empty()) return {};
  std::unordered_map<ObjectId, std::uint32_t> day_presence;
  for (const DayLog& day : days) {
    std::unordered_set<ObjectId> seen_today;
    for (const Request& r : day.requests) seen_today.insert(r.object);
    for (ObjectId o : seen_today) ++day_presence[o];
  }
  std::vector<ObjectId> result;
  for (const auto& [object, count] : day_presence) {
    if (count == days.size()) result.push_back(object);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<ClientId> legacy_top_clients(const std::vector<DayLog>& days,
                                         std::uint32_t k) {
  std::unordered_map<ClientId, std::uint64_t> totals;
  for (const DayLog& day : days) {
    for (const Request& r : day.requests) ++totals[r.client];
  }
  std::vector<std::pair<ClientId, std::uint64_t>> ranked(totals.begin(),
                                                         totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > k) ranked.resize(k);
  std::vector<ClientId> result;
  result.reserve(ranked.size());
  for (const auto& [client, count] : ranked) result.push_back(client);
  std::sort(result.begin(), result.end());
  return result;
}

Workload legacy_run_pipeline(const std::vector<DayLog>& days,
                             const PipelineConfig& cfg) {
  using agtram::common::Rng;
  Workload out;
  if (days.empty()) return out;

  // 1. Objects present in every day log, compacted to dense indices.
  out.object_ids = legacy_objects_in_all_days(days);
  std::unordered_map<ObjectId, std::uint32_t> object_index;
  object_index.reserve(out.object_ids.size());
  for (std::uint32_t k = 0; k < out.object_ids.size(); ++k) {
    object_index.emplace(out.object_ids[k], k);
  }

  // 2. Top-K clients, compacted likewise.
  const std::vector<ClientId> clients =
      legacy_top_clients(days, cfg.top_clients);
  std::unordered_map<ClientId, std::uint32_t> client_index;
  client_index.reserve(clients.size());
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    client_index.emplace(clients[c], c);
  }

  // 3. Per-object delivered-size statistics (Welford) and per
  //    (client, object) request counts over the surviving records.
  const std::size_t n = out.object_ids.size();
  std::vector<std::uint64_t> size_count(n, 0);
  std::vector<double> size_mean(n, 0.0), size_m2(n, 0.0);
  // Sparse (client, object) counts: flat key c * n + k.
  std::unordered_map<std::uint64_t, std::uint64_t> demand;
  for (const DayLog& day : days) {
    for (const Request& r : day.requests) {
      const auto oit = object_index.find(r.object);
      if (oit == object_index.end()) continue;
      const std::uint32_t k = oit->second;
      ++size_count[k];
      const double delta = static_cast<double>(r.units) - size_mean[k];
      size_mean[k] += delta / static_cast<double>(size_count[k]);
      size_m2[k] += delta * (static_cast<double>(r.units) - size_mean[k]);

      const auto cit = client_index.find(r.client);
      if (cit == client_index.end()) continue;
      ++demand[static_cast<std::uint64_t>(cit->second) * n + k];
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

  // 4. Client -> servers (1-to-many) mapping, then spread each client's
  //    per-object demand across its servers as evenly as possible, with the
  //    remainder assigned pseudo-randomly (deterministic in the seed).
  const auto mapping = map_clients_to_servers(clients, cfg);
  std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> per_object(n);
  Rng rng(cfg.seed ^ 0xabcdef1234567890ULL);
  for (const auto& [key, count] : demand) {
    const auto c = static_cast<std::uint32_t>(key / n);
    const auto k = static_cast<std::uint32_t>(key % n);
    const auto& servers = mapping[c];
    const std::uint64_t base = count / servers.size();
    std::uint64_t remainder = count % servers.size();
    for (std::uint32_t s : servers) {
      std::uint64_t share = base;
      if (remainder > 0 && rng.chance(0.5)) {
        ++share;
        --remainder;
      }
      if (share > 0) per_object[k][s] += share;
    }
    // Any leftover goes to the client's first server.
    if (remainder > 0) per_object[k][servers.front()] += remainder;
  }

  out.reads.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    auto& rows = out.reads[k];
    rows.reserve(per_object[k].size());
    for (const auto& [server, reads] : per_object[k]) {
      rows.push_back(ServerReads{server, reads});
    }
    std::sort(rows.begin(), rows.end(),
              [](const ServerReads& a, const ServerReads& b) {
                return a.server < b.server;
              });
  }
  return out;
}

void expect_identical(const Workload& got, const Workload& want) {
  EXPECT_EQ(got.object_ids, want.object_ids);
  EXPECT_EQ(got.object_units, want.object_units);
  ASSERT_EQ(got.size_variance.size(), want.size_variance.size());
  for (std::size_t k = 0; k < got.size_variance.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.size_variance[k]),
              std::bit_cast<std::uint64_t>(want.size_variance[k]))
        << "object " << k;
  }
  ASSERT_EQ(got.reads.size(), want.reads.size());
  for (std::size_t k = 0; k < got.reads.size(); ++k) {
    ASSERT_EQ(got.reads[k].size(), want.reads[k].size()) << "object " << k;
    for (std::size_t r = 0; r < got.reads[k].size(); ++r) {
      EXPECT_EQ(got.reads[k][r].server, want.reads[k][r].server);
      EXPECT_EQ(got.reads[k][r].reads, want.reads[k][r].reads);
    }
  }
  EXPECT_EQ(got.total_requests, want.total_requests);
}

void expect_matches_legacy(const std::vector<DayLog>& days,
                           const PipelineConfig& cfg) {
  EXPECT_EQ(objects_in_all_days(days), legacy_objects_in_all_days(days));
  EXPECT_EQ(top_clients(days, cfg.top_clients),
            legacy_top_clients(days, cfg.top_clients));
  expect_identical(run_pipeline(days, cfg), legacy_run_pipeline(days, cfg));
}

WorldCupConfig oracle_trace_config() {
  WorldCupConfig cfg;
  cfg.days = 4;
  cfg.object_universe = 400;
  cfg.core_objects = 150;
  cfg.clients = 60;
  cfg.requests_per_day = 12000;
  cfg.seed = 31;
  return cfg;
}

PipelineConfig oracle_pipeline_config() {
  PipelineConfig cfg;
  cfg.servers = 40;
  cfg.top_clients = 25;
  cfg.min_fanout = 1;
  cfg.max_fanout = 4;
  cfg.seed = 17;
  return cfg;
}

TEST(PipelineOracle, FanoutOneToFour) {
  const auto days = generate_worldcup_trace(oracle_trace_config());
  for (std::uint32_t lo = 1; lo <= 4; ++lo) {
    for (std::uint32_t hi = lo; hi <= 4; ++hi) {
      PipelineConfig cfg = oracle_pipeline_config();
      cfg.min_fanout = lo;
      cfg.max_fanout = hi;
      SCOPED_TRACE("fanout " + std::to_string(lo) + ".." + std::to_string(hi));
      expect_matches_legacy(days, cfg);
    }
  }
}

TEST(PipelineOracle, TopClientsBelowAndAboveClientCount) {
  const auto days = generate_worldcup_trace(oracle_trace_config());
  for (const std::uint32_t top : {0u, 1u, 25u, 59u, 60u, 61u, 500u}) {
    PipelineConfig cfg = oracle_pipeline_config();
    cfg.top_clients = top;
    SCOPED_TRACE("top_clients " + std::to_string(top));
    expect_matches_legacy(days, cfg);
  }
}

TEST(PipelineOracle, SparseThirtyTwoBitIds) {
  // IP-like client ids and object ids crowding the top of the u32 range
  // (both extremes included), remapped injectively from a generated trace.
  auto days = generate_worldcup_trace(oracle_trace_config());
  for (DayLog& day : days) {
    for (Request& r : day.requests) {
      r.client = r.client == 0 ? 0xffffffffu
                               : 0xc0a80000u + r.client * 0x01000193u;
      r.object = r.object == 1 ? 0u : 0xffffffffu - r.object * 3u;
    }
  }
  for (const std::uint32_t top : {10u, 1000u}) {
    PipelineConfig cfg = oracle_pipeline_config();
    cfg.top_clients = top;
    SCOPED_TRACE("top_clients " + std::to_string(top));
    expect_matches_legacy(days, cfg);
  }
}

TEST(PipelineOracle, DailyFlux) {
  WorldCupConfig trace = oracle_trace_config();
  trace.daily_flux = 0.4;
  trace.core_objects = 40;
  const auto days = generate_worldcup_trace(trace);
  expect_matches_legacy(days, oracle_pipeline_config());
}

TEST(PipelineOracle, DayMissingACoreObject) {
  auto days = generate_worldcup_trace(oracle_trace_config());
  auto& reqs = days[2].requests;
  reqs.erase(std::remove_if(reqs.begin(), reqs.end(),
                            [](const Request& r) { return r.object == 3; }),
             reqs.end());
  expect_matches_legacy(days, oracle_pipeline_config());
  const std::vector<ObjectId> kept = objects_in_all_days(days);
  EXPECT_EQ(std::count(kept.begin(), kept.end(), 3u), 0);
  EXPECT_EQ(std::count(kept.begin(), kept.end(), 2u), 1);
}

TEST(PipelineOracle, SingleDay) {
  WorldCupConfig trace = oracle_trace_config();
  trace.days = 1;
  const auto days = generate_worldcup_trace(trace);
  expect_matches_legacy(days, oracle_pipeline_config());
}

TEST(PipelineOracle, EmptyDayVector) {
  expect_matches_legacy({}, oracle_pipeline_config());
  // An empty day log inside the vector leaves no object in every day.
  auto days = generate_worldcup_trace(oracle_trace_config());
  days.push_back(DayLog{9, {}});
  expect_matches_legacy(days, oracle_pipeline_config());
}

TEST(PipelineOracle, ManyPairsAcrossRehashes) {
  // Enough distinct (client, object) pairs to push the oracle's demand map
  // through many rehashes, with heavy remainders (fanout 4, few requests).
  WorldCupConfig trace = oracle_trace_config();
  trace.object_universe = 3000;
  trace.core_objects = 2000;
  trace.clients = 300;
  trace.requests_per_day = 40000;
  trace.popularity_exponent = 0.7;
  const auto days = generate_worldcup_trace(trace);
  PipelineConfig cfg = oracle_pipeline_config();
  cfg.servers = 500;
  cfg.top_clients = 250;
  expect_matches_legacy(days, cfg);
}

}  // namespace
