#include "net/tiled_distances.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace agtram::net {

namespace {

/// Path cost through the region centre, saturating at kUnreachable.
Cost routed_via_centre(Cost to_centre_a, Cost to_centre_b) {
  if (to_centre_a == kUnreachable || to_centre_b == kUnreachable) {
    return kUnreachable;
  }
  const std::uint64_t sum = static_cast<std::uint64_t>(to_centre_a) +
                            static_cast<std::uint64_t>(to_centre_b);
  return sum >= kUnreachable ? kUnreachable : static_cast<Cost>(sum);
}

}  // namespace

std::uint64_t TiledDistances::estimate_bytes(const Clustering& clustering) {
  const std::size_t n = clustering.assignment.size();
  const std::size_t k = clustering.region_count();
  std::vector<std::uint64_t> counts(k, 0);
  for (const std::uint32_t region : clustering.assignment) counts[region] += 1;
  std::uint64_t bytes = 0;
  for (const std::uint64_t n_r : counts) {
    const std::uint64_t side = n_r + k;
    bytes += side * side * sizeof(Cost);
  }
  bytes += static_cast<std::uint64_t>(k) * n * sizeof(Cost);
  return bytes;
}

TiledDistances TiledDistances::build(const Graph& graph,
                                     const Clustering& clustering) {
  const std::size_t k = clustering.region_count();
  const std::span<const std::uint32_t> part = clustering.assignment;
  TiledDistances tiles;
  tiles.members_.resize(k);
  tiles.blocks_.resize(k);
  tiles.strips_.resize(k);
  // local[v]: v's block-local id, its index among its region's members;
  // pairs: every member as (region, local id).
  std::vector<std::uint32_t> local(part.size());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(part.size());
  for (NodeId node = 0; node < part.size(); ++node) {
    local[node] = static_cast<std::uint32_t>(tiles.members_[part[node]].size());
    pairs.emplace_back(part[node], local[node]);
    tiles.members_[part[node]].push_back(node);
  }
  // Workers never throw: an overflow is a flag, thrown after the join.
  std::atomic<bool> overflow{false};

  const Adjacency full(graph);
  for_each_claimed(k, [&](std::size_t r, DijkstraWorkspace& workspace) {
    tiles.strips_[r].resize(graph.node_count());
    if (!dijkstra_into(full, clustering.medoids[r], tiles.strips_[r],
                       workspace)) {
      overflow.store(true, std::memory_order_relaxed);
    }
  });

  // Per region: the induced subgraph as CSR, the block rows, and the gateway
  // rows, which come straight from the strips.
  std::vector<Adjacency> subgraphs;
  subgraphs.reserve(k);
  for (std::size_t r = 0; r < k; ++r) {
    subgraphs.emplace_back(graph, tiles.members_[r], part, local);
  }
  std::vector<std::vector<Cost>> rows(k);
  for_each_claimed(k, [&](std::size_t r, DijkstraWorkspace&) {
    const std::vector<NodeId>& mem = tiles.members_[r];
    const std::size_t n = mem.size();
    const std::size_t side = n + k;
    rows[r].resize(side * side);
    for (std::uint32_t q = 0; q < k; ++q) {
      Cost* row = rows[r].data() + (n + q) * side;
      const std::span<const Cost> strip = tiles.strips_[q];
      for (std::uint32_t lb = 0; lb < n; ++lb) row[lb] = strip[mem[lb]];
      for (std::uint32_t p = 0; p < k; ++p) {
        row[n + p] = strip[clustering.medoids[p]];
      }
    }
  });

  // Member rows: one flat pass over every (region, member) pair, so a large
  // region spreads over all workers instead of straggling as one task.
  for_each_claimed(pairs.size(), [&](std::size_t i,
                                     DijkstraWorkspace& workspace) {
    const auto [r, la] = pairs[i];
    const std::vector<NodeId>& mem = tiles.members_[r];
    const std::size_t n = mem.size();
    const std::span<const Cost> own = tiles.strips_[r];
    const NodeId ga = mem[la];
    Cost* row = rows[r].data() + la * (n + k);
    if (!dijkstra_into(subgraphs[r], la, {row, n}, workspace)) {
      overflow.store(true, std::memory_order_relaxed);
    }
    for (std::uint32_t lb = 0; lb < n; ++lb) {
      row[lb] = std::min(row[lb], routed_via_centre(own[ga], own[mem[lb]]));
    }
    for (std::uint32_t q = 0; q < k; ++q) row[n + q] = tiles.strips_[q][ga];
  });
  if (overflow.load(std::memory_order_relaxed)) {
    throw std::overflow_error(
        "TiledDistances::build: path cost exceeds the Cost range");
  }

  // Blocks are symmetric with a zero diagonal by construction, so from_rows
  // cannot throw here.
  for_each_claimed(k, [&](std::size_t r, DijkstraWorkspace&) {
    const std::size_t side = tiles.members_[r].size() + k;
    tiles.blocks_[r] = std::make_shared<const DistanceMatrix>(
        DistanceMatrix::from_rows(side, std::move(rows[r])));
  });

  tiles.bytes_ = estimate_bytes(clustering);
  return tiles;
}

}  // namespace agtram::net
