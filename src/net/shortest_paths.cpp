#include "net/shortest_paths.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace agtram::net {

Adjacency::Adjacency(const Graph& graph) {
  const std::size_t n = graph.node_count();
  offsets.reserve(n + 1);
  edges.reserve(2 * graph.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const Edge> adj = graph.neighbors(u);
    edges.insert(edges.end(), adj.begin(), adj.end());
    offsets.push_back(edges.size());
  }
}

Adjacency::Adjacency(const Graph& graph, std::span<const NodeId> members,
                     std::span<const std::uint32_t> part,
                     std::span<const std::uint32_t> local) {
  offsets.reserve(members.size() + 1);
  const std::uint32_t own = members.empty() ? 0 : part[members.front()];
  for (const NodeId node : members) {
    for (const Edge& e : graph.neighbors(node)) {
      if (part[e.to] == own) edges.push_back(Edge{local[e.to], e.cost});
    }
    offsets.push_back(edges.size());
  }
}

bool dijkstra_into(const Adjacency& adjacency, NodeId source,
                   std::span<Cost> dist, DijkstraWorkspace& workspace) {
  using Entry = DijkstraWorkspace::Entry;
  auto& buckets = workspace.buckets_;
  for (auto& bucket : buckets) bucket.clear();
  std::fill(dist.begin(), dist.end(), kUnreachable);

  // Monotone radix heap: every key pushed is >= the last popped key, so a
  // key lives in the bucket of the highest bit where it differs from it.
  Cost last = 0;
  bool overflow_seen = false;
  dist[source] = 0;
  buckets[0].push_back(Entry{0, source});
  for (;;) {
    if (buckets[0].empty()) {
      std::size_t b = 1;
      while (b < buckets.size() && buckets[b].empty()) ++b;
      if (b == buckets.size()) break;
      // Refill bucket 0: the smallest live key in bucket b becomes `last`,
      // and every live entry of b moves to a strictly lower bucket.
      std::vector<Entry>& spill = buckets[b];
      Cost min_key = kUnreachable;
      for (const Entry& e : spill) {
        if (e.key == dist[e.node]) min_key = std::min(min_key, e.key);
      }
      if (min_key != kUnreachable) {
        last = min_key;
        for (const Entry& e : spill) {
          if (e.key == dist[e.node]) {
            buckets[std::bit_width(e.key ^ last)].push_back(e);
          }
        }
      }
      spill.clear();
      continue;
    }
    const Entry top = buckets[0].back();
    buckets[0].pop_back();
    if (top.key != dist[top.node]) continue;  // stale entry
    const std::size_t end = adjacency.offsets[top.node + 1];
    for (std::size_t i = adjacency.offsets[top.node]; i < end; ++i) {
      const Edge& e = adjacency.edges[i];
      const std::uint64_t candidate =
          static_cast<std::uint64_t>(top.key) + e.cost;
      if (candidate >= kUnreachable) {
        overflow_seen = true;
        continue;
      }
      if (candidate < dist[e.to]) {
        const Cost key = static_cast<Cost>(candidate);
        dist[e.to] = key;
        buckets[std::bit_width(key ^ last)].push_back(Entry{key, e.to});
      }
    }
  }
  if (!overflow_seen) return true;
  // Some relaxation ran past the Cost range.  It is an overflow only if it
  // was the sole way to reach a node: an unreached node next to a reached
  // one.
  for (NodeId u = 0; u < dist.size(); ++u) {
    if (dist[u] != kUnreachable) continue;
    for (std::size_t i = adjacency.offsets[u]; i < adjacency.offsets[u + 1];
         ++i) {
      if (dist[adjacency.edges[i].to] != kUnreachable) return false;
    }
  }
  return true;
}

std::vector<Cost> dijkstra(const Graph& graph, NodeId source) {
  std::vector<Cost> dist(graph.node_count());
  DijkstraWorkspace workspace;
  if (!dijkstra_into(Adjacency(graph), source, dist, workspace)) {
    throw std::overflow_error("dijkstra: path cost exceeds the Cost range");
  }
  return dist;
}

namespace {

/// Mean over distinct pairs from the full-matrix entry sum.  The matrix is
/// symmetric with a zero diagonal, so the upper-triangle sum is half the
/// total; integer sums are exact, matching a direct double accumulation of
/// the triangle for any realistic matrix (triangle sums below 2^53).
double mean_from_total(std::size_t nodes, std::uint64_t total) {
  if (nodes < 2) return 0.0;
  const double pairs =
      static_cast<double>(nodes) * static_cast<double>(nodes - 1) / 2.0;
  return static_cast<double>(total / 2) / pairs;
}

}  // namespace

DistanceMatrix DistanceMatrix::compute(const Graph& graph) {
  const std::size_t n = graph.node_count();
  const Adjacency adjacency(graph);
  std::vector<Cost> data(n * n);
  // Per-row partials folded into the fill pass: each source's Dijkstra row
  // is scanned once, right after it is written, for reachability plus the
  // row's max and sum — the former O(n^2) serial validation sweep and the
  // separate diameter()/mean_distance() walks disappear into this loop.
  std::vector<Cost> row_max(n, 0);
  std::vector<std::uint64_t> row_sum(n, 0);
  std::atomic<bool> disconnected{false};
  std::atomic<bool> overflow{false};
  for_each_claimed(n, [&](std::size_t src, DijkstraWorkspace& workspace) {
    const std::span<Cost> row(data.data() + src * n, n);
    if (!dijkstra_into(adjacency, static_cast<NodeId>(src), row, workspace)) {
      overflow.store(true, std::memory_order_relaxed);
    }
    Cost max = 0;
    std::uint64_t sum = 0;
    for (const Cost c : row) {
      max = std::max(max, c);
      sum += c;
    }
    row_max[src] = max;
    row_sum[src] = sum;
    if (max == kUnreachable) {
      disconnected.store(true, std::memory_order_relaxed);
    }
  });
  if (overflow.load(std::memory_order_relaxed)) {
    throw std::overflow_error(
        "DistanceMatrix::compute: path cost exceeds the Cost range");
  }
  if (disconnected.load(std::memory_order_relaxed)) {
    throw std::runtime_error("DistanceMatrix::compute: graph is disconnected");
  }
  Cost diameter = 0;
  std::uint64_t total = 0;
  for (std::size_t src = 0; src < n; ++src) {
    diameter = std::max(diameter, row_max[src]);
    total += row_sum[src];
  }
  return DistanceMatrix(n, std::move(data), diameter,
                        mean_from_total(n, total));
}

DistanceMatrix DistanceMatrix::from_rows(std::size_t nodes,
                                         std::vector<Cost> rows) {
  if (rows.size() != nodes * nodes) {
    throw std::invalid_argument("from_rows: size mismatch");
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    if (rows[i * nodes + i] != 0) {
      throw std::invalid_argument("from_rows: non-zero diagonal");
    }
  }
  // Symmetry in kTile x kTile tiles: tile (I, J) of the upper triangle is
  // compared against its mirror (J, I), both of which stay in cache, instead
  // of striding down a whole column per row.  With a zero diagonal and
  // symmetry, the upper triangle alone gives the diameter, and twice its sum
  // is the full-matrix total.
  constexpr std::size_t kTile = 64;
  Cost diameter = 0;
  std::uint64_t upper = 0;
  for (std::size_t ti = 0; ti < nodes; ti += kTile) {
    const std::size_t i_end = std::min(nodes, ti + kTile);
    for (std::size_t tj = ti; tj < nodes; tj += kTile) {
      const std::size_t j_end = std::min(nodes, tj + kTile);
      for (std::size_t i = ti; i < i_end; ++i) {
        const Cost* row = rows.data() + i * nodes;
        for (std::size_t j = std::max(tj, i + 1); j < j_end; ++j) {
          const Cost c = row[j];
          if (c != rows[j * nodes + i]) {
            throw std::invalid_argument("from_rows: asymmetric matrix");
          }
          diameter = std::max(diameter, c);
          upper += c;
        }
      }
    }
  }
  return DistanceMatrix(nodes, std::move(rows), diameter,
                        mean_from_total(nodes, 2 * upper));
}

}  // namespace agtram::net
