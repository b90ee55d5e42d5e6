// All-pairs shortest-path metric closure c(i,j) and the one Dijkstra engine
// every distance in the system comes from.
//
// The DRP cost model (paper Equations 1-4) is defined over path costs, not
// links: "if the two servers are not directly connected ... the cost is given
// by the sum of the costs of all the links in a chosen path".  We
// materialise the full M x M matrix once (thread-parallel Dijkstra from each
// source) and share it read-only across every algorithm; at the paper's
// M = 3718 this is ~55 MB.
//
// The engine (dijkstra_into) runs over a frozen CSR Adjacency with a
// monotone radix heap kept in a reusable DijkstraWorkspace, and writes each
// source's distances straight into a caller-owned row.  The closure, the
// regional tiles (tiled_distances.hpp) and the sampled clustering
// (clustering.hpp) all call it.  Shortest-path distances do not depend on
// the queue, so every row equals a binary-heap Dijkstra's bit for bit.
//
// Overflow contract: path costs are summed in 64 bits, and a node that is
// reachable but whose shortest distance is >= kUnreachable (2^32 - 1) is an
// overflow, never a silently wrapped value.  Callers surface it as
// std::overflow_error.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/graph.hpp"

namespace agtram::net {

inline constexpr Cost kUnreachable = std::numeric_limits<Cost>::max();

/// Frozen CSR adjacency: node u's edges are edges[offsets[u], offsets[u+1]).
struct Adjacency {
  std::vector<std::size_t> offsets{0};
  std::vector<Edge> edges;

  /// The whole graph, neighbour order preserved.
  explicit Adjacency(const Graph& graph);

  /// The subgraph induced by one part of a partition: `members` are the
  /// nodes v with part[v] == part[members[0]], ascending, and local[v] is
  /// v's index in `members` (only read for those nodes).  Node i of the
  /// result is members[i].
  Adjacency(const Graph& graph, std::span<const NodeId> members,
            std::span<const std::uint32_t> part,
            std::span<const std::uint32_t> local);

  std::size_t node_count() const noexcept { return offsets.size() - 1; }
};

/// Reusable per-thread state of dijkstra_into: the radix heap's buckets
/// keep their capacity between runs, so a warm workspace never allocates.
class DijkstraWorkspace {
 private:
  friend bool dijkstra_into(const Adjacency&, NodeId, std::span<Cost>,
                            DijkstraWorkspace&);
  struct Entry {
    Cost key;
    NodeId node;
  };
  /// Bucket b holds keys whose highest bit differing from the last popped
  /// key is bit b - 1 (bucket 0: keys equal to it).
  std::array<std::vector<Entry>, 33> buckets_;
};

/// Single-source Dijkstra over `adjacency`, writing the distance of every
/// node into `dist` (size adjacency.node_count(); kUnreachable when not
/// reachable).  Returns false when a reachable node's distance overflows
/// (is >= kUnreachable); `dist` is then unspecified.
bool dijkstra_into(const Adjacency& adjacency, NodeId source,
                   std::span<Cost> dist, DijkstraWorkspace& workspace);

/// Runs body(i, workspace) for every i in [0, count) on the shared thread
/// pool, each worker with its own workspace.  Workers claim the next index
/// from one counter, so items of uneven cost balance dynamically, where
/// parallel_for's static chunks would leave a large region's sources to one
/// worker.  `body` must not throw: record failures and throw after the call.
template <typename Body>
void for_each_claimed(std::size_t count, const Body& body) {
  auto& pool = common::ThreadPool::shared();
  std::atomic<std::size_t> next{0};
  pool.parallel_for(
      0, pool.thread_count(),
      [&](std::size_t, std::size_t) {
        DijkstraWorkspace workspace;
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
          body(i, workspace);
        }
      },
      1);
}

/// Convenience wrapper: distances from `source` as a fresh vector.  Throws
/// std::overflow_error on an overflowing path cost.
std::vector<Cost> dijkstra(const Graph& graph, NodeId source);

/// Immutable, row-major M x M distance matrix.
class DistanceMatrix {
 public:
  /// Computes the metric closure of `graph`, running sources in parallel on
  /// the shared thread pool.  Throws std::overflow_error if a shortest path
  /// costs kUnreachable or more, std::runtime_error if the graph is
  /// disconnected.
  static DistanceMatrix compute(const Graph& graph);

  /// Builds directly from a row-major matrix (tests, hand-made instances,
  /// regional tiles).  Validates symmetry and a zero diagonal, walking the
  /// symmetry check in cache-sized tiles.
  static DistanceMatrix from_rows(std::size_t nodes, std::vector<Cost> rows);

  std::size_t node_count() const noexcept { return nodes_; }

  Cost operator()(NodeId a, NodeId b) const {
    return data_[static_cast<std::size_t>(a) * nodes_ + b];
  }

  /// Row `a` as a contiguous span: row(a)[b] == (*this)(a, b).  The matrix
  /// is symmetric, so hot loops that scan distances to a fixed node `a`
  /// should walk row(a) sequentially instead of striding down column `a`.
  std::span<const Cost> row(NodeId a) const {
    return {data_.data() + static_cast<std::size_t>(a) * nodes_, nodes_};
  }

  /// Largest pairwise distance (network diameter in cost units).  Cached at
  /// construction: both factories derive it from per-row partials folded
  /// into the pass that already visits every entry.
  Cost diameter() const noexcept { return diameter_; }

  /// Mean pairwise distance over distinct pairs, cached like diameter().
  /// Pairwise sums are exact in uint64, so the cached value equals the
  /// historical on-demand upper-triangle accumulation.
  double mean_distance() const noexcept { return mean_distance_; }

 private:
  DistanceMatrix(std::size_t nodes, std::vector<Cost> data, Cost diameter,
                 double mean_distance)
      : nodes_(nodes),
        data_(std::move(data)),
        diameter_(diameter),
        mean_distance_(mean_distance) {}

  std::size_t nodes_;
  std::vector<Cost> data_;
  Cost diameter_ = 0;
  double mean_distance_ = 0.0;
};

using DistanceMatrixPtr = std::shared_ptr<const DistanceMatrix>;

}  // namespace agtram::net
