// Shared fixtures: tiny hand-constructed DRP instances with known geometry,
// used by the cost-model oracle tests and the mechanism/baseline suites,
// the binary-heap Dijkstra the distance engine is checked against, and the
// replicator-set digest the baseline goldens pin.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "drp/access_matrix.hpp"
#include "drp/builder.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"
#include "net/shortest_paths.hpp"

namespace agtram::testutil {

/// Reference single-source Dijkstra: a std::priority_queue binary heap over
/// the Graph's own adjacency, summing in Cost.  The engine must reproduce
/// its rows byte for byte wherever no path cost overflows.
inline std::vector<net::Cost> reference_dijkstra(const net::Graph& graph,
                                                 net::NodeId source) {
  using net::Cost;
  using net::NodeId;
  std::vector<Cost> dist(graph.node_count(), net::kUnreachable);
  using Item = std::pair<Cost, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;  // stale entry
    for (const net::Edge& e : graph.neighbors(u)) {
      const Cost candidate = d + e.cost;
      if (candidate < dist[e.to]) {
        dist[e.to] = candidate;
        heap.emplace(candidate, e.to);
      }
    }
  }
  return dist;
}

/// A 3-server line topology:  S0 --1-- S1 --2-- S2   (c(0,2) = 3)
/// with 2 objects:
///   O0: size 2, primary S0;  reads: S1=10, S2=4;   writes: S1=1
///   O1: size 3, primary S2;  reads: S0=6;          writes: S0=2, S1=1
/// and per-server capacities {10, 10, 10}.
inline drp::Problem line3_problem() {
  drp::Problem p;
  p.distances = std::make_shared<const net::DistanceMatrix>(
      net::DistanceMatrix::from_rows(3, {0, 1, 3,   //
                                         1, 0, 2,   //
                                         3, 2, 0}));
  p.object_units = {2, 3};
  p.primary = {0, 2};
  p.capacity = {10, 10, 10};
  std::vector<std::vector<drp::Access>> rows(2);
  rows[0] = {{1, 10, 1}, {2, 4, 0}};
  rows[1] = {{0, 6, 2}, {1, 0, 1}};
  p.access = drp::AccessMatrix::build(3, 2, std::move(rows));
  p.validate();
  return p;
}

/// Same geometry but with tight capacities so that placement order matters.
inline drp::Problem line3_tight_problem() {
  drp::Problem p = line3_problem();
  p.capacity = {5, 3, 4};
  p.validate();
  return p;
}

/// A moderately sized generated instance for property tests.
inline drp::Problem small_instance(std::uint64_t seed = 11,
                                   std::uint32_t servers = 16,
                                   std::uint32_t objects = 40,
                                   double capacity = 0.05,
                                   double rw = 0.9) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.instance.capacity_fraction = capacity;
  spec.instance.rw_ratio = rw;
  return drp::make_instance(spec);
}

/// FNV-1a (64-bit) over every object's replicator set in object order:
/// each set contributes its size, then its server ids, each as four
/// little-endian bytes.  Equal digests mean equal placements for golden
/// purposes.
inline std::uint64_t replicator_digest(const drp::ReplicaPlacement& placement) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (drp::ObjectIndex k = 0; k < placement.problem().object_count(); ++k) {
    const auto reps = placement.replicators(k);
    mix(static_cast<std::uint32_t>(reps.size()));
    for (const drp::ServerId s : reps) mix(s);
  }
  return hash;
}

}  // namespace agtram::testutil
