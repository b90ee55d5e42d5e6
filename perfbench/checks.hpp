// Output checks shared by the benchmark workloads.  Each returns an empty
// string when the output is correct, else a one-line reason.  None of them
// runs inside a timed interval.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "drp/placement.hpp"
#include "drp/problem.hpp"
#include "net/shortest_paths.hpp"
#include "srv/routing_table.hpp"

namespace perfbench {

/// Capacity feasibility, recomputed from the replicator sets rather than
/// the placement's own usage counters; every primary must hold its object.
inline std::string check_feasible(const agtram::drp::ReplicaPlacement& place) {
  const agtram::drp::Problem& p = place.problem();
  std::vector<std::uint64_t> used(p.server_count(), 0);
  for (agtram::drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    bool has_primary = false;
    for (const agtram::drp::ServerId s : place.replicators(k)) {
      if (s >= p.server_count()) return "replicator out of range";
      used[s] += p.object_units[k];
      has_primary = has_primary || s == p.primary[k];
    }
    if (!has_primary) {
      return "object " + std::to_string(k) + " lost its primary";
    }
  }
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i] > p.capacity[i]) {
      return "server " + std::to_string(i) + " over capacity";
    }
  }
  return {};
}

/// Object transfer cost implied by the routing snapshot's per-cell read and
/// write units (the serving plane's own accounting).
inline double snapshot_cost(const agtram::srv::RoutingSnapshot& snap) {
  const agtram::drp::AccessMatrix& access = snap.problem().access;
  double cost = 0.0;
  for (agtram::drp::ObjectIndex k = 0; k < snap.problem().object_count();
       ++k) {
    const auto cells = access.accessors(k);
    for (std::size_t slot = 0; slot < cells.size(); ++slot) {
      const auto s = static_cast<std::uint32_t>(slot);
      cost += static_cast<double>(cells[slot].reads) * snap.read_units(k, s) +
              static_cast<double>(cells[slot].writes) * snap.write_units(k, s);
    }
  }
  return cost;
}

inline bool close_enough(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

/// `samples` random (object, slot) cells of the snapshot against a naive
/// scan over the placement's replicators for the nearest one.
inline std::string check_snapshot_cells(
    const agtram::srv::RoutingSnapshot& snap,
    const agtram::drp::ReplicaPlacement& place, std::size_t samples,
    std::uint64_t seed) {
  const agtram::drp::Problem& p = place.problem();
  const agtram::drp::AccessMatrix& access = p.access;
  const std::size_t nnz = access.nonzeros();
  if (nnz == 0) return {};
  std::mt19937_64 rng(seed);
  for (std::size_t n = 0; n < samples; ++n) {
    // Pick a global cell, then find its object by binary search on bases.
    const std::size_t cell = static_cast<std::size_t>(rng() % nnz);
    std::size_t lo = 0;
    std::size_t hi = p.object_count();
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (access.accessor_base(mid) <= cell) lo = mid; else hi = mid;
    }
    const auto k = static_cast<agtram::drp::ObjectIndex>(lo);
    const auto slot = static_cast<std::uint32_t>(cell - access.accessor_base(k));
    const agtram::drp::ServerId reader = access.accessor_servers(k)[slot];
    agtram::net::Cost best = agtram::net::kUnreachable;
    for (const agtram::drp::ServerId r : place.replicators(k)) {
      best = std::min(best, p.distance(reader, r));
    }
    const agtram::srv::RouteDecision route = snap.route_read(k, slot);
    if (route.distance != best || p.distance(reader, route.server) != best) {
      return "snapshot cell (object " + std::to_string(k) + ", slot " +
             std::to_string(slot) + ") routes at distance " +
             std::to_string(route.distance) + ", nearest replica is at " +
             std::to_string(best);
    }
  }
  return {};
}

/// Field-by-field equality of two problem instances, closure included.
inline std::string check_same_problem(const agtram::drp::Problem& a,
                                      const agtram::drp::Problem& b) {
  if (a.object_units != b.object_units) return "object sizes differ";
  if (a.primary != b.primary) return "primaries differ";
  if (a.capacity != b.capacity) return "capacities differ";
  if (a.access.nonzeros() != b.access.nonzeros()) return "demand cells differ";
  for (agtram::drp::ObjectIndex k = 0; k < a.object_count(); ++k) {
    const auto x = a.access.accessors(k);
    const auto y = b.access.accessors(k);
    if (x.size() != y.size()) return "demand of object differs";
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].server != y[i].server || x[i].reads != y[i].reads ||
          x[i].writes != y[i].writes) {
        return "demand of object " + std::to_string(k) + " differs";
      }
    }
  }
  if (!a.distances || !b.distances) return "missing distances";
  const agtram::net::DistanceMatrix& da = *a.distances;
  const agtram::net::DistanceMatrix& db = *b.distances;
  if (da.node_count() != db.node_count()) return "closure sizes differ";
  for (agtram::net::NodeId i = 0; i < da.node_count(); ++i) {
    const auto ra = da.row(i);
    const auto rb = db.row(i);
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) {
      return "closure row " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// Regional allocations against the distance-free base instance: ids in
/// range, no duplicate or primary allocation, capacity respected.
inline std::string check_allocations(
    const agtram::drp::Problem& base,
    const std::vector<std::pair<agtram::drp::ServerId,
                                agtram::drp::ObjectIndex>>& allocations) {
  std::vector<std::uint64_t> used(base.server_count(), 0);
  for (agtram::drp::ObjectIndex k = 0; k < base.object_count(); ++k) {
    used[base.primary[k]] += base.object_units[k];
  }
  std::set<std::pair<agtram::drp::ServerId, agtram::drp::ObjectIndex>> seen;
  for (const auto& [server, object] : allocations) {
    if (server >= base.server_count() || object >= base.object_count()) {
      return "allocation out of range";
    }
    if (server == base.primary[object]) return "allocation on a primary";
    if (!seen.insert({server, object}).second) return "duplicate allocation";
    used[server] += base.object_units[object];
  }
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i] > base.capacity[i]) {
      return "server " + std::to_string(i) + " over capacity";
    }
  }
  return {};
}

}  // namespace perfbench
