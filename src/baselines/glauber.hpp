// Glauber-dynamics placement (Etesami, "Distributed Computation for the
// Non-metric Data Placement Problem using Glauber Dynamics and Auctions",
// arXiv:2210.07461) — the seventh baseline, and the first that genuinely
// runs over runtime::MessageBus rather than a centralized loop.
//
// Protocol: in each sweep every server with demand proposes flipping its
// membership in one randomly drawn object's replica set (add if it has the
// capacity, drop if it is a non-primary replicator).  The server prices the
// flip locally through drp::DeltaEvaluator — O(affected readers), the exact
// cost delta bit for bit — and sends (object, flip, delta) to the
// coordinator, which accepts with the heat-bath probability
//
//   P(accept) = 1 / (1 + exp(delta / T))
//
// under a geometric annealing schedule T_s = T_0 * cooling^s, and answers
// with an accept/reject decision message.  Every proposal and decision is
// accounted on the MessageBus (per-kind wire bytes, bus.glauber_* obs
// counters), so the baseline's convergence traffic is measurable the same
// way the mechanism's report/broadcast traffic is.
//
// Determinism: a single common::Rng stream drawn in (sweep, server id)
// order; identical seeds give identical trajectories.  The chain a
// mutate-measure-undo full re-evaluation walks (bit-identical deltas, hence
// the same accept/reject sequence) is pinned as a golden in
// tests/glauber_test.cpp.
#pragma once

#include <cstdint>

#include "drp/placement.hpp"
#include "drp/problem.hpp"
#include "runtime/message_bus.hpp"

namespace agtram::baselines {

struct GlauberConfig {
  std::uint64_t seed = 1;
  /// Full passes over the servers; each live server proposes once per sweep.
  std::size_t sweeps = 64;
  /// T_0 as a fraction of the primaries-only OTC (auto-scaled, like SA).
  double initial_temperature_fraction = 2e-5;
  /// Geometric cooling applied every sweep.
  double cooling_rate = 0.85;
  /// Optional wire accounting; proposals/decisions are charged per sweep.
  runtime::MessageBus* bus = nullptr;
};

struct GlauberResult {
  drp::ReplicaPlacement placement;
  double final_cost = 0.0;  ///< OTC of `placement` (bit-exact total)
  std::size_t sweeps = 0;
  std::size_t proposals = 0;  ///< evaluated flips (= wire proposals)
  std::size_t accepted = 0;
};

GlauberResult run_glauber(const drp::Problem& problem,
                          const GlauberConfig& config = {});

}  // namespace agtram::baselines
