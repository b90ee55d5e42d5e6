// Local search over replication schemes — the classical file-allocation
// refinement heuristic (the FAP lineage of the paper's Section 6: Chu 1969,
// Casey 1972, Mahmoud & Riordon 1976 all refine allocations by local
// exchange arguments).
//
// Moves: add a replica, drop a replica, or swap a replica between two
// servers; a move is accepted iff it strictly lowers the global OTC.  The
// search starts from the selfish-caching equilibrium (a good, cheap seed)
// and runs randomised move proposals until a proposal budget is exhausted
// or a full quiet streak proves local optimality.  Proposals are priced
// read-only through drp::DeltaEvaluator; the placement is only mutated on
// acceptance.
#pragma once

#include <cstdint>

#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct LocalSearchConfig {
  std::uint64_t seed = 1;
  /// Total move proposals (the time budget).
  std::size_t max_proposals = 20000;
  /// Stop early after this many consecutive rejected proposals.
  std::size_t quiet_streak = 2000;
};

drp::ReplicaPlacement run_local_search(const drp::Problem& problem,
                                       const LocalSearchConfig& config = {});

}  // namespace agtram::baselines
