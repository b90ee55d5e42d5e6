// Centralised Greedy replica placement (comparison algorithm of Qiu,
// Padmanabhan & Voelker, INFOCOM 2001 — the paper's strongest conventional
// baseline, itself shown there to beat four other heuristics).
//
// Each step places the single replica with the largest *global* OTC
// reduction (drp::CostModel::global_benefit) anywhere in the system, until
// no placement reduces the cost.  Unlike AGT-RAM it may use servers with no
// demand of their own (hub placement) and it requires global knowledge of
// all demand — that is precisely the centralisation the paper argues
// against; it serves as the solution-quality yardstick.
//
// Implementation: a lazy max-heap keyed by object.  Placing a replica of k
// only changes k's own candidate values (NN distances of k's accessors) and
// the chosen server's free capacity; both changes are monotone decreases,
// so stale heap entries are safely re-validated on pop.  Every candidate
// scan is drp::DeltaEvaluator::best_add_for_object, the loop-swapped row
// walk whose benefits equal CostModel::global_benefit bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct GreedyConfig {
  /// Stop after this many placements (0 = run to exhaustion).
  std::size_t max_replicas = 0;
  /// Optional site mask: replicas may only be placed on servers whose
  /// entry is true (size M; any other size throws std::invalid_argument).
  /// Used e.g. for global-view repair after a regional outage, where the
  /// dead region's servers cannot host.
  const std::vector<bool>* allowed_sites = nullptr;
  /// Parallelise the candidate scans on the shared pool: the initial heap
  /// build fans out over objects, each re-validation scan over servers.
  /// Round-size-aware cutoffs keep small instances inline, so parallel
  /// never loses to serial.  Placements are identical either way.
  bool parallel_scan = true;
};

drp::ReplicaPlacement run_greedy(const drp::Problem& problem,
                                 const GreedyConfig& config = {});

/// Greedy continuation from an existing scheme (repair/completion): applies
/// the same lazy global-delta loop starting from `start`.
drp::ReplicaPlacement run_greedy_from(const drp::Problem& problem,
                                      drp::ReplicaPlacement start,
                                      const GreedyConfig& config = {});

}  // namespace agtram::baselines
