// Uniform access to the replica-placement methods: the paper's six in its
// comparison order, plus the extended set.  The bench harness sweeps these
// lists to regenerate every figure/table.  Each baseline has one pricing
// path (drp::DeltaEvaluator); the only cross-cutting knob left is whether
// its scans may fan out over the shared pool.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

/// Cross-cutting execution knobs applied to every baseline that supports
/// them (AGT-RAM and the auction mechanisms have their own runtime policy
/// and ignore these).
struct AlgoOptions {
  /// Enables the pool-parallel candidate scans of Greedy, GRA, Aε-Star and
  /// SA.  Placements and costs are bit-identical either way.
  bool parallel_scans = true;
};

struct AlgorithmEntry {
  std::string name;  ///< paper label: GRA, Aε-Star, Greedy, AGT-RAM, DA, EA
  /// Runs the method to completion; `seed` feeds the stochastic methods
  /// (GRA, DA, EA) and is ignored by the deterministic ones.
  std::function<drp::ReplicaPlacement(const drp::Problem&, std::uint64_t seed)>
      run;
};

/// All six methods.  Order matches the paper's tables:
/// Greedy, GRA, Aε-Star, AGT-RAM, DA, EA.
std::vector<AlgorithmEntry> all_algorithms(const AlgoOptions& options = {});

/// The paper's six plus the extended comparison set from the citation
/// lineage: Glauber (Etesami heat-bath dynamics over the MessageBus),
/// Selfish (Chun et al. best-response Nash), LocalSearch, SA.
std::vector<AlgorithmEntry> extended_algorithms(
    const AlgoOptions& options = {});

/// Lookup by name over the extended set (throws std::invalid_argument on
/// unknown names).
AlgorithmEntry find_algorithm(const std::string& name,
                              const AlgoOptions& options = {});

}  // namespace agtram::baselines
