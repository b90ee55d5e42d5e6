#include "baselines/glauber.hpp"

#include <cmath>
#include <utility>

#include "common/prng.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

GlauberResult run_glauber(const drp::Problem& problem,
                          const GlauberConfig& config) {
  AGTRAM_OBS_SPAN("glauber.run");
  common::Rng rng(config.seed);

  // Heat-bath temperature anchored to the primaries-only OTC, like SA's
  // auto-scaled schedule; the floor keeps exp(delta / T) well-defined.
  double temperature =
      std::max(config.initial_temperature_fraction *
                   drp::CostModel::initial_cost(problem),
               1e-12);

  drp::DeltaEvaluator evaluator{drp::ReplicaPlacement(problem)};
  const drp::ReplicaPlacement& placement = evaluator.placement();

  GlauberResult result{drp::ReplicaPlacement(problem), 0.0, 0, 0, 0};
  const std::size_t m = problem.server_count();
  for (std::size_t sweep = 0; sweep < config.sweeps; ++sweep) {
    std::uint64_t sweep_proposals = 0;
    // Every server with demand proposes one flip per sweep, in id order —
    // the chain is deterministic in (seed) because the single rng stream is
    // drawn in (sweep, server) order on identical placement states.
    for (drp::ServerId i = 0; i < m; ++i) {
      const auto local = problem.access.server_objects(i);
      if (local.empty()) continue;
      const drp::ObjectIndex k = local[rng.below(local.size())].object;

      // Flip direction from the server's current membership; proposals the
      // placement model forbids (primary drop, no capacity) are withheld
      // locally and never reach the wire.
      bool drop = false;
      if (placement.is_replicator(i, k)) {
        if (problem.primary[k] == i) continue;
        drop = true;
      } else if (!placement.can_replicate(i, k)) {
        continue;
      }

      // Local pricing: the exact OTC delta of the flip, read-only — the
      // same bits a mutate-measure-undo around a real flip would produce.
      const double delta = drop ? evaluator.delta_of_drop(i, k)
                                : evaluator.delta_of_add(i, k);

      ++sweep_proposals;
      const double accept_probability =
          1.0 / (1.0 + std::exp(delta / temperature));
      if (rng.uniform() < accept_probability) {
        ++result.accepted;
        if (drop) {
          evaluator.remove_replica(i, k);
        } else {
          evaluator.add_replica(i, k);
        }
      }
    }

    result.proposals += sweep_proposals;
    ++result.sweeps;
    AGTRAM_OBS_COUNT("glauber.sweeps", 1);
    if (config.bus != nullptr) {
      // One proposal up, one decision back per evaluated flip.
      config.bus->account_glauber_proposals(sweep_proposals);
      config.bus->account_glauber_decisions(sweep_proposals);
    }
    temperature = std::max(temperature * config.cooling_rate, 1e-12);
  }

  AGTRAM_OBS_COUNT("glauber.proposals", result.proposals);
  AGTRAM_OBS_COUNT("glauber.accepted", result.accepted);
  result.final_cost = evaluator.total();
  result.placement = std::move(evaluator).take_placement();
  return result;
}

}  // namespace agtram::baselines
