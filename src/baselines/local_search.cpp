#include "baselines/local_search.hpp"

#include <algorithm>

#include "baselines/selfish_caching.hpp"
#include "common/prng.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

using common::Rng;

namespace {

/// A proposal only ever touches one object, so acceptance is decided on
/// that object's cost contribution alone: each move is priced read-only
/// against the evaluator's cached object cost and applied only on
/// acceptance.  The hypothetical costs are bit-identical to measuring
/// around a real mutation (DESIGN.md §8).
struct MoveEvaluator {
  const drp::Problem& p;
  drp::DeltaEvaluator& eval;

  bool try_add(drp::ServerId i, drp::ObjectIndex k) {
    if (!eval.can_replicate(i, k)) return false;
    if (!(eval.cost_if_added(i, k) < eval.object_cost(k))) return false;
    eval.add_replica(i, k);
    return true;
  }

  bool try_drop(drp::ServerId i, drp::ObjectIndex k) {
    if (i == p.primary[k] || !eval.placement().is_replicator(i, k)) {
      return false;
    }
    if (!(eval.cost_if_dropped(i, k) < eval.object_cost(k))) return false;
    eval.remove_replica(i, k);
    return true;
  }

  bool try_swap(drp::ServerId from, drp::ServerId to, drp::ObjectIndex k) {
    if (from == to || from == p.primary[k]) return false;
    if (!eval.placement().is_replicator(from, k)) return false;
    if (eval.placement().is_replicator(to, k)) return false;
    // Capacity at the target is unaffected by dropping `from`, so the plain
    // can_replicate test equals a drop-then-check sequence.
    if (!eval.can_replicate(to, k)) return false;
    if (!(eval.cost_if_swapped(from, to, k) < eval.object_cost(k))) {
      return false;
    }
    eval.remove_replica(from, k);
    eval.add_replica(to, k);
    return true;
  }
};

drp::ServerId random_reader_or_any(const drp::Problem& p, drp::ObjectIndex k,
                                   Rng& rng) {
  const auto accessors = p.access.accessors(k);
  if (!accessors.empty() && rng.chance(0.8)) {
    return accessors[rng.below(accessors.size())].server;
  }
  return static_cast<drp::ServerId>(rng.below(p.server_count()));
}

void propose_loop(const drp::Problem& problem, const LocalSearchConfig& config,
                  MoveEvaluator& evaluator, Rng& rng) {
  std::size_t quiet = 0;
  for (std::size_t proposal = 0;
       proposal < config.max_proposals && quiet < config.quiet_streak;
       ++proposal) {
    const auto k =
        static_cast<drp::ObjectIndex>(rng.below(problem.object_count()));
    bool accepted = false;
    switch (rng.below(3)) {
      case 0:
        accepted = evaluator.try_add(random_reader_or_any(problem, k, rng), k);
        break;
      case 1: {
        const auto reps = evaluator.eval.placement().replicators(k);
        accepted = evaluator.try_drop(reps[rng.below(reps.size())], k);
        break;
      }
      default: {
        const auto reps = evaluator.eval.placement().replicators(k);
        accepted = evaluator.try_swap(reps[rng.below(reps.size())],
                                      random_reader_or_any(problem, k, rng), k);
        break;
      }
    }
    AGTRAM_OBS_COUNT("local_search.proposals", 1);
    if (accepted) AGTRAM_OBS_COUNT("local_search.accepted", 1);
    quiet = accepted ? 0 : quiet + 1;
  }
}

}  // namespace

drp::ReplicaPlacement run_local_search(const drp::Problem& problem,
                                       const LocalSearchConfig& config) {
  Rng rng(config.seed);
  // Seed from the selfish equilibrium — cheap and already decent.
  SelfishCachingConfig seed_cfg;
  seed_cfg.seed = config.seed ^ 0xdecaf;
  drp::DeltaEvaluator eval(run_selfish_caching(problem, seed_cfg).placement);
  MoveEvaluator evaluator{problem, eval};
  propose_loop(problem, config, evaluator, rng);
  return std::move(eval).take_placement();
}

}  // namespace agtram::baselines
