#include "baselines/greedy.hpp"

#include <queue>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

struct Candidate {
  double benefit;
  drp::ObjectIndex object;
  drp::ServerId server;
  bool operator<(const Candidate& other) const noexcept {
    if (benefit != other.benefit) return benefit < other.benefit;
    if (object != other.object) return object > other.object;
    return server > other.server;  // deterministic tie-break
  }
};

}  // namespace

drp::ReplicaPlacement run_greedy(const drp::Problem& problem,
                                 const GreedyConfig& config) {
  return run_greedy_from(problem, drp::ReplicaPlacement(problem), config);
}

drp::ReplicaPlacement run_greedy_from(const drp::Problem& problem,
                                      drp::ReplicaPlacement start,
                                      const GreedyConfig& config) {
  const std::vector<bool>* sites = config.allowed_sites;
  if (sites != nullptr && sites->size() != problem.server_count()) {
    throw std::invalid_argument(
        "run_greedy_from: allowed_sites has " + std::to_string(sites->size()) +
        " entries, expected server_count() = " +
        std::to_string(problem.server_count()));
  }
  drp::DeltaEvaluator eval(std::move(start));
  const std::size_t n = problem.object_count();

  // Seed scan: one loop-swapped best_add per object.  The per-object scans
  // are independent, so the object axis fans out over the pool (each chunk
  // brings its own scratch; the inner server loop stays serial — nested
  // parallel_for would degrade inline anyway).
  std::vector<drp::DeltaEvaluator::BestAdd> seed(n);
  const auto seed_scan = [&](std::size_t first, std::size_t last) {
    drp::DeltaEvaluator::ScanScratch scratch;
    for (std::size_t k = first; k < last; ++k) {
      seed[k] = eval.best_add_for_object(static_cast<drp::ObjectIndex>(k),
                                         sites, scratch, /*parallel=*/false);
    }
  };
  if (config.parallel_scan) {
    common::ThreadPool::shared().parallel_for(0, n, seed_scan,
                                              /*min_grain=*/16);
  } else {
    seed_scan(0, n);
  }

  std::priority_queue<Candidate> heap;
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    if (seed[k].benefit > 0.0) {
      heap.push(Candidate{seed[k].benefit, k, seed[k].server});
    }
  }

  // Pop re-validation touches one object at a time, so parallelism moves to
  // the server axis inside best_add_for_object (cutoff-guarded there).
  drp::DeltaEvaluator::ScanScratch scratch;
  const auto scan = [&](drp::ObjectIndex k) {
    const auto best =
        eval.best_add_for_object(k, sites, scratch, config.parallel_scan);
    return Candidate{best.benefit, k, best.server};
  };
  std::size_t placed = 0;
  while (!heap.empty()) {
    if (config.max_replicas != 0 && placed >= config.max_replicas) break;
    const Candidate top = heap.top();
    heap.pop();
    AGTRAM_OBS_COUNT("greedy.heap_pops", 1);
    // Re-validate: capacities and NN tables may have moved underneath this
    // entry.  Benefits only decrease, so if the fresh value still dominates
    // the heap it is the true global max.
    const Candidate fresh = scan(top.object);
    if (fresh.benefit <= 0.0) {
      AGTRAM_OBS_COUNT("greedy.objects_exhausted", 1);
      continue;
    }
    if (!heap.empty() && fresh.benefit < heap.top().benefit) {
      AGTRAM_OBS_COUNT("greedy.repushes", 1);
      heap.push(fresh);
      continue;
    }
    eval.add_replica(fresh.server, fresh.object);
    ++placed;
    const Candidate next = scan(fresh.object);
    if (next.benefit > 0.0) heap.push(next);
  }
  return std::move(eval).take_placement();
}

}  // namespace agtram::baselines
