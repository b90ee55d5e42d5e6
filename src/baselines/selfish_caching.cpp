#include "baselines/selfish_caching.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "drp/cost_model.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

/// One best-response turn: server i's benefit for object k only depends on
/// k's own NN structure and i's free capacity, and i's adds never touch
/// another object's NN row — so all benefits are computed once, sorted
/// descending (ties to the lowest object, matching a first-strict-max rescan
/// over ascending objects), and walked with a feasibility re-check.
/// Capacity only shrinks within a turn, so the walk replays the pick
/// sequence of a full rescan after every placement exactly.
bool best_response_turn(
    const drp::Problem& problem, drp::ReplicaPlacement& placement,
    drp::ServerId i, const std::vector<std::size_t>& slots,
    std::vector<std::pair<double, drp::ObjectIndex>>& candidates,
    std::size_t& moves) {
  candidates.clear();
  const auto objects = problem.access.server_objects(i);
  std::size_t scanned = 0;
  for (std::size_t c = 0; c < objects.size(); ++c) {
    const auto& access = objects[c];
    if (access.reads == 0) continue;
    if (!placement.can_replicate(i, access.object)) continue;
    ++scanned;
    const double benefit = drp::CostModel::agent_benefit_at(
        placement, i, access.object, slots[c]);
    if (benefit > 0.0) candidates.emplace_back(benefit, access.object);
  }
  AGTRAM_OBS_COUNT("selfish.candidates_scanned", scanned);
  AGTRAM_OBS_COUNT("selfish.candidates_pruned", objects.size() - scanned);
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  bool moved = false;
  for (const auto& [benefit, k] : candidates) {
    if (!placement.can_replicate(i, k)) continue;
    placement.add_replica(i, k);
    ++moves;
    moved = true;
  }
  return moved;
}

}  // namespace

SelfishCachingResult run_selfish_caching(const drp::Problem& problem,
                                         const SelfishCachingConfig& config) {
  common::Rng rng(config.seed);
  SelfishCachingResult result{drp::ReplicaPlacement(problem)};

  std::vector<drp::ServerId> order(problem.server_count());
  std::iota(order.begin(), order.end(), 0);

  // Resolve each (server, object) demand cell's accessor slot once up
  // front, so per-turn benefit gathering skips the binary search
  // agent_benefit performs on every call.
  std::vector<std::vector<std::size_t>> slots(problem.server_count());
  std::vector<std::pair<double, drp::ObjectIndex>> candidates;
  common::ThreadPool::shared().parallel_for(
      0, problem.server_count(),
      [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          const auto objects =
              problem.access.server_objects(static_cast<drp::ServerId>(i));
          slots[i].resize(objects.size());
          for (std::size_t c = 0; c < objects.size(); ++c) {
            slots[i][c] = problem.access.accessor_slot(
                static_cast<drp::ServerId>(i), objects[c].object);
          }
        }
      },
      /*min_grain=*/64);

  bool anyone_moved = true;
  while (anyone_moved) {
    if (config.max_sweeps != 0 && result.sweeps >= config.max_sweeps) break;
    anyone_moved = false;
    // Fisher-Yates reshuffle: asynchronous, unordered best responses.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const drp::ServerId i : order) {
      const bool moved = best_response_turn(problem, result.placement, i,
                                            slots[i], candidates,
                                            result.moves);
      anyone_moved = anyone_moved || moved;
      if (moved) AGTRAM_OBS_COUNT("selfish.moves", 1);
    }
    ++result.sweeps;
    AGTRAM_OBS_COUNT("selfish.sweeps", 1);
  }
  result.equilibrium_reached = !anyone_moved;
  return result;
}

}  // namespace agtram::baselines
