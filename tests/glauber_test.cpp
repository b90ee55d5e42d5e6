// Glauber-dynamics baseline: determinism per seed, the chain pinned as a
// golden captured from mutate-measure-undo pricing (bit-identical
// trajectory), MessageBus wire accounting, and registry integration as the
// seventh baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/glauber.hpp"
#include "baselines/registry.hpp"
#include "drp/cost_model.hpp"
#include "runtime/message_bus.hpp"
#include "test_helpers.hpp"

namespace agtram {
namespace {

bool same_placement(const drp::ReplicaPlacement& a,
                    const drp::ReplicaPlacement& b,
                    drp::ObjectIndex objects) {
  for (drp::ObjectIndex k = 0; k < objects; ++k) {
    const auto ra = a.replicators(k);
    const auto rb = b.replicators(k);
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (ra[i] != rb[i]) return false;
    }
  }
  return true;
}

TEST(Glauber, DeterministicPerSeed) {
  const drp::Problem p = testutil::small_instance(61);
  baselines::GlauberConfig cfg;
  cfg.seed = 5;
  cfg.sweeps = 24;
  const baselines::GlauberResult a = baselines::run_glauber(p, cfg);
  const baselines::GlauberResult b = baselines::run_glauber(p, cfg);

  EXPECT_EQ(a.final_cost, b.final_cost);  // bit-exact, not just close
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_TRUE(same_placement(a.placement, b.placement, p.object_count()));
}

TEST(Glauber, DeltaAndNaivePricingWalkTheSameChain) {
  const drp::Problem p = testutil::small_instance(67, 14, 36);
  baselines::GlauberConfig cfg;
  cfg.seed = 9;
  cfg.sweeps = 20;
  const baselines::GlauberResult result = baselines::run_glauber(p, cfg);

  // Golden captured from mutate-measure-undo full re-evaluation: identical
  // deltas mean the shared rng stream is consumed identically, so the
  // accept/reject sequence — and everything downstream — must match.
  EXPECT_EQ(result.proposals, 151u);
  EXPECT_EQ(result.accepted, 58u);
  EXPECT_EQ(result.final_cost, 0x1.dea68p+17);
  EXPECT_EQ(drp::CostModel::total_cost(result.placement), 0x1.dea68p+17);
  EXPECT_EQ(result.placement.extra_replica_count(), 50u);
  EXPECT_EQ(testutil::replicator_digest(result.placement),
            0xfa417ce0d35d9beaULL);
}

TEST(Glauber, AnnealsDownFromPrimariesOnly) {
  const drp::Problem p = testutil::small_instance(71);
  baselines::GlauberConfig cfg;
  cfg.seed = 3;
  const baselines::GlauberResult result = baselines::run_glauber(p, cfg);

  EXPECT_EQ(result.sweeps, cfg.sweeps);
  EXPECT_GT(result.proposals, 0u);
  // The near-zero starting temperature makes the chain effectively greedy:
  // it never ends above the primaries-only cost it started from.
  EXPECT_LE(result.final_cost, drp::CostModel::initial_cost(p) + 1e-9);
  EXPECT_DOUBLE_EQ(result.final_cost,
                   drp::CostModel::total_cost(result.placement));
}

TEST(Glauber, AccountsEveryProposalAndDecisionOnTheBus) {
  const drp::Problem p = testutil::small_instance(73, 12, 30);
  runtime::MessageBus bus(p, runtime::MessageBus::pick_centre(p));
  baselines::GlauberConfig cfg;
  cfg.seed = 11;
  cfg.sweeps = 16;
  cfg.bus = &bus;
  const baselines::GlauberResult result = baselines::run_glauber(p, cfg);

  const runtime::MessageStats& stats = bus.stats();
  EXPECT_GT(result.proposals, 0u);
  EXPECT_EQ(stats.glauber_proposal_messages, result.proposals);
  EXPECT_EQ(stats.glauber_decision_messages, result.proposals);
  const runtime::WireFormat wire;
  EXPECT_EQ(stats.glauber_proposal_bytes, result.proposals * wire.glauber_proposal);
  EXPECT_EQ(stats.glauber_decision_bytes, result.proposals * wire.glauber_decision);
  EXPECT_GT(stats.glauber_bytes(), 0u);
  // The baseline's traffic is attributed to its own kinds, not the
  // mechanism's report/allocation/broadcast counters.
  EXPECT_EQ(stats.total_messages(), 0u);
}

TEST(Glauber, RegisteredAsSeventhBaseline) {
  const auto entries = baselines::extended_algorithms({});
  bool found = false;
  for (const auto& entry : entries) found |= entry.name == "Glauber";
  EXPECT_TRUE(found);

  const drp::Problem p = testutil::small_instance(79, 12, 30);
  const auto entry = baselines::find_algorithm("Glauber");
  const drp::ReplicaPlacement placement = entry.run(p, /*seed=*/2);
  EXPECT_GE(drp::CostModel::savings(placement), 0.0);
}

}  // namespace
}  // namespace agtram
