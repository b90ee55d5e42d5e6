// Golden suite for the baselines' single pricing path (DESIGN.md §8): every
// baseline must land on the placement pinned below — hexfloat total_cost,
// extra-replica count and an FNV-1a digest of every replicator set — on
// serial and pool-parallel scans alike, across instance families that cover
// trace and Dispersed demand up to the paper's own dimensions.  The goldens
// were captured from the full-recomputation oracle paths (per-server
// global_benefit rescans, mutate-measure-undo pricing) before those left
// production, and matched the incremental path there bit for bit.  The
// fuzz tests at the bottom cross-check every DeltaEvaluator pricing
// primitive the baselines call against a fresh recomputation, step by step.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/aestar.hpp"
#include "baselines/annealing.hpp"
#include "baselines/glauber.hpp"
#include "baselines/gra.hpp"
#include "baselines/greedy.hpp"
#include "baselines/local_search.hpp"
#include "baselines/selfish_caching.hpp"
#include "common/prng.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::baselines;

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct Golden {
  std::string_view algorithm;
  std::string_view family;
  double total_cost;
  std::size_t extra_replicas;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"Greedy", "small-trace-16x40", 0x1.627c2p+19, 46, 0x4b19853824a341a0ULL},
    {"GRA", "small-trace-16x40", 0x1.a3d16p+19, 29, 0x60aafd48796127f3ULL},
    {"AeStar", "small-trace-16x40", 0x1.6b178p+19, 38, 0x1b5532597c71bf2dULL},
    {"Selfish", "small-trace-16x40", 0x1.8850ep+19, 28, 0xe18c69d5e2758bbaULL},
    {"LocalSearch", "small-trace-16x40", 0x1.69e34p+19, 51, 0xa83016cad4e4752fULL},
    {"SA", "small-trace-16x40", 0x1.6e2bp+19, 51, 0x02534ae89138ddf0ULL},
    {"Glauber", "small-trace-16x40", 0x1.87554p+19, 45, 0x3bbf4ae4090db15fULL},
    {"Greedy", "trace-64x640", 0x1.eda62p+20, 724, 0x19e86e2e6657461bULL},
    {"GRA", "trace-64x640", 0x1.45db6p+21, 232, 0x466e2cd9cee1c27fULL},
    {"AeStar", "trace-64x640", 0x1.fda97p+20, 546, 0x378f665eb4f3ace2ULL},
    {"Selfish", "trace-64x640", 0x1.1d5268p+21, 263, 0xa24ccbe300582873ULL},
    {"LocalSearch", "trace-64x640", 0x1.1490d8p+21, 404, 0x72f262a080bf73feULL},
    {"SA", "trace-64x640", 0x1.11af98p+21, 457, 0x797302a68f1755f6ULL},
    {"Glauber", "trace-64x640", 0x1.5d4efp+21, 288, 0x5ae5e330ae0a83f7ULL},
    {"Greedy", "dispersed-64x640", 0x1.60ffcp+19, 1265, 0xea944dff628ed502ULL},
    {"GRA", "dispersed-64x640", 0x1.ca838p+19, 406, 0xdb2766187f403ce4ULL},
    {"AeStar", "dispersed-64x640", 0x1.6184cp+19, 1249, 0x95020d30b736b5e9ULL},
    {"Selfish", "dispersed-64x640", 0x1.7bb28p+19, 946, 0x1a435dc251e86dd7ULL},
    {"LocalSearch", "dispersed-64x640", 0x1.715b2p+19, 1083, 0x451e66f3c943c87bULL},
    {"SA", "dispersed-64x640", 0x1.71406p+19, 1135, 0x197b20496f0946c2ULL},
    {"Glauber", "dispersed-64x640", 0x1.31989p+20, 552, 0x541edc0e66cc74f0ULL},
    {"Greedy", "dispersed-256x2560", 0x1.e204dp+21, 5166, 0x801b8dfe2a3058f3ULL},
    {"GRA", "dispersed-256x2560", 0x1.01dc6cp+22, 3800, 0x4df259c995ef01aaULL},
    {"AeStar", "dispersed-256x2560", 0x1.e6f05p+21, 4709, 0x9cd9ba9a445562deULL},
    {"Selfish", "dispersed-256x2560", 0x1.fbf5ep+21, 3712, 0x0e35137376e38dc9ULL},
    {"LocalSearch", "dispersed-256x2560", 0x1.f9db48p+21, 3817, 0x60d81787d7ff9539ULL},
    {"SA", "dispersed-256x2560", 0x1.fb6edp+21, 4024, 0x0f0c8e80fecbdb65ULL},
    {"Glauber", "dispersed-256x2560", 0x1.9ede48p+22, 1900, 0xc46a4ed0d5ebd9cfULL},
    {"GreedyFromStartAndCap", "dispersed-64x640", 0x1.75d1ep+19, 960, 0x0bf9a0550daf34daULL},
    {"Greedy", "paper-3000x25600", 0x1.eacd5fb8p+29, 64, 0x933aea0aa088954dULL},
    {"GRA", "paper-3000x25600", 0x1.06cb40e8p+29, 36850, 0x9a20cfa0e10443f4ULL},
};
// clang-format on

/// The placement must equal the (algorithm, family) golden: same replicator
/// sets (digest), same extra-replica count, bit-identical total cost.  A
/// mismatch prints the observed entry in table form.
void expect_golden(std::string_view algorithm, std::string_view family,
                   const drp::ReplicaPlacement& placement) {
  const Golden* golden = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.algorithm == algorithm && g.family == family) golden = &g;
  }
  ASSERT_NE(golden, nullptr) << "no golden for " << algorithm << "/"
                             << family;
  const double cost = drp::CostModel::total_cost(placement);
  const std::size_t extra = placement.extra_replica_count();
  const std::uint64_t digest = testutil::replicator_digest(placement);
  char observed[160];
  std::snprintf(observed, sizeof observed,
                "{\"%.*s\", \"%.*s\", %a, %zu, 0x%016llxULL}",
                static_cast<int>(algorithm.size()), algorithm.data(),
                static_cast<int>(family.size()), family.data(), cost, extra,
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, golden->digest) << "observed " << observed;
  EXPECT_EQ(extra, golden->extra_replicas) << "observed " << observed;
  EXPECT_EQ(cost, golden->total_cost) << "observed " << observed;
  EXPECT_NO_THROW(placement.check_invariants());
}

struct Family {
  std::string name;
  drp::Problem problem;
};

drp::Problem generated(std::uint32_t servers, std::uint32_t objects,
                       drp::DemandModel demand, std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.demand = demand;
  spec.instance.capacity_fraction = 0.05;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

/// The standard cross-family battery: small trace, mid trace, mid
/// dispersed, larger dispersed.  (Paper-scale dims get their own targeted
/// tests below.)
const std::vector<Family>& families() {
  static const std::vector<Family> fams = [] {
    std::vector<Family> f;
    f.push_back({"small-trace-16x40", testutil::small_instance(7)});
    f.push_back(
        {"trace-64x640", generated(64, 640, drp::DemandModel::Trace, 21)});
    f.push_back({"dispersed-64x640",
                 generated(64, 640, drp::DemandModel::Dispersed, 22)});
    f.push_back({"dispersed-256x2560",
                 generated(256, 2560, drp::DemandModel::Dispersed, 23)});
    return f;
  }();
  return fams;
}

// The test names keep their historical "MatchesNaive" suffix: each golden
// is the naive oracle's result.

TEST(BaselinesDelta, GreedyMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(parallel ? "parallel" : "serial");
      GreedyConfig cfg;
      cfg.parallel_scan = parallel;
      expect_golden("Greedy", fam.name, run_greedy(fam.problem, cfg));
    }
  }
}

TEST(BaselinesDelta, GreedyFromStartAndCapMatchesNaive) {
  const Family& fam = families()[2];
  // Start from a partially filled scheme so re-validation paths engage.
  SelfishCachingConfig seed_cfg;
  seed_cfg.seed = 5;
  const auto start = run_selfish_caching(fam.problem, seed_cfg).placement;
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    GreedyConfig cfg;
    cfg.max_replicas = 17;
    cfg.parallel_scan = parallel;
    expect_golden("GreedyFromStartAndCap", fam.name,
                  run_greedy_from(fam.problem, start, cfg));
  }
}

TEST(BaselinesDelta, GraMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(parallel ? "parallel" : "serial");
      GraConfig cfg;
      cfg.population = 8;
      cfg.generations = 6;
      cfg.seed = 3;
      cfg.parallel_scan = parallel;
      expect_golden("GRA", fam.name, run_gra(fam.problem, cfg));
    }
  }
}

TEST(BaselinesDelta, AeStarMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(parallel ? "parallel" : "serial");
      AeStarConfig cfg;
      cfg.max_expansions = 40;
      cfg.parallel_scan = parallel;
      expect_golden("AeStar", fam.name, run_aestar(fam.problem, cfg));
    }
  }
}

TEST(BaselinesDelta, SelfishMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    SelfishCachingConfig cfg;
    cfg.seed = 9;
    const auto result = run_selfish_caching(fam.problem, cfg);
    // Every family settles in two sweeps: one that moves, one quiet.
    EXPECT_EQ(result.sweeps, 2u);
    EXPECT_TRUE(result.equilibrium_reached);
    EXPECT_EQ(result.moves, result.placement.extra_replica_count());
    expect_golden("Selfish", fam.name, result.placement);
  }
}

TEST(BaselinesDelta, LocalSearchMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    LocalSearchConfig cfg;
    cfg.seed = 4;
    cfg.max_proposals = 4000;
    expect_golden("LocalSearch", fam.name, run_local_search(fam.problem, cfg));
  }
}

TEST(BaselinesDelta, AnnealingMatchesNaiveAcrossBatchSizes) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    // Per-proposal rng streams make the trajectory independent of the
    // speculative batch size and of parallel pricing, so one golden per
    // family holds for every batch.
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
      for (const bool parallel : {false, true}) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     (parallel ? " parallel" : " serial"));
        AnnealingConfig cfg;
        cfg.seed = 6;
        cfg.proposals = 6000;
        cfg.batch = batch;
        cfg.parallel_scan = parallel;
        cfg.parallel_min_work = 1;  // force the pool even on tiny batches
        expect_golden("SA", fam.name, run_annealing(fam.problem, cfg));
      }
    }
  }
}

TEST(BaselinesDelta, GlauberMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    GlauberConfig cfg;
    cfg.seed = 9;
    cfg.sweeps = 24;
    const GlauberResult result = run_glauber(fam.problem, cfg);
    EXPECT_EQ(result.final_cost, drp::CostModel::total_cost(result.placement));
    expect_golden("Glauber", fam.name, result.placement);
  }
}

// ------------------------------------------------------ paper-scale dims

/// Paper-scale (M = 3000, N = 25600, Dispersed) goldens for the two
/// baselines the bench gate tracks.  Configs are trimmed to keep the suite
/// fast; the scans still cross the parallel cutoffs (M >= 1024) and the CSR
/// layout's arena paths.
class PaperScaleDelta : public ::testing::Test {
 protected:
  static const drp::Problem& problem() {
    static const drp::Problem p = [] {
      drp::InstanceSpec spec;
      spec.servers = 3000;
      spec.objects = 25600;
      spec.seed = 42;
      spec.topology = net::TopologyKind::PowerLaw;
      spec.demand = drp::DemandModel::Dispersed;
      spec.readers_per_object = 8.0;
      spec.instance.capacity_fraction = 0.01;
      spec.instance.rw_ratio = 0.9;
      return drp::make_instance(spec);
    }();
    return p;
  }
};

TEST_F(PaperScaleDelta, GreedyMatchesNaive) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    GreedyConfig cfg;
    cfg.max_replicas = 64;
    cfg.parallel_scan = parallel;
    expect_golden("Greedy", "paper-3000x25600", run_greedy(problem(), cfg));
  }
}

TEST_F(PaperScaleDelta, GraMatchesNaive) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    GraConfig cfg;
    cfg.population = 6;
    cfg.generations = 3;
    cfg.seed = 8;
    cfg.parallel_scan = parallel;
    expect_golden("GRA", "paper-3000x25600", run_gra(problem(), cfg));
  }
}

// ------------------------------------------------- delta-evaluator fuzz

/// Aε-Star's admissible bound recomputed from scratch: every non-local read
/// could, at best, become free without any added broadcast cost.
/// Accumulated as per-object subtotals summed in object order — the same
/// association DeltaEvaluator::optimistic_saving re-sums from its cache, so
/// the two agree bit for bit.
double optimistic_saving(const drp::ReplicaPlacement& placement) {
  const drp::Problem& p = placement.problem();
  double saving = 0.0;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const double o = static_cast<double>(p.object_units[k]);
    const auto accessors = p.access.accessors(k);
    double s_k = 0.0;
    for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
      const auto& a = accessors[slot];
      if (a.reads == 0 || placement.is_replicator(a.server, k)) continue;
      s_k += static_cast<double>(a.reads) * o *
             static_cast<double>(placement.nn_distance_by_slot(k, slot));
    }
    saving += s_k;
  }
  return saving;
}

/// Random add/drop/swap walk on a roomy-capacity instance, asserting after
/// every mutation that the evaluator's caches and hypothetical deltas are
/// bitwise equal to fresh full recomputations.  Capacities are inflated so
/// replicator sets grow past kInlineReplicators (8) and cross the
/// inline->arena boundary mid-walk.
TEST(DeltaEvaluatorFuzz, HypotheticalsMatchFreshRecomputation) {
  drp::Problem p = testutil::small_instance(31, 24, 20, /*capacity=*/3.0);
  common::Rng rng(1234);
  drp::DeltaEvaluator eval{drp::ReplicaPlacement(p)};
  bool crossed_arena_boundary = false;

  for (int step = 0; step < 3000; ++step) {
    const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    switch (rng.below(3)) {
      case 0: {
        if (!eval.can_replicate(i, k)) break;
        const double predicted = eval.delta_of_add(i, k);
        const double before = eval.object_cost(k);
        eval.add_replica(i, k);
        const double fresh =
            drp::CostModel::object_cost(eval.placement(), k);
        ASSERT_EQ(eval.object_cost(k), fresh) << "add cache, step " << step;
        ASSERT_EQ(predicted, fresh - before) << "add delta, step " << step;
        break;
      }
      case 1: {
        if (!eval.placement().is_replicator(i, k) || i == p.primary[k]) break;
        const double predicted = eval.delta_of_drop(i, k);
        const double before = eval.object_cost(k);
        eval.remove_replica(i, k);
        const double fresh =
            drp::CostModel::object_cost(eval.placement(), k);
        ASSERT_EQ(eval.object_cost(k), fresh) << "drop cache, step " << step;
        ASSERT_EQ(predicted, fresh - before) << "drop delta, step " << step;
        break;
      }
      default: {
        const auto to = static_cast<drp::ServerId>(rng.below(p.server_count()));
        if (!eval.placement().is_replicator(i, k) || i == p.primary[k] ||
            i == to || eval.placement().is_replicator(to, k) ||
            !eval.can_replicate(to, k)) {
          break;
        }
        const double predicted = eval.delta_of_swap(i, to, k);
        const double before = eval.object_cost(k);
        eval.remove_replica(i, k);
        eval.add_replica(to, k);
        const double fresh =
            drp::CostModel::object_cost(eval.placement(), k);
        ASSERT_EQ(eval.object_cost(k), fresh) << "swap cache, step " << step;
        ASSERT_EQ(predicted, fresh - before) << "swap delta, step " << step;
        break;
      }
    }
    if (eval.placement().replicators(k).size() >
        drp::ReplicaPlacement::kInlineReplicators) {
      crossed_arena_boundary = true;
    }
    ASSERT_EQ(eval.total(), drp::CostModel::total_cost(eval.placement()))
        << "total, step " << step;
    ASSERT_EQ(eval.optimistic_saving(), optimistic_saving(eval.placement()))
        << "optimistic saving, step " << step;
  }
  EXPECT_TRUE(crossed_arena_boundary)
      << "fuzz walk never spilled a replicator set to the arena; "
         "raise capacities or steps";
  EXPECT_NO_THROW(eval.placement().check_invariants());
}

/// best_add_for_object against the per-server global_benefit argmax, with
/// the site mask and without it.
TEST(DeltaEvaluatorFuzz, BestAddMatchesNaiveArgmaxUnderMask) {
  const drp::Problem p = testutil::small_instance(17, 32, 60);
  SelfishCachingConfig seed_cfg;
  seed_cfg.seed = 2;
  drp::DeltaEvaluator eval{run_selfish_caching(p, seed_cfg).placement};
  std::vector<bool> mask(p.server_count(), true);
  common::Rng rng(77);
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.chance(0.7);

  drp::DeltaEvaluator::ScanScratch scratch;
  const std::vector<bool>* const masks[] = {&mask, nullptr};
  for (const std::vector<bool>* sites : masks) {
    SCOPED_TRACE(sites != nullptr ? "masked" : "unmasked");
    for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
      double naive_benefit = 0.0;
      drp::ServerId naive_server = 0;
      for (drp::ServerId i = 0; i < p.server_count(); ++i) {
        if (sites != nullptr && !(*sites)[i]) continue;
        if (!eval.can_replicate(i, k)) continue;
        const double b =
            drp::CostModel::global_benefit(eval.placement(), i, k);
        if (b > naive_benefit) {
          naive_benefit = b;
          naive_server = i;
        }
      }
      for (const bool parallel : {false, true}) {
        const auto best = eval.best_add_for_object(k, sites, scratch, parallel);
        ASSERT_EQ(best.benefit, naive_benefit)
            << "object " << k << " benefit " << hexfloat(best.benefit)
            << " vs " << hexfloat(naive_benefit);
        ASSERT_EQ(best.server, naive_server) << "object " << k;
      }
    }
  }
}

}  // namespace
