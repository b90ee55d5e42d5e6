// Tests for the multi-day horizon driver and graph I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "net/graph_io.hpp"
#include "net/topology.hpp"
#include "sim/horizon.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using sim::HorizonConfig;
using sim::HorizonPolicy;

HorizonConfig horizon_config(HorizonPolicy policy, std::uint32_t days = 5) {
  HorizonConfig cfg;
  cfg.days = days;
  cfg.policy = policy;
  cfg.drift.shift_fraction = 0.25;
  cfg.drift.churn_fraction = 0.1;
  cfg.seed = 99;
  return cfg;
}

TEST(Horizon, ProducesOneRecordPerDay) {
  const drp::Problem p = testutil::small_instance(701, 20, 60);
  const auto result = sim::run_horizon(p, horizon_config(HorizonPolicy::Adapt));
  ASSERT_EQ(result.days.size(), 5u);
  for (std::uint32_t d = 0; d < 5; ++d) {
    EXPECT_EQ(result.days[d].day, d);
  }
  EXPECT_EQ(result.days[0].demand_moved, 0.0);
  EXPECT_GT(result.days[1].demand_moved, 0.0);
}

TEST(Horizon, StalePolicyNeverChurns) {
  const drp::Problem p = testutil::small_instance(702, 20, 60);
  const auto result = sim::run_horizon(p, horizon_config(HorizonPolicy::Stale));
  EXPECT_EQ(result.total_churn_units, 0u);
}

TEST(Horizon, AdaptBeatsStaleOnMeanSavings) {
  const drp::Problem p = testutil::small_instance(703, 24, 80, 0.06);
  const auto stale = sim::run_horizon(p, horizon_config(HorizonPolicy::Stale, 6));
  const auto adapt = sim::run_horizon(p, horizon_config(HorizonPolicy::Adapt, 6));
  EXPECT_GT(adapt.mean_savings, stale.mean_savings);
}

TEST(Horizon, AdaptChurnsLessThanRebuild) {
  const drp::Problem p = testutil::small_instance(704, 24, 80, 0.06);
  const auto adapt = sim::run_horizon(p, horizon_config(HorizonPolicy::Adapt, 6));
  const auto rebuild =
      sim::run_horizon(p, horizon_config(HorizonPolicy::Rebuild, 6));
  EXPECT_LT(adapt.total_churn_units, rebuild.total_churn_units);
  // ... while staying within a whisker of rebuild quality.
  EXPECT_GT(adapt.mean_savings, rebuild.mean_savings * 0.93);
}

TEST(Horizon, DeterministicInSeed) {
  const drp::Problem p = testutil::small_instance(705, 20, 60);
  const auto a = sim::run_horizon(p, horizon_config(HorizonPolicy::Adapt));
  const auto b = sim::run_horizon(p, horizon_config(HorizonPolicy::Adapt));
  ASSERT_EQ(a.days.size(), b.days.size());
  for (std::size_t d = 0; d < a.days.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.days[d].savings, b.days[d].savings);
    EXPECT_EQ(a.days[d].churn_units, b.days[d].churn_units);
  }
}

TEST(Horizon, ZeroDaysThrows) {
  const drp::Problem p = testutil::small_instance(706, 12, 30);
  HorizonConfig cfg = horizon_config(HorizonPolicy::Adapt);
  cfg.days = 0;
  EXPECT_THROW(sim::run_horizon(p, cfg), std::invalid_argument);
}

TEST(Horizon, PolicyNames) {
  EXPECT_STREQ(sim::to_string(HorizonPolicy::Stale), "stale");
  EXPECT_STREQ(sim::to_string(HorizonPolicy::Rebuild), "rebuild");
  EXPECT_STREQ(sim::to_string(HorizonPolicy::Adapt), "adapt");
}

// --------------------------------------------------------------- graph IO

TEST(GraphIo, RoundTripPreservesTopology) {
  net::TopologyConfig cfg;
  cfg.nodes = 60;
  cfg.edge_probability = 0.2;
  cfg.seed = 31;
  const net::Graph original = net::generate_topology(cfg);
  std::stringstream ss;
  net::write_graph(ss, original);
  const net::Graph loaded = net::read_graph(ss);
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (net::NodeId u = 0; u < 60; ++u) {
    ASSERT_EQ(loaded.degree(u), original.degree(u));
    for (const net::Edge& e : original.neighbors(u)) {
      EXPECT_TRUE(loaded.has_edge(u, e.to));
    }
  }
}

TEST(GraphIo, MalformedInputsThrow) {
  // Each case must throw std::runtime_error naming `line` (0: no line to
  // name, the input ended before a header).
  const auto expect_throw = [](const std::string& text, std::size_t line) {
    std::stringstream ss(text);
    try {
      net::read_graph(ss);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      if (line > 0) {
        EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) +
                                             ":"),
                  std::string::npos)
            << text << " -> " << e.what();
      }
    }
  };
  expect_throw("", 0);                       // missing header
  expect_throw("vertices 3\n", 1);           // wrong keyword
  expect_throw("nodes 0\n", 1);              // empty graph
  expect_throw("nodes 3\n0 9 1\n", 2);       // endpoint out of range
  expect_throw("nodes 3\n0 1 0\n", 2);       // zero cost
  expect_throw("nodes 3\n0 1\n", 2);         // missing cost
  expect_throw("nodes 3\n0 1 5 junk\n", 2);  // trailing token
  expect_throw("nodes 3\n0 1 5.7\n", 2);     // fractional cost
  expect_throw("nodes 3\n0 1 +5\n", 2);      // signed cost
  expect_throw("nodes 3\n0 -1 5\n", 2);      // negative endpoint
  expect_throw("nodes 3\n0 1 99999999999999999999\n", 2);  // overflow
  expect_throw("nodes 3\n0 1 4294967296\n", 2);  // above the Cost range
  expect_throw("nodes 3\n0 1 4294967295\n", 2);  // the kUnreachable sentinel
  expect_throw("nodes 3\n0 1 5\n1 2 4294967295\n", 3);  // later line named
  expect_throw("nodes 3 9\n", 1);            // trailing header token
  expect_throw("nodes -1\n", 1);             // negative node count
  expect_throw("nodes 4294967296\n", 1);     // above the NodeId range
  expect_throw("nodes3\n", 1);               // keyword run into the count
  expect_throw("# c\n\nnodes 3\n0 1 0x5\n", 4);  // hex cost, line counted
}

TEST(GraphIo, CommentsIgnored) {
  std::stringstream ss("# hello\nnodes 2\n# edge next\n0 1 7\n");
  const net::Graph g = net::read_graph(ss);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

}  // namespace
