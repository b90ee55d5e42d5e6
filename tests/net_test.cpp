// Unit tests for src/net: graph primitives, topology generators, the
// Dijkstra engine (against a binary-heap reference) and the shortest-path
// metric closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "net/graph.hpp"
#include "net/graph_io.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram::net;
using agtram::testutil::reference_dijkstra;

/// Every source's engine row equals the reference row, through `workspace`.
void expect_engine_matches_reference(const Graph& g,
                                     DijkstraWorkspace& workspace) {
  const Adjacency adjacency(g);
  std::vector<Cost> row(g.node_count());
  for (NodeId src = 0; src < g.node_count(); ++src) {
    ASSERT_TRUE(dijkstra_into(adjacency, src, row, workspace));
    ASSERT_EQ(row, reference_dijkstra(g, src)) << "source " << src;
  }
}

/// A graph with `nodes` nodes, each pair linked with probability `p` at a
/// uniform cost in [1, max_cost].
Graph random_cost_graph(std::uint32_t nodes, double p, Cost max_cost,
                        std::uint64_t seed) {
  agtram::common::Rng rng(seed);
  Graph g(nodes);
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      if (rng.uniform() < p) {
        g.add_edge(a, b, static_cast<Cost>(1 + rng.below(max_cost)));
      }
    }
  }
  return g;
}

// --------------------------------------------------------------- graph

TEST(GraphTest, AddEdgeIsUndirected) {
  Graph g(3);
  g.add_edge(0, 2, 5);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(GraphTest, SelfLoopIgnored) {
  Graph g(2);
  g.add_edge(1, 1, 3);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphTest, ParallelEdgeKeepsCheaper) {
  Graph g(2);
  g.add_edge(0, 1, 9);
  g.add_edge(0, 1, 4);
  g.add_edge(0, 1, 7);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].cost, 4u);
  EXPECT_EQ(g.neighbors(1)[0].cost, 4u);
}

TEST(GraphTest, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2, 1);
  EXPECT_TRUE(g.connected());
}

TEST(GraphTest, MakeConnectedPatchesComponents) {
  Graph g(6);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  // nodes 4, 5 are isolated singletons
  const std::size_t added = g.make_connected(7);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(added, 3u);  // 4 components -> 3 patch edges
}

TEST(GraphTest, MakeConnectedOnConnectedGraphIsNoop) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(g.make_connected(5), 0u);
  EXPECT_EQ(g.edge_count(), 2u);
}

// ------------------------------------------------------------ dijkstra

TEST(Dijkstra, HandComputedDistances) {
  //   0 --1-- 1 --1-- 2
  //    \------5------/
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(0, 2, 5);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);  // via node 1, not the direct 5-cost edge
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

struct KindAndShape {
  TopologyKind kind;
  TreeShape shape;
};

TEST(DijkstraEngine, MatchesReferenceOnEveryTopology) {
  DijkstraWorkspace workspace;
  for (const KindAndShape ks :
       {KindAndShape{TopologyKind::FlatRandom, TreeShape::Random},
        KindAndShape{TopologyKind::Waxman, TreeShape::Random},
        KindAndShape{TopologyKind::TransitStub, TreeShape::Random},
        KindAndShape{TopologyKind::PowerLaw, TreeShape::Random},
        KindAndShape{TopologyKind::Tree, TreeShape::Random},
        KindAndShape{TopologyKind::Tree, TreeShape::Balanced},
        KindAndShape{TopologyKind::Tree, TreeShape::Caterpillar}}) {
    TopologyConfig cfg;
    cfg.kind = ks.kind;
    cfg.tree_shape = ks.shape;
    cfg.nodes = 150;
    cfg.edge_probability = 0.1;
    cfg.max_cost = 1000;
    cfg.seed = 41;
    SCOPED_TRACE(to_string(ks.kind) + " shape " +
                 std::to_string(static_cast<int>(ks.shape)));
    const Graph g = generate_topology(cfg);
    expect_engine_matches_reference(g, workspace);
    const DistanceMatrix dm = DistanceMatrix::compute(g);
    for (NodeId src = 0; src < g.node_count(); src += 37) {
      const std::vector<Cost> expected = reference_dijkstra(g, src);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             dm.row(src).begin()));
    }
  }
}

TEST(DijkstraEngine, MatchesReferenceOnRandomCostsUpTo2To30) {
  DijkstraWorkspace workspace;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Graph g = random_cost_graph(90, 0.3, Cost{1} << 30, seed);
    g.make_connected(Cost{1} << 30);
    // The reference sums in Cost: it is only exact while every settled
    // distance plus one link stays below 2^32, which a diameter under
    // 3 * 2^30 guarantees.
    ASSERT_LT(DistanceMatrix::compute(g).diameter(), Cost{3} << 30);
    expect_engine_matches_reference(g, workspace);
  }
}

TEST(DijkstraEngine, MatchesReferenceOnDisconnectedGraphs) {
  DijkstraWorkspace workspace;
  // Sparse random graphs leave isolated nodes and small components.
  for (const std::uint64_t seed : {4u, 5u}) {
    const Graph g = random_cost_graph(120, 0.012, 50, seed);
    ASSERT_FALSE(g.connected());
    expect_engine_matches_reference(g, workspace);
  }
  Graph islands(5);  // {0, 1} and {3, 4}; node 2 alone
  islands.add_edge(0, 1, 7);
  islands.add_edge(3, 4, 2);
  expect_engine_matches_reference(islands, workspace);
}

TEST(DijkstraEngine, WorkspaceReusedAcrossGraphSizes) {
  // One workspace across large, tiny and mid-sized graphs in turn: a stale
  // bucket entry from an earlier run would index past a smaller graph or
  // corrupt a row.
  DijkstraWorkspace workspace;
  TopologyConfig cfg;
  cfg.kind = TopologyKind::PowerLaw;
  cfg.max_cost = 500;
  for (const std::uint32_t nodes : {200u, 3u, 120u, 1u, 200u, 17u}) {
    cfg.nodes = nodes;
    cfg.seed = nodes;
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    expect_engine_matches_reference(generate_topology(cfg), workspace);
  }
}

TEST(DijkstraEngine, InducedSubgraphKeepsOnlyInternalEdges) {
  //   0 -1- 1 -1- 2 -1- 3, plus 0 -9- 3; part {0, 3} vs {1, 2}
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 3, 9);
  const std::vector<std::uint32_t> part{0, 1, 1, 0};
  const std::vector<std::uint32_t> local{0, 0, 1, 1};
  const std::vector<NodeId> outer{0, 3};
  const Adjacency sub(g, outer, part, local);
  ASSERT_EQ(sub.node_count(), 2u);
  DijkstraWorkspace workspace;
  std::vector<Cost> row(2);
  ASSERT_TRUE(dijkstra_into(sub, 0, row, workspace));
  EXPECT_EQ(row, (std::vector<Cost>{0, 9}));  // the 1-1-1 path leaves the part
}

// ----------------------------------------------------- distance matrix

TEST(DistanceMatrixTest, MatchesDijkstraRows) {
  TopologyConfig cfg;
  cfg.nodes = 40;
  cfg.edge_probability = 0.2;
  cfg.seed = 5;
  const Graph g = generate_topology(cfg);
  const DistanceMatrix dm = DistanceMatrix::compute(g);
  for (NodeId src : {NodeId{0}, NodeId{17}, NodeId{39}}) {
    const auto row = dijkstra(g, src);
    for (NodeId j = 0; j < 40; ++j) EXPECT_EQ(dm(src, j), row[j]);
  }
}

TEST(DistanceMatrixTest, MetricProperties) {
  TopologyConfig cfg;
  cfg.nodes = 30;
  cfg.seed = 6;
  const Graph g = generate_topology(cfg);
  const DistanceMatrix dm = DistanceMatrix::compute(g);
  for (NodeId i = 0; i < 30; ++i) {
    EXPECT_EQ(dm(i, i), 0u);
    for (NodeId j = 0; j < 30; ++j) {
      EXPECT_EQ(dm(i, j), dm(j, i));  // symmetry
      for (NodeId k = 0; k < 30; ++k) {
        EXPECT_LE(dm(i, j), dm(i, k) + dm(k, j));  // triangle inequality
      }
    }
  }
}

TEST(DistanceMatrixTest, DisconnectedGraphThrows) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(DistanceMatrix::compute(g), std::runtime_error);
}

TEST(DistanceMatrixTest, PathCostOverflowThrows) {
  // Two links of 3e9 load fine, but the 0 -> 2 path costs 6e9.  Summed in
  // Cost it would wrap to 1705032704 < d(0, 1).
  std::stringstream text("nodes 3\n0 1 3000000000\n1 2 3000000000\n");
  const Graph g = read_graph(text);
  EXPECT_THROW(DistanceMatrix::compute(g), std::overflow_error);
  EXPECT_THROW(dijkstra(g, 0), std::overflow_error);
  // A link costing the sentinel itself is a reachable node, not a
  // disconnected graph.
  Graph sentinel(2);
  sentinel.add_edge(0, 1, kUnreachable);
  EXPECT_THROW(DistanceMatrix::compute(sentinel), std::overflow_error);
}

TEST(DistanceMatrixTest, OverflowingDetourIsNotAnOverflow) {
  // The 0 -> 1 -> 2 detour costs 6e9, but the shortest 0 -> 2 path is the
  // direct link: every distance fits, so nothing throws.
  Graph g(3);
  g.add_edge(0, 1, 3000000000u);
  g.add_edge(1, 2, 3000000000u);
  g.add_edge(0, 2, 5);
  const DistanceMatrix dm = DistanceMatrix::compute(g);
  EXPECT_EQ(dm(0, 2), 5u);
  EXPECT_EQ(dm(0, 1), 3000000000u);
  EXPECT_EQ(dm(1, 2), 3000000000u);
}

TEST(DistanceMatrixTest, FromRowsValidation) {
  EXPECT_NO_THROW(DistanceMatrix::from_rows(2, {0, 3, 3, 0}));
  EXPECT_THROW(DistanceMatrix::from_rows(2, {0, 3, 3}), std::invalid_argument);
  EXPECT_THROW(DistanceMatrix::from_rows(2, {1, 3, 3, 0}),
               std::invalid_argument);  // non-zero diagonal
  EXPECT_THROW(DistanceMatrix::from_rows(2, {0, 3, 4, 0}),
               std::invalid_argument);  // asymmetric
}

TEST(DistanceMatrixTest, DiameterAndMean) {
  const DistanceMatrix dm = DistanceMatrix::from_rows(3, {0, 1, 3,  //
                                                          1, 0, 2,  //
                                                          3, 2, 0});
  EXPECT_EQ(dm.diameter(), 3u);
  EXPECT_NEAR(dm.mean_distance(), (1 + 3 + 2) / 3.0, 1e-12);
}

/// A symmetric zero-diagonal n x n matrix with pseudo-random entries.
std::vector<Cost> symmetric_rows(std::size_t n, std::uint64_t seed) {
  agtram::common::Rng rng(seed);
  std::vector<Cost> rows(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      rows[i * n + j] = rows[j * n + i] =
          static_cast<Cost>(1 + rng.below(1u << 20));
    }
  }
  return rows;
}

// Sizes straddle the 64-wide validation tile: one tile, one tile exactly,
// a ragged edge tile, and two full tiles plus a ragged one.
constexpr std::size_t kTiledSizes[] = {1, 63, 64, 65, 130};

TEST(DistanceMatrixTest, FromRowsTiledDiameterAndMeanMatchNaive) {
  for (const std::size_t n : kTiledSizes) {
    const std::vector<Cost> rows = symmetric_rows(n, n);
    Cost max = 0;
    double triangle = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        max = std::max(max, rows[i * n + j]);
        if (j > i) triangle += rows[i * n + j];
      }
    }
    const double mean =
        n < 2 ? 0.0 : triangle / (static_cast<double>(n) * (n - 1) / 2.0);
    const DistanceMatrix dm = DistanceMatrix::from_rows(n, rows);
    EXPECT_EQ(dm.diameter(), max) << n;
    EXPECT_EQ(dm.mean_distance(), mean) << n;
  }
}

TEST(DistanceMatrixTest, FromRowsTiledCatchesEveryPlantedDefect) {
  for (const std::size_t n : kTiledSizes) {
    const std::vector<Cost> good = symmetric_rows(n, 100 + n);
    EXPECT_NO_THROW(DistanceMatrix::from_rows(n, good)) << n;
    // (i, j) cells: the diagonal tile, an off-diagonal tile, the ragged
    // edge tile and its last cell, each planted in the upper and the lower
    // triangle; cells outside an n x n matrix are skipped.
    const std::pair<std::size_t, std::size_t> cells[] = {
        {1, 2}, {2, 1}, {5, 70}, {70, 5}, {3, n - 1}, {n - 1, 3},
        {n - 2, n - 1}, {n - 1, n - 2}, {64, 127}, {127, 64}};
    for (const auto& [i, j] : cells) {
      if (i >= n || j >= n || i == j) continue;
      std::vector<Cost> bad = good;
      bad[i * n + j] += 1;
      EXPECT_THROW(DistanceMatrix::from_rows(n, bad), std::invalid_argument)
          << "n " << n << " cell " << i << "," << j;
    }
    for (const std::size_t d : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<Cost> bad = good;
      bad[d * n + d] = 1;
      EXPECT_THROW(DistanceMatrix::from_rows(n, bad), std::invalid_argument)
          << "n " << n << " diagonal " << d;
    }
  }
}

// ------------------------------------------------- topology generators

TEST(TopologyTest, ParseKindRoundTrip) {
  EXPECT_EQ(parse_topology_kind("random"), TopologyKind::FlatRandom);
  EXPECT_EQ(parse_topology_kind("waxman"), TopologyKind::Waxman);
  EXPECT_EQ(parse_topology_kind("transit-stub"), TopologyKind::TransitStub);
  EXPECT_EQ(parse_topology_kind("power-law"), TopologyKind::PowerLaw);
  EXPECT_EQ(parse_topology_kind("inet"), TopologyKind::PowerLaw);
  EXPECT_THROW(parse_topology_kind("mesh"), std::invalid_argument);
  for (auto kind : {TopologyKind::FlatRandom, TopologyKind::Waxman,
                    TopologyKind::TransitStub, TopologyKind::PowerLaw}) {
    EXPECT_EQ(parse_topology_kind(to_string(kind)), kind);
  }
}

class TopologyKindTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TopologyKindTest, GeneratesConnectedGraphOfRequestedSize) {
  TopologyConfig cfg;
  cfg.kind = GetParam();
  cfg.nodes = 80;
  cfg.seed = 21;
  const Graph g = generate_topology(cfg);
  EXPECT_EQ(g.node_count(), 80u);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.edge_count(), 79u);  // at least a spanning tree
}

TEST_P(TopologyKindTest, DeterministicInSeed) {
  TopologyConfig cfg;
  cfg.kind = GetParam();
  cfg.nodes = 50;
  cfg.seed = 33;
  const Graph a = generate_topology(cfg);
  const Graph b = generate_topology(cfg);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId i = 0; i < 50; ++i) {
    ASSERT_EQ(a.degree(i), b.degree(i));
    for (std::size_t e = 0; e < a.neighbors(i).size(); ++e) {
      EXPECT_EQ(a.neighbors(i)[e].to, b.neighbors(i)[e].to);
      EXPECT_EQ(a.neighbors(i)[e].cost, b.neighbors(i)[e].cost);
    }
  }
}

TEST_P(TopologyKindTest, DifferentSeedsDiffer) {
  TopologyConfig cfg;
  cfg.kind = GetParam();
  cfg.nodes = 60;
  cfg.seed = 1;
  const Graph a = generate_topology(cfg);
  cfg.seed = 2;
  const Graph b = generate_topology(cfg);
  bool differs = a.edge_count() != b.edge_count();
  for (NodeId i = 0; !differs && i < 60; ++i) {
    differs = a.degree(i) != b.degree(i);
  }
  EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopologyKindTest,
                         ::testing::Values(TopologyKind::FlatRandom,
                                           TopologyKind::Waxman,
                                           TopologyKind::TransitStub,
                                           TopologyKind::PowerLaw),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TopologyTest, FlatRandomEdgeDensityTracksProbability) {
  TopologyConfig cfg;
  cfg.nodes = 100;
  cfg.seed = 4;
  for (double p : {0.4, 0.6, 0.8}) {
    cfg.edge_probability = p;
    const Graph g = generate_topology(cfg);
    const double max_edges = 100.0 * 99.0 / 2.0;
    const double density = static_cast<double>(g.edge_count()) / max_edges;
    EXPECT_NEAR(density, p, 0.05) << "p=" << p;
  }
}

TEST(TopologyTest, PowerLawHasHubs) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::PowerLaw;
  cfg.nodes = 300;
  cfg.attachment_edges = 2;
  cfg.seed = 12;
  const Graph g = generate_topology(cfg);
  std::size_t max_degree = 0;
  for (NodeId i = 0; i < 300; ++i) max_degree = std::max(max_degree, g.degree(i));
  // Preferential attachment should grow hubs far above the mean degree (~4).
  EXPECT_GE(max_degree, 20u);
}

TEST(TopologyTest, InvalidConfigsThrow) {
  TopologyConfig cfg;
  cfg.nodes = 0;
  EXPECT_THROW(generate_topology(cfg), std::invalid_argument);
  cfg.nodes = 10;
  cfg.min_cost = 0;
  EXPECT_THROW(generate_topology(cfg), std::invalid_argument);
  cfg.min_cost = 5;
  cfg.max_cost = 2;
  EXPECT_THROW(generate_topology(cfg), std::invalid_argument);
  cfg.max_cost = 10;
  cfg.edge_probability = 0.0;
  EXPECT_THROW(generate_topology(cfg), std::invalid_argument);
}

TEST(TopologyTest, CostsWithinConfiguredBand) {
  TopologyConfig cfg;
  cfg.nodes = 50;
  cfg.min_cost = 3;
  cfg.max_cost = 9;
  cfg.seed = 77;
  const Graph g = generate_topology(cfg);
  for (NodeId i = 0; i < 50; ++i) {
    for (const Edge& e : g.neighbors(i)) {
      EXPECT_GE(e.cost, 3u);
      EXPECT_LE(e.cost, 9u);
    }
  }
}

}  // namespace
