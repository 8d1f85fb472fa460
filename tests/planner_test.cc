// Tests for streamworks/planner: summary statistics (degree/type/triad
// distributions), selectivity estimation, and the four decomposition
// strategies — including equivalence of all strategies' SJ-Trees against
// the batch oracle.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/match/subgraph_iso.h"
#include "streamworks/planner/planner.h"
#include "streamworks/planner/selectivity.h"
#include "streamworks/planner/stats.h"
#include "streamworks/sjtree/sj_tree.h"
#include "streamworks/stream/workload_queries.h"

#include "news_query.h"

namespace streamworks {
namespace {

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts,
                    std::string_view src_label = "V",
                    std::string_view dst_label = "V") {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern(src_label);
  e.dst_label = interner->Intern(dst_label);
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

/// Ingests edges into a fresh graph while feeding the statistics collector.
void IngestWithStats(const std::vector<StreamEdge>& edges,
                     Interner* /*interner*/, DynamicGraph* g,
                     SummaryStatistics* stats) {
  for (const StreamEdge& e : edges) {
    const EdgeId id = g->AddEdge(e).value();
    stats->Observe(*g, id);
  }
}

// --- SummaryStatistics --------------------------------------------------------

TEST(SummaryStatisticsTest, LabelAndTypedEdgeCounts) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  IngestWithStats(
      {
          MakeEdge(&interner, 1, 2, "flow", 0, "Host", "Host"),
          MakeEdge(&interner, 1, 3, "flow", 1, "Host", "Host"),
          MakeEdge(&interner, 2, 9, "login", 2, "Host", "User"),
      },
      &interner, &g, &stats);

  EXPECT_EQ(stats.num_edges_observed(), 3u);
  EXPECT_EQ(stats.EdgeLabelCount(interner.Find("flow")), 2u);
  EXPECT_EQ(stats.EdgeLabelCount(interner.Find("login")), 1u);
  EXPECT_EQ(stats.EdgeLabelCount(12345), 0u);
  EXPECT_EQ(stats.VertexLabelCount(interner.Find("Host")), 3u);
  EXPECT_EQ(stats.VertexLabelCount(interner.Find("User")), 1u);
  EXPECT_EQ(stats.TypedEdgeCount(interner.Find("Host"),
                                 interner.Find("flow"),
                                 interner.Find("Host")),
            2u);
  EXPECT_EQ(stats.TypedEdgeCount(interner.Find("Host"),
                                 interner.Find("login"),
                                 interner.Find("User")),
            1u);
  EXPECT_EQ(stats.TypedEdgeCount(interner.Find("User"),
                                 interner.Find("login"),
                                 interner.Find("Host")),
            0u);
}

TEST(SummaryStatisticsTest, DegreeHistogramBuckets) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  std::vector<StreamEdge> edges;
  // Vertex 0 gets out-degree 5; vertices 1..5 get in-degree 1 each.
  for (int i = 1; i <= 5; ++i) {
    edges.push_back(MakeEdge(&interner, 0, i, "e", i));
  }
  IngestWithStats(edges, &interner, &g, &stats);
  const auto out_hist = stats.DegreeHistogram(true);
  // Degree 5 lands in bucket 2 ([4, 8)); it's the only out-vertex.
  ASSERT_EQ(out_hist.size(), 3u);
  EXPECT_EQ(out_hist[2], 1u);
  EXPECT_EQ(out_hist[0], 0u);
  const auto in_hist = stats.DegreeHistogram(false);
  // Five vertices with in-degree 1 -> bucket 0.
  ASSERT_GE(in_hist.size(), 1u);
  EXPECT_EQ(in_hist[0], 5u);
}

TEST(SummaryStatisticsTest, WedgeCensusOnStar) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  // c --x--> a1, c --x--> a2, a3 --y--> c   (c has label "C").
  IngestWithStats(
      {
          MakeEdge(&interner, 0, 1, "x", 0, "C", "A"),
          MakeEdge(&interner, 0, 2, "x", 1, "C", "A"),
          MakeEdge(&interner, 3, 0, "y", 2, "A", "C"),
      },
      &interner, &g, &stats);
  ASSERT_TRUE(stats.has_wedge_counts());

  WedgeKey xx;
  xx.center_vertex_label = interner.Find("C");
  xx.leg1_out = true;
  xx.leg1_label = interner.Find("x");
  xx.leg2_out = true;
  xx.leg2_label = interner.Find("x");
  EXPECT_DOUBLE_EQ(stats.WedgeCount(xx), 1.0);

  WedgeKey xy;
  xy.center_vertex_label = interner.Find("C");
  xy.leg1_out = false;  // y leg: centre is the destination
  xy.leg1_label = interner.Find("y");
  xy.leg2_out = true;
  xy.leg2_label = interner.Find("x");
  EXPECT_DOUBLE_EQ(stats.WedgeCount(xy), 2.0);

  // Canonicalisation: swapping the legs finds the same bucket.
  WedgeKey yx = xy;
  std::swap(yx.leg1_out, yx.leg2_out);
  std::swap(yx.leg1_label, yx.leg2_label);
  EXPECT_DOUBLE_EQ(stats.WedgeCount(yx), 2.0);

  // A key that never occurred.
  WedgeKey none = xx;
  none.leg2_label = interner.Intern("z");
  EXPECT_DOUBLE_EQ(stats.WedgeCount(none), 0.0);
}

TEST(SummaryStatisticsTest, SampledWedgeCountsAreScaledEstimates) {
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = 31;
  opt.num_vertices = 30;
  opt.num_edges = 3000;
  opt.num_vertex_labels = 1;
  opt.num_edge_labels = 1;
  const auto edges = GenerateUniformStream(opt, &interner);

  DynamicGraph g_full(&interner);
  SummaryStatistics full(1.0);
  IngestWithStats(edges, &interner, &g_full, &full);

  DynamicGraph g_sampled(&interner);
  SummaryStatistics sampled(0.25, /*seed=*/7);
  IngestWithStats(edges, &interner, &g_sampled, &sampled);

  WedgeKey key;
  key.center_vertex_label = interner.Find("VL0");
  key.leg1_out = true;
  key.leg1_label = interner.Find("EL0");
  key.leg2_out = false;
  key.leg2_label = interner.Find("EL0");
  const double exact = full.WedgeCount(key);
  const double estimate = sampled.WedgeCount(key);
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(estimate / exact, 1.0, 0.25);  // 25% sampling, generous bound
}

TEST(SummaryStatisticsTest, WedgeCensusCanBeDisabled) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  stats.set_wedge_census_enabled(false);
  IngestWithStats(
      {
          MakeEdge(&interner, 0, 1, "x", 0),
          MakeEdge(&interner, 0, 2, "x", 1),
      },
      &interner, &g, &stats);
  EXPECT_FALSE(stats.has_wedge_counts());
  // Typed-edge counts are unaffected.
  EXPECT_EQ(stats.EdgeLabelCount(interner.Find("x")), 2u);
}

TEST(SummaryStatisticsTest, DecayHalvesCountsAtHalfLife) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  stats.set_decay_half_life(10);
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 10; ++i) {
    edges.push_back(MakeEdge(&interner, i, 100 + i, "x", i));
  }
  IngestWithStats(edges, &interner, &g, &stats);
  // Exactly one decay fired at the 10th observation: 10 -> 5.
  EXPECT_EQ(stats.EdgeLabelCount(interner.Find("x")), 5u);
  EXPECT_EQ(stats.num_edges_observed(), 10u);  // raw total is undecayed
}

TEST(SummaryStatisticsTest, DecayForgetsOldDistribution) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  stats.set_decay_half_life(32);
  std::vector<StreamEdge> edges;
  Timestamp ts = 0;
  // Old regime: 64 "old" edges; new regime: 64 "new" edges.
  for (int i = 0; i < 64; ++i) {
    edges.push_back(MakeEdge(&interner, i, 500 + i, "old", ts++));
  }
  for (int i = 0; i < 64; ++i) {
    edges.push_back(MakeEdge(&interner, i, 700 + i, "new", ts++));
  }
  IngestWithStats(edges, &interner, &g, &stats);
  // After two half-lives of pure "new" traffic, "new" dominates even
  // though the raw totals are equal.
  EXPECT_GT(stats.EdgeLabelCount(interner.Find("new")),
            2 * stats.EdgeLabelCount(interner.Find("old")));
}

TEST(SummaryStatisticsTest, DecayErasesZeroedEntries) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  stats.set_decay_half_life(4);
  IngestWithStats(
      {
          MakeEdge(&interner, 1, 2, "rare", 0),
          MakeEdge(&interner, 3, 4, "x", 1),
          MakeEdge(&interner, 5, 6, "x", 2),
          MakeEdge(&interner, 7, 8, "x", 3),  // decay: rare 1 -> 0, gone
      },
      &interner, &g, &stats);
  EXPECT_EQ(stats.EdgeLabelCount(interner.Find("rare")), 0u);
  EXPECT_EQ(stats.EdgeLabelCount(interner.Find("x")), 1u);  // 3 -> 1
}

TEST(SummaryStatisticsTest, ReportTableMentionsAllSections) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  IngestWithStats({MakeEdge(&interner, 1, 2, "flow", 0, "Host", "Host")},
                  &interner, &g, &stats);
  const std::string report = stats.ReportTable(interner);
  EXPECT_NE(report.find("degree distribution"), std::string::npos);
  EXPECT_NE(report.find("vertex type distribution"), std::string::npos);
  EXPECT_NE(report.find("edge type distribution"), std::string::npos);
  EXPECT_NE(report.find("triad census"), std::string::npos);
  EXPECT_NE(report.find("Host"), std::string::npos);
  EXPECT_NE(report.find("flow"), std::string::npos);
}

// --- SelectivityEstimator --------------------------------------------------------

TEST(SelectivityEstimatorTest, EdgeCardinalityIsTypedCount) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 10; ++i) {
    edges.push_back(MakeEdge(&interner, i, i + 50, "common", i));
  }
  edges.push_back(MakeEdge(&interner, 1, 99, "rare", 20));
  IngestWithStats(edges, &interner, &g, &stats);

  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "common");
  builder.AddEdge(v1, v2, "rare");
  const QueryGraph q = builder.Build().value();

  SelectivityEstimator est(&stats);
  EXPECT_DOUBLE_EQ(est.EdgeCardinality(q, 0), 10.0);
  EXPECT_DOUBLE_EQ(est.EdgeCardinality(q, 1), 1.0);
}

TEST(SelectivityEstimatorTest, NullStatsGivesConstantEstimates) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "e");
  const QueryGraph q = builder.Build().value();
  SelectivityEstimator est(nullptr);
  EXPECT_FALSE(est.has_stats());
  EXPECT_DOUBLE_EQ(est.EdgeCardinality(q, 0), 1.0);
  EXPECT_DOUBLE_EQ(est.SubgraphCardinality(q, q.AllEdges()), 1.0);
}

TEST(SelectivityEstimatorTest, WedgeCardinalityUsesTriadCensus) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  // Build 4 wedges a_i -> c -> b_j (2x2) plus unrelated edges.
  IngestWithStats(
      {
          MakeEdge(&interner, 10, 0, "in", 0, "A", "C"),
          MakeEdge(&interner, 11, 0, "in", 1, "A", "C"),
          MakeEdge(&interner, 0, 20, "out", 2, "C", "B"),
          MakeEdge(&interner, 0, 21, "out", 3, "C", "B"),
      },
      &interner, &g, &stats);

  QueryGraphBuilder builder(&interner);
  const auto a = builder.AddVertex("A");
  const auto c = builder.AddVertex("C");
  const auto b = builder.AddVertex("B");
  builder.AddEdge(a, c, "in");
  builder.AddEdge(c, b, "out");
  const QueryGraph q = builder.Build().value();

  SelectivityEstimator est(&stats);
  EXPECT_DOUBLE_EQ(est.SubgraphCardinality(q, q.AllEdges()), 4.0);
}

TEST(SelectivityEstimatorTest, ChainRuleForLargerSubgraphs) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 8; ++i) {
    edges.push_back(
        MakeEdge(&interner, i, 100 + i, "e", i, "V", "V"));
  }
  IngestWithStats(edges, &interner, &g, &stats);

  QueryGraphBuilder builder(&interner);
  QueryVertexId v[4];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "e");
  builder.AddEdge(v[1], v[2], "e");
  builder.AddEdge(v[2], v[3], "e");
  const QueryGraph q = builder.Build().value();

  SelectivityEstimator est(&stats);
  const double card = est.SubgraphCardinality(q, q.AllEdges());
  // 8 edges, 16 "V" vertices: 8^3 / 16^2 = 2.
  EXPECT_DOUBLE_EQ(card, 2.0);
}

// --- QueryPlanner -----------------------------------------------------------------

TEST(QueryPlannerTest, AllStrategiesProduceValidPlans) {
  Interner interner;
  Rng rng(7);
  QueryPlanner planner(nullptr);
  for (int trial = 0; trial < 25; ++trial) {
    const int nv = 2 + static_cast<int>(rng.NextBounded(5));
    const int ne = nv - 1 + static_cast<int>(rng.NextBounded(4));
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, nv, ne, 3, 3, &interner).value();
    for (DecompositionStrategy s : kAllDecompositionStrategies) {
      auto d = planner.Plan(q, s);
      ASSERT_TRUE(d.ok()) << DecompositionStrategyName(s) << ": "
                          << d.status().ToString();
      EXPECT_TRUE(d->Validate(q).ok()) << DecompositionStrategyName(s);
    }
    // Without statistics the default strategy plans wedges.
    EXPECT_TRUE(
        planner.Plan(q, DecompositionStrategy::kSelectivityLeftDeep).value() ==
        planner.Plan(q, DecompositionStrategy::kPrimitivePairs).value())
        << q.ToString(interner);
  }
}

/// Expects `d` to be three two-edge leaves, each holding vertices 0 and 1
/// and one vertex of its own, joined left-deep on {0, 1}.
void ExpectWedgesJoinedOnFirstTwoVertices(const QueryGraph& q,
                                          const Decomposition& d) {
  const Bitset64 hubs = Bitset64::Single(0) | Bitset64::Single(1);
  ASSERT_EQ(d.leaves().size(), 3u) << q.name();
  Bitset64 centres;
  for (int leaf : d.leaves()) {
    const DecompositionNode& node = d.node(leaf);
    EXPECT_EQ(node.edges.Count(), 2) << q.name();
    EXPECT_EQ(node.vertices.Count(), 3) << q.name();
    EXPECT_EQ(node.vertices & hubs, hubs) << q.name();
    centres = centres | (node.vertices - hubs);
  }
  EXPECT_EQ(centres.Count(), 3) << q.name();
  for (int n = 0; n < d.num_nodes(); ++n) {
    if (!d.IsLeaf(n)) {
      EXPECT_EQ(d.node(n).cut_vertices, hubs) << q.name();
    }
  }
}

TEST(QueryPlannerTest, UninformedNewsPlanJoinsArticleWedges) {
  Interner interner;
  // Keyword is vertex 0 and location vertex 1 in both typings.
  const QueryGraph by_article = BuildNewsEventQuery(&interner, "politics", 3);
  const QueryGraph location_first =
      LocationFirstNewsQuery(&interner, "politics", 3);
  const SelectivityEstimator no_stats(nullptr);
  for (const QueryPlanner& planner :
       {QueryPlanner(nullptr), QueryPlanner(&no_stats)}) {
    for (const QueryGraph* q : {&by_article, &location_first}) {
      ExpectWedgesJoinedOnFirstTwoVertices(
          *q,
          planner.Plan(*q, DecompositionStrategy::kSelectivityLeftDeep)
              .value());
    }
  }
}

TEST(QueryPlannerTest, UninformedSmurfPlanJoinsAmplifierPaths) {
  Interner interner;
  // Attacker is vertex 0 and victim vertex 1; each leaf is one
  // attacker -> amplifier -> victim path.
  const QueryGraph q = BuildSmurfQuery(&interner, 3);
  ExpectWedgesJoinedOnFirstTwoVertices(
      q, QueryPlanner(nullptr)
             .Plan(q, DecompositionStrategy::kSelectivityLeftDeep)
             .value());
}

TEST(QueryPlannerTest, SelectivityOrderPutsRareEdgeLowest) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 50; ++i) {
    edges.push_back(MakeEdge(&interner, i, 100 + i, "common", i));
  }
  edges.push_back(MakeEdge(&interner, 1, 200, "rare", 60));
  IngestWithStats(edges, &interner, &g, &stats);

  // Path: v0 -common-> v1 -rare-> v2  (rare is query edge 1).
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "common");
  builder.AddEdge(v1, v2, "rare");
  const QueryGraph q = builder.Build().value();

  SelectivityEstimator est(&stats);
  QueryPlanner planner(&est);
  const Decomposition d =
      planner.Plan(q, DecompositionStrategy::kSelectivityLeftDeep).value();
  // First leaf (lowest in the left-deep tree) holds the rare edge.
  EXPECT_TRUE(d.node(d.leaves()[0]).edges.Contains(1));

  // The uninformed structural order starts from edge 0 instead.
  const Decomposition uninformed =
      planner.Plan(q, DecompositionStrategy::kLeftDeepEdgeOrder).value();
  EXPECT_TRUE(uninformed.node(uninformed.leaves()[0]).edges.Contains(0));
}

TEST(QueryPlannerTest, PrimitivePairsMakesWedgeLeaves) {
  Interner interner;
  QueryPlanner planner(nullptr);
  // 4-edge path: expect two 2-edge leaves.
  QueryGraphBuilder builder(&interner);
  QueryVertexId v[5];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "a");
  builder.AddEdge(v[1], v[2], "b");
  builder.AddEdge(v[2], v[3], "c");
  builder.AddEdge(v[3], v[4], "d");
  const QueryGraph q = builder.Build().value();

  const Decomposition d =
      planner.Plan(q, DecompositionStrategy::kPrimitivePairs).value();
  ASSERT_EQ(d.leaves().size(), 2u);
  for (int leaf : d.leaves()) {
    EXPECT_EQ(d.node(leaf).edges.Count(), 2);
  }
}

TEST(QueryPlannerTest, PrimitivePairsLeftoverSingleEdge) {
  Interner interner;
  QueryPlanner planner(nullptr);
  // 3-edge path: one wedge pair + one single-edge leaf.
  QueryGraphBuilder builder(&interner);
  QueryVertexId v[4];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "a");
  builder.AddEdge(v[1], v[2], "b");
  builder.AddEdge(v[2], v[3], "c");
  const QueryGraph q = builder.Build().value();
  const Decomposition d =
      planner.Plan(q, DecompositionStrategy::kPrimitivePairs).value();
  ASSERT_EQ(d.leaves().size(), 2u);
  std::multiset<int> sizes;
  for (int leaf : d.leaves()) sizes.insert(d.node(leaf).edges.Count());
  EXPECT_EQ(sizes, (std::multiset<int>{1, 2}));
}

TEST(QueryPlannerTest, BalancedBisectionFallsBackWhenInvalid) {
  Interner interner;
  QueryPlanner planner(nullptr);
  Rng rng(11);
  // Star queries force the bisection fallback path often; whatever comes
  // back must validate.
  for (int trial = 0; trial < 20; ++trial) {
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, 5, 6, 2, 2, &interner).value();
    auto d = planner.Plan(q, DecompositionStrategy::kBalancedBisection);
    ASSERT_TRUE(d.ok());
    EXPECT_TRUE(d->Validate(q).ok());
  }
}

TEST(QueryPlannerTest, ExplainPlanShowsEstimates) {
  Interner interner;
  DynamicGraph g(&interner);
  SummaryStatistics stats;
  IngestWithStats({MakeEdge(&interner, 1, 2, "e", 0)}, &interner, &g,
                  &stats);
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "e");
  builder.AddEdge(v1, v2, "e");
  const QueryGraph q = builder.Build().value();
  SelectivityEstimator est(&stats);
  QueryPlanner planner(&est);
  const Decomposition d =
      planner.Plan(q, DecompositionStrategy::kSelectivityLeftDeep).value();
  const std::string plan = planner.ExplainPlan(q, d, interner);
  EXPECT_NE(plan.find("est="), std::string::npos);
  EXPECT_NE(plan.find("search primitive"), std::string::npos);
}

TEST(QueryPlannerTest, StrategyNamesAreStable) {
  std::set<std::string_view> names;
  for (DecompositionStrategy s : kAllDecompositionStrategies) {
    names.insert(DecompositionStrategyName(s));
  }
  EXPECT_EQ(names.size(), 4u);
  EXPECT_TRUE(names.count("selectivity_left_deep"));
}

// --- Strategy equivalence: every plan computes the same answer --------------------

class StrategyEquivalenceTest
    : public testing::TestWithParam<DecompositionStrategy> {};

TEST_P(StrategyEquivalenceTest, AgreesWithBatchOracle) {
  const DecompositionStrategy strategy = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = 777;
  opt.num_vertices = 16;
  opt.num_edges = 400;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  const auto edges = GenerateUniformStream(opt, &interner);

  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, 3 + trial % 2, 3 + trial % 3, 2,
                                     2, &interner)
            .value();
    const Timestamp window = 10 + 7 * trial;

    // Plan with statistics collected from a prefix of the stream (the
    // paper's summarisation-then-register flow).
    DynamicGraph stats_graph(&interner);
    SummaryStatistics stats;
    for (size_t i = 0; i < edges.size() / 4; ++i) {
      stats.Observe(stats_graph, stats_graph.AddEdge(edges[i]).value());
    }
    SelectivityEstimator est(&stats);
    QueryPlanner planner(&est);
    SjTree tree(&q, planner.Plan(q, strategy).value(), window);

    DynamicGraph g(&interner);
    std::multiset<uint64_t> incremental;
    for (const StreamEdge& e : edges) {
      const EdgeId id = g.AddEdge(e).value();
      std::vector<Match> completed;
      tree.ProcessEdge(g, id, &completed);
      for (const Match& m : completed) {
        incremental.insert(m.MappingSignature());
      }
    }

    IsoOptions iso;
    iso.window = window;
    std::multiset<uint64_t> batch;
    for (const Match& m : FindAllMatches(g, q, iso)) {
      batch.insert(m.MappingSignature());
    }
    EXPECT_EQ(incremental, batch)
        << DecompositionStrategyName(strategy) << " trial " << trial << " "
        << q.ToString(interner);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    testing::ValuesIn(kAllDecompositionStrategies),
    [](const testing::TestParamInfo<DecompositionStrategy>& info) {
      return std::string(DecompositionStrategyName(info.param));
    });

}  // namespace
}  // namespace streamworks
