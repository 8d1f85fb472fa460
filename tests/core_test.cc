// Tests for streamworks/core: query registration, label routing across
// concurrent queries, callback exactly-once delivery, metrics, retention
// management, and the full-engine equivalence property sweep against both
// baselines.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "streamworks/baseline/naive.h"
#include "streamworks/baseline/recompute.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/news_gen.h"
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

QueryGraph PathQuery(Interner* interner, std::string_view name = "path2") {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex("V");
  const auto vb = builder.AddVertex("V");
  const auto vc = builder.AddVertex("V");
  builder.AddEdge(va, vb, "x");
  builder.AddEdge(vb, vc, "y");
  return builder.Build(name).value();
}

TEST(EngineTest, RegisterRejectsBadWindow) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  auto result = engine.RegisterQuery(
      q, DecompositionStrategy::kLeftDeepEdgeOrder, 0, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, RegisterRejectsForeignDecomposition) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q2 = PathQuery(&interner);
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  const QueryGraph q1 = builder.Build().value();
  const Decomposition d = Decomposition::MakeSingleLeaf(q1).value();
  EXPECT_FALSE(engine.RegisterQuery(q2, d, 100, nullptr).ok());
}

TEST(EngineTest, SingleQueryEndToEnd) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  std::vector<CompleteMatch> results;
  const int id = engine
                     .RegisterQuery(q,
                                    DecompositionStrategy::kLeftDeepEdgeOrder,
                                    100,
                                    [&](const CompleteMatch& cm) {
                                      results.push_back(cm);
                                    })
                     .value();
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].query_id, id);
  EXPECT_EQ(results[0].completed_at, 1);
  EXPECT_EQ(results[0].match.bound_edges().Count(), 2);
  EXPECT_EQ(engine.metrics().edges_processed, 2u);
  EXPECT_EQ(engine.metrics().completions, 1u);
  EXPECT_EQ(engine.query_info(id).completions, 1u);
  EXPECT_EQ(engine.query_info(id).name, "path2");
}

TEST(EngineTest, MultiQueryRoutingIsolatesCallbacks) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph path = PathQuery(&interner, "path");
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "z");
  const QueryGraph zq = builder.Build("z_edge").value();

  int path_hits = 0;
  int z_hits = 0;
  ASSERT_TRUE(engine
                  .RegisterQuery(path,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++path_hits; })
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterQuery(zq,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++z_hits; })
                  .ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 5, 6, "z", 2)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 9, 9, "w", 3)).ok());
  EXPECT_EQ(path_hits, 1);
  EXPECT_EQ(z_hits, 1);
  EXPECT_EQ(engine.num_queries(), 2u);
}

TEST(EngineTest, EndpointLabelsFilterRouting) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  QueryGraphBuilder builder(&interner);
  const auto host = builder.AddVertex("Host");
  const auto user = builder.AddVertex("User");
  builder.AddEdge(host, user, "login");
  const QueryGraph q = builder.Build().value();
  int hits = 0;
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++hits; })
                  .ok());
  // Right edge label, wrong endpoint labels: must not match.
  ASSERT_TRUE(engine
                  .ProcessEdge(MakeEdge(&interner, 1, 2, "login", 0, "User",
                                        "User"))
                  .ok());
  EXPECT_EQ(hits, 0);
  ASSERT_TRUE(engine
                  .ProcessEdge(MakeEdge(&interner, 3, 4, "login", 1, "Host",
                                        "User"))
                  .ok());
  EXPECT_EQ(hits, 1);
}

TEST(EngineTest, RejectedEdgesAreCountedNotFatal) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 10)).ok());
  EXPECT_FALSE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 5)).ok());
  EXPECT_EQ(engine.metrics().edges_rejected, 1u);
  // The engine keeps working afterwards.
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 11)).ok());
  EXPECT_EQ(engine.metrics().edges_processed, 2u);
}

TEST(EngineTest, RetentionFollowsLargestWindow) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 50, nullptr)
                  .ok());
  EXPECT_EQ(engine.graph().retention(), 50);
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 200, nullptr)
                  .ok());
  EXPECT_EQ(engine.graph().retention(), 200);
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100, nullptr)
                  .ok());
  EXPECT_EQ(engine.graph().retention(), 200);  // never shrinks
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 kMaxTimestamp, nullptr)
                  .ok());
  EXPECT_EQ(engine.graph().retention(), kMaxTimestamp);
}

TEST(EngineTest, MidStreamRegistrationBackfillsTheWindow) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  int hits = 0;
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++hits; })
                  .ok());
  // The x edge predates registration; the backfill replays it into the new
  // tree's leaf stores, so the completion arriving now is found
  // (continuous-query semantics: results from registration time onward).
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  EXPECT_EQ(hits, 1);
}

TEST(EngineTest, MidStreamRegistrationSuppressesPastCompletions) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  // A whole match exists before registration: it completed in the past,
  // so the callback must not fire for it.
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  int hits = 0;
  ASSERT_TRUE(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 0);
  // A second y edge arriving now completes a *new* match with the old x.
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 2, 4, "y", 2)).ok());
  EXPECT_EQ(hits, 1);
}

TEST(EngineTest, StatisticsCollectionFeedsPlanner) {
  Interner interner;
  EngineOptions options;
  options.collect_statistics = true;
  options.wedge_sample_rate = 1.0;
  StreamWorksEngine engine(&interner, options);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine.ProcessEdge(MakeEdge(&interner, i, 100 + i, "common", i))
            .ok());
  }
  ASSERT_TRUE(
      engine.ProcessEdge(MakeEdge(&interner, 1, 200, "rare", 30)).ok());
  EXPECT_EQ(engine.statistics().num_edges_observed(), 21u);

  // A selectivity-planned query registered now puts the rare edge lowest.
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "common");
  builder.AddEdge(v1, v2, "rare");
  const QueryGraph q = builder.Build().value();
  const int id =
      engine
          .RegisterQuery(q, DecompositionStrategy::kSelectivityLeftDeep,
                         100, nullptr)
          .value();
  const Decomposition& d = engine.sjtree(id).decomposition();
  EXPECT_TRUE(d.node(d.leaves()[0]).edges.Contains(1));
}

TEST(EngineTest, ProcessBatchCountsBatches) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  EdgeBatch batch = {MakeEdge(&interner, 1, 2, "x", 0),
                     MakeEdge(&interner, 2, 3, "y", 0)};
  ASSERT_TRUE(engine.ProcessBatch(batch).ok());
  EXPECT_EQ(engine.metrics().batches_processed, 1u);
  EXPECT_EQ(engine.metrics().edges_processed, 2u);
}

TEST(EngineTest, ExpirySweepBoundsPartialMatches) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  const Timestamp window = 10;
  const int id = engine
                     .RegisterQuery(
                         q, DecompositionStrategy::kLeftDeepEdgeOrder, window,
                         nullptr)
                     .value();
  const Timestamp width = MatchStore::SliceWidth(window);
  // A drip of x edges that never complete. Each watermark advance must
  // drop the slices it leaves behind: after every edge, no stored partial
  // match is older than the cutoff minus one slice width.
  for (Timestamp t = 0; t < 600; t += 3) {
    ASSERT_TRUE(
        engine.ProcessEdge(MakeEdge(&interner, t, t + 1, "x", t)).ok());
    const Timestamp cutoff = std::max<Timestamp>(0, t - window + 1);
    ASSERT_GT(engine.sjtree(id).OldestPartialMatch(), cutoff - width)
        << "t=" << t;
  }
  // Stored partials: the live ones (10 ticks / 3 per edge = at most 4)
  // plus the dead ones of the slice straddling the cutoff.
  EXPECT_LE(engine.query_info(id).live_partial_matches,
            static_cast<size_t>(4 + (width + 2) / 3));
  EXPECT_GT(engine.query_info(id).peak_partial_matches, 0u);
}

// --- Full-engine equivalence against both baselines --------------------------------

struct EngineEquivalenceCase {
  uint64_t seed;
  int query_vertices;
  int query_edges;
  Timestamp window;
  DecompositionStrategy strategy;
  /// The baselines must find at least one match, so the case exercises
  /// complete matches and not just partial ones.
  bool expect_matches = false;
};

class EngineEquivalenceTest
    : public testing::TestWithParam<EngineEquivalenceCase> {};

TEST_P(EngineEquivalenceTest, EngineNaiveAndRecomputeAgree) {
  const auto& c = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = c.seed;
  opt.num_vertices = 18;
  opt.num_edges = 350;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  const auto edges = GenerateUniformStream(opt, &interner);

  Rng rng(c.seed ^ 0xabcdef);
  const QueryGraph q =
      GenerateRandomConnectedQuery(rng, c.query_vertices, c.query_edges, 2,
                                   2, &interner)
          .value();

  StreamWorksEngine engine(&interner);
  std::multiset<uint64_t> engine_sigs;
  ASSERT_TRUE(engine
                  .RegisterQuery(q, c.strategy, c.window,
                                 [&](const CompleteMatch& cm) {
                                   engine_sigs.insert(
                                       cm.match.MappingSignature());
                                 })
                  .ok());

  NaiveIncrementalMatcher naive(&q, c.window, &interner);
  RecomputeMatcher recompute(&q, c.window, &interner);
  std::multiset<uint64_t> naive_sigs;
  std::multiset<uint64_t> recompute_sigs;

  for (const EdgeBatch& batch : BatchByTick(edges)) {
    ASSERT_TRUE(engine.ProcessBatch(batch).ok());
    const std::vector<Match> found_919 = naive.ProcessBatch(batch).value();
    for (const Match& m : found_919) {
      naive_sigs.insert(m.MappingSignature());
    }
    const std::vector<Match> found_623 = recompute.ProcessBatch(batch).value();
    for (const Match& m : found_623) {
      recompute_sigs.insert(m.MappingSignature());
    }
  }
  EXPECT_EQ(engine_sigs, naive_sigs) << q.ToString(interner);
  EXPECT_EQ(engine_sigs, recompute_sigs) << q.ToString(interner);
  if (c.expect_matches) {
    EXPECT_FALSE(naive_sigs.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalenceTest,
    testing::Values(
        EngineEquivalenceCase{11, 2, 1, 8,
                              DecompositionStrategy::kLeftDeepEdgeOrder},
        EngineEquivalenceCase{12, 3, 2, 12,
                              DecompositionStrategy::kSelectivityLeftDeep},
        EngineEquivalenceCase{13, 3, 3, 15,
                              DecompositionStrategy::kPrimitivePairs},
        EngineEquivalenceCase{14, 4, 3, 10,
                              DecompositionStrategy::kBalancedBisection},
        EngineEquivalenceCase{15, 4, 4, 20,
                              DecompositionStrategy::kPrimitivePairs},
        EngineEquivalenceCase{16, 5, 4, 25,
                              DecompositionStrategy::kSelectivityLeftDeep},
        EngineEquivalenceCase{17, 4, 5, 18,
                              DecompositionStrategy::kLeftDeepEdgeOrder},
        EngineEquivalenceCase{18, 5, 5, 30,
                              DecompositionStrategy::kBalancedBisection}));

// The window's edge cases: one tick (every edge of a match shares its
// timestamp, and each tick is its own slice), the smallest windows that
// split into slices, and an unbounded window (one slice, never expired).
INSTANTIATE_TEST_SUITE_P(
    Windows, EngineEquivalenceTest,
    testing::Values(
        EngineEquivalenceCase{31, 3, 2, 1,
                              DecompositionStrategy::kLeftDeepEdgeOrder,
                              true},
        EngineEquivalenceCase{32, 3, 2, 2,
                              DecompositionStrategy::kPrimitivePairs, true},
        EngineEquivalenceCase{33, 3, 3, 3,
                              DecompositionStrategy::kSelectivityLeftDeep},
        EngineEquivalenceCase{34, 4, 3, 7,
                              DecompositionStrategy::kBalancedBisection},
        EngineEquivalenceCase{35, 4, 4, kMaxTimestamp,
                              DecompositionStrategy::kPrimitivePairs, true}));

// Queries past Match::kInlineCapacity (8 vertices/edges), whose matches keep
// their bindings in a heap block: more vertices than edges, more edges than
// vertices, and both.
INSTANTIATE_TEST_SUITE_P(
    Spilled, EngineEquivalenceTest,
    testing::Values(
        EngineEquivalenceCase{20, 9, 8, 9,
                              DecompositionStrategy::kLeftDeepEdgeOrder, true},
        EngineEquivalenceCase{20, 8, 9, 14,
                              DecompositionStrategy::kPrimitivePairs, true},
        EngineEquivalenceCase{20, 10, 10, 12,
                              DecompositionStrategy::kBalancedBisection, true},
        EngineEquivalenceCase{25, 10, 12, 13,
                              DecompositionStrategy::kSelectivityLeftDeep,
                              true},
        EngineEquivalenceCase{20, 11, 11, 14,
                              DecompositionStrategy::kPrimitivePairs, true},
        EngineEquivalenceCase{20, 12, 12, 13,
                              DecompositionStrategy::kBalancedBisection,
                              true}));

TEST(EngineEquivalenceOnAttackStreamTest, SmurfAgreesAcrossAllMatchers) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 99;
  opt.background_edges = 3000;
  opt.attack_label_noise = true;  // noise makes partial matches non-trivial
  NetflowGenerator gen(opt, &interner);
  gen.InjectSmurf(30, 3);
  gen.InjectSmurf(90, 3);
  const auto edges = gen.Generate();
  const QueryGraph q = BuildSmurfQuery(&interner, 2);
  const Timestamp window = 40;

  StreamWorksEngine engine(&interner);
  std::multiset<uint64_t> engine_sigs;
  ASSERT_TRUE(engine
                  .RegisterQuery(q, DecompositionStrategy::kPrimitivePairs,
                                 window,
                                 [&](const CompleteMatch& cm) {
                                   engine_sigs.insert(
                                       cm.match.MappingSignature());
                                 })
                  .ok());
  NaiveIncrementalMatcher naive(&q, window, &interner);
  std::multiset<uint64_t> naive_sigs;
  for (const EdgeBatch& batch : BatchByTick(edges)) {
    ASSERT_TRUE(engine.ProcessBatch(batch).ok());
    const std::vector<Match> found_919 = naive.ProcessBatch(batch).value();
    for (const Match& m : found_919) {
      naive_sigs.insert(m.MappingSignature());
    }
  }
  EXPECT_EQ(engine_sigs, naive_sigs);
  EXPECT_GT(engine_sigs.size(), 0u);
}

// The news query typed location-edges-first: the default strategy, which
// plans article wedges without statistics, must agree with single-edge
// leaves in edge-id order and with the naive matcher.
TEST(EngineEquivalenceOnNewsStreamTest, LocationFirstQueryAgreesAcrossPlans) {
  Interner interner;
  NewsGenerator::Options opt;
  opt.seed = 7;
  opt.num_articles = 800;
  NewsGenerator gen(opt, &interner);
  gen.InjectEvent(40, "politics", 3);
  gen.InjectEvent(120, "politics", 4);
  const auto edges = gen.Generate();
  const QueryGraph q = LocationFirstNewsQuery(&interner, "politics", 3);
  const Timestamp window = 20;

  StreamWorksEngine engine(&interner);
  std::multiset<uint64_t> default_sigs;
  std::multiset<uint64_t> edge_order_sigs;
  const int wedges =
      engine
          .RegisterQuery(q, DecompositionStrategy::kSelectivityLeftDeep,
                         window,
                         [&](const CompleteMatch& cm) {
                           default_sigs.insert(cm.match.MappingSignature());
                         })
          .value();
  ASSERT_EQ(engine.sjtree(wedges).decomposition().leaves().size(), 3u);
  ASSERT_TRUE(engine
                  .RegisterQuery(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                 window,
                                 [&](const CompleteMatch& cm) {
                                   edge_order_sigs.insert(
                                       cm.match.MappingSignature());
                                 })
                  .ok());
  NaiveIncrementalMatcher naive(&q, window, &interner);
  std::multiset<uint64_t> naive_sigs;
  for (const EdgeBatch& batch : BatchByTick(edges)) {
    ASSERT_TRUE(engine.ProcessBatch(batch).ok());
    const std::vector<Match> found = naive.ProcessBatch(batch).value();
    for (const Match& m : found) naive_sigs.insert(m.MappingSignature());
  }
  EXPECT_EQ(default_sigs, edge_order_sigs);
  EXPECT_EQ(default_sigs, naive_sigs);
  EXPECT_GT(default_sigs.size(), 0u);
}

}  // namespace
}  // namespace streamworks
