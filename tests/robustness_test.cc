// Robustness and failure-injection tests: malformed input streams, fuzzed
// DSL text, eviction-policy equivalence, window boundary cases, and
// long-stream memory soak. These exercise the failure paths a production
// deployment hits, not the happy paths the other suites cover.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/graph_io.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

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

QueryGraph PathQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex("V");
  const auto vb = builder.AddVertex("V");
  const auto vc = builder.AddVertex("V");
  builder.AddEdge(va, vb, "x");
  builder.AddEdge(vb, vc, "y");
  return builder.Build("robust_path").value();
}

// --- Failure injection: malformed records --------------------------------------

TEST(FailureInjectionTest, BadRecordsDoNotPerturbResults) {
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = 77;
  opt.num_vertices = 14;
  opt.num_edges = 300;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  const auto clean = GenerateUniformStream(opt, &interner);

  // Corrupt copy: sprinkle timestamp regressions and vertex-label clashes
  // between the clean records.
  std::vector<StreamEdge> dirty;
  Rng rng(5);
  const LabelId clash_label = interner.Intern("ClashLabel");
  for (const StreamEdge& e : clean) {
    dirty.push_back(e);
    if (rng.NextBool(0.10)) {
      StreamEdge bad = e;
      bad.ts = e.ts - 1 - static_cast<Timestamp>(rng.NextBounded(100));
      dirty.push_back(bad);  // time regression
    }
    if (rng.NextBool(0.10)) {
      StreamEdge bad = e;
      bad.src_label = clash_label;  // contradicts the recorded label
      dirty.push_back(bad);
    }
  }

  Rng qrng(99);
  const QueryGraph q =
      GenerateRandomConnectedQuery(qrng, 3, 3, 2, 2, &interner).value();

  auto run = [&](const std::vector<StreamEdge>& stream, uint64_t* rejected) {
    StreamWorksEngine engine(&interner);
    std::multiset<uint64_t> sigs;
    SW_CHECK_OK(engine
                    .RegisterQuery(
                        q, DecompositionStrategy::kLeftDeepEdgeOrder, 20,
                        [&](const CompleteMatch& cm) {
                          sigs.insert(cm.match.MappingSignature());
                        })
                    .status());
    for (const StreamEdge& e : stream) {
      engine.ProcessEdge(e).ok();  // bad records rejected, not fatal
    }
    *rejected = engine.metrics().edges_rejected;
    return sigs;
  };

  uint64_t clean_rejected = 0;
  uint64_t dirty_rejected = 0;
  const auto clean_sigs = run(clean, &clean_rejected);
  const auto dirty_sigs = run(dirty, &dirty_rejected);
  EXPECT_EQ(clean_rejected, 0u);
  EXPECT_GT(dirty_rejected, 0u);
  EXPECT_EQ(clean_sigs, dirty_sigs);
}

TEST(FailureInjectionTest, CorruptStreamFileReportsLineNumbers) {
  Interner interner;
  const std::string text =
      "1,10,Host,20,Host,flow\n"
      "2,11,Host\n";  // truncated record
  auto result = ParseEdgeStream(text, &interner);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

// --- DSL fuzzing -------------------------------------------------------------------

TEST(DslFuzzTest, RandomGarbageNeverCrashes) {
  Interner interner;
  Rng rng(123);
  const std::string tokens[] = {"node",  "edge",  "query", "window",
                                "a",     "b",     "Host",  "42",
                                "-7",    "#x",    "",      "\t",
                                "edge edge", "node node node node"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int lines = static_cast<int>(rng.NextBounded(8));
    for (int l = 0; l < lines; ++l) {
      const int words = static_cast<int>(rng.NextBounded(5));
      for (int w = 0; w < words; ++w) {
        text += tokens[rng.NextBounded(std::size(tokens))];
        text += ' ';
      }
      text += '\n';
    }
    // Must either parse or fail cleanly; never abort.
    auto result = ParseQueryText(text, &interner);
    if (result.ok()) {
      EXPECT_GT(result->graph.num_edges(), 0);
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(DslFuzzTest, ValidQueriesSurviveWhitespaceNoise) {
  Interner interner;
  auto result = ParseQueryText(
      "   query   padded\n\n\n  node   a   Host \n node b Host\n"
      "\t edge a b flow \n   window   7  \n# trailing comment",
      &interner);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->graph.name(), "padded");
  EXPECT_EQ(result->window, 7);
}

// --- Stream IO fuzz round-trip -------------------------------------------------------

TEST(StreamIoFuzzTest, SerializeParseRoundTripOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Interner interner;
    RandomStreamOptions opt;
    opt.seed = seed;
    opt.num_vertices = 20;
    opt.num_edges = 100;
    opt.num_vertex_labels = 3;
    opt.num_edge_labels = 3;
    const auto edges = GenerateUniformStream(opt, &interner);
    auto parsed =
        ParseEdgeStream(SerializeEdgeStream(edges, interner), &interner);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, edges);
  }
}

// --- Eviction-policy equivalence -----------------------------------------------------

TEST(EvictionEquivalenceTest, TightRetentionMatchesUnboundedRetention) {
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = 31;
  opt.num_vertices = 16;
  opt.num_edges = 500;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  const auto edges = GenerateUniformStream(opt, &interner);
  Rng qrng(17);
  const QueryGraph q =
      GenerateRandomConnectedQuery(qrng, 3, 3, 2, 2, &interner).value();
  const Timestamp window = 12;

  // Engine A: retention pinned to the query window (aggressive eviction).
  StreamWorksEngine tight(&interner);
  std::multiset<uint64_t> tight_sigs;
  SW_CHECK_OK(tight
                  .RegisterQuery(
                      q, DecompositionStrategy::kLeftDeepEdgeOrder, window,
                      [&](const CompleteMatch& cm) {
                        tight_sigs.insert(cm.match.MappingSignature());
                      })
                  .status());

  // Engine B: an extra unbounded-window query (on a label that never
  // occurs) forces the shared graph to retain everything.
  StreamWorksEngine unbounded(&interner);
  QueryGraphBuilder nb(&interner);
  const auto n0 = nb.AddVertex("NeverSeen");
  const auto n1 = nb.AddVertex("NeverSeen");
  nb.AddEdge(n0, n1, "neverLabel");
  SW_CHECK_OK(unbounded
                  .RegisterQuery(nb.Build().value(),
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 kMaxTimestamp, nullptr)
                  .status());
  std::multiset<uint64_t> unbounded_sigs;
  SW_CHECK_OK(unbounded
                  .RegisterQuery(
                      q, DecompositionStrategy::kLeftDeepEdgeOrder, window,
                      [&](const CompleteMatch& cm) {
                        unbounded_sigs.insert(cm.match.MappingSignature());
                      })
                  .status());

  for (const StreamEdge& e : edges) {
    ASSERT_TRUE(tight.ProcessEdge(e).ok());
    ASSERT_TRUE(unbounded.ProcessEdge(e).ok());
  }
  EXPECT_EQ(tight_sigs, unbounded_sigs);
  EXPECT_LT(tight.graph().num_stored_edges(),
            unbounded.graph().num_stored_edges());
  EXPECT_EQ(unbounded.graph().num_stored_edges(), edges.size());
}

// --- Window boundary cases --------------------------------------------------------------

TEST(WindowBoundaryTest, WindowOneMatchesOnlyWithinOneTick) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = PathQuery(&interner);
  int hits = 0;
  SW_CHECK_OK(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 /*window=*/1,
                                 [&](const CompleteMatch&) { ++hits; })
                  .status());
  // Same tick: span 0 < 1 -> match.
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 5)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 2, 3, "y", 5)).ok());
  EXPECT_EQ(hits, 1);
  // Adjacent ticks: span 1, not < 1 -> no match.
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 4, 5, "x", 6)).ok());
  ASSERT_TRUE(engine.ProcessEdge(MakeEdge(&interner, 5, 6, "y", 7)).ok());
  EXPECT_EQ(hits, 1);
}

TEST(WindowBoundaryTest, AllEdgesAtOneTimestamp) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  const QueryGraph q = BuildPortScanQuery(&interner, 3);
  int hits = 0;
  SW_CHECK_OK(engine
                  .RegisterQuery(q,
                                 DecompositionStrategy::kPrimitivePairs,
                                 /*window=*/1,
                                 [&](const CompleteMatch&) { ++hits; })
                  .status());
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(engine
                    .ProcessEdge(MakeEdge(&interner, 1, 10 + t, "synProbe",
                                          0, "Host", "Host"))
                    .ok());
  }
  EXPECT_EQ(hits, 6);  // 3! automorphisms, all at span 0
}

// --- Backfill property: mid-stream registration ---------------------------------------------

/// A query registered after a prefix of the stream must emit exactly the
/// matches whose completing (maximal) data edge arrives post-registration
/// — no more (past completions are suppressed by the backfill) and no less
/// (pre-registration edges still join via the backfilled partials).
struct MidStreamCase {
  uint64_t seed;
  double register_at_fraction;
  Timestamp window;
};

class MidStreamRegistrationTest
    : public testing::TestWithParam<MidStreamCase> {};

TEST_P(MidStreamRegistrationTest, EmitsExactlyPostRegistrationCompletions) {
  const auto& c = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = c.seed;
  opt.num_vertices = 14;
  opt.num_edges = 320;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  const auto edges = GenerateUniformStream(opt, &interner);
  Rng qrng(c.seed + 5000);
  const QueryGraph q =
      GenerateRandomConnectedQuery(qrng, 3, 3, 2, 2, &interner).value();

  // Reference: register from the start; record each match with its
  // completing edge id.
  StreamWorksEngine full(&interner);
  std::multiset<uint64_t> expected;
  const size_t cutoff =
      static_cast<size_t>(edges.size() * c.register_at_fraction);
  SW_CHECK_OK(full
                  .RegisterQuery(
                      q, DecompositionStrategy::kLeftDeepEdgeOrder,
                      c.window,
                      [&](const CompleteMatch& cm) {
                        if (cm.match.MaxDataEdgeId() >= cutoff) {
                          expected.insert(cm.match.MappingSignature());
                        }
                      })
                  .status());

  // Under test: same stream, query registered at the cutoff point.
  StreamWorksEngine mid(&interner);
  std::multiset<uint64_t> actual;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i == cutoff) {
      SW_CHECK_OK(mid.RegisterQuery(
                         q, DecompositionStrategy::kLeftDeepEdgeOrder,
                         c.window,
                         [&](const CompleteMatch& cm) {
                           actual.insert(cm.match.MappingSignature());
                         })
                      .status());
    }
    ASSERT_TRUE(mid.ProcessEdge(edges[i]).ok());
    ASSERT_TRUE(full.ProcessEdge(edges[i]).ok());
  }
  EXPECT_EQ(actual, expected) << q.ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MidStreamRegistrationTest,
    testing::Values(MidStreamCase{61, 0.25, 15},
                    MidStreamCase{62, 0.5, 10},
                    MidStreamCase{63, 0.75, 25},
                    MidStreamCase{64, 0.5, kMaxTimestamp},
                    MidStreamCase{65, 0.1, 8},
                    MidStreamCase{66, 0.9, 40}));

// --- Long-stream soak: memory stays bounded -----------------------------------------------

TEST(SoakTest, PartialMatchesAndWindowStayBounded) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 11;
  opt.num_hosts = 64;
  opt.background_edges = 60000;
  opt.edges_per_tick = 20;
  opt.attack_label_noise = true;
  NetflowGenerator gen(opt, &interner);
  const auto edges = gen.Generate();

  StreamWorksEngine engine(&interner);
  const QueryGraph q = BuildSmurfQuery(&interner, 2);
  const Timestamp window = 25;
  const int id =
      engine
          .RegisterQuery(q, DecompositionStrategy::kPrimitivePairs, window,
                         nullptr)
          .value();

  // Partial matches expire by time slice as the watermark advances: after
  // every edge, none stored is older than the cutoff minus one slice.
  const Timestamp width = MatchStore::SliceWidth(window);
  size_t max_live = 0;
  size_t max_stored = 0;
  for (const StreamEdge& e : edges) {
    ASSERT_TRUE(engine.ProcessEdge(e).ok());
    const Timestamp cutoff =
        std::max<Timestamp>(0, engine.graph().watermark() - window + 1);
    ASSERT_GT(engine.sjtree(id).OldestPartialMatch(), cutoff - width)
        << "at ts " << e.ts;
    max_live = std::max(max_live,
                        engine.query_info(id).live_partial_matches);
    max_stored = std::max(max_stored, engine.graph().num_stored_edges());
  }
  // The stored window can never exceed window-ticks x edges-per-tick.
  EXPECT_LE(max_stored,
            static_cast<size_t>(window) * opt.edges_per_tick);
  // Live partials are bounded by what one window of icmp noise can hold;
  // the bound here is loose but catches leaks (unbounded growth would be
  // in the tens of thousands).
  EXPECT_LT(max_live, 5000u);
  EXPECT_GT(engine.graph().num_evicted_edges(), 0u);
}

}  // namespace
}  // namespace streamworks
