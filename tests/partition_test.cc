// Tests for vertex-partitioned data-graph sharding: the ParallelEngineGroup
// must produce exactly a single engine's match sets on randomized streams
// (including window-expiry boundaries, mid-stream registration backfill,
// and unregister), show a single engine's window to every control call,
// and retain strictly fewer edges per shard than one engine, with the
// cross-shard exchange doing real forwarding; its queues must survive a
// fast producer and its Flush must be repeatable.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/core/parallel.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/partition.h"
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

std::vector<StreamEdge> RandomStream(Interner* interner, uint64_t seed,
                                     int num_vertices, int num_edges) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = num_vertices;
  opt.num_edges = num_edges;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 3;
  return GenerateUniformStream(opt, interner);
}

std::vector<QueryGraph> RandomQueries(Interner* interner, uint64_t seed,
                                      int count) {
  Rng rng(seed);
  std::vector<QueryGraph> queries;
  for (int i = 0; i < count; ++i) {
    const int nv = 3 + i % 2;
    const int ne = nv - 1 + i % 3;
    queries.push_back(
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 3, interner).value());
  }
  return queries;
}

/// Shard-independent identity of one delivered match: external-id mapping
/// signature (vertices by external id, edges by global ingest id).
uint64_t Signature(const CompleteMatch& cm) {
  return cm.match.ExternalMappingSignature(*cm.graph);
}

/// Runs every query against a single engine and returns per-query
/// completion signature multisets.
std::vector<std::multiset<uint64_t>> SingleEngineReference(
    Interner* interner, const std::vector<QueryGraph>& queries,
    Timestamp window, const std::vector<StreamEdge>& edges) {
  std::vector<std::multiset<uint64_t>> expected(queries.size());
  StreamWorksEngine engine(interner);
  for (size_t i = 0; i < queries.size(); ++i) {
    SW_CHECK_OK(engine
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window,
                                   [&expected, i](const CompleteMatch& cm) {
                                     expected[i].insert(Signature(cm));
                                   })
                    .status());
  }
  for (const StreamEdge& e : edges) engine.ProcessEdge(e).ok();
  return expected;
}

TEST(PartitionerTest, HashModuloIsDeterministicInRangeAndSeedSensitive) {
  HashModuloPartitioner p;
  HashModuloPartitioner seeded(1234);
  std::map<int, int> load;
  bool any_seed_difference = false;
  for (uint64_t v = 0; v < 1000; ++v) {
    const int owner = p.OwnerShard(v, 7);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 7);
    EXPECT_EQ(owner, p.OwnerShard(v, 7));  // deterministic
    any_seed_difference =
        any_seed_difference || owner != seeded.OwnerShard(v, 7);
    ++load[owner];
  }
  EXPECT_TRUE(any_seed_difference);
  // Mixed hash: every shard gets a non-trivial share of a dense id space.
  for (int s = 0; s < 7; ++s) {
    EXPECT_GT(load[s], 1000 / 7 / 2) << "shard " << s << " starved";
  }
}

// Both partitioned deployments admit through GroupIngest, so this test
// covers the in-process group and the cluster coordinator alike: every
// edge is accepted or rejected exactly as DynamicGraph::AddEdge decides,
// under the same id, and every vertex ends with the same label; this
// includes AddEdge's rule that an edge rejected on its dst label has still
// recorded its src.
TEST(GroupIngestTest, AdmitsExactlyWhatOneGraphAdmits) {
  Interner interner;
  const LabelId a = interner.Intern("A");
  const LabelId b = interner.Intern("B");
  const LabelId x = interner.Intern("x");
  const auto edge = [&](uint64_t src, LabelId src_label, uint64_t dst,
                        LabelId dst_label, Timestamp ts) {
    return StreamEdge{src, dst, src_label, dst_label, x, ts};
  };
  std::vector<StreamEdge> stream = {
      edge(1, a, 2, a, 0),
      edge(3, b, 2, b, 1),   // dst clash, yet vertex 3 is recorded as B
      edge(3, a, 4, a, 2),   // src clash against that record
      edge(7, a, 8, a, 5),
      edge(5, a, 6, a, 4),   // time regression
      edge(5, a, 6, a, -1),  // negative time
  };
  // A random tail: each vertex mostly keeps one label, and a few edges
  // step back in time.
  Rng rng(31);
  Timestamp now = 5;
  const auto label = [&](uint64_t v) {
    return (v % 2 == 0) != rng.NextBool(0.1) ? a : b;
  };
  for (int i = 0; i < 2000; ++i) {
    const uint64_t src = rng.NextBounded(40);
    const uint64_t dst = rng.NextBounded(40);
    now += static_cast<Timestamp>(rng.NextBounded(2));
    const Timestamp ts =
        rng.NextBool(0.03) ? now - 1 - static_cast<Timestamp>(rng.NextBounded(3))
                           : now;
    stream.push_back(edge(src, label(src), dst, label(dst), ts));
  }

  HashModuloPartitioner partitioner;
  GroupIngest ingest(&partitioner, 3);
  DynamicGraph graph(&interner);
  uint64_t rejected = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const StreamEdge& e = stream[i];
    const auto added = graph.AddEdge(e);
    int copies = 0;
    int anchors = 0;
    EdgeId routed_id = kInvalidEdgeId;
    const bool admitted =
        ingest.Route(e, [&](int shard, EdgeId id, bool run_anchors) {
          EXPECT_EQ(shard, partitioner.OwnerShard(run_anchors ? e.src : e.dst,
                                                  3));
          ++copies;
          anchors += run_anchors ? 1 : 0;
          routed_id = id;
        });
    ASSERT_EQ(admitted, added.ok()) << "edge " << i;
    if (!admitted) {
      ++rejected;
      EXPECT_EQ(copies, 0) << "edge " << i;
      continue;
    }
    EXPECT_EQ(routed_id, added.value()) << "edge " << i;
    EXPECT_EQ(anchors, 1) << "edge " << i;
    EXPECT_EQ(copies, partitioner.OwnerShard(e.src, 3) ==
                              partitioner.OwnerShard(e.dst, 3)
                          ? 1
                          : 2)
        << "edge " << i;
  }
  EXPECT_EQ(ingest.rejected(), rejected);
  EXPECT_GT(rejected, 4u);
  EXPECT_LT(rejected, stream.size() / 2);
  EXPECT_EQ(ingest.watermark(), graph.watermark());
  for (uint64_t v = 0; v < 40; ++v) {
    const VertexId id = graph.FindVertex(v);
    EXPECT_EQ(ingest.vertex_label(v),
              id == kInvalidVertexId ? kInvalidLabelId : graph.vertex_label(id))
        << "vertex " << v;
  }
}

TEST(PartitionTest, MatchesSingleEngineAcrossShardCounts) {
  Interner interner;
  const auto edges = RandomStream(&interner, 2026, 20, 800);
  auto queries = RandomQueries(&interner, 88, 6);
  // A 10-edge query is past Match::kInlineCapacity: its matches keep their
  // bindings in a heap block, and cross shards through ToWire/Localize.
  Rng rng(1);
  const QueryGraph spilled =
      GenerateRandomConnectedQuery(rng, 9, 10, 2, 3, &interner).value();
  ASSERT_GT(spilled.num_edges(), Match::kInlineCapacity);
  queries.push_back(spilled);
  const Timestamp window = 18;
  const auto expected =
      SingleEngineReference(&interner, queries, window, edges);
  ASSERT_FALSE(expected.back().empty());

  for (const int shards : {1, 2, 3, 5}) {
    std::vector<std::multiset<uint64_t>> actual(queries.size());
    ParallelEngineGroup group(&interner, shards);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(group
                      .RegisterQuery(
                          queries[i],
                          DecompositionStrategy::kLeftDeepEdgeOrder, window,
                          [&actual, i](const CompleteMatch& cm) {
                            actual[i].insert(Signature(cm));
                          })
                      .ok());
    }
    for (const StreamEdge& e : edges) group.ProcessEdge(e);
    group.Flush();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i])
          << "shards=" << shards << " query " << i;
    }
    uint64_t expected_total = 0;
    for (const auto& sigs : expected) expected_total += sigs.size();
    EXPECT_EQ(group.total_completions(), expected_total);
  }
}

TEST(PartitionTest, MatchesSingleEngineOnBatchedIngestWithTightWindow) {
  // Tight window + batched ingest: epoch flushes land right on expiry
  // boundaries, and partial matches must die identically on every shard.
  Interner interner;
  const auto edges = RandomStream(&interner, 97, 14, 1200);
  const auto queries = RandomQueries(&interner, 5, 4);
  const Timestamp window = 4;
  const auto expected =
      SingleEngineReference(&interner, queries, window, edges);

  std::vector<std::multiset<uint64_t>> actual(queries.size());
  ParallelEngineGroup group(&interner, 4);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(group
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window,
                                   [&actual, i](const CompleteMatch& cm) {
                                     actual[i].insert(Signature(cm));
                                   })
                    .ok());
  }
  EdgeBatch batch;
  for (const StreamEdge& e : edges) {
    batch.push_back(e);
    if (batch.size() == 97) {
      group.ProcessBatch(batch);
      batch.clear();
    }
  }
  group.ProcessBatch(batch);
  group.Flush();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }

  // Epoch-driven expiry must actually run: with a 4-tick window over a
  // 120-tick stream, every shard's graph retains a small recent suffix.
  for (const ShardStatsSnapshot& s : group.ShardStats()) {
    EXPECT_GT(s.evicted_edges, 0u) << "shard " << s.shard;
    EXPECT_LT(s.retained_edges, edges.size() / 2) << "shard " << s.shard;
  }
}

TEST(PartitionTest, ExchangeForwardsAcrossShardsAndCountersBalance) {
  Interner interner;
  const auto edges = RandomStream(&interner, 11, 16, 600);
  const auto queries = RandomQueries(&interner, 42, 3);
  ParallelEngineGroup group(&interner, 3);
  for (const QueryGraph& q : queries) {
    ASSERT_TRUE(group
                    .RegisterQuery(q,
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   20, nullptr)
                    .ok());
  }
  for (const StreamEdge& e : edges) group.ProcessEdge(e);
  group.Flush();

  uint64_t sent = 0, received = 0;
  for (const ShardStatsSnapshot& s : group.ShardStats()) {
    sent += s.exchange.total_sent();
    received += s.exchange.total_received();
  }
  // Multi-edge queries on a 16-vertex graph over 3 shards: cross-shard
  // work is unavoidable, and after Flush nothing is in flight.
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);
}

// A group that sent every edge to every shard would retain one engine's
// whole window per shard; this is the comparison the name keeps.
TEST(PartitionTest, ShardsRetainFewerEdgesThanBroadcast) {
  Interner interner;
  const auto edges = RandomStream(&interner, 7, 64, 4000);
  const auto queries = RandomQueries(&interner, 3, 2);
  const Timestamp window = 30;
  const int shards = 4;

  std::vector<std::multiset<uint64_t>> expected(queries.size());
  StreamWorksEngine engine(&interner);
  std::vector<std::multiset<uint64_t>> actual(queries.size());
  ParallelEngineGroup group(&interner, shards);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(engine
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window,
                                   [&expected, i](const CompleteMatch& cm) {
                                     expected[i].insert(Signature(cm));
                                   })
                    .ok());
    ASSERT_TRUE(group
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window,
                                   [&actual, i](const CompleteMatch& cm) {
                                     actual[i].insert(Signature(cm));
                                   })
                    .ok());
  }
  for (const StreamEdge& e : edges) {
    engine.ProcessEdge(e).ok();
    group.ProcessEdge(e);
  }
  group.Flush();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }

  // One engine retains the whole window; each shard retains only edges
  // incident to its owned vertices — strictly fewer (the acceptance
  // criterion).
  const uint64_t whole_window = engine.graph().num_stored_edges();
  uint64_t partitioned_total = 0;
  for (const ShardStatsSnapshot& s : group.ShardStats()) {
    EXPECT_LT(s.retained_edges, whole_window) << "shard " << s.shard;
    partitioned_total += s.retained_edges;
  }
  // Each edge lives on at most two shards (its endpoint owners), and at
  // least one, so the group-wide total is bounded by the window on both
  // sides.
  EXPECT_GE(partitioned_total, whole_window);
  EXPECT_LE(partitioned_total, 2 * whole_window);
}

// A short-window query first, then two long-window queries registered
// mid-stream, fed edge by edge (the text FEED path). Every control call
// must commit the pending watermark first: otherwise it sees edges and
// partial matches one engine has already expired, a long-window
// registration backfills from them and finds matches one engine never
// finds, and ExportWindow and query_info report the stale state.
TEST(PartitionTest, ControlCallsSeeOneEnginesWindowMidStream) {
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = 7;
  opt.num_edges = 3000;
  const auto edges = GenerateUniformStream(opt, &interner);
  Rng rng(7);
  std::vector<QueryGraph> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(GenerateRandomConnectedQuery(rng, 3, 2,
                                                   opt.num_vertex_labels,
                                                   opt.num_edge_labels,
                                                   &interner)
                          .value());
  }
  const Timestamp windows[] = {5, 200, 200};
  const size_t register_before[] = {0, edges.size() / 2,
                                    3 * edges.size() / 4};

  // What one run shows: each query's matches, and the window and query 0's
  // runtime info just before query 1 registers.
  struct Observed {
    std::multiset<uint64_t> sigs[3];
    WindowSnapshot window;
    QueryRuntimeInfo info;
  };
  // Runs the schedule: query q registers just before edge
  // register_before[q]. The caller owns `out`, so callbacks still in
  // flight after this returns write to a live object.
  const auto run = [&](Observed* out, const auto& register_query,
                       const auto& feed, const auto& observe) {
    for (size_t e = 0, q = 0; e < edges.size(); ++e) {
      if (e == register_before[1]) observe(out);
      for (; q < queries.size() && register_before[q] == e; ++q) {
        register_query(queries[q], windows[q],
                       [out, q](const CompleteMatch& cm) {
                         out->sigs[q].insert(Signature(cm));
                       });
      }
      feed(edges[e]);
    }
  };
  const auto ids = [](const WindowSnapshot& window) {
    std::vector<EdgeId> out;
    for (const PersistedEdge& pe : window.edges) out.push_back(pe.id);
    return out;
  };

  Observed expected;
  StreamWorksEngine engine(&interner);
  run(
      &expected,
      [&](const QueryGraph& query, Timestamp window, MatchCallback cb) {
        ASSERT_TRUE(engine
                        .RegisterQuery(query,
                                       DecompositionStrategy::kLeftDeepEdgeOrder,
                                       window, std::move(cb))
                        .ok());
      },
      [&](const StreamEdge& e) { ASSERT_TRUE(engine.ProcessEdge(e).ok()); },
      [&](Observed* out) {
        out->window = engine.ExportWindow();
        out->info = engine.query_info(0);
      });
  for (const auto& sigs : expected.sigs) EXPECT_FALSE(sigs.empty());

  for (const int shards : {2, 4}) {
    Observed actual;
    ParallelEngineGroup group(&interner, shards);
    run(
        &actual,
        [&](const QueryGraph& query, Timestamp window, MatchCallback cb) {
          ASSERT_TRUE(group
                          .RegisterQuery(
                              query, DecompositionStrategy::kLeftDeepEdgeOrder,
                              window, std::move(cb))
                          .ok());
        },
        [&](const StreamEdge& e) { group.ProcessEdge(e); },
        [&](Observed* out) {
          out->window = group.ExportWindow();
          const auto info = group.query_info(0);
          ASSERT_TRUE(info.ok());
          out->info = *info;
        });
    group.Flush();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(actual.sigs[q], expected.sigs[q])
          << "shards=" << shards << " query " << q;
    }
    EXPECT_EQ(ids(actual.window), ids(expected.window)) << "shards=" << shards;
    EXPECT_EQ(actual.window.watermark, expected.window.watermark);
    EXPECT_EQ(actual.info.live_partial_matches,
              expected.info.live_partial_matches)
        << "shards=" << shards;
  }
}

TEST(PartitionTest, MidStreamRegistrationBackfillsAcrossShards) {
  Interner interner;
  const auto edges = RandomStream(&interner, 55, 18, 900);
  const auto queries = RandomQueries(&interner, 21, 4);
  const Timestamp window = 25;
  const size_t split = edges.size() / 2;

  // Reference: single engine registering query 0 up front and the rest
  // mid-stream.
  std::vector<std::multiset<uint64_t>> expected(queries.size());
  {
    StreamWorksEngine engine(&interner);
    auto subscribe = [&](size_t i) {
      SW_CHECK_OK(
          engine
              .RegisterQuery(queries[i],
                             DecompositionStrategy::kLeftDeepEdgeOrder,
                             window,
                             [&expected, i](const CompleteMatch& cm) {
                               expected[i].insert(Signature(cm));
                             })
              .status());
    };
    subscribe(0);
    for (size_t k = 0; k < split; ++k) engine.ProcessEdge(edges[k]).ok();
    for (size_t i = 1; i < queries.size(); ++i) subscribe(i);
    for (size_t k = split; k < edges.size(); ++k) {
      engine.ProcessEdge(edges[k]).ok();
    }
  }

  std::vector<std::multiset<uint64_t>> actual(queries.size());
  ParallelEngineGroup group(&interner, 3);
  auto subscribe = [&](size_t i) {
    ASSERT_TRUE(group
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window,
                                   [&actual, i](const CompleteMatch& cm) {
                                     actual[i].insert(Signature(cm));
                                   })
                    .ok());
  };
  subscribe(0);
  for (size_t k = 0; k < split; ++k) group.ProcessEdge(edges[k]);
  for (size_t i = 1; i < queries.size(); ++i) subscribe(i);
  for (size_t k = split; k < edges.size(); ++k) group.ProcessEdge(edges[k]);
  group.Flush();

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }
}

TEST(PartitionTest, UnregisterStopsDeliveryGroupWide) {
  Interner interner;
  const auto edges = RandomStream(&interner, 31, 15, 600);
  const auto queries = RandomQueries(&interner, 13, 2);
  const Timestamp window = 20;
  const size_t split = edges.size() / 2;

  std::vector<std::multiset<uint64_t>> expected(queries.size());
  {
    StreamWorksEngine engine(&interner);
    std::vector<int> ids;
    for (size_t i = 0; i < queries.size(); ++i) {
      ids.push_back(
          engine
              .RegisterQuery(queries[i],
                             DecompositionStrategy::kLeftDeepEdgeOrder,
                             window,
                             [&expected, i](const CompleteMatch& cm) {
                               expected[i].insert(Signature(cm));
                             })
              .value());
    }
    for (size_t k = 0; k < split; ++k) engine.ProcessEdge(edges[k]).ok();
    SW_CHECK_OK(engine.UnregisterQuery(ids[0]));
    for (size_t k = split; k < edges.size(); ++k) {
      engine.ProcessEdge(edges[k]).ok();
    }
  }

  std::vector<std::multiset<uint64_t>> actual(queries.size());
  ParallelEngineGroup group(&interner, 4);
  std::vector<int> ids;
  for (size_t i = 0; i < queries.size(); ++i) {
    ids.push_back(group
                      .RegisterQuery(
                          queries[i],
                          DecompositionStrategy::kLeftDeepEdgeOrder, window,
                          [&actual, i](const CompleteMatch& cm) {
                            actual[i].insert(Signature(cm));
                          })
                      .value());
  }
  for (size_t k = 0; k < split; ++k) group.ProcessEdge(edges[k]);
  ASSERT_TRUE(group.UnregisterQuery(ids[0]).ok());
  EXPECT_FALSE(group.UnregisterQuery(ids[0]).ok());  // idempotence = error
  for (size_t k = split; k < edges.size(); ++k) group.ProcessEdge(edges[k]);
  group.Flush();

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }
  EXPECT_FALSE(group.query_info(ids[0]).ok());
  const auto info = group.query_info(ids[1]);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().completions, expected[1].size());
}

TEST(PartitionTest, InvalidEdgesRejectedOnceAtGroupAdmission) {
  Interner interner;
  ParallelEngineGroup group(&interner, 3);
  int hits = 0;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  ASSERT_TRUE(group
                  .RegisterQuery(builder.Build().value(),
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++hits; })
                  .ok());

  group.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 10));
  group.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 5));  // ts regression
  group.ProcessEdge(
      MakeEdge(&interner, 1, 3, "x", 11, "W", "V"));  // label clash on src
  group.Flush();

  // Group admission rejects each invalid edge once, before any shard sees
  // a copy — the same count a single engine reports.
  EXPECT_EQ(group.total_rejected(), 2u);
  EXPECT_EQ(hits, 1);
}

TEST(PartitionTest, CustomPartitionerIsUsedAndResultsHold) {
  // A deliberately lopsided partitioner (everything on shard 1 except one
  // vertex) still yields exact results — the seam only moves work around.
  class LopsidedPartitioner final : public Partitioner {
   public:
    int OwnerShard(ExternalVertexId v, int num_shards) const override {
      if (num_shards == 1) return 0;
      return v == 0 ? 0 : 1 % num_shards;
    }
    std::string name() const override { return "lopsided"; }
  };

  Interner interner;
  const auto edges = RandomStream(&interner, 77, 12, 500);
  const auto queries = RandomQueries(&interner, 9, 3);
  const Timestamp window = 15;
  const auto expected =
      SingleEngineReference(&interner, queries, window, edges);

  LopsidedPartitioner lopsided;
  std::vector<std::multiset<uint64_t>> actual(queries.size());
  ParallelEngineGroup group(&interner, 3, {}, &lopsided);
  EXPECT_EQ(group.partitioner().name(), "lopsided");
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(group
                    .RegisterQuery(queries[i],
                                   DecompositionStrategy::kLeftDeepEdgeOrder,
                                   window,
                                   [&actual, i](const CompleteMatch& cm) {
                                     actual[i].insert(Signature(cm));
                                   })
                    .ok());
  }
  for (const StreamEdge& e : edges) group.ProcessEdge(e);
  group.Flush();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }
  // Shard 2 owns nothing under this policy.
  const auto stats = group.ShardStats();
  EXPECT_EQ(stats[2].retained_edges, 0u);
}

TEST(ParallelEngineGroupTest, FlushIsIdempotentAndGroupReusable) {
  Interner interner;
  ParallelEngineGroup group(&interner, 2);
  int hits = 0;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  ASSERT_TRUE(group
                  .RegisterQuery(builder.Build().value(),
                                 DecompositionStrategy::kLeftDeepEdgeOrder,
                                 100,
                                 [&](const CompleteMatch&) { ++hits; })
                  .ok());
  group.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 0));
  group.Flush();
  EXPECT_EQ(hits, 1);
  group.Flush();  // idempotent
  group.ProcessEdge(MakeEdge(&interner, 3, 4, "x", 1));
  group.Flush();
  EXPECT_EQ(hits, 2);
}

TEST(ParallelEngineGroupTest, BackpressureSurvivesFastProducer) {
  Interner interner;
  ParallelEngineGroup group(&interner, 2);
  const QueryGraph q = BuildPortScanQuery(&interner, 2);
  uint64_t hits = 0;
  ASSERT_TRUE(group
                  .RegisterQuery(q, DecompositionStrategy::kPrimitivePairs,
                                 20,
                                 [&](const CompleteMatch&) { ++hits; })
                  .ok());
  NetflowGenerator::Options opt;
  opt.seed = 9;
  opt.background_edges = 30000;  // far beyond the queue bound
  opt.attack_label_noise = true;
  NetflowGenerator gen(opt, &interner);
  for (const StreamEdge& e : gen.Generate()) group.ProcessEdge(e);
  group.Flush();
  EXPECT_EQ(group.total_rejected(), 0u);
  EXPECT_EQ(group.total_completions(), hits);
}

}  // namespace
}  // namespace streamworks
