// Tests for ParallelEngineGroup: sharded multi-query execution must
// produce exactly the results of a single engine, queue backpressure and
// flush must behave, and rejected edges must be surfaced.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/core/parallel.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts) {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern("V");
  e.dst_label = interner->Intern("V");
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

TEST(ParallelEngineGroupTest, MatchesSingleEngineAcrossShardCounts) {
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = 2024;
  opt.num_vertices = 20;
  opt.num_edges = 800;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 3;
  const auto edges = GenerateUniformStream(opt, &interner);

  // A small library of random queries.
  Rng rng(88);
  std::vector<QueryGraph> queries;
  for (int i = 0; i < 6; ++i) {
    const int nv = 3 + i % 2;
    const int ne = nv - 1 + i % 3;
    queries.push_back(
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 3, &interner).value());
  }
  const Timestamp window = 18;

  // Reference: one engine with every query.
  std::vector<std::multiset<uint64_t>> expected(queries.size());
  {
    StreamWorksEngine engine(&interner);
    for (size_t i = 0; i < queries.size(); ++i) {
      SW_CHECK_OK(engine
                      .RegisterQuery(
                          queries[i],
                          DecompositionStrategy::kLeftDeepEdgeOrder, window,
                          [&expected, i](const CompleteMatch& cm) {
                            expected[i].insert(
                                cm.match.MappingSignature());
                          })
                      .status());
    }
    for (const StreamEdge& e : edges) {
      ASSERT_TRUE(engine.ProcessEdge(e).ok());
    }
  }

  for (const int shards : {1, 2, 3, 5}) {
    // Each query lives on exactly one shard, so its result vector is only
    // touched by that shard's worker thread.
    std::vector<std::multiset<uint64_t>> actual(queries.size());
    ParallelEngineGroup group(&interner, shards);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(group
                      .RegisterQuery(
                          queries[i],
                          DecompositionStrategy::kLeftDeepEdgeOrder, window,
                          [&actual, i](const CompleteMatch& cm) {
                            actual[i].insert(cm.match.MappingSignature());
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

// Broadcast shards each store the whole stream, so each must retain what
// one engine holding every query retains: also when a long-window query
// registers mid-stream on a shard that so far held only a short window,
// or no query at all.
TEST(ParallelEngineGroupTest, BroadcastShardsRetainOneEnginesWindow) {
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

  // Runs the schedule: query q registers just before edge
  // register_before[q]; each query's matches land in its own multiset.
  using Sigs = std::vector<std::multiset<uint64_t>>;
  const auto run = [&](const auto& register_query, const auto& feed) {
    Sigs sigs(queries.size());
    for (size_t e = 0, q = 0; e < edges.size(); ++e) {
      for (; q < queries.size() && register_before[q] == e; ++q) {
        register_query(queries[q], windows[q],
                       [&sigs, q](const CompleteMatch& cm) {
                         sigs[q].insert(cm.match.MappingSignature());
                       });
      }
      feed(edges[e]);
    }
    return sigs;
  };

  StreamWorksEngine engine(&interner);
  const Sigs expected = run(
      [&](const QueryGraph& query, Timestamp window, MatchCallback cb) {
        ASSERT_TRUE(engine
                        .RegisterQuery(query,
                                       DecompositionStrategy::kLeftDeepEdgeOrder,
                                       window, std::move(cb))
                        .ok());
      },
      [&](const StreamEdge& e) { ASSERT_TRUE(engine.ProcessEdge(e).ok()); });
  for (const auto& sigs : expected) EXPECT_FALSE(sigs.empty());

  for (const int shards : {2, 4}) {
    ParallelEngineGroup group(&interner, shards);
    const Sigs actual = run(
        [&](const QueryGraph& query, Timestamp window, MatchCallback cb) {
          ASSERT_TRUE(group
                          .RegisterQuery(
                              query, DecompositionStrategy::kLeftDeepEdgeOrder,
                              window, std::move(cb))
                          .ok());
        },
        [&](const StreamEdge& e) { group.ProcessEdge(e); });
    group.Flush();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(actual[q], expected[q]) << "shards=" << shards << " query " << q;
    }
    for (const ShardStatsSnapshot& s : group.ShardStats()) {
      EXPECT_EQ(s.retained_edges, engine.graph().num_stored_edges())
          << "shards=" << shards << " shard " << s.shard;
    }
  }
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

TEST(ParallelEngineGroupTest, RejectedEdgesAreCountedPerShard) {
  Interner interner;
  ParallelEngineGroup group(&interner, 3);
  group.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 10));
  group.ProcessEdge(MakeEdge(&interner, 1, 2, "x", 5));  // regression
  group.Flush();
  EXPECT_EQ(group.total_rejected(), 3u);  // every shard saw the bad edge
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
