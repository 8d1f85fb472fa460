// Experiment M1: google-benchmark micro-benchmarks for the engine's hot
// paths — window-graph ingest/eviction, anchored local search, match-store
// insert/probe, join validation, and the batch oracle (for scale context).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/core/engine.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/match/local_search.h"
#include "streamworks/match/subgraph_iso.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/query_service.h"
#include "streamworks/sjtree/match_store.h"
#include "streamworks/sjtree/sj_tree.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

std::vector<StreamEdge> SharedStream(Interner* interner, int n) {
  RandomStreamOptions opt;
  opt.seed = 99;
  opt.num_vertices = 512;
  opt.num_edges = n;
  opt.num_vertex_labels = 1;
  opt.num_edge_labels = 4;
  opt.edges_per_tick = 20;
  return GeneratePreferentialStream(opt, interner);
}

void BM_GraphInsertWithEviction(benchmark::State& state) {
  Interner interner;
  const auto edges = SharedStream(&interner, 100000);
  for (auto _ : state) {
    DynamicGraph graph(&interner);
    graph.set_retention(state.range(0));
    for (const StreamEdge& e : edges) {
      benchmark::DoNotOptimize(graph.AddEdge(e).value());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphInsertWithEviction)->Arg(10)->Arg(100)->Arg(1000);

void BM_LocalSearchPerEdge(benchmark::State& state) {
  Interner interner;
  const auto edges = SharedStream(&interner, 20000);
  // 2-edge path over the most common random labels.
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("VL0");
  const auto v1 = builder.AddVertex("VL0");
  const auto v2 = builder.AddVertex("VL0");
  builder.AddEdge(v0, v1, "EL0");
  builder.AddEdge(v1, v2, "EL0");
  const QueryGraph query = builder.Build().value();
  const auto order = ConnectedEdgeOrder(query, query.AllEdges(), 0);

  DynamicGraph graph(&interner);
  graph.set_retention(50);
  std::vector<EdgeId> ids;
  for (const StreamEdge& e : edges) ids.push_back(graph.AddEdge(e).value());

  size_t found = 0;
  for (auto _ : state) {
    // Anchor on the most recent live edges.
    for (size_t i = 0; i < 256; ++i) {
      const EdgeId anchor = graph.next_edge_id() - 1 - i;
      FindAnchoredMatches(graph, query, order, anchor, /*window=*/50,
                          [&](const Match&) {
                            ++found;
                            return true;
                          });
    }
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LocalSearchPerEdge);

void BM_MatchStoreInsertProbe(benchmark::State& state) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "e");
  const QueryGraph query = builder.Build().value();
  Rng rng(7);
  MatchChunkPool pool;
  for (auto _ : state) {
    // One match per tick under a 512-tick window, expired as the
    // watermark advances.
    MatchStore store(/*window=*/512);
    for (int i = 0; i < 4096; ++i) {
      Match m(query);
      m.BindVertex(0, static_cast<VertexId>(rng.NextBounded(512)));
      m.BindVertex(1, static_cast<VertexId>(rng.NextBounded(512)));
      m.BindEdge(0, i, i);
      const Timestamp cutoff = std::max(0, i - 511);
      store.Expire(cutoff, &pool);
      store.Insert(rng.NextBounded(1024), m, &pool);
      size_t hits = 0;
      store.ProbeKey(rng.NextBounded(1024), cutoff,
                     [&](const Match&) { ++hits; });
      benchmark::DoNotOptimize(hits);
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_MatchStoreInsertProbe);

void BM_JoinCompatible(benchmark::State& state) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v1, v2, "y");
  const QueryGraph query = builder.Build().value();
  Match a(query);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(query);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JoinCompatible(a, b, 100));
  }
}
BENCHMARK(BM_JoinCompatible);

void BM_SjTreeProcessEdge(benchmark::State& state) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 5;
  opt.background_edges = 50000;
  NetflowGenerator generator(opt, &interner);
  generator.InjectSmurf(100, 3);
  const auto edges = generator.Generate();
  const QueryGraph query = BuildSmurfQuery(&interner, 3);
  std::vector<Bitset64> leaves;
  for (QueryEdgeId e : ConnectedEdgeOrder(query, query.AllEdges(), 0)) {
    leaves.push_back(Bitset64::Single(e));
  }
  for (auto _ : state) {
    SjTree tree(&query,
                Decomposition::MakeLeftDeep(query, leaves).value(),
                /*window=*/60);
    DynamicGraph graph(&interner);
    graph.set_retention(60);
    std::vector<Match> completed;
    for (const StreamEdge& e : edges) {
      tree.ProcessEdge(graph, graph.AddEdge(e).value(), &completed);
    }
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_SjTreeProcessEdge);

void BM_ServiceFeedBatch(benchmark::State& state) {
  // The observability overhead gate: FeedBatch ingest through the full
  // service path with the pipeline-stage hooks off (Arg 0) vs on (Arg 1).
  // The two arms must stay within a few percent of each other.
  Interner interner;
  StreamWorksEngine engine(&interner);
  SingleEngineBackend backend(&engine);
  QueryService service(&backend, ServiceLimits{});
  PipelineMetrics pipeline;
  if (state.range(0) != 0) service.set_pipeline_metrics(&pipeline);

  const int session = service.OpenSession("bench").value();
  QueryGraphBuilder builder(&interner);
  const auto a = builder.AddVertex("V");
  const auto b = builder.AddVertex("V");
  builder.AddEdge(a, b, "ping");
  const QueryGraph query = builder.Build().value();
  SubmitOptions options;
  options.window = 1000;
  options.queue_capacity = 64;
  options.policy = OverflowPolicy::kDropOldest;
  service.Submit(session, query, options).value();

  // 512-edge batches, one matching edge per 16 so the join path runs but
  // the queue (drop-oldest) stays bounded.
  const LabelId v_label = interner.Intern("V");
  const LabelId ping = interner.Intern("ping");
  const LabelId bg = interner.Intern("bg");
  constexpr int kBatchSize = 512;
  constexpr int kBatches = 16;
  EdgeBatch batch(kBatchSize);
  Timestamp clock = 0;
  for (auto _ : state) {
    for (int bi = 0; bi < kBatches; ++bi) {
      for (int i = 0; i < kBatchSize; ++i) {
        StreamEdge& e = batch[i];
        e.src = 1000 + (i * 7) % 503;
        e.dst = 2000 + (i * 13) % 509;
        e.src_label = v_label;
        e.dst_label = v_label;
        e.edge_label = (i % 16 == 0) ? ping : bg;
        e.ts = ++clock;
      }
      service.FeedBatch(batch);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchSize) * kBatches);
  state.counters["hooks"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ServiceFeedBatch)->Arg(0)->Arg(1);

void BM_BatchIsoOracle(benchmark::State& state) {
  Interner interner;
  const auto edges = SharedStream(&interner, state.range(0));
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("VL0");
  const auto v1 = builder.AddVertex("VL0");
  const auto v2 = builder.AddVertex("VL0");
  builder.AddEdge(v0, v1, "EL0");
  builder.AddEdge(v1, v2, "EL1");
  const QueryGraph query = builder.Build().value();
  DynamicGraph graph(&interner);
  for (const StreamEdge& e : edges) graph.AddEdge(e).value();
  IsoOptions options;
  options.window = 100;
  for (auto _ : state) {
    size_t n = 0;
    ForEachMatch(graph, query, options, [&](const Match&) {
      ++n;
      return true;
    });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_BatchIsoOracle)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace streamworks

BENCHMARK_MAIN();
