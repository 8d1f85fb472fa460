// Data-graph sharding bench: one engine against vertex-partitioned
// clusters of 2, 4 and 8 workers, on the same stream and query mix.
//
//   $ ./build/bench/bench_sharding [num_edges]
//
// The claim under test is the scale-out story: one engine retains the
// whole window graph, while vertex partitioning retains only each shard's
// owned edges (O(owned) ~ 2/N of the window) and pays for it with
// cross-shard match-exchange traffic. The `partitioned N` rows run a
// DistributedBackend over N worker daemons on threads in this process
// (loopback TCP, no frame log). Columns: per-shard retained edges (max
// across shards), the sum over shards, exchange items forwarded, ingest
// rate, and completions (which must not depend on the shard count — the
// equivalence suite proves exact equality; the bench prints it as a
// sanity column). Every column but the rate is a deterministic count;
// they go to bench-results/bench_sharding.json, which ci/bench_gate.py
// requires to equal the committed BENCH_sharding.json exactly.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/bench_worker.h"
#include "streamworks/cluster/coordinator.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/service/backend.h"
#include "streamworks/stream/batching.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks::bench {
namespace {

struct ShardingResult {
  double wall_seconds = 0;
  uint64_t completions = 0;
  uint64_t max_retained = 0;
  uint64_t sum_retained = 0;
  uint64_t forwarded = 0;
};

/// Registers the bench's two queries on one engine or a cluster.
void RegisterQueries(QueryBackend* backend, Interner* interner,
                     Timestamp window) {
  const QueryGraph scan = BuildPortScanQuery(interner, 3);
  const QueryGraph exfil = BuildExfiltrationQuery(interner);
  for (const QueryGraph* q : {&scan, &exfil}) {
    SW_CHECK(backend
                 ->Register(*q, DecompositionStrategy::kSelectivityLeftDeep,
                            window, nullptr)
                 .ok());
  }
}

/// The reference row: one engine retains the whole window.
ShardingResult RunSingleEngine(const std::vector<StreamEdge>& stream,
                               Interner* interner, Timestamp window) {
  StreamWorksEngine engine(interner);
  SingleEngineBackend backend(&engine);
  RegisterQueries(&backend, interner, window);
  ShardingResult result;
  result.wall_seconds = Replay(engine, stream);
  result.completions = engine.metrics().completions;
  result.max_retained = engine.graph().num_stored_edges();
  result.sum_retained = result.max_retained;
  return result;
}

ShardingResult RunPartitioned(const std::vector<StreamEdge>& stream,
                              Interner* interner, int shards,
                              Timestamp window) {
  std::vector<std::unique_ptr<BenchWorker>> workers;
  DistributedBackendOptions options;
  for (int i = 0; i < shards; ++i) {
    workers.push_back(std::make_unique<BenchWorker>());
    options.workers.push_back(workers.back()->endpoint());
  }
  DistributedBackend cluster(options, interner);
  SW_CHECK_OK(cluster.Start());
  RegisterQueries(&cluster, interner, window);

  Timer timer;
  for (const EdgeBatch& batch : BatchBySize(stream, 512)) {
    SW_CHECK_OK(cluster.FeedBatch(batch, nullptr));
  }
  cluster.Flush();

  ShardingResult result;
  result.wall_seconds = timer.ElapsedSeconds();
  for (const ShardLoadSnapshot& load : cluster.ShardLoads()) {
    result.completions += load.completions;
    result.max_retained = std::max(result.max_retained, load.retained_edges);
    result.sum_retained += load.retained_edges;
    result.forwarded += load.matches_forwarded;
  }
  return result;
}

void RunAll(int num_edges) {
  Banner("bench_sharding",
         "one engine vs vertex-partitioned data-graph sharding");

  Table table({12, 7, 13, 13, 11, 10, 12});
  table.Row({"mode", "shards", "max_edges/sh", "sum_edges", "forwarded",
             "edges/s", "completions"});
  table.Separator();

  std::vector<CountsRow> rows;
  uint64_t stream_edges = 0;
  // shards == 0 runs the one-engine reference row.
  for (const int shards : {0, 2, 4, 8}) {
    // Fresh interner + stream per run so every scenario starts cold.
    Interner interner;
    NetflowGenerator::Options gen_options;
    gen_options.seed = 17;
    gen_options.background_edges = num_edges;
    gen_options.num_hosts = 1024;
    NetflowGenerator gen(gen_options, &interner);
    // Injection positions are timestamps; background ticks span
    // [0, background_edges / edges_per_tick).
    const Timestamp ticks = num_edges / gen_options.edges_per_tick;
    gen.InjectPortScan(ticks / 3, 12);
    gen.InjectExfiltration(2 * ticks / 3);
    const std::vector<StreamEdge> stream = gen.Generate();

    // Window = a quarter of the stream's time range: the retained set is
    // big enough that per-shard memory is the dominant cost being
    // compared, while expiry still exercises the epoch path.
    const Timestamp window =
        std::max<Timestamp>(1, (stream.back().ts - stream.front().ts) / 4);
    const std::string mode = shards == 0 ? "single" : "partitioned";
    const ShardingResult r =
        shards == 0 ? RunSingleEngine(stream, &interner, window)
                    : RunPartitioned(stream, &interner, shards, window);
    table.Row({mode, std::to_string(std::max(shards, 1)),
               FormatCount(r.max_retained), FormatCount(r.sum_retained),
               FormatCount(r.forwarded), Rate(stream.size(), r.wall_seconds),
               std::to_string(r.completions)});
    rows.push_back({shards == 0 ? mode : mode + " " + std::to_string(shards),
                    {{"completions", r.completions},
                     {"max_retained", r.max_retained},
                     {"sum_retained", r.sum_retained},
                     {"forwarded", r.forwarded}}});
    stream_edges = stream.size();
  }
  table.Separator();
  std::cout << "single: one engine retains the whole window.\n"
               "partitioned: a cluster worker retains only owned edges "
               "(sum <= 2 x window; max ~ 2/N).\n";
  WriteCountsJson("sharding", stream_edges, rows);
}

}  // namespace
}  // namespace streamworks::bench

int main(int argc, char** argv) {
  int num_edges = 60000;
  if (argc > 1) num_edges = std::atoi(argv[1]);
  streamworks::bench::RunAll(num_edges);
  return 0;
}
