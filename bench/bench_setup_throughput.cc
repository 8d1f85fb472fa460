// Experiment S1 (paper §6.1 demonstration setup): sustained engine
// throughput on a CAIDA-like traffic stream — the paper streams 50-100M
// records/hour on a 48-core Opteron; this bench reports single-threaded
// laptop-scale edges/s and its scaling shape across (a) window size and
// (b) number of concurrent queries. Absolute numbers differ from the
// paper's testbed; the shape (graceful degradation with window size and
// query count) is the reproduction target.

#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

std::vector<StreamEdge> MakeStream(Interner* interner, int edges) {
  NetflowGenerator::Options opt;
  opt.seed = 601;
  opt.num_hosts = 1024;
  opt.num_subnets = 16;
  opt.background_edges = edges;
  opt.edges_per_tick = 50;
  opt.attack_label_noise = true;
  NetflowGenerator generator(opt, interner);
  const Timestamp span = edges / opt.edges_per_tick;
  for (Timestamp t = span / 8; t < span; t += span / 8) {
    generator.InjectSmurf(t, 3);
  }
  return generator.Generate();
}

std::vector<QueryGraph> QueryLibrary(Interner* interner) {
  return {
      BuildSmurfQuery(interner, 3),
      BuildWormQuery(interner, 3),
      BuildPortScanQuery(interner, 4),
      BuildExfiltrationQuery(interner),
      BuildSmurfQuery(interner, 2),
      BuildWormQuery(interner, 2),
      BuildPortScanQuery(interner, 3),
      BuildExfiltrationQuery(interner),
  };
}

void RegisterQueries(StreamWorksEngine& engine, Interner* interner,
                     int count, Timestamp window, uint64_t* completions) {
  const std::vector<QueryGraph> library = QueryLibrary(interner);
  for (int i = 0; i < count; ++i) {
    SW_CHECK_OK(engine
                    .RegisterQuery(library[i % library.size()],
                                   DecompositionStrategy::kPrimitivePairs,
                                   window,
                                   [completions](const CompleteMatch&) {
                                     ++*completions;
                                   })
                    .status());
  }
}

void Run() {
  bench::Banner("S1", "engine throughput vs window size and query count");
  constexpr int kEdges = 400000;

  std::cout << "-- (a) window sweep, 1 smurf query --\n";
  bench::Table wtable({10, 12, 12, 14, 14});
  wtable.Row({"window", "edges/s", "matches", "peak partials",
              "stored edges"});
  wtable.Separator();
  for (const Timestamp window : {10, 50, 250, 1000, 4000}) {
    Interner interner;
    const auto edges = MakeStream(&interner, kEdges);
    StreamWorksEngine engine(&interner);
    uint64_t completions = 0;
    RegisterQueries(engine, &interner, 1, window, &completions);
    const double seconds = bench::Replay(engine, edges);
    wtable.Row({StrCat(window), bench::Rate(edges.size(), seconds),
                FormatCount(completions),
                FormatCount(engine.query_info(0).peak_partial_matches),
                FormatCount(engine.graph().num_stored_edges())});
  }

  std::cout << "\n-- (b) concurrent-query sweep, window 100 --\n";
  bench::Table qtable({10, 12, 12, 14});
  qtable.Row({"queries", "edges/s", "matches", "s total"});
  qtable.Separator();
  for (const int count : {1, 2, 4, 8}) {
    Interner interner;
    const auto edges = MakeStream(&interner, kEdges);
    StreamWorksEngine engine(&interner);
    uint64_t completions = 0;
    RegisterQueries(engine, &interner, count, /*window=*/100, &completions);
    const double seconds = bench::Replay(engine, edges);
    qtable.Row({StrCat(count), bench::Rate(edges.size(), seconds),
                FormatCount(completions), FormatDouble(seconds, 3)});
  }
  std::cout << "\nexpected shape: throughput degrades gracefully (sub-"
               "linearly) with window size and query count; matches grow "
               "with both\n";
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
