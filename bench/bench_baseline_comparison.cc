// Experiment B1 (paper §2.2/§3.1 claims): the incremental SJ-Tree engine
// against (a) the repeated-search strategy (Fan et al. style: re-run the
// batch matcher per timestep and diff) and (b) the naive no-decomposition
// incremental matcher (§3.1's "simplistic approach"). All three compute
// identical match sets; the comparison is total runtime as the stream
// grows, plus a batch-size sweep showing how repeated search amortises
// (but never catches up). Every table row's match count also goes to
// bench-results/bench_baseline_comparison.json.

#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "streamworks/baseline/naive.h"
#include "streamworks/baseline/recompute.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/stream/batching.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/news_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

struct RunResult {
  double seconds = 0;
  uint64_t matches = 0;
};

RunResult RunEngine(const QueryGraph& query, Timestamp window,
                    const std::vector<StreamEdge>& edges,
                    Interner* interner) {
  StreamWorksEngine engine(interner);
  RunResult result;
  SW_CHECK_OK(engine
                  .RegisterQuery(query,
                                 DecompositionStrategy::kPrimitivePairs,
                                 window,
                                 [&](const CompleteMatch&) {
                                   ++result.matches;
                                 })
                  .status());
  result.seconds = bench::Replay(engine, edges);
  return result;
}

RunResult RunNaive(const QueryGraph& query, Timestamp window,
                   const std::vector<StreamEdge>& edges,
                   Interner* interner) {
  NaiveIncrementalMatcher matcher(&query, window, interner);
  RunResult result;
  Timer timer;
  for (const StreamEdge& e : edges) {
    result.matches += matcher.ProcessEdge(e).value().size();
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

/// Repeated search evaluated once per timestamp tick (its exact-oracle
/// configuration; see recompute.h on why larger batches lose matches).
RunResult RunRecompute(const QueryGraph& query, Timestamp window,
                       const std::vector<StreamEdge>& edges,
                       Interner* interner) {
  RecomputeMatcher matcher(&query, window, interner);
  RunResult result;
  Timer timer;
  for (const EdgeBatch& batch : BatchByTick(edges)) {
    result.matches += matcher.ProcessBatch(batch).value().size();
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<StreamEdge> NetflowStream(Interner* interner, int edges) {
  NetflowGenerator::Options opt;
  opt.seed = 2468;
  opt.num_hosts = 256;
  opt.background_edges = edges;
  opt.attack_label_noise = true;
  NetflowGenerator generator(opt, interner);
  const Timestamp span = edges / opt.edges_per_tick;
  for (Timestamp t = span / 6; t < span; t += span / 6) {
    generator.InjectSmurf(t, 2);
  }
  return generator.Generate();
}

void Run() {
  bench::Banner("B1", "incremental SJ-Tree vs repeated search vs naive");
  // Re-search cost is proportional to the window content (window ticks x
  // edges/tick), so a realistic monitoring window makes the asymptotic gap
  // visible even on laptop-scale streams.
  constexpr Timestamp kWindow = 200;

  std::cout << "-- (a) runtime vs stream length (netflow, smurf-2 query, "
               "window "
            << kWindow << ") --\n";
  bench::Table table({10, 12, 12, 14, 12, 10});
  table.Row({"edges", "sjtree s", "naive s", "recompute s", "matches",
             "speedup"});
  table.Separator();
  // One row per table row: its stream's edges and its match count.
  std::vector<bench::CountsRow> counts;
  const auto add_count = [&](std::string scenario, size_t edges,
                             uint64_t completions) {
    counts.push_back({std::move(scenario),
                      {{"edges", edges}, {"completions", completions}}});
  };
  uint64_t total_edges = 0;
  for (const int size : {2000, 8000, 32000, 96000}) {
    Interner interner;
    const auto edges = NetflowStream(&interner, size);
    const QueryGraph query = BuildSmurfQuery(&interner, 2);
    const RunResult engine = RunEngine(query, kWindow, edges, &interner);
    const RunResult naive = RunNaive(query, kWindow, edges, &interner);
    const RunResult recompute = RunRecompute(query, kWindow, edges,
                                             &interner);
    SW_CHECK_EQ(engine.matches, naive.matches);
    SW_CHECK_EQ(engine.matches, recompute.matches);
    add_count(StrCat("netflow ", size), edges.size(), engine.matches);
    total_edges += edges.size();
    table.Row({FormatCount(size), FormatDouble(engine.seconds, 3),
               FormatDouble(naive.seconds, 3),
               FormatDouble(recompute.seconds, 3),
               FormatCount(engine.matches),
               StrCat(FormatDouble(recompute.seconds /
                                       std::max(engine.seconds, 1e-9),
                                   1),
                      "x")});
  }

  std::cout << "\n-- (b) repeated search vs batch size (32k edges) --\n";
  std::cout << "(larger batches amortise the re-search but *miss* matches "
               "that complete and\n expire inside one evaluation interval "
               "— the completeness gap of periodic\n re-evaluation that "
               "motivates continuous processing)\n";
  bench::Table btable({12, 14, 16, 12, 10});
  btable.Row({"batch size", "recompute s", "re-enumerations", "matches",
              "missed"});
  btable.Separator();
  uint64_t exact_matches = 0;
  for (const size_t batch : {10u, 50u, 250u, 1000u, 4000u}) {
    Interner interner;
    const auto edges = NetflowStream(&interner, 32000);
    const QueryGraph query = BuildSmurfQuery(&interner, 2);
    if (exact_matches == 0) {
      exact_matches =
          RunRecompute(query, kWindow, edges, &interner).matches;
    }
    RecomputeMatcher matcher(&query, kWindow, &interner);
    Timer timer;
    uint64_t enumerated = 0;
    uint64_t matches = 0;
    for (const EdgeBatch& b : BatchBySize(edges, batch)) {
      matches += matcher.ProcessBatch(b).value().size();
      enumerated += matcher.last_enumerated();
    }
    add_count(StrCat("recompute batch ", batch), edges.size(), matches);
    total_edges += edges.size();
    btable.Row({FormatCount(batch), FormatDouble(timer.ElapsedSeconds(), 3),
                FormatCount(enumerated), FormatCount(matches),
                FormatCount(exact_matches - matches)});
  }

  std::cout << "\n-- (c) news workload (Fig. 2 query, 8k articles) --\n";
  {
    Interner interner;
    NewsGenerator::Options opt;
    opt.seed = 111;
    opt.num_articles = 8000;
    opt.entity_skew = 0.8;
    NewsGenerator generator(opt, &interner);
    generator.InjectEvent(500, "politics", 3);
    generator.InjectEvent(1500, "politics", 3);
    const auto edges = generator.Generate();
    const QueryGraph query = BuildNewsEventQuery(&interner, "politics", 3);
    const RunResult engine = RunEngine(query, 60, edges, &interner);
    const RunResult naive = RunNaive(query, 60, edges, &interner);
    const RunResult recompute = RunRecompute(query, 60, edges, &interner);
    SW_CHECK_EQ(engine.matches, naive.matches);
    SW_CHECK_EQ(engine.matches, recompute.matches);
    add_count("news", edges.size(), engine.matches);
    total_edges += edges.size();
    bench::Table ctable({12, 12, 12, 14});
    ctable.Row({"matches", "sjtree s", "naive s", "recompute s"});
    ctable.Separator();
    ctable.Row({FormatCount(engine.matches),
                FormatDouble(engine.seconds, 3),
                FormatDouble(naive.seconds, 3),
                FormatDouble(recompute.seconds, 3)});
  }

  std::cout << "\nexpected shape: identical match counts everywhere; "
               "repeated search is consistently slower and its gap grows "
               "with stream length and window content (it re-scans the "
               "whole window per tick); the SJ-Tree also beats the naive "
               "matcher as query size and neighbourhood density grow\n";
  bench::WriteCountsJson("baseline_comparison", total_edges, counts);
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
