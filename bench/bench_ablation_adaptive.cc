// Experiment A3 (extension — the paper's §4.3 future work implemented):
// "continuously collecting the statistics information from the data stream
// and updating the query decomposition". A two-phase stream flips its
// label distribution mid-way; a statically planned query keeps the join
// order chosen for phase 1, while the adaptive engine re-plans from live
// statistics and swaps the SJ-Tree. Both emit identical matches; the
// adaptive engine's partial-match population tracks the drift. Each
// engine's completions and replans also go to
// bench-results/bench_ablation_adaptive.json.

#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/core/engine.h"

namespace streamworks {
namespace {

/// Two-phase stream over `hosts` vertices: in phase 1, "a" edges dominate
/// and "b" edges are rare; after the flip tick the rates swap. "c" edges
/// flow at a constant moderate rate. The query is the path
/// v0-a->v1-c->v2-b->v3 — the drifting labels sit on the *outside* with
/// the steady label in the middle, so a well-planned tree can always seed
/// its intermediate join from whichever outside edge is currently rare,
/// while a phase-1-optimal static plan materialises the wrong intermediate
/// join for the whole second phase.
std::vector<StreamEdge> DriftingStream(Interner* interner, int hosts,
                                       Timestamp ticks, int per_tick) {
  Rng rng(4242);
  const LabelId host = interner->Intern("V");
  const LabelId a = interner->Intern("a");
  const LabelId b = interner->Intern("b");
  const LabelId c = interner->Intern("c");
  std::vector<StreamEdge> edges;
  for (Timestamp t = 0; t < ticks; ++t) {
    const bool phase2 = t >= ticks / 2;
    for (int i = 0; i < per_tick; ++i) {
      StreamEdge e;
      e.src = rng.NextBounded(hosts);
      e.dst = rng.NextBounded(hosts);
      e.src_label = host;
      e.dst_label = host;
      if (i < 2) {
        e.edge_label = c;  // constant moderate rate
      } else if (i == 2) {
        e.edge_label = phase2 ? a : b;  // the rare one
      } else {
        e.edge_label = phase2 ? b : a;  // the common one
      }
      e.ts = t;
      edges.push_back(e);
    }
  }
  return edges;
}

struct Outcome {
  uint64_t mappings = 0;
  double phase1_avg_partials = 0;  ///< mean live partials before the flip
  double phase2_avg_partials = 0;  ///< mean live partials after the flip
  uint64_t replans = 0;
  double seconds = 0;
};

Outcome Run(const std::vector<StreamEdge>& edges, Interner* interner,
            Timestamp flip_tick, size_t warmup_edges,
            int replan_interval) {
  QueryGraphBuilder builder(interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  const auto v3 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "a");
  builder.AddEdge(v1, v2, "c");
  builder.AddEdge(v2, v3, "b");
  const QueryGraph query = builder.Build("drift_path3").value();

  EngineOptions options;
  options.collect_statistics = true;
  options.wedge_sample_rate = 0.25;
  options.replan_interval = replan_interval;
  // Recency-weighted statistics: without decay, cumulative counts average
  // the two phases and re-planning reacts a full stream too late.
  options.stats_half_life = 4000;
  StreamWorksEngine engine(interner, options);
  Outcome out;
  // Warm-up: both engines observe a phase-1 prefix before registering, so
  // the static plan is *informed* — optimal for phase 1 specifically.
  size_t next = 0;
  for (; next < warmup_edges; ++next) {
    SW_CHECK_OK(engine.ProcessEdge(edges[next]));
  }
  const int id =
      engine
          .RegisterQuery(query,
                         DecompositionStrategy::kSelectivityLeftDeep,
                         /*window=*/8,
                         [&](const CompleteMatch&) { ++out.mappings; })
          .value();
  Timer timer;
  double phase_sum[2] = {0, 0};
  uint64_t phase_count[2] = {0, 0};
  for (; next < edges.size(); ++next) {
    const StreamEdge& e = edges[next];
    SW_CHECK_OK(engine.ProcessEdge(e));
    const int phase = e.ts >= flip_tick ? 1 : 0;
    phase_sum[phase] += static_cast<double>(
        engine.query_info(id).live_partial_matches);
    ++phase_count[phase];
  }
  out.seconds = timer.ElapsedSeconds();
  out.replans = engine.replans_performed();
  out.phase1_avg_partials = phase_sum[0] / std::max<uint64_t>(1,
                                                              phase_count[0]);
  out.phase2_avg_partials = phase_sum[1] / std::max<uint64_t>(1,
                                                              phase_count[1]);
  return out;
}

void RunBench() {
  bench::Banner("A3",
                "adaptive re-planning under label-distribution drift");
  Interner interner;
  const auto edges =
      DriftingStream(&interner, /*hosts=*/96, /*ticks=*/4000,
                     /*per_tick=*/20);
  std::cout << "stream: " << FormatCount(edges.size())
            << " edges; the a:b rate flips from 19:1 to 1:19 at "
               "mid-stream\n\n";

  const Timestamp flip = 2000;
  const size_t warmup = 8000;  // 400 ticks of phase-1 statistics
  const Outcome static_run =
      Run(edges, &interner, flip, warmup, /*replan_interval=*/0);
  const Outcome adaptive_run =
      Run(edges, &interner, flip, warmup, /*replan_interval=*/2000);
  SW_CHECK_EQ(static_run.mappings, adaptive_run.mappings);

  bench::Table table({12, 12, 18, 18, 10, 10});
  table.Row({"engine", "mappings", "avg partials ph1", "avg partials ph2",
             "replans", "seconds"});
  table.Separator();
  table.Row({"static", FormatCount(static_run.mappings),
             FormatDouble(static_run.phase1_avg_partials, 1),
             FormatDouble(static_run.phase2_avg_partials, 1),
             FormatCount(static_run.replans),
             FormatDouble(static_run.seconds, 3)});
  table.Row({"adaptive", FormatCount(adaptive_run.mappings),
             FormatDouble(adaptive_run.phase1_avg_partials, 1),
             FormatDouble(adaptive_run.phase2_avg_partials, 1),
             FormatCount(adaptive_run.replans),
             FormatDouble(adaptive_run.seconds, 3)});
  std::cout << "\nexpected shape: identical mappings and matching phase-1 "
               "populations; after the flip the phase-1-optimal static "
               "plan materialises the now-common intermediate join, while "
               "the adaptive engine (recency-weighted statistics, >=1 "
               "replan) swaps trees and keeps its phase-2 population near "
               "the phase-1 level\n";
  bench::WriteCountsJson(
      "ablation_adaptive", edges.size(),
      std::vector<bench::CountsRow>{
          {"static",
           {{"completions", static_run.mappings},
            {"replans", static_run.replans}}},
          {"adaptive",
           {{"completions", adaptive_run.mappings},
            {"replans", adaptive_run.replans}}}});
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::RunBench(); }
