// Experiment F7 (paper Fig. 7): emerging partial matches for the Smurf
// DDoS pattern under *different SJ-Tree query plans*. All four
// decomposition strategies track the same attack on the same stream; the
// series shows the fraction of the query matched over time (the paper's
// percentage annotations) and the partial-match population each plan pays
// to get there. Completions must be identical; populations and runtime
// must not be. Each plan's completions, peak partials, probes and join
// attempts also go to bench-results/bench_fig7.json.

#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/planner/planner.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

void Run() {
  bench::Banner("F7",
                "emerging Smurf matches under different query plans");
  Interner interner;

  NetflowGenerator::Options opt;
  opt.seed = 77;
  opt.num_hosts = 256;
  opt.background_edges = 40000;
  opt.attack_label_noise = true;  // noise differentiates the plans
  NetflowGenerator generator(opt, &interner);
  const Timestamp span = opt.background_edges / opt.edges_per_tick;
  generator.InjectSmurf(span / 2, /*num_amplifiers=*/3);
  const auto edges = generator.Generate();

  const QueryGraph query = BuildSmurfQuery(&interner, 3);

  // Summarise a prefix for informed plans.
  DynamicGraph sample(&interner);
  SummaryStatistics stats;
  for (size_t i = 0; i < edges.size() / 5; ++i) {
    auto id = sample.AddEdge(edges[i]);
    if (id.ok()) stats.Observe(sample, id.value());
  }
  SelectivityEstimator estimator(&stats);
  QueryPlanner planner(&estimator);

  struct Plan {
    DecompositionStrategy strategy;
    std::unique_ptr<SjTree> tree;
    uint64_t completions = 0;
    double seconds = 0;
  };
  std::vector<Plan> plans;
  for (DecompositionStrategy s : kAllDecompositionStrategies) {
    Plan plan;
    plan.strategy = s;
    plan.tree = std::make_unique<SjTree>(
        &query, planner.Plan(query, s).value(), /*window=*/60);
    plans.push_back(std::move(plan));
  }

  // All plans watch one shared window graph; each is timed separately.
  DynamicGraph graph(&interner);
  graph.set_retention(60);

  std::cout << "-- series: fraction of query matched in the window / "
               "stored partial matches --\ntick      ";
  for (const Plan& plan : plans) {
    std::cout << std::string(DecompositionStrategyName(plan.strategy))
                     .substr(0, 14)
              << "        ";
  }
  std::cout << "\n";

  const Timestamp sample_every = span / 16;
  Timestamp next_sample = sample_every;
  std::vector<Match> completed;
  for (const StreamEdge& e : edges) {
    const EdgeId id = graph.AddEdge(e).value();
    for (Plan& plan : plans) {
      Timer timer;
      // As the engine does: drop the slices the watermark left behind,
      // then run the edge's anchors.
      plan.tree->ExpireOldMatches(graph.watermark());
      completed.clear();
      plan.tree->ProcessEdge(graph, id, &completed);
      plan.completions += completed.size();
      plan.seconds += timer.ElapsedSeconds();
    }
    if (e.ts >= next_sample) {
      next_sample += sample_every;
      std::cout << std::left << std::setw(10) << e.ts;
      for (const Plan& plan : plans) {
        std::cout << std::setw(5)
                  << FormatDouble(
                         plan.tree->MaxMatchedFraction(graph.watermark()), 2)
                  << std::setw(17)
                  << StrCat("/", plan.tree->TotalPartialMatches());
      }
      std::cout << "\n";
    }
  }

  std::cout << "\n-- summary per plan --\n";
  bench::Table table({24, 12, 14, 14, 10});
  table.Row({"strategy", "mappings", "peak partials", "join attempts",
             "seconds"});
  table.Separator();
  std::vector<bench::QueryCounts> counts;
  for (const Plan& plan : plans) {
    counts.push_back(
        bench::CountsOf(std::string(DecompositionStrategyName(plan.strategy)),
                        *plan.tree, plan.completions));
    table.Row({counts.back().query, FormatCount(plan.completions),
               FormatCount(counts.back().peak_partials),
               FormatCount(counts.back().join_attempts),
               FormatDouble(plan.seconds, 3)});
  }
  std::cout << "\nexpected shape: identical mappings across plans; "
               "selectivity-informed plans hold far fewer partial matches "
               "than the uninformed left-deep baseline\n";
  bench::WriteCountsJson("fig7", edges.size(), counts);
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
