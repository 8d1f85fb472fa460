// Experiment F2 (paper Fig. 2): SJ-Tree decomposition of the news query —
// "three articles sharing a common keyword and location" — and the flow of
// partial matches through the tree on a news stream with planted events.
//
// The paper's figure shows the query decomposed into (article, keyword,
// location) primitives that join pairwise up to the root; this bench prints
// the primitive-pairs decomposition (which reproduces that shape: 2-edge
// wedge leaves), then streams and reports how many matches each tree level
// held, demonstrating the progressive assembly of §3.1's intuitions. The
// query's completions, peak partials, probes and join attempts also go to
// bench-results/bench_fig2.json.

#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/planner/planner.h"
#include "streamworks/stream/news_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

void Run() {
  bench::Banner("F2", "query decomposition for the Fig. 2 news query");
  Interner interner;

  NewsGenerator::Options opt;
  opt.seed = 42;
  opt.num_articles = 8000;
  opt.entity_skew = 0.6;
  NewsGenerator generator(opt, &interner);
  const Timestamp span = opt.num_articles / opt.articles_per_tick;
  generator.InjectEvent(span / 3, "politics", 3);
  generator.InjectEvent(2 * span / 3, "politics", 3);
  const auto edges = generator.Generate();

  const QueryGraph query = BuildNewsEventQuery(&interner, "politics", 3);
  std::cout << "query: " << query.ToString(interner) << "\n\n";

  // Plan with statistics from a stream prefix, as the demo does.
  DynamicGraph sample(&interner);
  SummaryStatistics stats;
  for (size_t i = 0; i < edges.size() / 5; ++i) {
    auto id = sample.AddEdge(edges[i]);
    if (id.ok()) stats.Observe(sample, id.value());
  }
  SelectivityEstimator estimator(&stats);
  QueryPlanner planner(&estimator);
  const Decomposition decomposition =
      planner.Plan(query, DecompositionStrategy::kPrimitivePairs).value();
  std::cout << "-- decomposition (primitive pairs, Fig. 2 shape) --\n"
            << planner.ExplainPlan(query, decomposition, interner) << "\n";

  StreamWorksEngine engine(&interner);
  uint64_t completions = 0;
  std::set<uint64_t> distinct_events;
  const int qid =
      engine
          .RegisterQuery(query, decomposition, /*window=*/40,
                         [&](const CompleteMatch& cm) {
                           ++completions;
                           distinct_events.insert(
                               cm.match.EdgeSetSignature());
                         })
          .value();
  const double seconds = bench::Replay(engine, edges);

  const SjTree& tree = engine.sjtree(qid);
  const Decomposition& d = tree.decomposition();
  std::cout << "-- partial-match flow per node (matches inserted) --\n";
  bench::Table table({6, 16, 10, 14, 14});
  table.Row({"node", "role", "edges", "inserted", "join attempts"});
  table.Separator();
  for (int n = 0; n < d.num_nodes(); ++n) {
    table.Row({StrCat("n", n),
               d.IsLeaf(n) ? "search primitive"
                           : (n == d.root() ? "root" : "join"),
               StrCat(d.node(n).edges.Count()),
               FormatCount(tree.node_stats(n).matches_inserted),
               FormatCount(tree.node_stats(n).join_attempts)});
  }
  std::cout << "\ncompletions: " << completions << " mappings, "
            << distinct_events.size()
            << " distinct events (2 injected; the rest are organic "
               "keyword/location co-occurrences)\n"
            << "stream: " << FormatCount(edges.size()) << " edges in "
            << FormatDouble(seconds, 3) << "s ("
            << bench::Rate(edges.size(), seconds) << " edges/s)\n";
  const QueryRuntimeInfo info = engine.query_info(qid);
  bench::WriteCountsJson("fig2", edges.size(), {bench::CountsOf(info)});
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
