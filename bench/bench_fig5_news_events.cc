// Experiment F5 (paper Fig. 5): a collection of topic-specialised news
// event queries running concurrently; output is the per-location event
// table behind the demo's map visualisation. Each query is the Fig. 2
// pattern with the keyword vertex constrained to one topic label. The
// per-query completions, peak partials, probes and join attempts also go
// to bench-results/bench_fig5.json.

#include <iostream>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/dedup.h"
#include "streamworks/stream/news_gen.h"
#include "streamworks/stream/workload_queries.h"
#include "streamworks/viz/event_table.h"

namespace streamworks {
namespace {

void Run() {
  bench::Banner("F5", "concurrent topic queries with per-location events");
  Interner interner;

  NewsGenerator::Options opt;
  opt.seed = 55;
  opt.num_articles = 30000;
  opt.entity_skew = 0.8;
  NewsGenerator generator(opt, &interner);
  const Timestamp span = opt.num_articles / opt.articles_per_tick;
  // A scripted burst of events across topics and times.
  generator.InjectEvent(span / 6, "politics", 3);
  generator.InjectEvent(span / 4, "accident", 3);
  generator.InjectEvent(span / 3, "politics", 3);
  generator.InjectEvent(span / 2, "sports", 3);
  generator.InjectEvent(2 * span / 3, "health", 3);
  generator.InjectEvent(5 * span / 6, "accident", 3);
  const auto edges = generator.Generate();

  StreamWorksEngine engine(&interner);
  EventTable events;
  const char* topics[] = {"politics", "sports",  "business",
                          "accident", "science", "health"};
  for (const char* topic : topics) {
    const QueryGraph q = BuildNewsEventQuery(&interner, topic, 3);
    SW_CHECK_OK(engine
                    .RegisterQuery(
                        q, DecompositionStrategy::kSelectivityLeftDeep,
                        /*window=*/50,
                        DistinctSubgraphs([&, topic](
                                              const CompleteMatch& cm) {
                          events.Add(
                              cm.completed_at, StrCat("event_", topic),
                              StrCat("location_",
                                     engine.graph().external_id(
                                         cm.match.vertex(1)) -
                                         NewsGenerator::kLocationBase),
                              "articles=3");
                        }))
                    .status());
  }

  const double seconds = bench::Replay(engine, edges);

  std::cout << "-- event stream (first 12 rows) --\n";
  EventTable head;
  for (size_t i = 0; i < std::min<size_t>(12, events.rows().size()); ++i) {
    const auto& row = events.rows()[i];
    head.Add(row.time, row.query, row.key, row.detail);
  }
  std::cout << head.RenderAscii();

  std::cout << "\n-- events by location (map view substitute) --\n";
  for (const auto& [key, count] : events.CountByKey()) {
    std::cout << "  " << key << ": " << count << "\n";
  }
  std::cout << "\n-- per-query completions --\n";
  bench::Table table({22, 14, 16});
  table.Row({"query", "mappings", "peak partials"});
  table.Separator();
  std::vector<bench::QueryCounts> counts;
  for (size_t qid = 0; qid < engine.num_queries(); ++qid) {
    const QueryRuntimeInfo info = engine.query_info(static_cast<int>(qid));
    table.Row({info.name, FormatCount(info.completions),
               FormatCount(info.peak_partial_matches)});
    counts.push_back(bench::CountsOf(info));
  }
  std::cout << "\ndistinct events: " << events.size()
            << " (6 injected; extras are organic co-occurrences)\n"
            << "stream: " << FormatCount(edges.size()) << " edges, 6 "
            << "concurrent queries, " << FormatDouble(seconds, 3) << "s ("
            << bench::Rate(edges.size(), seconds) << " edges/s)\n";
  bench::WriteCountsJson("fig5", edges.size(), counts);
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
