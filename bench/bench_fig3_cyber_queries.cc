// Experiment F3 (paper Fig. 3): the cyber-attack query library — Smurf
// DDoS, worm propagation, port scan, exfiltration — detected concurrently
// on a flow stream with injected attacks. Reports, per query: injected
// instances, distinct detected subgraphs, raw mappings (automorphisms),
// recall of injections, and peak partial-match population. The per-query
// mapping counts, peak partials, probes and join attempts also go to
// bench-results/bench_fig3.json.

#include <iostream>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

void Run() {
  bench::Banner("F3", "cyber-attack query library on an attack campaign");
  Interner interner;

  NetflowGenerator::Options opt;
  opt.seed = 303;
  opt.num_hosts = 512;
  opt.num_subnets = 8;
  opt.background_edges = 120000;
  opt.attack_label_noise = false;  // isolate recall measurement
  NetflowGenerator generator(opt, &interner);
  const Timestamp span = opt.background_edges / opt.edges_per_tick;

  int injected_smurf = 0, injected_worm = 0, injected_scan = 0,
      injected_exfil = 0;
  for (Timestamp t = span / 10; t < span; t += span / 5) {
    generator.InjectSmurf(t, 3);
    ++injected_smurf;
    generator.InjectWorm(t + 11, 3);
    ++injected_worm;
    generator.InjectPortScan(t + 23, 4);
    ++injected_scan;
    generator.InjectExfiltration(t + 37);
    ++injected_exfil;
  }
  const auto edges = generator.Generate();

  struct Entry {
    QueryGraph query;
    int injected;
    int automorphisms;  ///< mappings per attack instance
    std::set<uint64_t> subgraphs;
    uint64_t mappings = 0;
    int query_id = -1;
  };
  std::vector<Entry> entries;
  auto add_entry = [&](QueryGraph q, int injected, int automorphisms) {
    Entry entry;
    entry.query = std::move(q);
    entry.injected = injected;
    entry.automorphisms = automorphisms;
    entries.push_back(std::move(entry));
  };
  add_entry(BuildSmurfQuery(&interner, 3), injected_smurf, 6);
  add_entry(BuildWormQuery(&interner, 3), injected_worm, 1);
  add_entry(BuildPortScanQuery(&interner, 4), injected_scan, 24);
  add_entry(BuildExfiltrationQuery(&interner), injected_exfil, 1);

  StreamWorksEngine engine(&interner);
  for (Entry& entry : entries) {
    entry.query_id =
        engine
            .RegisterQuery(entry.query,
                           DecompositionStrategy::kPrimitivePairs,
                           /*window=*/50,
                           [&entry](const CompleteMatch& cm) {
                             ++entry.mappings;
                             entry.subgraphs.insert(
                                 cm.match.EdgeSetSignature());
                           })
            .value();
  }
  const double seconds = bench::Replay(engine, edges);

  bench::Table table({16, 10, 12, 12, 10, 14});
  table.Row({"query", "injected", "detected", "mappings", "recall",
             "peak partials"});
  table.Separator();
  std::vector<bench::QueryCounts> counts;
  for (const Entry& entry : entries) {
    const QueryRuntimeInfo info = engine.query_info(entry.query_id);
    counts.push_back(bench::CountsOf(info));
    table.Row({entry.query.name(), StrCat(entry.injected),
               StrCat(entry.subgraphs.size()),
               FormatCount(entry.mappings),
               StrCat(entry.subgraphs.size() >=
                          static_cast<size_t>(entry.injected)
                          ? "1.00"
                          : FormatDouble(
                                static_cast<double>(entry.subgraphs.size()) /
                                    entry.injected,
                                2)),
               FormatCount(info.peak_partial_matches)});
  }
  std::cout << "\nstream: " << FormatCount(edges.size()) << " edges, 4 "
            << "concurrent queries, " << FormatDouble(seconds, 3) << "s ("
            << bench::Rate(edges.size(), seconds) << " edges/s)\n"
            << "expected shape: every injected attack detected exactly "
               "(recall 1.00); mappings = detected x automorphisms\n";
  bench::WriteCountsJson("fig3", edges.size(), counts);
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
