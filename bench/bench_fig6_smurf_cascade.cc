// Experiment F6 (paper Fig. 6): the cascading effect of a Smurf DDoS
// campaign across subnetworks, rendered as the grid view — rows are
// subnets, columns are time slices, cells are detection counts. The
// campaign stages attacks subnet-by-subnet, so the heat should march down
// the grid diagonally over time. The query's completions, peak partials,
// probes and join attempts also go to bench-results/bench_fig6.json.

#include <iostream>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/dedup.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/workload_queries.h"
#include "streamworks/viz/grid_view.h"

namespace streamworks {
namespace {

void Run() {
  bench::Banner("F6", "cascading Smurf DDoS across subnetworks (grid view)");
  Interner interner;

  NetflowGenerator::Options opt;
  opt.seed = 66;
  opt.num_hosts = 512;
  opt.num_subnets = 8;
  opt.background_edges = 80000;
  opt.attack_label_noise = false;
  NetflowGenerator generator(opt, &interner);
  const Timestamp span = opt.background_edges / opt.edges_per_tick;

  // Staged campaign: the attack victim moves to the next subnet every
  // span/8 ticks — the cascade of Fig. 6.
  for (int subnet = 0; subnet < opt.num_subnets; ++subnet) {
    const Timestamp at = span / 10 + subnet * (span / 10);
    generator.InjectSmurf(at, /*num_amplifiers=*/3, /*attacker_subnet=*/0,
                          /*victim_subnet=*/subnet);
  }
  const auto edges = generator.Generate();

  const QueryGraph query = BuildSmurfQuery(&interner, 3);
  StreamWorksEngine engine(&interner);
  GridView grid(/*slice_width=*/span / 32);
  uint64_t distinct_attacks = 0;
  const int qid =
      engine
          .RegisterQuery(
              query, DecompositionStrategy::kPrimitivePairs, /*window=*/60,
              DistinctSubgraphs([&](const CompleteMatch& cm) {
                ++distinct_attacks;
                // Query vertex 1 is the victim (BuildSmurfQuery).
                const int subnet = generator.SubnetOf(
                    engine.graph().external_id(cm.match.vertex(1)));
                grid.Add(StrCat("subnet_", subnet), cm.completed_at);
              }))
          .value();

  const double seconds = bench::Replay(engine, edges);

  std::cout << "-- detections per subnet over time --\n"
            << grid.RenderAscii() << "\n-- same grid as CSV --\n"
            << grid.RenderCsv();
  std::cout << "\ndistinct attacks detected: " << distinct_attacks << " of "
            << generator.injections().size() << " injected\n"
            << "expected shape: one hot cell per subnet row, marching "
               "diagonally (the cascade)\n"
            << "stream: " << FormatCount(edges.size()) << " edges in "
            << FormatDouble(seconds, 3) << "s ("
            << bench::Rate(edges.size(), seconds) << " edges/s)\n";
  const QueryRuntimeInfo info = engine.query_info(qid);
  bench::WriteCountsJson("fig6", edges.size(), {bench::CountsOf(info)});
}

}  // namespace
}  // namespace streamworks

int main() { streamworks::Run(); }
