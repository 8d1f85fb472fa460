// Service-layer churn bench: sustained ingest throughput while tenants
// continuously submit and detach continuous queries mid-stream.
//
//   $ ./build/bench/bench_service_churn
//
// Each scenario replays the same synthetic netflow stream through a
// QueryService with four tenant sessions. At a fixed churn cadence the
// oldest live subscription of a rotating session is detached and a fresh
// query (rotating over three patterns) is submitted in its place — the
// admission path, the routing-index rebuild, and the mid-stream backfill
// all sit on the hot path. churn=0 is the stable-subscriber baseline; the
// delta against it prices query churn on one engine, which pays the
// backfill inline.

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/query_service.h"
#include "streamworks/stream/netflow_gen.h"

namespace streamworks::bench {
namespace {

constexpr int kNumSessions = 4;
constexpr int kInitialQueriesPerSession = 2;

const char* const kQueryCatalogue[] = {
    R"(query probe
node s Host
node t Host
edge s t synProbe
window 200)",
    R"(query echo_wedge
node a Host
node b Host
node v Host
edge a b icmpEchoReq
edge b v icmpEchoReply
window 200)",
    R"(query exfil
node i Host
node s Host
node x Host
edge i s copy
edge s x upload
window 400)",
};

struct ChurnResult {
  double wall_seconds = 0;
  uint64_t admitted = 0;
  uint64_t detaches = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
};

ChurnResult RunScenario(const std::vector<StreamEdge>& stream,
                        QueryBackend* backend, Interner* interner,
                        int churn_every) {
  std::vector<ParsedQuery> catalogue;
  for (const char* text : kQueryCatalogue) {
    auto parsed = ParseQueryText(text, interner);
    SW_CHECK(parsed.ok()) << parsed.status().ToString();
    catalogue.push_back(std::move(parsed).value());
  }

  ServiceLimits limits;
  limits.max_queries_per_session = 8;
  QueryService service(backend, limits);

  std::vector<int> sessions;
  std::vector<std::deque<int>> live_subs(kNumSessions);
  size_t next_query = 0;
  const auto submit = [&](int slot) {
    const ParsedQuery& pq = catalogue[next_query++ % catalogue.size()];
    SubmitOptions options;
    options.window = pq.window;
    auto sub = service.Submit(sessions[slot], pq.graph, options);
    SW_CHECK(sub.ok()) << sub.status().ToString();
    live_subs[slot].push_back(sub.value());
  };
  for (int s = 0; s < kNumSessions; ++s) {
    sessions.push_back(
        service.OpenSession("tenant" + std::to_string(s)).value());
    for (int q = 0; q < kInitialQueriesPerSession; ++q) submit(s);
  }

  int churn_slot = 0;
  Timer timer;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (churn_every > 0 && i > 0 && i % churn_every == 0) {
      const int slot = churn_slot++ % kNumSessions;
      const int victim = live_subs[slot].front();
      live_subs[slot].pop_front();
      SW_CHECK(service.Detach(sessions[slot], victim).ok());
      submit(slot);
    }
    service.Feed(stream[i]).ok();
  }
  service.Flush();
  const double wall = timer.ElapsedSeconds();

  const ServiceStatsSnapshot snap = service.Snapshot();
  ChurnResult result;
  result.wall_seconds = wall;
  result.admitted = snap.admitted;
  result.detaches = snap.detaches;
  result.delivered = snap.matches_enqueued;
  result.dropped = snap.matches_dropped;
  return result;
}

void RunAll(int num_edges) {
  Banner("bench_service_churn",
         "ingest throughput under continuous query churn");

  Table table({12, 8, 10, 10, 12, 10, 10});
  table.Row({"churn_every", "subs", "detaches", "edges/s", "rel_to_base",
             "matches", "dropped"});
  table.Separator();

  double baseline_rate = 0;
  for (const int churn_every : {0, 2000, 500}) {
    // Fresh interner + stream per run: each scenario starts cold.
    Interner interner;
    NetflowGenerator::Options gen_options;
    gen_options.background_edges = num_edges;
    gen_options.num_hosts = 512;
    NetflowGenerator gen(gen_options, &interner);
    gen.InjectSmurf(num_edges / 4, 8);
    gen.InjectPortScan(num_edges / 2, 12);
    gen.InjectExfiltration(3 * num_edges / 4);
    const std::vector<StreamEdge> stream = gen.Generate();

    StreamWorksEngine engine(&interner);
    SingleEngineBackend backend(&engine);
    const ChurnResult result =
        RunScenario(stream, &backend, &interner, churn_every);

    const double rate =
        static_cast<double>(stream.size()) / result.wall_seconds;
    if (churn_every == 0) baseline_rate = rate;
    table.Row({churn_every == 0 ? "off" : std::to_string(churn_every),
               std::to_string(kNumSessions * kInitialQueriesPerSession),
               std::to_string(result.detaches),
               FormatCount(static_cast<uint64_t>(rate)),
               FormatDouble(rate / baseline_rate, 2),
               std::to_string(result.delivered),
               std::to_string(result.dropped)});
  }
  table.Separator();
}

}  // namespace
}  // namespace streamworks::bench

int main(int argc, char** argv) {
  int num_edges = 40000;
  if (argc > 1) num_edges = std::atoi(argv[1]);
  streamworks::bench::RunAll(num_edges);
  return 0;
}
