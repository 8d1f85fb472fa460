// Service demo: the multi-tenant continuous-query layer end-to-end.
//
//   $ ./build/examples/service_demo
//
// With --serve the same service becomes a network daemon instead of a
// scripted scenario: a SocketServer binds the CommandInterpreter line
// protocol to TCP and/or a unix-domain socket, and tenants drive it from
// other processes with streamworks_client (or nc). The CI e2e job runs
// exactly that: `service_demo --serve --unix /tmp/sw.sock` in the
// background, a scripted subscribe/ingest/expect-matches session against
// it, SIGTERM to shut down.
//
//   $ ./build/examples/service_demo --serve --tcp 7687 --unix /tmp/sw.sock
//
// Three analyst sessions share one live netflow-style stream served by one
// StreamWorksEngine behind a QueryService (or, with --role coordinator, by
// a cluster of worker daemons).
// The whole scenario is scripted through the CommandInterpreter's line
// protocol — the same protocol test fixtures use — and exercises the
// service surface:
//
//   * soc       subscribes to a port-scan style probe pattern with a tiny
//               drop_oldest queue (a dashboard that only wants the latest),
//   * forensics subscribes to the same pattern with drop_newest (an
//               evidence log that must keep the earliest hits), pauses
//               during the noisy burst, and resumes after,
//   * triage    subscribes to a two-hop login->connect pattern, then
//               detaches mid-stream — deliveries provably stop while the
//               other sessions keep flowing.
//
// The final STATS block shows per-session admission, drop, suppression,
// and delivery-lag counters diverging per tenant.

#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <optional>
#include <string_view>
#include <thread>

#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/str_util.h"
#include "streamworks/core/engine.h"
#include "streamworks/net/server.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/persist/durable_backend.h"
#include "streamworks/persist/manager.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/interpreter.h"
#include "streamworks/service/query_service.h"

using namespace streamworks;  // NOLINT: example brevity

namespace {

constexpr const char* kScenario = R"(
# --- query catalogue -------------------------------------------------------
DEFINE probe
  node s Host
  node t Host
  edge s t synProbe
  window 100
END
DEFINE lateral
  node u User
  node h Host
  node x Host
  edge u h login
  edge h x connect
  window 50
END

# --- tenants ---------------------------------------------------------------
SESSION soc
SESSION forensics
SESSION triage
SUBMIT soc live probe CAP 3 POLICY drop_oldest
SUBMIT forensics evidence probe CAP 3 POLICY drop_newest
SUBMIT triage hunt lateral CAP 16 POLICY block

# --- quiet traffic: a lateral movement and the first probes ---------------
FEED 500 User 10 Host login 1
FEED 10 Host 11 Host connect 3
FEED 20 Host 30 Host synProbe 5
FEED 20 Host 31 Host synProbe 6
FLUSH
POLL triage hunt

# triage saw its lateral movement; the hunt is over.
DETACH triage hunt

# --- noisy burst: forensics pauses, soc rides its bounded queue -----------
PAUSE forensics evidence
FEED 20 Host 32 Host synProbe 10
FEED 20 Host 33 Host synProbe 11
FEED 20 Host 34 Host synProbe 12
FEED 20 Host 35 Host synProbe 13
FEED 500 User 12 Host login 14
FEED 12 Host 13 Host connect 15
FLUSH
RESUME forensics evidence

# --- after the burst -------------------------------------------------------
FEED 20 Host 36 Host synProbe 20
FLUSH
POLL soc live
POLL forensics evidence
STATS
)";

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

/// Daemon mode: serve the line protocol on sockets until SIGINT/SIGTERM.
/// `durability` (may be null) provides the SNAPSHOT verb and a final
/// shutdown snapshot, so a graceful restart recovers without any WAL
/// tail to replay.
int Serve(QueryService* service, Interner* interner, ServerOptions options,
          DurabilityManager* durability) {
  // Handlers first: a supervisor's SIGTERM in the bind window must already
  // take the graceful path, not the default disposition.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  if (durability != nullptr) {
    options.snapshot_hook = [durability]() -> StatusOr<std::string> {
      SW_ASSIGN_OR_RETURN(const SnapshotInfo info,
                          durability->SnapshotNow());
      return "wal_seq=" + std::to_string(info.wal_seq) + " " + info.path;
    };
    // Stop() must not close still-connected tenants' sessions: the
    // shutdown snapshot below captures them, so a graceful restart
    // preserves exactly the re-attachable state a kill -9 would have.
    options.preserve_sessions_on_stop = true;
  }
  SocketServer server(service, interner, options);
  if (Status status = server.Start(); !status.ok()) {
    std::cerr << "server start failed: " << status.ToString() << "\n";
    return 1;
  }
  // The e2e harness (and any supervisor) scrapes this line for the
  // endpoints, so keep it on one line and flush it before backgrounding
  // settles.
  std::cout << "SERVING tcp=" << server.tcp_port() << " unix="
            << (server.unix_path().empty() ? "-" : server.unix_path())
            << " http=" << server.http_port() << std::endl;
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  const ServerStats stats = server.stats();
  std::cout << "SHUTDOWN accepted=" << stats.connections_accepted
            << " lines=" << stats.lines_executed
            << " frames=" << stats.frames_executed
            << " batch_edges=" << stats.batch_edges_in
            << " events=" << stats.events_pushed
            << " reclaimed=" << stats.subscriptions_reclaimed << std::endl;
  if (durability != nullptr) {
    // Stop() joined the poll thread, so this thread is the control
    // thread again: a last snapshot makes the graceful restart replay
    // nothing. (kill -9 skips this — that is what the WAL is for.)
    auto final_snap = durability->SnapshotNow();
    if (final_snap.ok()) {
      std::cout << "SNAPSHOT final wal_seq=" << final_snap->wal_seq << " "
                << final_snap->path << std::endl;
    } else {
      std::cerr << "final snapshot failed: "
                << final_snap.status().ToString() << "\n";
    }
  }
  return 0;
}

/// `--role worker`: one shard of a distributed cluster as its own daemon.
/// Prints "WORKER port=<port>" once listening (the e2e harness scrapes it,
/// like SERVING) and serves until SIGINT/SIGTERM.
int RunWorker(WorkerOptions options) {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  WorkerDaemon daemon(std::move(options));
  if (Status status = daemon.Start(); !status.ok()) {
    std::cerr << "worker start failed: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "WORKER port=" << daemon.port();
  if (daemon.http_port() >= 0) std::cout << " http=" << daemon.http_port();
  std::cout << std::endl;
  const Status served = daemon.Serve(g_shutdown);
  if (!served.ok()) {
    std::cerr << "worker failed: " << served.ToString() << "\n";
    return 1;
  }
  const WorkerCounters& counters = daemon.counters();
  std::cout << "WORKER SHUTDOWN frames=" << counters.frames_applied
            << " replayed=" << counters.replayed_frames
            << " exchange_sent=" << counters.exchange_items_sent
            << " completions=" << counters.completions_sent << std::endl;
  return 0;
}

/// Splits a comma-separated "host:port,host:port" worker list.
std::vector<std::string> SplitWorkerList(std::string_view spec) {
  std::vector<std::string> out;
  while (!spec.empty()) {
    const size_t comma = spec.find(',');
    out.emplace_back(spec.substr(0, comma));
    if (comma == std::string_view::npos) break;
    spec.remove_prefix(comma + 1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  int64_t trace_threshold_us = PipelineMetrics::kDefaultSlowThresholdUs;
  ServerOptions server_options;
  DurabilityOptions durability_options;
  // Cluster mode: --role worker serves one shard, --role coordinator runs
  // the full service surface over a DistributedBackend spanning --workers.
  std::string role;
  WorkerOptions worker_options;
  DistributedBackendOptions cluster_options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--role" && i + 1 < argc) {
      role = argv[++i];
      if (role != "coordinator" && role != "worker") {
        std::cerr << "bad --role (want coordinator|worker): " << role << "\n";
        return 1;
      }
    } else if (arg == "--workers" && i + 1 < argc) {
      cluster_options.workers = SplitWorkerList(argv[++i]);
    } else if (arg == "--listen-port" && i + 1 < argc) {
      int64_t port = 0;
      if (!ParseInt64(argv[++i], &port) || port < 0 || port > 65535) {
        std::cerr << "bad --listen-port: " << argv[i] << "\n";
        return 1;
      }
      worker_options.port = static_cast<int>(port);
    } else if (arg == "--http-port" && i + 1 < argc) {
      int64_t port = 0;
      if (!ParseInt64(argv[++i], &port) || port < 0 || port > 65535) {
        std::cerr << "bad --http-port: " << argv[i] << "\n";
        return 1;
      }
      worker_options.http_port = static_cast<int>(port);
    } else if (arg == "--connect-deadline-ms" && i + 1 < argc) {
      int64_t ms = 0;
      if (!ParseInt64(argv[++i], &ms) || ms <= 0) {
        std::cerr << "bad --connect-deadline-ms: " << argv[i] << "\n";
        return 1;
      }
      cluster_options.connect_deadline_ms = static_cast<int>(ms);
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--tcp" && i + 1 < argc) {
      int64_t port = 0;
      if (!ParseInt64(argv[++i], &port) || port < 0 || port > 65535) {
        std::cerr << "bad --tcp port: " << argv[i] << "\n";
        return 1;
      }
      server_options.tcp_port = static_cast<int>(port);
      serve = true;  // an endpoint flag IS the request to serve
    } else if (arg == "--unix" && i + 1 < argc) {
      server_options.unix_path = argv[++i];
      serve = true;
    } else if (arg == "--http" && i + 1 < argc) {
      int64_t port = 0;
      if (!ParseInt64(argv[++i], &port) || port < 0 || port > 65535) {
        std::cerr << "bad --http port: " << argv[i] << "\n";
        return 1;
      }
      server_options.http_port = static_cast<int>(port);
      serve = true;
    } else if (arg == "--io-loops" && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n < 0 || n > 64) {
        std::cerr << "bad --io-loops count: " << argv[i] << "\n";
        return 1;
      }
      server_options.io_loops = static_cast<int>(n);
    } else if (arg == "--max-connections" && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n <= 0) {
        std::cerr << "bad --max-connections count: " << argv[i] << "\n";
        return 1;
      }
      server_options.max_connections = static_cast<size_t>(n);
    } else if (arg == "--write-high-water" && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n <= 0) {
        std::cerr << "bad --write-high-water bytes: " << argv[i] << "\n";
        return 1;
      }
      server_options.write_high_water = static_cast<size_t>(n);
    } else if (arg == "--so-sndbuf" && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n <= 0) {
        std::cerr << "bad --so-sndbuf bytes: " << argv[i] << "\n";
        return 1;
      }
      server_options.so_sndbuf = static_cast<int>(n);
    } else if (arg == "--trace-us" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &trace_threshold_us) ||
          trace_threshold_us < 0) {
        std::cerr << "bad --trace-us threshold: " << argv[i] << "\n";
        return 1;
      }
    } else if (arg == "--data-dir" && i + 1 < argc) {
      durability_options.data_dir = argv[++i];
    } else if (arg == "--snapshot-every" && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n < 0) {
        std::cerr << "bad --snapshot-every count: " << argv[i] << "\n";
        return 1;
      }
      durability_options.snapshot_every_edges = static_cast<uint64_t>(n);
    } else if (arg == "--fsync-every" && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n < 0) {
        std::cerr << "bad --fsync-every count: " << argv[i] << "\n";
        return 1;
      }
      durability_options.fsync_every_records = static_cast<int>(n);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--serve [--tcp PORT] [--unix PATH] [--http PORT]]"
                   " [--io-loops N] [--max-connections N]"
                   " [--write-high-water BYTES] [--so-sndbuf BYTES]"
                   " [--trace-us N]"
                   " [--data-dir DIR [--snapshot-every N]"
                   " [--fsync-every N]]"
                   " [--role worker --listen-port P [--http-port P]"
                   " [--data-dir DIR]]"
                   " [--role coordinator --workers H:P,H:P"
                   " [--connect-deadline-ms N]]\n";
      return 1;
    }
  }
  if (role == "worker") {
    // A worker's --data-dir is its frame log, not the service WAL.
    worker_options.data_dir = durability_options.data_dir;
    return RunWorker(std::move(worker_options));
  }
  if (role == "coordinator" && cluster_options.workers.empty()) {
    std::cerr << "--role coordinator requires --workers host:port,...\n";
    return 1;
  }
  if (durability_options.data_dir.empty() &&
      (durability_options.snapshot_every_edges > 0 ||
       durability_options.fsync_every_records > 0)) {
    // Durability knobs without a data dir would be a silent no-op: the
    // operator believes state survives a crash when nothing is written.
    std::cerr << "--snapshot-every/--fsync-every require --data-dir\n";
    return 1;
  }
  Interner interner;
  // The observability spine: one registry serving /metrics, one shared
  // PipelineMetrics instance every layer records its stages into. Both
  // are wired before any traffic so instrumentation is on from the first
  // edge.
  MetricRegistry registry;
  PipelineMetrics pipeline(static_cast<uint64_t>(trace_threshold_us));
  EngineOptions engine_options;
  engine_options.pipeline = &pipeline;
  StreamWorksEngine engine(&interner, engine_options);
  SingleEngineBackend engine_backend(&engine);

  // With --data-dir the durable decorator slides between the service and
  // the engine: ingest is WAL-logged before it is applied, and the
  // process recovers its window + sessions on start.
  const bool durable =
      !durability_options.data_dir.empty() && role != "coordinator";
  DurableBackend durable_backend(&engine_backend);
  QueryBackend* backend =
      durable ? static_cast<QueryBackend*>(&durable_backend)
              : &engine_backend;

  // Coordinator mode swaps the engine for the multi-process cluster;
  // everything above it (service, sessions, wire protocol, observability)
  // is unchanged. Durability lives in the workers' frame
  // logs, so the coordinator-side WAL decorator stays out of the stack.
  std::optional<DistributedBackend> cluster;
  if (role == "coordinator") {
    if (!durability_options.data_dir.empty()) {
      std::cerr << "--data-dir on the coordinator is unused; give it to the "
                   "workers (their frame logs carry cluster durability)\n";
      return 1;
    }
    // The cluster backend joins the observability spine: its federation
    // collector makes /metrics cluster-wide, its epoch phases land in the
    // registry, and its barrier/relay time lands in the shared pipeline.
    cluster_options.registry = &registry;
    cluster_options.pipeline = &pipeline;
    cluster.emplace(cluster_options, &interner);
    if (Status status = cluster->Start(); !status.ok()) {
      std::cerr << "cluster start failed: " << status.ToString() << "\n";
      return 1;
    }
    backend = &*cluster;
  }

  ServiceLimits limits;
  limits.max_queries_per_session = 4;
  QueryService service(backend, limits);
  service.set_pipeline_metrics(&pipeline);
  // Scrape-time collectors: the service snapshot (which also folds in the
  // persist and frontend probes) and the per-stage histograms. Collectors
  // run on the scraping thread — the server's poll thread, i.e. the
  // control thread — so the Snapshot() call is safe.
  RegisterServiceCollector(&registry,
                           [&service] { return service.Snapshot(); });
  RegisterPipelineCollector(&registry, &pipeline);

  std::optional<DurabilityManager> durability;
  if (durable) {
    durability.emplace(durability_options, &service, &durable_backend,
                       &interner);
    auto recovered = durability->Start();
    if (!recovered.ok()) {
      std::cerr << "recovery failed: " << recovered.status().ToString()
                << "\n";
      return 1;
    }
    // Scraped by the e2e harness, like SERVING/SHUTDOWN.
    std::cout << "RECOVERED snapshot="
              << (recovered->snapshot_loaded ? recovered->snapshot_path
                                             : "-")
              << " wal_seq=" << recovered->wal_seq
              << " window_edges=" << recovered->window_edges
              << " sessions=" << recovered->sessions
              << " subscriptions=" << recovered->subscriptions
              << " replayed_edges=" << recovered->replayed_edges
              << std::endl;
  }

  if (serve) {
    if (server_options.tcp_port < 0 && server_options.unix_path.empty()) {
      server_options.tcp_port = 0;  // ephemeral; port printed on SERVING
    }
    if (server_options.http_port < 0) {
      server_options.http_port = 0;  // always serve observability endpoints
    }
    server_options.registry = &registry;
    server_options.pipeline = &pipeline;
    if (cluster.has_value()) {
      DistributedBackend* cb = &*cluster;
      server_options.cluster_provider = [cb] {
        return RenderClusterJson(cb->ObsSnapshot(/*refresh=*/true));
      };
      server_options.epochs_provider = [cb] {
        return RenderEpochsJson(cb->EpochTrace(), cb->epochs_completed(),
                                PipelineMetrics::NowMicros());
      };
      // Health refreshes too: a pull on a killed worker's link fails
      // fast and flips it to disconnected, so /healthz degrades within
      // one scrape of the crash instead of after the staleness window.
      server_options.health_provider = [cb] {
        return RenderClusterHealthJson(cb->ObsSnapshot(/*refresh=*/true));
      };
    }
    return Serve(&service, &interner, server_options,
                 durability.has_value() ? &*durability : nullptr);
  }

  CommandInterpreter interpreter(&service, &interner, &std::cout);
  interpreter.set_pipeline_metrics(&pipeline);
  if (durability.has_value()) {
    DurabilityManager* manager = &*durability;
    interpreter.set_snapshot_hook([manager]() -> StatusOr<std::string> {
      SW_ASSIGN_OR_RETURN(const SnapshotInfo info, manager->SnapshotNow());
      return "wal_seq=" + std::to_string(info.wal_seq) + " " + info.path;
    });
  }

  if (Status status = interpreter.ExecuteScript(kScenario); !status.ok()) {
    std::cerr << "scenario error: " << status.ToString() << "\n";
    return 1;
  }

  // The triage session detached mid-stream: the login@14/connect@15 pair
  // completed after the detach and must not have been delivered.
  std::cout << "\ntriage deliveries after detach: ";
  auto triage = interpreter.ResolveSubscription("triage", "hunt");
  if (!triage.ok()) {
    std::cerr << "lookup error: " << triage.status().ToString() << "\n";
    return 1;
  }
  const ResultQueueCounters counters =
      service.queue(triage->first, triage->second)->counters();
  std::cout << counters.enqueued << " enqueued, " << counters.delivered
            << " delivered (none after DETACH)\n";
  return counters.enqueued == 1 ? 0 : 1;
}
