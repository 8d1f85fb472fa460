#ifndef STREAMWORKS_NET_SERVER_OPTIONS_H_
#define STREAMWORKS_NET_SERVER_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/service/interpreter.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

/// Knobs of a SocketServer. At least one of tcp_port / unix_path must be
/// enabled. Lives apart from server.h so the IO-loop and acceptor layers
/// can share it without depending on the assembled server.
struct ServerOptions {
  /// TCP listener port; -1 disables, 0 binds an ephemeral port (read the
  /// real one back from SocketServer::tcp_port after Start).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Unix-domain listener path; empty disables. The server unlinks the
  /// path on shutdown.
  std::string unix_path;
  /// Accepts beyond this are refused with "ERR server full".
  size_t max_connections = 64;
  /// IO loops (epoll event loops) the acceptor shards connections across,
  /// round-robin. Each loop owns its connections' read/decode/write and
  /// runs its own stream pump, so a slow consumer degrades delivery on
  /// its own loop only. 0 = auto: min(4, hardware_concurrency). Control-
  /// plane calls from every loop serialize on one mutex, so io_loops
  /// scales the byte-shuffling and delivery fan-out, not query execution.
  int io_loops = 0;
  /// Per-connection write-buffer high-water mark: above it the stream pump
  /// stops draining that connection's subscriptions, so backpressure falls
  /// through to each ResultQueue's own overflow policy (block / drop).
  size_t write_high_water = 256 * 1024;
  /// A read buffer growing past this without a newline is a protocol
  /// violation; the connection is told ERR and closed.
  size_t max_line_bytes = 64 * 1024;
  /// Largest accepted FEEDB frame body. An oversized frame is refused
  /// with ERR and its declared bytes are skipped, so the stream stays in
  /// sync and the connection survives.
  size_t max_frame_body_bytes = kDefaultMaxFrameBodyBytes;
  /// Stream-pump drain cadence while any subscription is streaming.
  int pump_interval_ms = 2;
  /// When > 0, SO_SNDBUF for accepted connections. Tests shrink it so a
  /// slow reader hits the write high-water (and thus the queue's overflow
  /// policy) after kilobytes instead of the kernel-default hundreds of KB.
  int so_sndbuf = 0;
  /// Installed on every connection's interpreter as the SNAPSHOT verb's
  /// target (the durability layer's SnapshotNow). Runs under the server's
  /// control mutex, like every other interpreter call. Unset = SNAPSHOT
  /// answers ERR (no durability layer).
  CommandInterpreter::SnapshotHook snapshot_hook;
  /// Observability HTTP listener port; -1 disables, 0 binds an ephemeral
  /// port (read back from SocketServer::http_port after Start). An HTTP
  /// connection rides whichever IO loop the acceptor dealt it to; requests
  /// are parsed and answered on that loop's thread under the server's
  /// control mutex, which is what lets /stats.json and friends call
  /// QueryService::Snapshot()/QueryInfos() safely.
  int http_port = -1;
  std::string http_host = "127.0.0.1";
  /// Served as GET /metrics when set; the server also installs itself as
  /// the service's frontend probe either way, so its counters reach STATS
  /// and the streamworks_frontend_* families. Must outlive the server.
  MetricRegistry* registry = nullptr;
  /// The deployment's shared stage instrumentation: the server records
  /// kFrameDecode around FEEDB decoding and kDeliveryFlush around stream-
  /// pump drain passes, and serves /trace.json from it. Must outlive the
  /// server. Null = no stage timing, trace endpoint answers 503.
  PipelineMetrics* pipeline = nullptr;
  /// Cluster deployments: pre-rendered /cluster.json and /epochs.json
  /// documents, plus a /healthz override that folds worker health into
  /// the answer (the coordinator binds these to its federation cache and
  /// epoch trace ring). Invoked on the scraping IO loop under the
  /// server's control mutex, like every other provider. Unset = the
  /// cluster routes answer 503 and /healthz stays stats-based.
  std::function<std::string()> cluster_provider;
  std::function<std::string()> epochs_provider;
  std::function<std::string()> health_provider;
  /// Durable deployments set this so Stop()'s connection teardown leaves
  /// still-connected tenants' sessions OPEN: the shutdown snapshot taken
  /// after Stop must capture them (a graceful restart preserves exactly
  /// what a kill -9 would have), where a live tenant's own disconnect
  /// still closes its sessions as always. Leave false without a
  /// durability layer — preserved sessions would just leak.
  bool preserve_sessions_on_stop = false;

  /// io_loops with the auto default resolved.
  int ResolvedIoLoops() const;
};

/// Monotonic counters of one server's lifetime (all reads are safe from
/// any thread). Sums over every IO loop; the per-loop split is in
/// FrontendStatsSnapshot::io_loops.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;
  uint64_t connections_closed = 0;
  uint64_t lines_executed = 0;
  uint64_t frames_executed = 0;  ///< Binary FEEDB frames executed.
  uint64_t batch_edges_in = 0;   ///< Edges carried by those frames.
  uint64_t protocol_errors = 0;
  uint64_t events_pushed = 0;  ///< EVENT lines queued to sockets.
  uint64_t pump_flushes = 0;   ///< Coalesced drain-pass writes by the pumps.
  uint64_t http_requests = 0;  ///< Observability HTTP requests answered.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t subscriptions_reclaimed = 0;  ///< Subscriptions reclaimed on close.
};

}  // namespace streamworks

#endif  // STREAMWORKS_NET_SERVER_OPTIONS_H_
