#ifndef STREAMWORKS_CLUSTER_WORKER_H_
#define STREAMWORKS_CLUSTER_WORKER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/partition.h"
#include "streamworks/net/peer_link.h"
#include "streamworks/obs/http_endpoint.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/persist/frame_log.h"
#include "streamworks/sjtree/exchange.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read the bound port after Start).
  /// Durability root; the frame log lives in <data_dir>/frames. Empty =
  /// in-memory only (a crashed worker cannot recover its shard).
  std::string data_dir;
  /// Read-poll granularity: how often the serve loop re-checks its stop
  /// flag while idle.
  int poll_interval_ms = 250;
  /// Local observability endpoint: -1 = none, 0 = ephemeral (read
  /// http_port() after Start). Serves /metrics, /trace.json and /healthz
  /// from the daemon's serve thread — same single-threaded discipline as
  /// the control link, so a scrape never races an apply.
  int http_port = -1;
};

/// Aggregate counters one worker daemon exposes to tests.
struct WorkerCounters {
  uint64_t frames_applied = 0;     ///< State frames applied (== log seq).
  uint64_t exchange_items_sent = 0;  ///< Expansions and inserts.
  uint64_t completions_sent = 0;
  uint64_t replayed_frames = 0;    ///< State frames re-applied at startup.
};

/// One shard of a distributed StreamWorks cluster, run as a daemon: a
/// single-threaded server owning one StreamWorksEngine in shard mode, fed
/// control frames by a coordinator over a PeerLink.
///
/// The daemon speaks the vertex-partitioned sharding protocol over the
/// wire: the coordinator routes each ingested edge to its endpoint owners
/// (kBatch), epoch barriers bound in-flight work (kBarrier/kBarrierAck)
/// and watermark commits drive expiry (kCommit). The daemon has one output
/// stream, its MatchExchange outbox: forwarded partial matches and the
/// completions this shard finds, in the order the engine produced them,
/// sent up in chunked kExchange frames after each state frame and before
/// each BarrierAck. The coordinator delivers the completions and relays
/// the rest (star topology, no worker mesh). A deployment runs the daemon
/// as its own process, or on a thread beside the coordinator; the
/// protocol is the same.
///
/// Durability and exactly-once recovery: every *state-bearing* frame
/// (IsStateCtrlType) is appended to a FrameLog before it is applied, in
/// arrival order. After a crash (kill -9 included — the log needs no
/// fsync to survive process death) the restarted daemon defers replay
/// until the coordinator's Hello arrives carrying one cursor: how many
/// exchange items, completions included, the coordinator had received
/// from this shard (K). Replay re-applies the whole log; because the
/// engine is deterministic, it regenerates the exact output stream the
/// dead incarnation produced, and the daemon discards its first K items —
/// already delivered — and sends only the excess. It then reports its
/// durable frame count (M) in HelloAck, and the coordinator resends the
/// state frames [M, S) the crash swallowed. Net effect: every frame is
/// applied exactly once, every output delivered exactly once, with no
/// quiescence requirement on when the kill lands.
///
/// Single-threaded by design: one connection (the coordinator's), one
/// engine, no locks. The accept loop outlives connections so a
/// coordinator may reconnect after a link failure.
class WorkerDaemon {
 public:
  explicit WorkerDaemon(WorkerOptions options);
  ~WorkerDaemon() = default;

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Binds and listens (resolving port 0); opens the frame log when a
  /// data dir is configured, so a second daemon on the same dir fails
  /// here, not mid-handshake.
  Status Start();

  /// Bound TCP port (valid after Start).
  int port() const { return port_; }

  /// Bound HTTP port (valid after Start; -1 when the endpoint is off).
  int http_port() const { return http_port_; }

  /// The daemon's metric registry (local /metrics; snapshotted into
  /// MetricsReport frames for coordinator federation).
  MetricRegistry* registry() { return &registry_; }

  /// Serves until `stop` becomes true: accept one coordinator connection,
  /// handshake, dispatch frames; on link failure, go back to accepting.
  /// Returns the first non-recoverable error (log corruption, engine
  /// invariant breach), or OK on a clean stop.
  Status Serve(const std::atomic<bool>& stop);

  const WorkerCounters& counters() const { return counters_; }

 private:
  /// One coordinator connection: handshake, then dispatch until link
  /// failure or stop.
  Status ServeConnection(PeerLink* link, const std::atomic<bool>& stop);

  /// Handshake on a fresh connection: read Hello, configure the engine on
  /// first contact, replay the frame log (once per process, skipping the
  /// coordinator's output cursor K), send HelloAck + excess outputs.
  Status Handshake(PeerLink* link);

  /// Configures engine + partitioner from the Hello (first contact) or
  /// validates consistency (reconnect).
  Status Configure(const CtrlHello& hello);

  /// Logs (when durable) and applies one state frame; increments
  /// frames_applied. `register_ack_out`, when non-null, receives the ack
  /// for a kRegister frame (replay passes null — no one is listening).
  /// Refuses, before logging it, an Exchange frame that carries a
  /// completion: only a corrupt or foreign peer sends one down, and a
  /// logged one would fail every later replay.
  Status ApplyStateFrame(const CtrlFrame& frame,
                         CtrlRegisterAck* register_ack_out);

  Status ApplyRegister(const CtrlRegister& reg, CtrlRegisterAck* ack_out);
  Status ApplyBatch(const CtrlBatch& batch);
  Status ApplyExchange(const CtrlExchange& exchange);

  /// Drains the exchange outbox into kExchange frames for the coordinator
  /// (chunked), honouring the replay skip cursor. In replay the frames
  /// buffer into pending_out_; live, they send immediately.
  Status FlushOutbox(PeerLink* link);

  /// Engine completion callback target: queues the match on the outbox
  /// as a kComplete item for the coordinator.
  void OnCompletion(const CompleteMatch& cm);

  Status SendInfoAck(PeerLink* link, const CtrlInfo& info);
  Status SendStatsAck(PeerLink* link);
  /// Snapshots the registry + cursors into a CRC'd MetricsReport frame.
  Status SendMetricsReport(PeerLink* link);

  /// Accepts and answers every pending HTTP scrape (non-blocking poll,
  /// one request per connection). Runs inline on the serve thread —
  /// between accepts while idle, between control frames while a
  /// coordinator session is live — so it reads engine state safely.
  void ServeHttpConnection();
  /// The worker's /healthz document.
  std::string RenderWorkerHealth() const;

  WorkerOptions options_;
  UniqueFd listen_fd_;
  int port_ = -1;
  UniqueFd http_listen_fd_;
  int http_port_ = -1;

  /// Local observability: per-worker registry + pipeline stage metrics,
  /// scraped directly over HTTP and federated through MetricsReport.
  MetricRegistry registry_;
  PipelineMetrics pipeline_;
  MetricCounter* edges_fed_ = nullptr;  ///< {role="worker"} ingest counter.
  int pipeline_collector_token_ = -1;
  std::unique_ptr<HttpHandler> http_;

  Interner interner_;
  MatchExchange exchange_;
  std::unique_ptr<StreamWorksEngine> engine_;
  std::unique_ptr<FrameLog> log_;

  int shard_index_ = -1;
  int num_shards_ = 0;
  uint64_t partitioner_seed_ = 0;
  bool configured_ = false;
  bool replayed_ = false;

  /// Live link, only valid inside Serve's per-connection scope (/healthz
  /// reports whether a coordinator is connected).
  PeerLink* live_link_ = nullptr;

  /// Replay state: while set, outputs are counted against the skip
  /// cursor and the excess buffers into pending_out_ instead of sending.
  bool replaying_ = false;
  uint64_t replay_exchange_skip_ = 0;
  std::vector<std::string> pending_out_;

  uint64_t applied_frames_ = 0;
  WorkerCounters counters_;
  /// Set when an error must end Serve (log corruption, engine-invariant
  /// breach) rather than just this connection.
  bool fatal_ = false;
};

}  // namespace streamworks

#endif  // STREAMWORKS_CLUSTER_WORKER_H_
