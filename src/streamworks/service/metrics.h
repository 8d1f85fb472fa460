#ifndef STREAMWORKS_SERVICE_METRICS_H_
#define STREAMWORKS_SERVICE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "streamworks/common/histogram.h"
#include "streamworks/common/types.h"

namespace streamworks {

/// Delivery-lag histogram (microsecond samples recorded at pop time). The
/// implementation generalized into common/histogram.h so pipeline-stage
/// timing shares it; the name stays for the service-layer call sites.
using LagHistogram = Histogram;

/// Point-in-time load of one cluster worker's shard (empty for
/// single-engine deployments). `sharding` names the deployment
/// ("distributed"); the forwarded/received counters are the cross-shard
/// match exchange's. The memory story of vertex partitioning reads
/// directly off `retained_edges`: a shard retains only its owned edges,
/// not the whole window.
struct ShardLoadSnapshot {
  int shard = 0;
  std::string sharding;
  uint64_t retained_edges = 0;
  uint64_t retained_vertices = 0;
  uint64_t evicted_edges = 0;
  uint64_t edges_processed = 0;
  uint64_t completions = 0;  ///< Matches this shard found and delivered.
  uint64_t live_partial_matches = 0;
  /// Expansions and inserts this shard sent to, and executed for, other
  /// shards (completions go to the coordinator and count above).
  uint64_t matches_forwarded = 0;
  uint64_t matches_received = 0;
};

/// Point-in-time counters of the durability subsystem (persist/), pulled
/// into the service snapshot through QueryService::set_persist_probe so
/// STATS surfaces them without the service depending on the persistence
/// layer. All zero (enabled=false) when the deployment runs without a
/// data dir.
struct PersistCounters {
  bool enabled = false;
  uint64_t wal_seq = 0;          ///< Next WAL edge sequence (edges logged).
  uint64_t wal_records = 0;      ///< WAL records appended this process.
  uint64_t wal_edges = 0;        ///< Edges those records carried.
  uint64_t wal_bytes = 0;        ///< Bytes appended to WAL segments.
  uint64_t wal_segments = 0;     ///< Segment files currently on disk.
  uint64_t wal_fsyncs = 0;
  uint64_t snapshots_written = 0;
  uint64_t snapshot_failures = 0;
  uint64_t last_snapshot_wal_seq = 0;
  uint64_t recovered_window_edges = 0;  ///< Edges restored from the snapshot.
  uint64_t recovered_sessions = 0;
  uint64_t recovered_subscriptions = 0;
  uint64_t replayed_edges = 0;   ///< WAL-tail edges re-fed at recovery.
};

/// Point-in-time load of one frontend IO loop (connections owned, pump
/// drain-pass flushes) — the per-loop split of the frontend sums, which is
/// where sharding skew and a slow consumer's throttled loop become
/// visible.
struct IoLoopStatsSnapshot {
  int loop = 0;
  uint64_t connections = 0;
  uint64_t pump_flushes = 0;
};

/// Point-in-time counters of the network frontend (the socket server's
/// ServerStats), pulled into the service snapshot through
/// QueryService::set_frontend_probe so a live daemon's wire activity —
/// pump flushes, FEEDB frames, batched edges — shows up in STATS instead
/// of only in the SHUTDOWN banner. The probe reads atomics, so unlike the
/// persist probe it is safe from any thread. All zero (enabled=false) for
/// in-process deployments without a socket frontend.
struct FrontendStatsSnapshot {
  bool enabled = false;
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;
  uint64_t connections_closed = 0;
  uint64_t lines_executed = 0;
  uint64_t frames_executed = 0;  ///< Binary FEEDB frames executed.
  uint64_t batch_edges_in = 0;   ///< Edges carried by those frames.
  uint64_t protocol_errors = 0;
  uint64_t events_pushed = 0;
  uint64_t pump_flushes = 0;
  uint64_t http_requests = 0;    ///< Observability endpoint requests served.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t subscriptions_reclaimed = 0;
  /// Per-IO-loop split (empty when the frontend predates loops or is off).
  std::vector<IoLoopStatsSnapshot> io_loops;
};

/// Point-in-time counters for one subscription. `state` and `policy` are
/// rendered as strings so this header stays free of service-layer types.
struct SubscriptionStatsSnapshot {
  int subscription_id = -1;
  int session_id = -1;
  std::string query_name;
  std::string state;    ///< "active" | "paused" | "detached".
  std::string policy;   ///< Overflow policy name.
  Timestamp window = 0;
  uint64_t enqueued = 0;    ///< Matches accepted into the result queue.
  uint64_t delivered = 0;   ///< Matches popped by the consumer.
  uint64_t dropped = 0;     ///< Matches lost to overflow (or post-close).
  uint64_t suppressed_while_paused = 0;
  size_t queue_depth = 0;   ///< Matches currently waiting in the queue.
};

/// Point-in-time counters for one session.
struct SessionStatsSnapshot {
  int session_id = -1;
  std::string name;
  bool open = true;
  uint64_t submissions = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t detaches = 0;
  int live_queries = 0;
  std::vector<SubscriptionStatsSnapshot> subscriptions;
};

/// Service-wide snapshot returned by QueryService::Snapshot() — the one
/// introspection call aggregating admission, delivery, and lag counters
/// across every session.
struct ServiceStatsSnapshot {
  uint64_t sessions_opened = 0;
  uint64_t submissions = 0;
  uint64_t admitted = 0;
  uint64_t rejected_session_quota = 0;
  uint64_t rejected_partial_budget = 0;
  uint64_t rejected_other = 0;   ///< Planner/validation failures.
  uint64_t pauses = 0;
  uint64_t resumes = 0;
  uint64_t detaches = 0;
  uint64_t reclaimed = 0;  ///< Detached subscriptions compacted away.
  /// Subset of `reclaimed` taken by the age-based sweep: drained detached
  /// subscriptions in still-open sessions whose owner never collected
  /// them within the configured epoch threshold.
  uint64_t reclaimed_aged = 0;
  uint64_t edges_fed = 0;

  uint64_t matches_enqueued = 0;
  uint64_t matches_delivered = 0;
  uint64_t matches_dropped = 0;
  uint64_t matches_suppressed = 0;

  uint64_t delivery_lag_p50_us = 0;
  uint64_t delivery_lag_p99_us = 0;
  /// The merged per-queue delivery-lag histogram the percentiles above
  /// were read from — exported whole so /metrics can render the full
  /// bucket series, not just two quantiles.
  LagHistogram delivery_lag;

  std::vector<SessionStatsSnapshot> sessions;
  /// Per-shard backend load (empty for single-engine backends).
  std::vector<ShardLoadSnapshot> shards;
  /// Durability counters (enabled=false without a persistence layer).
  PersistCounters persist;
  /// Network frontend counters (enabled=false without a socket server).
  FrontendStatsSnapshot frontend;

  /// Multi-line fixed-width rendering (the STATS command's output).
  std::string ToString() const;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SERVICE_METRICS_H_
