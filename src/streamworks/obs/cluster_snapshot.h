#ifndef STREAMWORKS_OBS_CLUSTER_SNAPSHOT_H_
#define STREAMWORKS_OBS_CLUSTER_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace streamworks {

/// Per-stage latency digest extracted from a worker's federated
/// streamworks_stage_duration_us histograms — enough for the
/// one-pane-of-glass view without re-shipping raw buckets.
struct WorkerStageSummary {
  std::string stage;
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

/// One worker row of /cluster.json: link state, report freshness, the
/// durability cursors the recovery protocol lives on, and the stage
/// digests. Filled by the coordinator under its cluster mutex.
struct WorkerObsSnapshot {
  int shard = -1;
  std::string host;
  int port = 0;
  bool connected = false;
  bool has_report = false;
  uint64_t report_age_us = 0;  ///< Age of the cached report (0 if none).
  uint64_t wal_seq = 0;        ///< Worker-reported durable frame count.
  uint64_t replayed_frames = 0;
  /// Expansions and inserts; with completions_sent, the items the
  /// coordinator's recovery cursor counts.
  uint64_t exchange_items_sent = 0;
  uint64_t completions_sent = 0;
  uint64_t sent_state = 0;       ///< Coordinator-side state frames ever sent.
  uint64_t retained_frames = 0;  ///< Un-acked tail retained for resend.
  std::vector<WorkerStageSummary> stages;
};

/// The /cluster.json document root. `healthy` is the coordinator
/// /healthz input: false when any worker is disconnected or its last
/// report is older than `stale_threshold_us`.
struct ClusterObsSnapshot {
  uint64_t epochs = 0;  ///< Ingest epochs completed since start.
  uint64_t stale_threshold_us = 0;
  bool healthy = true;
  std::vector<WorkerObsSnapshot> workers;
};

}  // namespace streamworks

#endif  // STREAMWORKS_OBS_CLUSTER_SNAPSHOT_H_
