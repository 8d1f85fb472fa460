#ifndef STREAMWORKS_PERSIST_MANAGER_H_
#define STREAMWORKS_PERSIST_MANAGER_H_

#include <memory>
#include <string>

#include "streamworks/persist/durable_backend.h"
#include "streamworks/persist/edge_log.h"
#include "streamworks/persist/snapshot.h"
#include "streamworks/service/query_service.h"

namespace streamworks {

/// Deployment knobs of the durability subsystem.
struct DurabilityOptions {
  /// Directory holding WAL segments (wal-*.log) and snapshots
  /// (snap-*.snap); created if missing.
  std::string data_dir;
  /// WAL fsync cadence (see FrameLogOptions::fsync_every_records).
  int fsync_every_records = 0;
  /// Auto-snapshot after this many applied edges; 0 = only explicit
  /// SNAPSHOT requests (and the operator's shutdown snapshot).
  uint64_t snapshot_every_edges = 0;
};

/// What Start() recovered, for banners and tests.
struct RecoveryReport {
  bool snapshot_loaded = false;
  std::string snapshot_path;
  uint64_t snapshot_wal_seq = 0;
  int snapshots_skipped = 0;  ///< Corrupt newer snapshots skipped over.
  uint64_t window_edges = 0;
  uint64_t sessions = 0;
  uint64_t subscriptions = 0;
  uint64_t replayed_edges = 0;   ///< WAL-tail edges re-applied.
  bool wal_tail_truncated = false;
  uint64_t wal_seq = 0;          ///< Where logging resumes.
};

/// Information about one written snapshot.
struct SnapshotInfo {
  std::string path;
  uint64_t wal_seq = 0;
};

/// Orchestrates the two durable pieces — the write-ahead EdgeLog and the
/// engine/service snapshots — over one QueryService + DurableBackend
/// stack:
///
///   recovery (Start):  load the newest valid snapshot -> restore the
///   window into the backend -> re-submit the persisted sessions and
///   subscriptions (each Submit backfills its SJ-Tree from the restored
///   window through the existing suppressed-backfill machinery) ->
///   replay the WAL tail with completions suppressed (those matches were
///   already delivered by the crashed incarnation) -> open the log for
///   appending (truncating any torn tail) and resume.
///
///   steady state:  the DurableBackend appends every fed edge before
///   applying it, and invokes SnapshotNow on the configured cadence.
///
/// Delivery across a crash is at-most-once: matches that were completed
/// but still queued (or in flight on a socket) when the process died are
/// not resurrected — state is, exactly. All calls on the control thread.
class DurabilityManager {
 public:
  /// All pointees must outlive the manager. `backend` is the durable
  /// decorator already wired under `service`.
  DurabilityManager(DurabilityOptions options, QueryService* service,
                    DurableBackend* backend, Interner* interner);

  /// Recovers from data_dir (a missing or empty directory is a fresh
  /// start) and begins logging. One-shot; must run before any tenant
  /// traffic. Installs the snapshot trigger and the service's persist
  /// probe.
  StatusOr<RecoveryReport> Start();

  /// Flushes the backend, snapshots the window + service tables stamped
  /// with the current WAL sequence, atomically installs the file, and
  /// prunes fully covered WAL segments. Callable any time on the control
  /// thread (the SNAPSHOT verb, the auto-cadence, shutdown).
  StatusOr<SnapshotInfo> SnapshotNow();

  /// Counters for STATS (the service's persist probe). Control thread
  /// only, like every other call: it reads the log's live counters.
  PersistCounters counters() const;

  const RecoveryReport& recovery() const { return recovery_; }

 private:
  DurabilityOptions options_;
  QueryService* service_;
  DurableBackend* backend_;
  Interner* interner_;

  std::unique_ptr<EdgeLog> log_;
  bool started_ = false;
  RecoveryReport recovery_;
  uint64_t snapshots_written_ = 0;
  uint64_t snapshot_failures_ = 0;
  uint64_t last_snapshot_wal_seq_ = 0;
};

}  // namespace streamworks

#endif  // STREAMWORKS_PERSIST_MANAGER_H_
