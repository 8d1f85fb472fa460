#include "streamworks/persist/manager.h"

#include <filesystem>

#include "streamworks/common/logging.h"

namespace streamworks {

namespace {

/// Snapshots kept on disk, newest first; older ones are deleted after each
/// successful snapshot. Every snapshot is a full window image, so without
/// a cap a long-running daemon grows its data dir by one window per
/// cadence tick forever; a few stay as corruption fallbacks.
constexpr int kKeepSnapshots = 4;
/// Recovered WAL edges are re-fed in batches of this many (the backend's
/// batched fast path).
constexpr size_t kReplayBatchEdges = 1024;

}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     QueryService* service,
                                     DurableBackend* backend,
                                     Interner* interner)
    : options_(std::move(options)),
      service_(service),
      backend_(backend),
      interner_(interner) {
  SW_CHECK(!options_.data_dir.empty()) << "durability needs a data dir";
}

StatusOr<RecoveryReport> DurabilityManager::Start() {
  SW_CHECK(!started_) << "DurabilityManager::Start is one-shot";
  started_ = true;

  // 0. Sweep snapshot temp files a crashed (or ENOSPC'd) writer left
  //    behind: never a recovery input (the atomic rename is what
  //    publishes a snapshot), only dead weight.
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(options_.data_dir, ec);
    if (!ec) {
      for (const auto& entry : it) {
        if (entry.path().extension() == ".tmp") {
          std::filesystem::remove(entry.path(), ec);
        }
      }
    }
  }

  // 1. Newest valid snapshot (corrupt ones are skipped — a bad snapshot
  //    costs WAL replay length, never the process).
  uint64_t from_seq = 0;
  auto loaded = LoadLatestSnapshot(options_.data_dir, interner_);
  if (loaded.ok()) {
    const SnapshotContents& contents = loaded->contents;
    recovery_.snapshot_loaded = true;
    recovery_.snapshot_path = loaded->path;
    recovery_.snapshot_wal_seq = contents.wal_seq;
    recovery_.snapshots_skipped = loaded->invalid_skipped;
    recovery_.window_edges = contents.window.edges.size();
    from_seq = contents.wal_seq;

    // 2. Window first (no queries registered yet, so the graph rebuilds
    //    silently), then the control plane: each restored Submit
    //    backfills its SJ-Tree from that window via the engine's
    //    suppressed-backfill machinery.
    SW_RETURN_IF_ERROR(backend_->RestoreWindow(contents.window));
    SW_RETURN_IF_ERROR(service_->RestorePersistState(contents.service));
    recovery_.sessions = contents.service.sessions.size();
    for (const PersistedSession& ps : contents.service.sessions) {
      recovery_.subscriptions += ps.subscriptions.size();
    }
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }

  // 3. WAL tail, completions suppressed: every match completing in this
  //    span was already delivered (or dropped) by the crashed
  //    incarnation — recovery rebuilds state, it does not re-emit.
  //    Logging is off (these edges are already in the log).
  backend_->set_logging_enabled(false);
  backend_->SetSuppressCompletions(true);
  FrameLogOptions log_options;
  log_options.fsync_every_records = options_.fsync_every_records;
  EdgeBatch pending;
  pending.reserve(kReplayBatchEdges);
  Status replay_failure = OkStatus();
  const auto flush_pending = [&] {
    if (pending.empty()) return;
    const Status applied = backend_->FeedBatch(pending, nullptr);
    // InvalidArgument is the one benign outcome: the WAL logs before
    // apply, so edges the crashed incarnation rejected (time
    // regressions, label clashes) are in the log and re-reject here by
    // design. Anything else means the backend failed to apply state the
    // log promised — recovery must fail loudly, not report success over
    // a diverged window.
    if (!applied.ok() &&
        applied.code() != StatusCode::kInvalidArgument &&
        replay_failure.ok()) {
      replay_failure = applied;
    }
    pending.clear();
  };
  auto replayed = EdgeLog::Replay(
      options_.data_dir, from_seq, interner_,
      [&](const EdgeBatch& batch, uint64_t) {
        for (const StreamEdge& e : batch) {
          pending.push_back(e);
          if (pending.size() >= kReplayBatchEdges) {
            flush_pending();
          }
        }
      },
      log_options);
  if (!replayed.ok()) {
    backend_->SetSuppressCompletions(false);
    backend_->set_logging_enabled(true);
    return replayed.status();
  }
  flush_pending();
  backend_->Flush();
  backend_->SetSuppressCompletions(false);
  backend_->set_logging_enabled(true);
  SW_RETURN_IF_ERROR(replay_failure);
  recovery_.replayed_edges = replayed->edges_replayed;
  recovery_.wal_tail_truncated = replayed->tail_truncated;

  // 4. Open the log for appending (truncates the torn tail the replay
  //    tolerated) and resume steady-state durability. Open re-scans the
  //    last segment that Replay just validated — a deliberate, bounded
  //    redundancy (one segment, <= segment_bytes) kept so the two APIs
  //    stay independently usable; fold ReplayStats into Open if startup
  //    time at huge segments ever matters.
  SW_ASSIGN_OR_RETURN(
      log_, EdgeLog::Open(options_.data_dir, interner_, log_options,
                          /*min_seq=*/std::max(replayed->next_seq,
                                               from_seq)));
  recovery_.wal_seq = log_->next_seq();
  backend_->set_log(log_.get());
  if (options_.snapshot_every_edges > 0) {
    backend_->set_snapshot_trigger(
        options_.snapshot_every_edges, [this] { SnapshotNow().ok(); });
  }
  service_->set_persist_probe([this] { return counters(); });
  return recovery_;
}

StatusOr<SnapshotInfo> DurabilityManager::SnapshotNow() {
  SW_CHECK(started_) << "Start() before SnapshotNow()";
  if (log_ == nullptr) {
    // started_ flips before recovery runs; a failed Start() leaves no
    // log. An embedder (or a stale SNAPSHOT hook) must get a status,
    // not a null dereference.
    return Status::FailedPrecondition(
        "recovery did not complete; the durability layer is inactive");
  }
  // Everything logged must be applied before the export, so the stamped
  // sequence and the exported state agree exactly.
  backend_->Flush();
  auto window = backend_->ExportWindow();
  if (!window.ok()) {
    ++snapshot_failures_;
    return window.status();
  }
  SnapshotContents contents;
  contents.wal_seq = log_->next_seq();
  contents.window = std::move(window).value();
  contents.service = service_->ExportPersistState();
  auto written =
      WriteSnapshotFile(options_.data_dir, contents, *interner_);
  if (!written.ok()) {
    ++snapshot_failures_;
    return written.status();
  }
  ++snapshots_written_;
  last_snapshot_wal_seq_ = contents.wal_seq;
  // The snapshot is durable; segments below it are dead weight. A failed
  // prune is an operability wart, not a correctness problem — same for
  // superseded snapshot files beyond the fallback budget.
  log_->PruneSegmentsBelow(contents.wal_seq).ok();
  PruneSnapshots(options_.data_dir, kKeepSnapshots).ok();
  return SnapshotInfo{std::move(written).value(), contents.wal_seq};
}

PersistCounters DurabilityManager::counters() const {
  PersistCounters c;
  c.enabled = true;
  if (log_ != nullptr) {
    const EdgeLogStats stats = log_->stats();
    c.wal_seq = log_->next_seq();
    c.wal_records = stats.records_appended;
    c.wal_edges = stats.edges_appended;
    c.wal_bytes = stats.bytes_appended;
    c.wal_segments = log_->num_segments();
    c.wal_fsyncs = stats.fsyncs;
  }
  c.snapshots_written = snapshots_written_;
  c.snapshot_failures = snapshot_failures_;
  c.last_snapshot_wal_seq = last_snapshot_wal_seq_;
  c.recovered_window_edges = recovery_.window_edges;
  c.recovered_sessions = recovery_.sessions;
  c.recovered_subscriptions = recovery_.subscriptions;
  c.replayed_edges = recovery_.replayed_edges;
  return c;
}

}  // namespace streamworks
