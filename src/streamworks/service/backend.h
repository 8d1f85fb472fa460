#ifndef STREAMWORKS_SERVICE_BACKEND_H_
#define STREAMWORKS_SERVICE_BACKEND_H_

#include <vector>

#include "streamworks/core/engine.h"
#include "streamworks/service/metrics.h"

namespace streamworks {

/// Uniform control surface the service layer drives, hiding whether
/// queries run on one StreamWorksEngine or are sharded across a cluster
/// of worker daemons (DistributedBackend). This is the seam deployment
/// modes plug into.
///
/// Threading contract: one control thread calls Register / Unregister /
/// Info / Feed* / Flush; match callbacks may run on a backend thread (the
/// cluster's pump) and must be thread-safe (the service hands the backend
/// callbacks that only touch ResultQueue and atomics).
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  virtual StatusOr<int> Register(const QueryGraph& query,
                                 DecompositionStrategy strategy,
                                 Timestamp window, MatchCallback callback) = 0;

  /// After this returns, no further callbacks fire for the query.
  virtual Status Unregister(int query_id) = 0;

  virtual StatusOr<QueryRuntimeInfo> Info(int query_id) = 0;

  /// Ingests one edge. A malformed-edge error is reported for the
  /// single-engine backend; the cluster surfaces those only in aggregate
  /// counters (its ingestion is asynchronous).
  virtual Status Feed(const StreamEdge& edge) = 0;

  /// Ingests a whole batch on the batched fast path. Malformed edges are
  /// skipped, not batch-fatal; when `rejected_out` is non-null it receives
  /// how many edges the backend refused (always 0 for asynchronous
  /// backends, which surface rejections only in aggregate counters — the
  /// wire protocol reports that count per FEEDB frame).
  virtual Status FeedBatch(const EdgeBatch& batch,
                           size_t* rejected_out) = 0;

  /// Blocks until every previously fed edge is fully processed (and its
  /// callbacks have run).
  virtual void Flush() = 0;

  /// Per-shard load/exchange counters, for ServiceMetrics. Deployment
  /// modes without shards report nothing; the cluster drains its pending
  /// epochs to read consistent gauges — call from the control thread.
  virtual std::vector<ShardLoadSnapshot> ShardLoads() { return {}; }

  // --- Durability seam ------------------------------------------------------
  // The persistence layer (persist/) snapshots and recovers through these
  // three calls. All are control-thread calls.

  /// Point-in-time export of the retained window.
  virtual StatusOr<WindowSnapshot> ExportWindow() {
    return Status::Unimplemented("backend does not support window export");
  }

  /// Rebuilds the window from an export. Must precede any registration
  /// or ingest; the registrations that follow backfill from it.
  virtual Status RestoreWindow(const WindowSnapshot& snapshot) {
    (void)snapshot;
    return Status::Unimplemented("backend does not support window restore");
  }

  /// Gates match delivery while a recovery replay rebuilds state whose
  /// completions the crashed incarnation already emitted.
  virtual void SetSuppressCompletions(bool suppress) { (void)suppress; }
};

/// In-process, single-threaded deployment: every query on one engine,
/// callbacks fire synchronously inside Feed.
class SingleEngineBackend : public QueryBackend {
 public:
  /// `engine` must outlive the backend.
  explicit SingleEngineBackend(StreamWorksEngine* engine) : engine_(engine) {}

  StatusOr<int> Register(const QueryGraph& query,
                         DecompositionStrategy strategy, Timestamp window,
                         MatchCallback callback) override;
  Status Unregister(int query_id) override;
  StatusOr<QueryRuntimeInfo> Info(int query_id) override;
  Status Feed(const StreamEdge& edge) override;
  Status FeedBatch(const EdgeBatch& batch, size_t* rejected_out) override;
  void Flush() override {}
  StatusOr<WindowSnapshot> ExportWindow() override;
  Status RestoreWindow(const WindowSnapshot& snapshot) override;
  void SetSuppressCompletions(bool suppress) override {
    engine_->set_suppress_completions(suppress);
  }

 private:
  StreamWorksEngine* engine_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SERVICE_BACKEND_H_
