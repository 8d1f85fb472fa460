#ifndef STREAMWORKS_CORE_PARALLEL_H_
#define STREAMWORKS_CORE_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "streamworks/core/engine.h"
#include "streamworks/graph/partition.h"

namespace streamworks {

/// Multi-core query execution (the paper's demo ran many concurrent
/// queries on a 48-core shared-memory node): N worker threads, each owning
/// a private StreamWorksEngine, fed through bounded per-shard queues.
///
/// The *data graph* is partitioned by vertex ownership (a pluggable
/// Partitioner) and every query is replicated onto every shard. An edge is
/// routed only to the shard(s) owning its endpoints, so each shard retains
/// O(owned edges) instead of O(all edges); partial matches whose expansion
/// or join leaves a shard are forwarded through the MatchExchange. Match
/// sets are identical to a single engine's (the exchange relocates each
/// exactly-once event, it never duplicates or drops one; verified by the
/// equivalence tests). DistributedBackend runs the same protocol across
/// processes.
///
/// Threading contract: callbacks run on worker threads, and all of a
/// query's completions are delivered by its *callback-home* shard, so a
/// callback only needs to be thread-safe against callbacks of queries
/// homed on other shards. Control calls (Register/Unregister/query_info/
/// Process*/Flush/Close) come from one control thread. Close() (or
/// destruction) drains the queues and joins the workers.
///
/// Ingest runs in *epochs*: every ProcessBatch (and every kEpochEdges single
/// edges) ends with a barrier that drains the exchange, then broadcasts the
/// group watermark so window expiry advances consistently on every shard —
/// a shard holding only old vertices would otherwise never see a new edge
/// and never expire, and eager local expiry could race ahead of forwarded
/// matches still needing old neighbourhoods. Every control call first
/// commits the pending watermark (Flush), as DistributedBackend commits
/// its pending epoch, so it sees the window a single engine holds after
/// the same edges.
class ParallelEngineGroup {
 public:
  /// Creates `num_shards` workers configured with `options`. `partitioner`
  /// picks vertex ownership (null = built-in hash+modulo); it must outlive
  /// the group. Requires options.replan_interval == 0 (per-shard
  /// re-planning would diverge the replicated trees).
  ParallelEngineGroup(Interner* interner, int num_shards,
                      EngineOptions options = {},
                      const Partitioner* partitioner = nullptr);
  ~ParallelEngineGroup();

  ParallelEngineGroup(const ParallelEngineGroup&) = delete;
  ParallelEngineGroup& operator=(const ParallelEngineGroup&) = delete;

  /// Registers a query and returns a group-wide query id. May be called
  /// mid-stream: the group is flushed, the query is planned once (against
  /// shard 0's statistics), its tree is replicated onto every shard, and a
  /// distributed backfill through the exchange seeds it from the window.
  /// Not thread-safe against other control calls or the producer; one
  /// control thread.
  StatusOr<int> RegisterQuery(const QueryGraph& query,
                              DecompositionStrategy strategy,
                              Timestamp window, MatchCallback callback);

  /// Unregisters a group query id. Flushes the whole group first (any
  /// shard may hold its partials), so once this returns no further
  /// callbacks fire for the query. Same threading contract as
  /// RegisterQuery.
  Status UnregisterQuery(int group_query_id);

  /// Runtime snapshot of one group query (flushes the group;
  /// partial-match gauges aggregate over shards).
  StatusOr<QueryRuntimeInfo> query_info(int group_query_id);

  /// Ingests one edge: validates it group-wide and routes it to its
  /// endpoint owners. Blocks when a target shard's queue is full
  /// (backpressure). Not thread-safe; one producer.
  void ProcessEdge(const StreamEdge& edge);

  /// Ingests a batch — the fast path for replay. The batch boundary is an
  /// epoch boundary (exchange drained, watermark broadcast).
  void ProcessBatch(const EdgeBatch& batch);

  /// Commits the pending watermark, then waits until every shard has
  /// drained its queue, the exchange has reached quiescence and every
  /// worker is parked. Every control call starts with it and may then
  /// touch any shard's engine. The group remains usable afterwards.
  void Flush();

  /// Drains and joins the workers. Called by the destructor.
  void Close();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const Partitioner& partitioner() const { return *partitioner_; }

  /// Aggregate completions across shards (call after Flush). Each match
  /// counts once.
  uint64_t total_completions() const;
  /// Aggregate rejected-edge count (call after Flush). Invalid edges are
  /// rejected once, at group admission, before they consume a global id —
  /// matching the single engine.
  uint64_t total_rejected() const;

  /// Per-shard retained-memory and exchange-traffic counters (flushes the
  /// group). retained_edges per shard is O(owned), not O(total).
  std::vector<ShardStatsSnapshot> ShardStats();

  // --- Durability (control thread; see QueryBackend's persist seam) --------
  /// Group-wide window export (flushes the group): merges the shards'
  /// owned subsets by global edge id (an edge stored on both endpoint
  /// owners appears once).
  WindowSnapshot ExportWindow();

  /// Rebuilds the group's window from an export. Must run before any
  /// registration or ingest. The group is flushed and edges are applied
  /// directly to the owning shards' engines under their original global
  /// ids; admission state (vertex labels, id sequence, group watermark) is
  /// restored alongside.
  Status RestoreWindow(const WindowSnapshot& snapshot);

  /// Gates match delivery on every shard (flushes to flip the flag).
  /// Recovery replays the WAL tail with completions suppressed: those
  /// matches were delivered by the crashed incarnation, so the replay
  /// rebuilds state without re-emitting them.
  void SetSuppressCompletions(bool suppress);

 private:
  /// One unit of queued shard work.
  struct ShardTask {
    enum class Kind : uint8_t { kEdge, kItem, kWatermark };
    Kind kind = Kind::kEdge;
    /// kEdge: this shard owns edge.src and must anchor local search;
    /// exactly one shard per edge gets this bit.
    bool run_anchors = true;
    StreamEdge edge{};
    EdgeId edge_id = kInvalidEdgeId;  ///< kEdge: global id.
    Timestamp watermark = -1;         ///< kWatermark.
    std::unique_ptr<ExchangeItem> item;  ///< kItem.
  };

  struct Shard {
    Shard(Interner* interner, EngineOptions options)
        : engine(interner, options) {}

    StreamWorksEngine engine;
    MatchExchange exchange;  ///< Worker-owned outbox (control after Flush).
    std::thread worker;
    std::mutex mu;
    std::condition_variable cv_producer;
    std::condition_variable cv_consumer;
    std::vector<ShardTask> queue;   // guarded by mu
    std::vector<ShardTask> taking;  // worker-local swap buffer
    bool closing = false;           // guarded by mu
    bool idle = true;               // guarded by mu; true when drained
  };

  void WorkerLoop(Shard* shard);
  void ExecuteTask(Shard* shard, ShardTask& task);

  /// Moves the shard's freshly forwarded exchange items onto their
  /// destination queues, one lock acquisition per destination (worker
  /// thread; the batching half of "batched, epoch-flushed").
  void DispatchExchange(Shard* from);

  /// Enqueues one task. `bounded` waits for queue room (ingest
  /// backpressure); exchange and watermark tasks never wait — a forwarding
  /// worker that blocked on a full peer queue could deadlock with a peer
  /// forwarding back.
  void EnqueueTask(Shard* shard, ShardTask task, bool bounded);

  /// Blocks until every queued task — including everything the exchange
  /// spawned transitively — has been executed.
  void WaitDrained();

  // --- Control thread only --------------------------------------------------
  /// Admits `edge` group-wide and enqueues it on its endpoint owners.
  void RouteEdge(const StreamEdge& edge);
  /// Drains everything, then broadcasts the group watermark so shards
  /// evict and expire consistently.
  void EpochFlush();
  /// Control-thread fixpoint over the shard outboxes (used while flushed:
  /// distributed backfill of a mid-stream registration).
  void PumpExchange();
  /// Distributed, completion-suppressed window replay for a mid-stream
  /// registration (group flushed).
  void BackfillQueryDistributed(int query_id);

  static constexpr size_t kMaxQueuedEdges = 32768;
  /// Single-edge ingest runs an epoch barrier at least this often.
  static constexpr int kEpochEdges = 1024;

  HashModuloPartitioner default_partitioner_;
  const Partitioner* partitioner_;

  std::vector<std::unique_ptr<Shard>> shards_;
  bool closed_ = false;

  /// Tasks enqueued but not yet fully executed (including tasks their
  /// execution spawned). Zero <=> the group is globally drained.
  std::atomic<uint64_t> pending_{0};
  std::mutex drained_mu_;
  std::condition_variable drained_cv_;

  // Ingest state (control thread only).
  GroupIngest ingest_;
  int edges_since_epoch_ = 0;
};

}  // namespace streamworks

#endif  // STREAMWORKS_CORE_PARALLEL_H_
