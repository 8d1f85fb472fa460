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

/// How a ParallelEngineGroup spreads work over its shards.
enum class ShardingMode {
  /// The original coarse-grained mode: *queries* are partitioned
  /// round-robin across shards and every edge is broadcast to every shard.
  /// Shards never talk to each other, but each one retains the whole
  /// window graph — memory grows with the shard count.
  kBroadcastData,

  /// Vertex-partitioned scale-out: the *data graph* is partitioned by
  /// vertex ownership (a pluggable Partitioner) and every query is
  /// replicated onto every shard. An edge is routed only to the shard(s)
  /// owning its endpoints, so each shard retains O(owned edges) instead of
  /// O(all edges); partial matches whose expansion or join leaves a shard
  /// are forwarded through the MatchExchange. Match sets are identical to
  /// a single engine's (the exchange relocates each exactly-once event, it
  /// never duplicates or drops one).
  kPartitionedData,
};

/// Multi-core query execution (the paper's demo ran many concurrent
/// queries on a 48-core shared-memory node): N worker threads, each owning
/// a private StreamWorksEngine, fed through bounded per-shard queues.
///
/// Two sharding modes (ShardingMode above): kBroadcastData trades memory
/// for fully independent shards; kPartitionedData shards the data graph by
/// vertex ownership and exchanges cross-shard partial matches, the real
/// scale-out step. Either way the result set equals a single engine run
/// (verified by the equivalence tests).
///
/// Threading contract: callbacks run on worker threads, one shard at a
/// time per query (broadcast: a query lives on one shard; partitioned: all
/// of a query's completions are delivered by its *callback-home* shard),
/// so a callback only needs to be thread-safe against callbacks of queries
/// homed on other shards. Control calls (Register/Unregister/query_info/
/// Process*/Flush/Close) come from one control thread. Close() (or
/// destruction) drains the queues and joins the workers.
///
/// Partitioned-mode ingest runs in *epochs*: every ProcessBatch (and every
/// kEpochEdges single edges) ends with a barrier that drains the exchange,
/// then broadcasts the group watermark so window expiry advances
/// consistently on every shard — a shard holding only old vertices would
/// otherwise never see a new edge and never expire, and eager local expiry
/// could race ahead of forwarded matches still needing old neighbourhoods.
class ParallelEngineGroup {
 public:
  /// Creates `num_shards` workers configured with `options`. In
  /// kPartitionedData mode, `partitioner` picks vertex ownership (null =
  /// built-in hash+modulo); it must outlive the group. Partitioned mode
  /// requires options.replan_interval == 0 (per-shard re-planning would
  /// diverge the replicated trees).
  ParallelEngineGroup(Interner* interner, int num_shards,
                      EngineOptions options = {},
                      ShardingMode mode = ShardingMode::kBroadcastData,
                      const Partitioner* partitioner = nullptr);
  ~ParallelEngineGroup();

  ParallelEngineGroup(const ParallelEngineGroup&) = delete;
  ParallelEngineGroup& operator=(const ParallelEngineGroup&) = delete;

  /// Registers a query and returns a group-wide query id. May be called
  /// mid-stream; the group is quiesced so the new SJ-Tree is backfilled
  /// from a consistent window. Broadcast mode places the query on the next
  /// shard round-robin and keeps every shard at the retention one engine
  /// with all the group's queries would have; partitioned mode plans once
  /// (against shard 0's statistics), replicates the tree onto every shard,
  /// and runs a distributed backfill through the exchange. Not thread-safe
  /// against other control calls or the producer; one control thread.
  StatusOr<int> RegisterQuery(const QueryGraph& query,
                              DecompositionStrategy strategy,
                              Timestamp window, MatchCallback callback);

  /// Unregisters a group query id. Quiesces the owning shard (broadcast)
  /// or the whole group (partitioned; any shard may hold its partials), so
  /// once this returns no further callbacks fire for the query. Same
  /// threading contract as RegisterQuery.
  Status UnregisterQuery(int group_query_id);

  /// Runtime snapshot of one group query (quiesces the owning shard or,
  /// partitioned, the group; partial-match gauges aggregate over shards).
  StatusOr<QueryRuntimeInfo> query_info(int group_query_id);

  /// Ingests one edge: broadcast enqueues it for every shard, partitioned
  /// validates it group-wide and routes it to its endpoint owners. Blocks
  /// when a target shard's queue is full (backpressure). Not thread-safe;
  /// one producer.
  void ProcessEdge(const StreamEdge& edge);

  /// Ingests a batch with one lock acquisition per target shard — the fast
  /// path for replay. In partitioned mode the batch boundary is an epoch
  /// boundary (exchange drained, watermark broadcast).
  void ProcessBatch(const EdgeBatch& batch);

  /// Waits until every shard has drained its queue and (partitioned) the
  /// exchange has reached quiescence; also broadcasts the final watermark.
  /// The group remains usable afterwards.
  void Flush();

  /// Drains and joins the workers. Called by the destructor.
  void Close();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ShardingMode mode() const { return mode_; }
  const Partitioner& partitioner() const { return *partitioner_; }

  /// Aggregate completions across shards (call after Flush). Each match
  /// counts once in either mode.
  uint64_t total_completions() const;
  /// Aggregate rejected-edge count across shards (call after Flush). In
  /// partitioned mode invalid edges are rejected once, at group admission,
  /// before they consume a global id — matching the single engine; in
  /// broadcast mode every shard rejects its own copy.
  uint64_t total_rejected() const;

  /// Sum of per-shard engine processing time (call after Flush). With N
  /// shards this can exceed wall-clock time; wall / (this / N) measures
  /// pipeline efficiency.
  double total_processing_seconds() const;

  /// Per-shard retained-memory and exchange-traffic counters (quiesces the
  /// group). The partitioned-vs-broadcast memory claim is measured from
  /// exactly this: retained_edges per shard drops from O(total) to
  /// O(owned).
  std::vector<ShardStatsSnapshot> ShardStats();

  // --- Durability (control thread; see QueryBackend's persist seam) --------
  /// Group-wide window export (quiesces the group): partitioned mode
  /// merges the shards' owned subsets by global edge id (an edge stored
  /// on both endpoint owners appears once); broadcast mode reads shard 0
  /// (every shard retains the identical window).
  WindowSnapshot ExportWindow();

  /// Rebuilds the group's window from an export. Must run before any
  /// registration or ingest. The group is quiesced and edges are applied
  /// directly to the owning shards' engines under their original global
  /// ids; partitioned-mode admission state (vertex labels, id sequence,
  /// group watermark) is restored alongside.
  Status RestoreWindow(const WindowSnapshot& snapshot);

  /// Gates match delivery on every shard (quiesces to flip the flag).
  /// Recovery replays the WAL tail with completions suppressed: those
  /// matches were delivered by the crashed incarnation, so the replay
  /// rebuilds state without re-emitting them.
  void SetSuppressCompletions(bool suppress);

 private:
  /// One unit of queued shard work.
  struct ShardTask {
    enum class Kind : uint8_t { kEdge, kItem, kWatermark };
    Kind kind = Kind::kEdge;
    /// kEdge (partitioned): this shard owns edge.src and must anchor local
    /// search; exactly one shard per edge gets this bit.
    bool run_anchors = true;
    StreamEdge edge{};
    EdgeId edge_id = kInvalidEdgeId;  ///< kEdge: global id (partitioned).
    Timestamp watermark = -1;         ///< kWatermark.
    std::unique_ptr<ExchangeItem> item;  ///< kItem.
  };

  struct Shard {
    Shard(Interner* interner, EngineOptions options)
        : engine(interner, options) {}

    StreamWorksEngine engine;
    MatchExchange exchange;  ///< Worker-owned outbox (control during quiesce).
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

  /// Waits (holding shard->mu, which is returned locked) until the shard's
  /// queue is drained and its worker is parked, so the caller may touch
  /// shard->engine directly.
  std::unique_lock<std::mutex> Quiesce(Shard* shard);

  /// WaitDrained + every worker parked: the control thread may touch any
  /// shard's engine/exchange until it enqueues new work.
  void QuiesceAll();

  // --- Partitioned-mode internals (control thread only) ---------------------
  /// Admits `edge` group-wide and enqueues it on its endpoint owners.
  void RouteEdge(const StreamEdge& edge);
  /// Drains everything, then broadcasts the group watermark so shards
  /// evict and expire consistently.
  void EpochFlush();
  /// Control-thread fixpoint over the shard outboxes (used while quiesced:
  /// distributed backfill of a mid-stream registration).
  void PumpExchange();
  /// Distributed, completion-suppressed window replay for a mid-stream
  /// registration (all shards quiesced).
  void BackfillQueryDistributed(int query_id);

  /// Splits a broadcast-mode group query id into (shard, local id).
  Status ResolveGroupId(int group_query_id, int* shard_index,
                        int* local_id) const;

  static constexpr size_t kMaxQueuedEdges = 32768;
  /// Single-edge ingest runs an epoch barrier at least this often.
  static constexpr int kEpochEdges = 1024;

  ShardingMode mode_;
  EngineOptions options_;
  HashModuloPartitioner default_partitioner_;
  const Partitioner* partitioner_;

  std::vector<std::unique_ptr<Shard>> shards_;
  int next_shard_ = 0;  ///< Broadcast round-robin cursor.
  bool closed_ = false;

  /// Tasks enqueued but not yet fully executed (including tasks their
  /// execution spawned). Zero <=> the group is globally drained.
  std::atomic<uint64_t> pending_{0};
  std::mutex drained_mu_;
  std::condition_variable drained_cv_;

  // Partitioned ingest state (control thread only).
  GroupIngest ingest_;
  int edges_since_epoch_ = 0;
};

}  // namespace streamworks

#endif  // STREAMWORKS_CORE_PARALLEL_H_
