#ifndef STREAMWORKS_SJTREE_EXCHANGE_H_
#define STREAMWORKS_SJTREE_EXCHANGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "streamworks/common/statusor.h"
#include "streamworks/common/types.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/match/match.h"

namespace streamworks {

/// Cross-shard match exchange for vertex-partitioned execution.
///
/// When the data graph is partitioned by vertex ownership, a partial match
/// can outgrow the shard it started on in two ways:
///
///   * a leaf expansion reaches a query edge whose scan vertex is owned by
///     another shard (only the owner holds that vertex's complete adjacency),
///   * an SJ-Tree insert targets a (parent, cut-assignment) whose *home
///     shard* — the shard designated to hold both siblings' matches for that
///     cut key — is elsewhere.
///
/// In both cases the match is serialised into a shard-independent wire form
/// and forwarded. Wire matches name vertices by external id (dense internal
/// ids are per-shard artifacts) and edges by their global ingest id, which
/// partitioned mode threads through every shard so the exactly-once anchor
/// discipline (candidate id < anchor id) keeps working across shards.

/// One vertex binding in wire form. The label rides along so the receiving
/// shard can intern a vertex it has never seen in its own edge subset.
struct WireVertexBinding {
  QueryVertexId qv = 0;
  ExternalVertexId vertex = 0;
  LabelId label = kInvalidLabelId;
};

/// One edge binding in wire form (global edge id + timestamp; the receiver
/// does not need the edge record itself, only identity and time).
struct WireEdgeBinding {
  QueryEdgeId qe = 0;
  EdgeId edge = kInvalidEdgeId;
  Timestamp ts = 0;
};

/// A partial (or complete) match in shard-independent form.
struct WireMatch {
  std::vector<WireVertexBinding> vertices;
  std::vector<WireEdgeBinding> edges;
};

enum class ExchangeKind : uint8_t {
  kExpand,    ///< Resume a leaf expansion at `step` of anchor plan `plan`.
  kInsert,    ///< Insert at decomposition node `node` (receiver is home).
  kComplete,  ///< A complete match, for the coordinator to deliver.
};

/// One forwarded unit of work.
struct ExchangeItem {
  ExchangeKind kind = ExchangeKind::kExpand;
  int query_id = -1;
  uint32_t plan = 0;  ///< Anchor-plan index (kExpand).
  int step = 0;       ///< Next expansion-order index (kExpand).
  int node = -1;      ///< Decomposition node (kInsert).
  WireMatch match;
};

/// Monotonic counters for one shard's shard-to-shard exchange traffic
/// (completions go to the coordinator and count as deliveries instead).
struct ExchangeCounters {
  uint64_t sent_expansions = 0;
  uint64_t sent_inserts = 0;
  uint64_t received_expansions = 0;
  uint64_t received_inserts = 0;

  uint64_t total_sent() const { return sent_expansions + sent_inserts; }
  uint64_t total_received() const {
    return received_expansions + received_inserts;
  }
};

/// Runtime counters of one SJ-Tree decomposition node — the per-node
/// match-rate/selectivity visibility an operator (or a future adaptive
/// re-planner) watches for drift. Selectivities derive at render time:
/// joins_succeeded/join_attempts is the node's join selectivity,
/// matches_inserted/probes its per-probe yield.
struct SjNodeRuntime {
  int node = -1;
  bool is_leaf = false;
  int query_edges = 0;  ///< Edges of the query covered by this node.
  uint64_t matches_inserted = 0;
  uint64_t probes = 0;
  uint64_t join_attempts = 0;
  uint64_t joins_succeeded = 0;
  uint64_t live_partial_matches = 0;
};

/// Snapshot of one registered query's state.
struct QueryRuntimeInfo {
  int query_id = -1;
  std::string name;
  Timestamp window = 0;
  uint64_t completions = 0;
  size_t live_partial_matches = 0;
  size_t peak_partial_matches = 0;
  /// Per-decomposition-node counters, indexed by node id. In a
  /// vertex-partitioned group these are element-wise sums across shards
  /// (every shard runs a replica of the same tree shape).
  std::vector<SjNodeRuntime> nodes;
};

/// Point-in-time load and traffic counters of one shard's engine.
struct ShardStatsSnapshot {
  int shard = 0;
  uint64_t retained_edges = 0;    ///< Edges currently stored in the window.
  uint64_t retained_vertices = 0;
  uint64_t evicted_edges = 0;
  uint64_t edges_processed = 0;   ///< Ingested copies (not group-unique).
  uint64_t completions = 0;       ///< Matches this shard delivered.
  uint64_t live_partial_matches = 0;
  ExchangeCounters exchange;      ///< All zero outside shard mode.
};

/// Folds one shard's view of a query replicated on every shard into
/// `group`, whose query_id must be set. Every replica carries the same
/// name and window. Each shard counts the completions it finds, so
/// completions, partial-match gauges and per-node counters all sum.
void MergeShardQueryInfo(const QueryRuntimeInfo& per_shard,
                         QueryRuntimeInfo* group);

/// Per-shard outbox, the worker's one output stream, plus the wire
/// translation: expansions and inserts for other shards, and completions
/// for the coordinator, in the order the shard produced them.
///
/// Threading: owned by one shard's worker daemon, whose serve thread alone
/// calls Send and Drain. The worker ships each drained batch up; the
/// coordinator delivers the completions and relays the rest.
class MatchExchange {
 public:
  /// Queues `item` for `dest_shard` (-1 for a kComplete item, which goes
  /// to the coordinator). Never blocks (exchange traffic must not
  /// participate in ingest backpressure, or two shards forwarding to each
  /// other through full queues would deadlock).
  void Send(int dest_shard, ExchangeItem item);

  /// Moves out everything queued since the last drain.
  std::vector<std::pair<int, ExchangeItem>> Drain();

  bool empty() const { return outbox_.empty(); }

  void CountReceived(ExchangeKind kind);
  const ExchangeCounters& counters() const { return counters_; }

  /// Serialises `m` (a match over `graph`'s id space) into wire form.
  static WireMatch ToWire(const DynamicGraph& graph, const Match& m);

  /// Rebuilds a local match from wire form, interning vertices this shard
  /// has never seen (their adjacency stays empty; expansion never scans a
  /// vertex the local shard doesn't own). Fails, before interning anything,
  /// on a binding outside `query`'s vertices or edges or a query vertex or
  /// edge bound twice, which only a corrupt or foreign frame carries; and
  /// on a vertex-label clash, which group-level ingest validation rules
  /// out. In-process callers may treat an error as a logic bug.
  static StatusOr<Match> Localize(DynamicGraph* graph,
                                  const QueryGraph& query,
                                  const WireMatch& wire);

 private:
  std::vector<std::pair<int, ExchangeItem>> outbox_;
  ExchangeCounters counters_;
};

/// Shard-routing seam the SJ-Tree and the leaf expansion consult in
/// partitioned mode. Implemented by the engine (which knows its shard
/// index, the partitioner, and the exchange); null router = the classic
/// single-graph execution.
///
/// The tree only calls Forward* for *remote* destinations — local work
/// always continues inline — so implementations never re-enter the tree.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  virtual int self_shard() const = 0;

  /// Owning shard of an external vertex id.
  virtual int OwnerOfVertex(ExternalVertexId v) const = 0;

  /// Home shard for a stored match keyed by an external-id cut signature.
  /// Deterministic across shards (it routes both siblings of a join to the
  /// same place).
  virtual int HomeShard(uint64_t ext_cut_key) const = 0;

  /// The group's last epoch-flushed watermark: the only timestamp expiry
  /// may trust in sharded execution. The *local* graph watermark can run
  /// ahead of a forwarded match still in flight whose anchor is older than
  /// this shard's newest edge — expiring against it would erase join
  /// partners a single engine still sees. At an epoch broadcast the
  /// exchange is drained, so every future insert or probe derives from an
  /// edge at or past this watermark, making cutoffs against it safe.
  virtual Timestamp safe_watermark() const = 0;

  virtual void ForwardExpansion(int dest, uint32_t plan, int step,
                                const Match& m) = 0;
  virtual void ForwardInsert(int dest, int node, const Match& m) = 0;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SJTREE_EXCHANGE_H_
