#ifndef STREAMWORKS_OBS_STAGE_TRACE_H_
#define STREAMWORKS_OBS_STAGE_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "streamworks/common/histogram.h"
#include "streamworks/obs/seqlock_ring.h"

namespace streamworks {

/// The hot-path stages a PipelineMetrics instance times, in pipeline
/// order. Each stage is recorded where it runs:
///
///   kFrameDecode     net: decoding one binary FEEDB frame body
///   kAdmission       service: the Feed/FeedBatch control-plane section
///                    (epoch advance, counters) before the backend
///   kEngineApply     service: the backend Feed/FeedBatch call itself
///   kSjTreeJoin      core: one edge's routed anchor-plan executions
///                    (local search + upward joins), recorded only for
///                    edges that anchored at least one query
///   kExchangeForward core: serializing + queueing one cross-shard
///                    exchange item
///   kEnqueue         service: pushing one completed match into its
///                    subscription's result queue
///   kDeliveryFlush   net: one coalesced stream-pump drain+write pass
///   kExchangeRelay   cluster: one coordinator relay round — forwarding
///                    the exchange items a barrier flushed out of workers
///   kBarrierWait     cluster: coordinator time blocked awaiting one
///                    worker's BarrierAck (the settle cost the epoch
///                    timeline decomposes per phase)
enum class PipelineStage : uint8_t {
  kFrameDecode = 0,
  kAdmission,
  kEngineApply,
  kSjTreeJoin,
  kExchangeForward,
  kEnqueue,
  kDeliveryFlush,
  kExchangeRelay,
  kBarrierWait,
};

inline constexpr int kNumPipelineStages = 9;

/// Stable snake_case stage name (Prometheus label value / trace field).
std::string_view PipelineStageName(PipelineStage stage);

/// Thread-safe Histogram sibling: relaxed-atomic bucket counters so
/// engine worker threads, the poll thread, and the stream pump can all
/// record into the same instance without a lock. Record is O(1) — a
/// bit_width plus three relaxed fetch_adds — which is what keeps stage
/// instrumentation affordable on the ingest path. Snapshot() materializes
/// a plain Histogram for rendering; concurrent records may straddle the
/// copy (bucket counts and sum are each atomic, not jointly), which a
/// scrape tolerates by design.
class AtomicHistogram {
 public:
  void Record(uint64_t value) {
    int bucket = value == 0 ? 0 : std::bit_width(value);
    if (bucket >= Histogram::kNumBuckets) bucket = Histogram::kNumBuckets - 1;
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  Histogram Snapshot() const {
    std::array<uint64_t, Histogram::kNumBuckets> counts;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      counts[b] = counts_[b].load(std::memory_order_relaxed);
    }
    return Histogram::FromBuckets(counts, sum_.load(std::memory_order_relaxed));
  }

 private:
  std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> counts_{};
  std::atomic<uint64_t> sum_{0};
};

/// One slow operation captured by the trace ring.
struct TraceEntry {
  PipelineStage stage = PipelineStage::kFrameDecode;
  int32_t session_id = -1;       ///< -1 when the stage has no session.
  int32_t subscription_id = -1;  ///< -1 when the stage has no subscription.
  uint64_t duration_us = 0;
  uint64_t detail = 0;    ///< Stage-specific (e.g. edges in the batch).
  uint64_t at_us = 0;     ///< Steady-clock micros (PipelineMetrics::NowMicros).

  // SeqlockRing word packing: the two ids share a word.
  static constexpr size_t kWords = 5;
  std::array<uint64_t, kWords> Pack() const {
    return {static_cast<uint64_t>(stage),
            (uint64_t{static_cast<uint32_t>(session_id)} << 32) |
                static_cast<uint32_t>(subscription_id),
            duration_us, detail, at_us};
  }
  static TraceEntry Unpack(const std::array<uint64_t, kWords>& w) {
    return {static_cast<PipelineStage>(w[0]),
            static_cast<int32_t>(static_cast<uint32_t>(w[1] >> 32)),
            static_cast<int32_t>(static_cast<uint32_t>(w[1])), w[2], w[3],
            w[4]};
  }
  bool operator==(const TraceEntry&) const = default;
};

/// The always-on pipeline instrumentation bundle: one AtomicHistogram per
/// stage plus the slow-op trace ring. One instance is shared by every
/// layer of a deployment (engine options, the query service, the socket
/// server) — each records its own stages; the registry and the HTTP
/// endpoints read them all.
class PipelineMetrics {
 public:
  static constexpr uint64_t kDefaultSlowThresholdUs = 10'000;  // 10ms

  explicit PipelineMetrics(uint64_t slow_threshold_us = kDefaultSlowThresholdUs,
                           size_t trace_capacity = 128);

  /// Records one stage execution: O(1), lock-free, callable from any
  /// thread. Operations at or above the slow threshold also enter the
  /// trace ring.
  void Record(PipelineStage stage, uint64_t duration_us, int session_id = -1,
              int subscription_id = -1, uint64_t detail = 0) {
    stages_[static_cast<size_t>(stage)].Record(duration_us);
    if (duration_us >= slow_threshold_us_.load(std::memory_order_relaxed)) {
      TraceEntry e;
      e.stage = stage;
      e.session_id = session_id;
      e.subscription_id = subscription_id;
      e.duration_us = duration_us;
      e.detail = detail;
      e.at_us = NowMicros();
      ring_.Push(e);
    }
  }

  const AtomicHistogram& stage_histogram(PipelineStage stage) const {
    return stages_[static_cast<size_t>(stage)];
  }

  uint64_t slow_threshold_us() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }
  void set_slow_threshold_us(uint64_t threshold_us) {
    slow_threshold_us_.store(threshold_us, std::memory_order_relaxed);
  }

  std::vector<TraceEntry> TraceSnapshot() const { return ring_.Snapshot(); }
  uint64_t slow_ops_recorded() const { return ring_.total_pushed(); }

  /// Steady-clock microseconds (process-relative; only differences and
  /// ages are meaningful).
  static uint64_t NowMicros() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::array<AtomicHistogram, kNumPipelineStages> stages_;
  std::atomic<uint64_t> slow_threshold_us_;
  SeqlockRing<TraceEntry> ring_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_OBS_STAGE_TRACE_H_
