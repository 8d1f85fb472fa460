#ifndef STREAMWORKS_OBS_EPOCH_TRACE_H_
#define STREAMWORKS_OBS_EPOCH_TRACE_H_

#include <array>
#include <cstdint>

#include "streamworks/obs/seqlock_ring.h"

namespace streamworks {

/// One completed ingest epoch of the distributed backend, decomposed into
/// the phases the coordinator drives: route + encode + send the per-worker
/// batches (`batch_us`), wait for the first barrier round's acks — the
/// round dominated by workers applying the batch (`apply_us`), forward the
/// exchange items barriers flush out of workers (`relay_us`), wait out the
/// remaining barrier rounds until a round moves nothing (`barrier_us`),
/// and broadcast the watermark commit (`commit_us`). This is the direct
/// measurement for the "barrier-dominated at small epochs" question: the
/// answer is the barrier_us share of total_us as epoch_edges shrinks.
///
/// The coordinator keeps the last N in a SeqlockRing: the pump thread
/// publishes lock-free while HTTP scrapes snapshot without blocking it.
struct EpochTraceEntry {
  uint64_t epoch = 0;  ///< Coordinator-assigned epoch id, dense from 0.
  uint64_t edges = 0;  ///< Admitted edges fanned out this epoch.
  uint64_t relay_rounds = 0;   ///< Barrier rounds that moved items.
  uint64_t relayed_items = 0;  ///< Exchange items forwarded in total.
  uint64_t batch_us = 0;
  uint64_t apply_us = 0;
  uint64_t relay_us = 0;
  uint64_t barrier_us = 0;
  uint64_t commit_us = 0;
  uint64_t total_us = 0;
  uint64_t at_us = 0;  ///< Completion time, PipelineMetrics::NowMicros.

  // SeqlockRing word packing: one word per field, in declaration order.
  static constexpr size_t kWords = 11;
  std::array<uint64_t, kWords> Pack() const {
    return {epoch,    edges,    relay_rounds, relayed_items,
            batch_us, apply_us, relay_us,     barrier_us,
            commit_us, total_us, at_us};
  }
  static EpochTraceEntry Unpack(const std::array<uint64_t, kWords>& w) {
    return {w[0], w[1], w[2], w[3], w[4], w[5],
            w[6], w[7], w[8], w[9], w[10]};
  }
  bool operator==(const EpochTraceEntry&) const = default;
};

}  // namespace streamworks

#endif  // STREAMWORKS_OBS_EPOCH_TRACE_H_
