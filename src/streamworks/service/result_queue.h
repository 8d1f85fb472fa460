#ifndef STREAMWORKS_SERVICE_RESULT_QUEUE_H_
#define STREAMWORKS_SERVICE_RESULT_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string_view>
#include <vector>

#include "streamworks/common/statusor.h"
#include "streamworks/core/engine.h"
#include "streamworks/service/metrics.h"

namespace streamworks {

/// What a full ResultQueue does with the next incoming match.
enum class OverflowPolicy {
  kBlock,       ///< Producer blocks until the consumer frees a slot.
  kDropOldest,  ///< Evict the oldest queued match to admit the new one.
  kDropNewest,  ///< Discard the incoming match, keep the queue as-is.
};

/// Short stable name ("block", "drop_oldest", "drop_newest").
std::string_view OverflowPolicyName(OverflowPolicy policy);

/// Inverse of OverflowPolicyName; case-insensitive. InvalidArgument on an
/// unknown name.
StatusOr<OverflowPolicy> ParseOverflowPolicy(std::string_view name);

/// Monotonic counters of one queue's traffic.
struct ResultQueueCounters {
  uint64_t enqueued = 0;   ///< Accepted into the queue.
  uint64_t delivered = 0;  ///< Handed to the consumer by a pop.
  uint64_t dropped = 0;    ///< Lost to overflow or pushed after Close().
};

/// Bounded MPSC handoff between backend callbacks (producers, running on
/// the feeding thread or the cluster's pump thread) and one subscriber
/// (consumer): the decoupling layer that keeps a slow consumer from
/// stalling the stream — unless it asks for exactly that with kBlock.
///
/// Close() severs the producer side (further pushes count as drops and a
/// blocked producer wakes immediately) while the consumer may still drain
/// what was delivered before the close. Delivery lag — enqueue to pop, wall
/// clock — is recorded per pop into a LagHistogram.
class ResultQueue {
 public:
  ResultQueue(size_t capacity, OverflowPolicy policy);

  ResultQueue(const ResultQueue&) = delete;
  ResultQueue& operator=(const ResultQueue&) = delete;

  // --- Producer side -------------------------------------------------------
  /// Offers one match under the overflow policy. Only kBlock can block.
  void Push(CompleteMatch match);

  // --- Consumer side -------------------------------------------------------
  /// Pops the oldest queued match; false if the queue is empty.
  bool TryPop(CompleteMatch* out);

  /// Pops the oldest queued match, waiting up to `timeout` for one to
  /// arrive. False on timeout or when the queue is closed and empty.
  bool WaitPop(CompleteMatch* out,
               std::chrono::milliseconds timeout = std::chrono::milliseconds(
                   100));

  /// Appends everything queued to *out; returns how many were drained.
  size_t Drain(std::vector<CompleteMatch>* out);

  /// Like Drain but bounded: pops at most `max` matches under one lock
  /// acquisition — how a consumer with its own budget (the socket
  /// server's write high-water) drains in coalesced chunks instead of a
  /// lock round-trip per match.
  size_t DrainUpTo(std::vector<CompleteMatch>* out, size_t max);

  /// Stops the producer side. Idempotent.
  void Close();

  // --- Introspection -------------------------------------------------------
  size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }
  bool closed() const;
  size_t size() const;
  ResultQueueCounters counters() const;
  /// Copy of the delivery-lag histogram (samples recorded at pop time).
  LagHistogram lag_histogram() const;

 private:
  struct Entry {
    CompleteMatch match;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Pops the front entry into *out and records its lag. mu_ must be held.
  void PopFrontLocked(CompleteMatch* out);

  const size_t capacity_;
  const OverflowPolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable cv_space_;  ///< Signals producers (kBlock).
  std::condition_variable cv_items_;  ///< Signals the consumer.
  std::deque<Entry> queue_;
  bool closed_ = false;
  ResultQueueCounters counters_;
  LagHistogram lag_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SERVICE_RESULT_QUEUE_H_
