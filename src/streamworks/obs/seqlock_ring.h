#ifndef STREAMWORKS_OBS_SEQLOCK_RING_H_
#define STREAMWORKS_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace streamworks {

/// Lock-free ring of the last N entries, for diagnostics that hot threads
/// publish and HTTP scrapes read without blocking them (the slow-op trace,
/// the cluster epoch timeline).
///
/// `Entry` supplies only its word packing:
///
///   static constexpr size_t kWords;
///   std::array<uint64_t, kWords> Pack() const;
///   static Entry Unpack(const std::array<uint64_t, kWords>& words);
///
/// Writers claim a slot by CAS-ing its sequence to an odd in-progress
/// marker and publish through a per-slot seqlock, so concurrent writers
/// never block each other and a reader never observes a torn entry — it
/// skips slots whose sequence moved under it. The payload lives in
/// relaxed-atomic words: word-at-a-time atomic stores and loads are what
/// make the seqlock race-free in the C++ memory model (a plain struct copy
/// under a racing writer is UB, and TSan rightly flags it). A writer whose
/// claim fails — another writer is mid-write on the slot or lapped the
/// ring past this claim — drops its entry rather than tear the winner's.
/// Capacity is fixed at construction.
template <typename Entry>
class SeqlockRing {
 public:
  using Words = std::array<uint64_t, Entry::kWords>;

  explicit SeqlockRing(size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  void Push(const Entry& entry) {
    const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[idx % slots_.size()];
    const uint64_t claim = 2 * idx + 1;
    uint64_t cur = slot.seq.load(std::memory_order_relaxed);
    if (cur % 2 == 1 || cur > claim) return;
    if (!slot.seq.compare_exchange_strong(cur, claim,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      return;
    }
    const Words words = entry.Pack();
    for (size_t i = 0; i < Entry::kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.seq.store(2 * (idx + 1), std::memory_order_release);
  }

  /// Point-in-time copy, oldest first. Entries overwritten mid-read are
  /// dropped rather than returned torn.
  std::vector<Entry> Snapshot() const {
    std::vector<std::pair<uint64_t, Entry>> numbered;  // (claim index, entry)
    numbered.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before == 0 || seq_before % 2 == 1) continue;
      Words words;
      // Acquire word loads keep the seq re-check below from reordering
      // ahead of the copy (gcc's tsan mode has no atomic_thread_fence):
      // an unchanged sequence then proves no writer touched the slot
      // mid-copy.
      for (size_t i = 0; i < Entry::kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_acquire);
      }
      if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
      numbered.emplace_back(seq_before / 2 - 1, Entry::Unpack(words));
    }
    std::sort(numbered.begin(), numbered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Entry> out;
    out.reserve(numbered.size());
    for (auto& [idx, entry] : numbered) out.push_back(std::move(entry));
    return out;
  }

  size_t capacity() const { return slots_.size(); }
  uint64_t total_pushed() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// 0 = never written; odd = write in progress; even = (claim index
    /// + 1) * 2 of the published entry.
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, Entry::kWords> words{};
  };
  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace streamworks

#endif  // STREAMWORKS_OBS_SEQLOCK_RING_H_
