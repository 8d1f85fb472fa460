#ifndef STREAMWORKS_SJTREE_MATCH_STORE_H_
#define STREAMWORKS_SJTREE_MATCH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "streamworks/common/types.h"
#include "streamworks/match/match.h"

namespace streamworks {

/// One stored partial match. Its earliest edge timestamp sits beside the
/// chain link, so a probe rejects a dead entry without reading the match.
struct StoredMatch {
  StoredMatch* next;  ///< Next entry under the same key in the same slice.
  Timestamp min_ts;
  Match match;
};

/// Fixed-size chunks of stored matches, recycled between the stores of one
/// SJ-Tree: a store takes a chunk when its slice fills the last one and
/// gives a dropped slice's chunks back in one splice, so a tree whose
/// population has levelled off allocates nothing per match. A chunk is
/// small (8 matches, ~1.7 KB) because every slice of every store leaves
/// its last chunk part-filled.
class MatchChunkPool {
 public:
  static constexpr size_t kMatchesPerChunk = 8;

  struct Chunk {
    /// Room for one entry, constructed in place by the store that holds
    /// the chunk and destroyed by it (only a spilled match owns anything).
    union Slot {
      Slot() {}
      ~Slot() {}
      StoredMatch entry;
    };
    Chunk* next = nullptr;
    Slot slots[kMatchesPerChunk];
  };

  MatchChunkPool() = default;
  MatchChunkPool(const MatchChunkPool&) = delete;
  MatchChunkPool& operator=(const MatchChunkPool&) = delete;
  ~MatchChunkPool();

  /// A free chunk (next == nullptr), allocating one only when none is free.
  Chunk* Take();
  /// Takes back the chunk list first -> ... -> last (linked through next).
  void Give(Chunk* first, Chunk* last);

 private:
  Chunk* free_ = nullptr;
};

/// The match collection of one SJ-Tree node (Property 3), indexed by the
/// *join key*: the signature of the data vertices assigned to the parent
/// node's cut vertices. Sibling nodes index by the same cut, so combining
/// partial matches (paper §4.2) is a key lookup instead of a scan.
///
/// Expiry is by time slice. A partial match whose earliest edge has fallen
/// a whole window behind the watermark can never be part of a future
/// completion (any future completion's span would be >= window). The store
/// groups its matches by min_ts into slices of SliceWidth(window) ticks,
/// kSlicesPerWindow to a window, each with its own key index and its own
/// chunks. Expire drops every slice that lies wholly below the cutoff at
/// once, without visiting its matches; a probe skips the dead entries of
/// the one slice that straddles the cutoff. So the store holds its live
/// matches plus at most one slice width of dead ones, and an unbounded
/// window keeps everything in one slice that never expires.
class MatchStore {
 public:
  /// Slices per window. Fewer slices leave more dead matches stored (up
  /// to one slice width) and more probe checks in the straddling slice;
  /// more slices cost a key lookup each per probe.
  static constexpr Timestamp kSlicesPerWindow = 2;

  /// ceil(window / kSlicesPerWindow); kMaxTimestamp for an unbounded one.
  static Timestamp SliceWidth(Timestamp window);

  explicit MatchStore(Timestamp window) : width_(SliceWidth(window)) {}
  MatchStore(MatchStore&&) = default;
  MatchStore& operator=(MatchStore&&) = delete;
  ~MatchStore();

  /// Stores `m` under `key`, taking chunks from `pool`. A match whose slice
  /// was already dropped is dead on arrival: counted, not stored. Returns
  /// whether `m` was stored.
  bool Insert(uint64_t key, const Match& m, MatchChunkPool* pool);

  /// Invokes `f` on every stored match under `key` with min_ts >= cutoff,
  /// the live ones, and returns how many that was. Dead matches are
  /// skipped, not erased; only Expire frees memory. `f` may insert into
  /// other stores of the pool, never this one.
  template <typename F>
  size_t ProbeKey(uint64_t key, Timestamp cutoff, F&& f) const {
    const int64_t first_live = cutoff / width_;
    size_t visited = 0;
    for (const Slice& slice : slices_) {
      if (slice.index < first_live) continue;  // dead, not yet dropped
      const bool straddles = slice.index * width_ < cutoff;
      for (const StoredMatch* e = slice.Find(key); e != nullptr;
           e = e->next) {
        if (straddles && e->min_ts < cutoff) continue;
        ++visited;
        f(e->match);
      }
    }
    return visited;
  }

  /// Drops every slice whose matches are all older than `cutoff`, giving
  /// their chunks back to `pool`; inserts into those slices are dead on
  /// arrival from now on. Costs O(slices), not O(matches). Returns the
  /// number of matches dropped.
  size_t Expire(Timestamp cutoff, MatchChunkPool* pool);

  /// True if some stored match has min_ts >= cutoff.
  bool HasLive(Timestamp cutoff) const;

  /// Earliest min_ts over the stored matches (kMaxTimestamp when empty).
  Timestamp OldestMinTs() const;

  /// Stored matches: the live ones plus the dead ones of the slice that
  /// straddles the last Expire cutoff.
  size_t size() const;
  uint64_t dead_on_arrival() const { return dead_on_arrival_; }

 private:
  /// One key of a slice's open-addressing index: the newest entry under
  /// the key, chained through StoredMatch::next. head == nullptr marks a
  /// free slot.
  struct KeySlot {
    uint64_t key = 0;
    StoredMatch* head = nullptr;
  };

  /// The matches whose min_ts lies in [index * width, (index + 1) * width).
  struct Slice {
    int64_t index = 0;
    size_t size = 0;
    MatchChunkPool::Chunk* first = nullptr;  ///< Chunks, oldest first.
    MatchChunkPool::Chunk* last = nullptr;   ///< Holds the newest entry.
    size_t last_fill = 0;                    ///< Entries used in `last`.
    size_t keys = 0;
    std::vector<KeySlot> table;  ///< Power-of-two size, at most half full.

    const StoredMatch* Find(uint64_t key) const {
      if (table.empty()) return nullptr;
      const size_t mask = table.size() - 1;
      // Join keys are already mixed hashes; their low bits index directly.
      for (size_t i = key & mask;; i = (i + 1) & mask) {
        if (table[i].head == nullptr) return nullptr;
        if (table[i].key == key) return table[i].head;
      }
    }
    KeySlot& SlotFor(uint64_t key);
    template <typename F>
    void ForEachEntry(F&& f) const;
  };

  /// The slice for `index`, created in order if absent.
  Slice& SliceAt(int64_t index);
  /// Destroys `slice`'s matches (when they own heap blocks) and hands its
  /// chunks to `pool` and its key table to spare_table_, or frees both
  /// when `pool` is null.
  void Release(Slice* slice, MatchChunkPool* pool);

  // A tree's stores sit in one vector allocated at registration. At 80
  // bytes a store, a news query's 11 stores fit under glibc malloc's
  // 1024-byte small-request limit; a larger request first consolidates
  // the freed small chunks, which made a cold registration about 10 us
  // slower when a store was 104 bytes. So a store caches no count it can
  // compute: size() sums its slices.
  Timestamp width_;
  std::vector<Slice> slices_;  ///< Ascending by index, none empty.
  /// The largest key table of a dropped slice, reused by the next new
  /// slice. Growing and freeing a table per slice fragmented the heap:
  /// swbench news-engine's peak_rss_mb read 62.2 MB, against 58.0 MB with
  /// the reuse (4-vCPU VM).
  std::vector<KeySlot> spare_table_;
  int64_t live_from_ = 0;      ///< Slices below this index were dropped.
  uint64_t dead_on_arrival_ = 0;
  bool owns_heap_ = false;     ///< Some stored match spilled to the heap.
};

}  // namespace streamworks

#endif  // STREAMWORKS_SJTREE_MATCH_STORE_H_
