#include "streamworks/sjtree/match_store.h"

#include <algorithm>
#include <iterator>
#include <new>

#include "streamworks/common/logging.h"

namespace streamworks {

// See the note on MatchStore's members.
static_assert(sizeof(MatchStore) <= 80);

MatchChunkPool::~MatchChunkPool() {
  while (free_ != nullptr) {
    Chunk* next = free_->next;
    delete free_;
    free_ = next;
  }
}

MatchChunkPool::Chunk* MatchChunkPool::Take() {
  Chunk* chunk = free_;
  if (chunk == nullptr) return new Chunk;
  free_ = chunk->next;
  chunk->next = nullptr;
  return chunk;
}

void MatchChunkPool::Give(Chunk* first, Chunk* last) {
  last->next = free_;
  free_ = first;
}

Timestamp MatchStore::SliceWidth(Timestamp window) {
  SW_CHECK_GT(window, 0);
  if (window == kMaxTimestamp) return kMaxTimestamp;
  return window / kSlicesPerWindow + (window % kSlicesPerWindow != 0);
}

MatchStore::~MatchStore() {
  for (Slice& slice : slices_) Release(&slice, nullptr);
}

MatchStore::KeySlot& MatchStore::Slice::SlotFor(uint64_t key) {
  if ((keys + 1) * 2 > table.size()) {
    std::vector<KeySlot> old(std::max<size_t>(8, table.size() * 2));
    old.swap(table);
    const size_t mask = table.size() - 1;
    for (const KeySlot& slot : old) {
      if (slot.head == nullptr) continue;
      size_t i = slot.key & mask;
      while (table[i].head != nullptr) i = (i + 1) & mask;
      table[i] = slot;
    }
  }
  const size_t mask = table.size() - 1;
  size_t i = key & mask;
  while (table[i].head != nullptr && table[i].key != key) i = (i + 1) & mask;
  if (table[i].head == nullptr) {
    table[i].key = key;
    ++keys;
  }
  return table[i];
}

template <typename F>
void MatchStore::Slice::ForEachEntry(F&& f) const {
  for (MatchChunkPool::Chunk* chunk = first; chunk != nullptr;
       chunk = chunk->next) {
    const size_t used =
        chunk == last ? last_fill : MatchChunkPool::kMatchesPerChunk;
    for (size_t i = 0; i < used; ++i) f(chunk->slots[i].entry);
  }
}

MatchStore::Slice& MatchStore::SliceAt(int64_t index) {
  // Nearly every insert lands in the newest slice; search from the back.
  auto it = slices_.end();
  while (it != slices_.begin() && std::prev(it)->index >= index) --it;
  if (it != slices_.end() && it->index == index) return *it;
  Slice slice;
  slice.index = index;
  if (!spare_table_.empty()) {
    slice.table = std::move(spare_table_);
    spare_table_.clear();
    std::fill(slice.table.begin(), slice.table.end(), KeySlot{});
  }
  return *slices_.insert(it, std::move(slice));
}

bool MatchStore::Insert(uint64_t key, const Match& m, MatchChunkPool* pool) {
  const Timestamp min_ts = m.min_ts();
  SW_DCHECK_GE(min_ts, 0);
  const int64_t index = min_ts / width_;
  if (index < live_from_) {
    ++dead_on_arrival_;
    return false;
  }
  Slice& slice = SliceAt(index);
  if (slice.last == nullptr ||
      slice.last_fill == MatchChunkPool::kMatchesPerChunk) {
    MatchChunkPool::Chunk* chunk = pool->Take();
    (slice.last == nullptr ? slice.first : slice.last->next) = chunk;
    slice.last = chunk;
    slice.last_fill = 0;
  }
  KeySlot& slot = slice.SlotFor(key);
  slot.head = new (&slice.last->slots[slice.last_fill++].entry)
      StoredMatch{slot.head, min_ts, m};
  ++slice.size;
  owns_heap_ = owns_heap_ || m.spilled();
  return true;
}

void MatchStore::Release(Slice* slice, MatchChunkPool* pool) {
  // An inline match owns nothing, so only a spilled query's matches need
  // their destructors run; otherwise a drop never touches the matches.
  if (owns_heap_) {
    slice->ForEachEntry([](StoredMatch& e) { e.match.~Match(); });
  }
  if (pool != nullptr) {
    pool->Give(slice->first, slice->last);
    if (slice->table.size() > spare_table_.size()) {
      spare_table_ = std::move(slice->table);
    }
    return;
  }
  for (MatchChunkPool::Chunk* chunk = slice->first; chunk != nullptr;) {
    MatchChunkPool::Chunk* next = chunk->next;
    delete chunk;
    chunk = next;
  }
}

size_t MatchStore::Expire(Timestamp cutoff, MatchChunkPool* pool) {
  const int64_t first_live = cutoff / width_;
  if (first_live <= live_from_) return 0;
  live_from_ = first_live;
  size_t dropped = 0;
  auto it = slices_.begin();
  for (; it != slices_.end() && it->index < first_live; ++it) {
    dropped += it->size;
    Release(&*it, pool);
  }
  slices_.erase(slices_.begin(), it);
  return dropped;
}

size_t MatchStore::size() const {
  size_t stored = 0;
  for (const Slice& slice : slices_) stored += slice.size;
  return stored;
}

bool MatchStore::HasLive(Timestamp cutoff) const {
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if (it->index * width_ >= cutoff) return true;  // wholly live, not empty
    if (it->index < cutoff / width_) return false;  // this and older: dead
    bool live = false;
    it->ForEachEntry(
        [&](const StoredMatch& e) { live = live || e.min_ts >= cutoff; });
    if (live) return true;
  }
  return false;
}

Timestamp MatchStore::OldestMinTs() const {
  Timestamp oldest = kMaxTimestamp;
  if (!slices_.empty()) {
    slices_.front().ForEachEntry(
        [&](const StoredMatch& e) { oldest = std::min(oldest, e.min_ts); });
  }
  return oldest;
}

}  // namespace streamworks
