#ifndef STREAMWORKS_PERSIST_SNAPSHOT_H_
#define STREAMWORKS_PERSIST_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/core/engine.h"
#include "streamworks/service/query_service.h"

namespace streamworks {

/// Everything one snapshot file holds: the engine window (in external-id
/// form, with preserved edge ids), the service control plane (open
/// sessions + live subscriptions, query patterns included), and the WAL
/// sequence the state corresponds to. Recovery = load this, restore the
/// window, re-submit the subscriptions (backfilling their SJ-Trees from
/// the window), then replay the WAL from `wal_seq` with completions
/// suppressed.
struct SnapshotContents {
  uint64_t wal_seq = 0;
  WindowSnapshot window;
  ServicePersistState service;
};

/// On-disk snapshot layout (`snap-<wal_seq:016x>.snap`, integers LE):
///
///   magic    4 bytes  "SWSN"
///   version  u32      1
///   wal_seq  u64
///   next_edge_id u64
///   watermark    i64
///   label table   u32 n + n x {u16 len, bytes}   — every label name,
///                 once per file
///   window edges  u64 n + n x {id u64, 36-byte edge record}, ascending id
///   sessions      u32 n + per session {name, u32 n_subs + per sub
///                 {tag, query_name, u16 nv + nv x u32 vertex_label,
///                  u16 ne + ne x {u16 src, u16 dst, u32 label},
///                  window i64, strategy name, capacity u64, policy name,
///                  paused u8}}     — strings as {u16 len, bytes}
///   crc      u32      CRC-32 of every byte above
///
/// The label table and the string rule are common/codec.h's and the edge
/// record is graph/edge_record.h's, shared with FEEDB and the cluster
/// control frames.
///
/// Files are written to a temp name and atomically renamed, so a reader
/// never sees a half-written snapshot under the final name; the trailing
/// CRC catches the remaining failure modes (torn rename-over on a dying
/// kernel, bit rot). The loader walks snapshots newest-first and falls
/// back to the previous one when validation fails — a bad snapshot can
/// cost recovery freshness (more WAL to replay), never a crash.

/// Serializes `contents` to one self-contained snapshot blob. Label ids
/// inside `contents` are resolved through `interner`. InvalidArgument
/// when a string (label, session name, tag — possibly tenant-chosen)
/// exceeds the format's u16 length: a snapshot failure, never a crash.
StatusOr<std::string> EncodeSnapshot(const SnapshotContents& contents,
                                     const Interner& interner);

/// Strictly validates and decodes one snapshot blob (every declared
/// length is bounds-checked against the bytes actually present; the CRC
/// must match). Labels are interned into `interner`.
StatusOr<SnapshotContents> DecodeSnapshot(std::string_view bytes,
                                          Interner* interner);

/// Atomically writes `contents` into `dir` (created if missing) as
/// snap-<wal_seq>.snap via temp-file + rename (+ fsync of file and
/// directory). Returns the final path.
StatusOr<std::string> WriteSnapshotFile(const std::string& dir,
                                        const SnapshotContents& contents,
                                        const Interner& interner);

struct SnapshotLoadResult {
  SnapshotContents contents;
  std::string path;        ///< File the contents came from.
  int invalid_skipped = 0; ///< Newer snapshots rejected as corrupt.
};

/// Loads the newest valid snapshot in `dir`, skipping (and counting)
/// corrupt ones. NotFound when the directory holds no usable snapshot
/// (including when it does not exist) — a fresh start, not an error.
StatusOr<SnapshotLoadResult> LoadLatestSnapshot(const std::string& dir,
                                                Interner* interner);

/// Deletes all but the `keep_newest` highest-sequence snapshot files in
/// `dir` (each snapshot is a full window image, so a long-running daemon
/// would otherwise grow its data dir by one window per cadence tick
/// forever; a few are kept as corruption fallbacks). Returns how many
/// were deleted. keep_newest == 0 is refused (InvalidArgument) — the
/// newest snapshot is the recovery point, not garbage.
StatusOr<int> PruneSnapshots(const std::string& dir, int keep_newest);

}  // namespace streamworks

#endif  // STREAMWORKS_PERSIST_SNAPSHOT_H_
