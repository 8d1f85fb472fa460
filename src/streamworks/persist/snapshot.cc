#include "streamworks/persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#include "streamworks/common/codec.h"
#include "streamworks/common/str_util.h"
#include "streamworks/common/unique_fd.h"
#include "streamworks/graph/edge_record.h"
#include "streamworks/persist/crc32.h"
#include "streamworks/persist/fs_util.h"

namespace streamworks {

namespace {

constexpr char kSnapshotMagic[4] = {'S', 'W', 'S', 'N'};
constexpr uint32_t kSnapshotVersion = 1;

std::string SnapshotName(uint64_t wal_seq) {
  return SeqFileName("snap-", wal_seq, ".snap");
}

/// A window edge: its ingest id, then the shared edge record.
constexpr size_t kSnapshotEdgeBytes = 8 + kEdgeRecordBytes;

}  // namespace

StatusOr<std::string> EncodeSnapshot(const SnapshotContents& contents,
                                     const Interner& interner) {
  // One label table for the whole file. The edges and sessions go to
  // their own buffers first so the table is complete before it is
  // written. Strings (labels, session names, tags) can be
  // tenant-controlled, so one past the u16 length fails the snapshot
  // with a Status, never the process.
  LabelTableWriter table;
  std::string edges;
  edges.reserve(8 + contents.window.edges.size() * kSnapshotEdgeBytes);
  PutU64(&edges, contents.window.edges.size());
  for (const PersistedEdge& pe : contents.window.edges) {
    PutU64(&edges, pe.id);
    PutEdgeRecord(&edges, pe.edge, &table);
  }

  std::string sessions;
  PutU32(&sessions, static_cast<uint32_t>(contents.service.sessions.size()));
  for (const PersistedSession& ps : contents.service.sessions) {
    SW_RETURN_IF_ERROR(PutString(&sessions, ps.name));
    PutU32(&sessions, static_cast<uint32_t>(ps.subscriptions.size()));
    for (const PersistedSubscription& sub : ps.subscriptions) {
      SW_RETURN_IF_ERROR(PutString(&sessions, sub.tag));
      SW_RETURN_IF_ERROR(PutString(&sessions, sub.query.name()));
      const int nv = sub.query.num_vertices();
      const int ne = sub.query.num_edges();
      PutU16(&sessions, static_cast<uint16_t>(nv));
      for (int v = 0; v < nv; ++v) {
        PutU32(&sessions, table.IndexOf(sub.query.vertex_label(v)));
      }
      PutU16(&sessions, static_cast<uint16_t>(ne));
      for (int e = 0; e < ne; ++e) {
        const QueryEdge& qe = sub.query.edge(e);
        PutU16(&sessions, static_cast<uint16_t>(qe.src));
        PutU16(&sessions, static_cast<uint16_t>(qe.dst));
        PutU32(&sessions, table.IndexOf(qe.label));
      }
      PutI64(&sessions, sub.window);
      SW_RETURN_IF_ERROR(
          PutString(&sessions, DecompositionStrategyName(sub.strategy)));
      PutU64(&sessions, sub.queue_capacity);
      SW_RETURN_IF_ERROR(
          PutString(&sessions, OverflowPolicyName(sub.policy)));
      sessions.push_back(sub.paused ? '\1' : '\0');
    }
  }

  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&out, kSnapshotVersion);
  PutU64(&out, contents.wal_seq);
  PutU64(&out, contents.window.next_edge_id);
  PutI64(&out, contents.window.watermark);
  SW_RETURN_IF_ERROR(table.Write(&out, InternerNames(interner)));
  out.append(edges);
  out.append(sessions);
  PutU32(&out, Crc32(out));
  return out;
}

StatusOr<SnapshotContents> DecodeSnapshot(std::string_view bytes,
                                          Interner* interner) {
  const auto corrupt = [](std::string_view why) {
    return Status::DataLoss(StrCat("corrupt snapshot: ", why));
  };
  if (bytes.size() < 4 + 4 + 8 + 8 + 8 + 4) return corrupt("too short");
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return corrupt("bad magic");
  }
  const uint32_t declared_crc = GetU32(bytes.data() + bytes.size() - 4);
  if (Crc32(bytes.substr(0, bytes.size() - 4)) != declared_crc) {
    return corrupt("CRC mismatch");
  }

  // Every declared length is bounds-checked against the bytes present,
  // even past a good CRC: a forged one must fail decoding, never crash
  // the loader.
  WireReader r(bytes.substr(4, bytes.size() - 4 - 4));
  SnapshotContents contents;
  if (r.U32("version") != kSnapshotVersion) {
    return corrupt("unsupported version");
  }
  contents.wal_seq = r.U64("header");
  contents.window.next_edge_id = r.U64("header");
  contents.window.watermark = r.I64("header");
  const std::vector<LabelId> labels = ReadLabelTable(&r, interner);

  const uint64_t n_edges = r.U64("edge count");
  const std::string_view records =
      r.Records(n_edges, kSnapshotEdgeBytes, "edge");
  if (!r.ok()) return corrupt(r.error());
  contents.window.edges.resize(n_edges);
  for (uint64_t i = 0; i < n_edges; ++i) {
    const char* p = records.data() + i * kSnapshotEdgeBytes;
    PersistedEdge& pe = contents.window.edges[i];
    pe.id = GetU64(p);
    if (i > 0 && pe.id <= contents.window.edges[i - 1].id) {
      return corrupt("window edge ids not ascending");
    }
    if (!GetEdgeRecord(p + 8, labels, &pe.edge)) {
      return corrupt("edge label index out of string-table range");
    }
  }

  const uint32_t n_sessions = r.U32("session count");
  if (!r.Fits(n_sessions, 1, "session")) return corrupt(r.error());
  for (uint32_t s = 0; s < n_sessions && r.ok(); ++s) {
    PersistedSession ps;
    ps.name = r.String("session name");
    const uint32_t n_subs = r.U32("subscription count");
    if (!r.Fits(n_subs, 1, "subscription")) return corrupt(r.error());
    for (uint32_t q = 0; q < n_subs && r.ok(); ++q) {
      PersistedSubscription sub;
      sub.tag = r.String("subscription tag");
      const std::string query_name = r.String("query name");
      const uint16_t nv = r.U16("query vertex count");
      if (!r.ok()) break;
      // The builder SW_CHECKs its size cap; a forged-CRC snapshot must
      // fail decoding here, never abort the recovering process.
      if (nv == 0 || nv > kMaxQuerySize) {
        return corrupt("query vertex count out of range");
      }
      QueryGraphBuilder builder(interner);
      for (uint16_t v = 0; v < nv && r.ok(); ++v) {
        const LabelId label =
            TableLabel(&r, labels, r.U32("query vertex label"));
        if (r.ok()) builder.AddVertex(interner->Name(label));
      }
      const uint16_t ne = r.U16("query edge count");
      if (!r.ok()) break;
      if (ne == 0 || ne > kMaxQuerySize) {
        return corrupt("query edge count out of range");
      }
      for (uint16_t e = 0; e < ne && r.ok(); ++e) {
        const uint16_t src = r.U16("query edge");
        const uint16_t dst = r.U16("query edge");
        const LabelId label = TableLabel(&r, labels, r.U32("query edge"));
        if (!r.ok()) break;
        if (src >= nv || dst >= nv) {
          return corrupt("query edge endpoint out of range");
        }
        builder.AddEdge(src, dst, interner->Name(label));
      }
      if (!r.ok()) break;
      auto built = builder.Build(query_name);
      if (!built.ok()) {
        return corrupt(StrCat("unbuildable query '", query_name,
                              "': ", built.status().message()));
      }
      sub.query = std::move(built).value();
      sub.window = r.I64("subscription options");
      const std::string strategy_name = r.String("subscription options");
      sub.queue_capacity = r.U64("subscription options");
      const std::string policy_name = r.String("subscription options");
      sub.paused = r.U8("subscription options") != 0;
      if (!r.ok()) break;
      auto strategy = ParseDecompositionStrategy(strategy_name);
      if (!strategy.ok()) return corrupt("unknown strategy name");
      sub.strategy = strategy.value();
      auto policy = ParseOverflowPolicy(policy_name);
      if (!policy.ok()) return corrupt("unknown overflow policy");
      sub.policy = policy.value();
      ps.subscriptions.push_back(std::move(sub));
    }
    contents.service.sessions.push_back(std::move(ps));
  }
  if (!r.ok()) return corrupt(r.error());
  if (r.remaining() != 0) return corrupt("trailing bytes");
  return contents;
}

StatusOr<std::string> WriteSnapshotFile(const std::string& dir,
                                        const SnapshotContents& contents,
                                        const Interner& interner) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot dir " + dir + ": " +
                           ec.message());
  }
  SW_ASSIGN_OR_RETURN(const std::string blob,
                      EncodeSnapshot(contents, interner));
  const std::filesystem::path final_path =
      std::filesystem::path(dir) / SnapshotName(contents.wal_seq);
  const std::filesystem::path tmp_path =
      final_path.string() + ".tmp";

  {
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IoError(StrCat("cannot create ", tmp_path.string(),
                                    ": ", std::strerror(errno)));
    }
    UniqueFd guard(fd);
    // A failed write/fsync must not strand the half-written tmp file:
    // on the disk-full machine that makes snapshots fail, every cadence
    // retry would otherwise orphan another full-window image.
    if (Status written = WriteAll(fd, blob); !written.ok()) {
      ::unlink(tmp_path.c_str());
      return written;
    }
    if (::fsync(fd) != 0) {
      const Status failed = Status::IoError(
          StrCat("snapshot fsync failed: ", std::strerror(errno)));
      ::unlink(tmp_path.c_str());
      return failed;
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("snapshot rename failed: " + ec.message());
  }
  // Make the rename itself durable.
  FsyncDir(dir);
  return final_path.string();
}

StatusOr<SnapshotLoadResult> LoadLatestSnapshot(const std::string& dir,
                                                Interner* interner) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    return Status::NotFound("no snapshot directory at " + dir);
  }
  SW_ASSIGN_OR_RETURN(auto snaps, ListSeqFiles(dir, "snap-", ".snap"));
  std::reverse(snaps.begin(), snaps.end());  // newest first

  SnapshotLoadResult result;
  for (const auto& [seq, path] : snaps) {
    auto bytes = ReadFileToString(path);
    if (bytes.ok()) {
      // One decode, straight into the live interner: the window walk is
      // recovery's dominant cost and must not run twice. A snapshot
      // rejected mid-decode may leave labels it interned before the
      // rejection — benign (label ids are process-local and unused
      // entries are inert), and random corruption never gets that far
      // anyway (the whole-file CRC is checked before any field is
      // read).
      auto decoded = DecodeSnapshot(bytes.value(), interner);
      if (decoded.ok()) {
        result.contents = std::move(decoded).value();
        result.path = path.string();
        return result;
      }
    }
    // Fall back to the previous snapshot: a corrupt newest file costs
    // recovery freshness (a longer WAL replay), never the process.
    ++result.invalid_skipped;
  }
  return Status::NotFound("no valid snapshot in " + dir);
}

StatusOr<int> PruneSnapshots(const std::string& dir, int keep_newest) {
  if (keep_newest <= 0) {
    return Status::InvalidArgument(
        "keep_newest must be positive (the newest snapshot is the "
        "recovery point)");
  }
  std::error_code ec;
  SW_ASSIGN_OR_RETURN(auto snaps, ListSeqFiles(dir, "snap-", ".snap"));
  std::reverse(snaps.begin(), snaps.end());  // newest first
  int deleted = 0;
  for (size_t i = static_cast<size_t>(keep_newest); i < snaps.size(); ++i) {
    std::filesystem::remove(snaps[i].second, ec);
    if (ec) {
      return Status::IoError("cannot prune snapshot " +
                             snaps[i].second.string() + ": " +
                             ec.message());
    }
    ++deleted;
  }
  return deleted;
}

}  // namespace streamworks
