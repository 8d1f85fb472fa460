// Prices the durability subsystem: WAL append/replay throughput, snapshot
// write/load throughput, and the end-to-end crash-recovery path (restore
// window -> re-register -> replay WAL tail) against in-memory ingest.
//
//   $ ./build/bench/bench_recovery [num_edges] [--json PATH]
//
// Machine-readable results land in bench-results/bench_recovery.json (or
// the --json path); the committed baseline is
// bench-results/BENCH_recovery.json. Run on an idle machine for stable
// numbers — everything here is I/O-bound by design.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/persist/durable_backend.h"
#include "streamworks/persist/edge_log.h"
#include "streamworks/persist/manager.h"
#include "streamworks/persist/snapshot.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/query_service.h"

namespace streamworks::bench {
namespace {

namespace fs = std::filesystem;

struct Result {
  std::string scenario;
  uint64_t edges = 0;
  double seconds = 0;
  uint64_t bytes = 0;  ///< On-disk footprint, when meaningful.

  double eps() const { return seconds > 0 ? edges / seconds : 0; }
};

std::string ScratchDir(std::string_view leg) {
  const fs::path dir = fs::temp_directory_path() /
                       ("sw_bench_recovery_" + std::string(leg));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<StreamEdge> BenchStream(Interner* interner, int num_edges) {
  RandomStreamOptions opt;
  opt.seed = 7;
  opt.num_vertices = 2000;
  opt.num_edges = num_edges;
  opt.num_vertex_labels = 3;
  opt.num_edge_labels = 4;
  return GenerateUniformStream(opt, interner);
}

Result BenchWalAppend(const std::vector<StreamEdge>& edges,
                      const Interner& interner, int fsync_every,
                      size_t batch_size) {
  const std::string dir = ScratchDir(
      "wal_append_f" + std::to_string(fsync_every));
  FrameLogOptions options;
  options.fsync_every_records = fsync_every;
  auto log = EdgeLog::Open(dir, &interner, options).value();
  Timer timer;
  for (size_t i = 0; i < edges.size(); i += batch_size) {
    const size_t n = std::min(batch_size, edges.size() - i);
    EdgeBatch batch(edges.begin() + static_cast<ptrdiff_t>(i),
                    edges.begin() + static_cast<ptrdiff_t>(i + n));
    if (!log->Append(batch).ok()) break;
  }
  log->Sync().ok();
  Result result{fsync_every > 0
                    ? "wal append fsync" + std::to_string(fsync_every)
                    : "wal append",
                edges.size(), timer.ElapsedSeconds(),
                log->stats().bytes_appended};
  fs::remove_all(dir);
  return result;
}

Result BenchWalReplay(const std::vector<StreamEdge>& edges,
                      const Interner& interner, size_t batch_size) {
  const std::string dir = ScratchDir("wal_replay");
  {
    auto log = EdgeLog::Open(dir, &interner).value();
    for (size_t i = 0; i < edges.size(); i += batch_size) {
      const size_t n = std::min(batch_size, edges.size() - i);
      EdgeBatch batch(edges.begin() + static_cast<ptrdiff_t>(i),
                      edges.begin() + static_cast<ptrdiff_t>(i + n));
      log->Append(batch).ok();
    }
  }
  Interner replay_side;
  uint64_t replayed = 0;
  Timer timer;
  EdgeLog::Replay(dir, 0, &replay_side,
                  [&](const EdgeBatch& batch, uint64_t) {
                    replayed += batch.size();
                  })
      .value();
  Result result{"wal replay", replayed, timer.ElapsedSeconds(), 0};
  fs::remove_all(dir);
  return result;
}

/// Snapshot write + load over a real engine window of `edges`.
std::pair<Result, Result> BenchSnapshot(
    const std::vector<StreamEdge>& edges, Interner* interner) {
  const std::string dir = ScratchDir("snapshot");
  StreamWorksEngine engine(interner);
  for (const StreamEdge& e : edges) engine.ProcessEdge(e).ok();

  SnapshotContents contents;
  contents.wal_seq = edges.size();
  Timer write_timer;
  contents.window = engine.ExportWindow();
  const std::string path =
      WriteSnapshotFile(dir, contents, *interner).value();
  Result write{"snapshot write", contents.window.edges.size(),
               write_timer.ElapsedSeconds(), fs::file_size(path)};

  Interner load_side;
  Timer load_timer;
  auto loaded = LoadLatestSnapshot(dir, &load_side).value();
  StreamWorksEngine restored(&load_side);
  for (const PersistedEdge& pe : loaded.contents.window.edges) {
    restored.RestoreWindowEdge(pe.edge, pe.id).ok();
  }
  restored.FinishWindowRestore(loaded.contents.window.next_edge_id,
                               loaded.contents.window.watermark);
  Result load{"snapshot load+restore", loaded.contents.window.edges.size(),
              load_timer.ElapsedSeconds(), write.bytes};
  fs::remove_all(dir);
  return {write, load};
}

/// End-to-end: a durable service crashes mid-stream (snapshot at half,
/// WAL tail for the rest); time DurabilityManager::Start() of the next
/// incarnation.
Result BenchEndToEndRecovery(const std::vector<StreamEdge>& ref_edges,
                             int num_edges) {
  const std::string dir = ScratchDir("recover");
  (void)ref_edges;  // regenerated per stack: interners are per-process
  {
    Interner interner;
    const auto edges = BenchStream(&interner, num_edges);
    StreamWorksEngine engine(&interner);
    SingleEngineBackend inner(&engine);
    DurableBackend durable(&inner);
    QueryService service(&durable);
    DurabilityOptions options;
    options.data_dir = dir;
    DurabilityManager manager(options, &service, &durable, &interner);
    manager.Start().value();
    const int session = service.OpenSession("bench").value();
    QueryGraphBuilder b(&interner);
    const auto u = b.AddVertex("VL0");
    const auto v = b.AddVertex("VL1");
    b.AddEdge(u, v, "EL0");
    SubmitOptions opt;
    opt.window = 64;
    opt.tag = "q";
    opt.queue_capacity = 1u << 18;
    service.Submit(session, b.Build("bench_q").value(), opt).value();
    for (size_t i = 0; i < edges.size(); ++i) {
      service.Feed(edges[i]).ok();
      if (i + 1 == edges.size() / 2) manager.SnapshotNow().value();
    }
  }
  Interner interner;
  StreamWorksEngine engine(&interner);
  SingleEngineBackend inner(&engine);
  DurableBackend durable(&inner);
  QueryService service(&durable);
  DurabilityOptions options;
  options.data_dir = dir;
  DurabilityManager manager(options, &service, &durable, &interner);
  Timer timer;
  const RecoveryReport report = manager.Start().value();
  Result result{"end-to-end recovery",
                report.window_edges + report.replayed_edges,
                timer.ElapsedSeconds(), 0};
  fs::remove_all(dir);
  return result;
}

void WriteJson(const std::vector<Result>& rows, const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  std::ofstream out(path);
  out << "{\n  \"bench\": \"recovery\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Result& r = rows[i];
    out << "    {\"scenario\": \"" << r.scenario << "\", \"edges\": "
        << r.edges << ", \"seconds\": " << FormatDouble(r.seconds, 4)
        << ", \"eps\": " << FormatDouble(r.eps(), 1)
        << ", \"bytes\": " << r.bytes << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

void RunAll(int num_edges, const std::string& json_path) {
  Banner("recovery", "WAL + snapshot + crash-recovery throughput");
  Interner interner;
  const auto edges = BenchStream(&interner, num_edges);

  std::vector<Result> rows;
  rows.push_back(BenchWalAppend(edges, interner, /*fsync_every=*/0, 512));
  rows.push_back(BenchWalAppend(edges, interner, /*fsync_every=*/64, 512));
  rows.push_back(BenchWalReplay(edges, interner, 512));
  auto [snap_write, snap_load] = BenchSnapshot(edges, &interner);
  rows.push_back(snap_write);
  rows.push_back(snap_load);
  rows.push_back(BenchEndToEndRecovery(edges, num_edges));

  Table table({24, 10, 12, 14, 12});
  table.Row({"scenario", "edges", "seconds", "edges/s", "bytes"});
  table.Separator();
  for (const Result& r : rows) {
    table.Row({r.scenario, std::to_string(r.edges),
               FormatDouble(r.seconds, 4), FormatDouble(r.eps(), 0),
               std::to_string(r.bytes)});
  }
  WriteJson(rows, json_path);
}

}  // namespace
}  // namespace streamworks::bench

int main(int argc, char** argv) {
  int num_edges = 50000;
  std::string json_path = "bench-results/bench_recovery.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json needs a path\n";
        return 1;
      }
      json_path = argv[++i];
      continue;
    }
    int64_t n = 0;
    if (!streamworks::ParseInt64(arg, &n) || n <= 0) {
      std::cerr << "usage: bench_recovery [num_edges] [--json PATH]\n";
      return 1;
    }
    num_edges = static_cast<int>(n);
  }
  streamworks::bench::RunAll(num_edges, json_path);
  return 0;
}
