// Prices the multi-process sharding path: a DistributedBackend feeding
// worker daemons over real localhost TCP, at 1, 2 and 4 workers. Reports
// ingest throughput (edges/s through Feed -> epoch batches -> barrier ->
// commit) and completion delivery lag (enqueue-to-callback, p50/p99) for
// a netflow stream with planted worm/probe motifs, then the ingest cost
// of cluster observability at 2 workers (skip it with --no-overhead).
//
//   $ ./build/bench/bench_cluster [num_edges] [--json PATH] [--no-overhead]
//
// Workers run in-process on their own threads, without frame logs: the
// number is the cluster wire + barrier protocol, not disk. A row lasts
// tens of milliseconds, so each reports the fastest of kRowRuns runs of
// its stream, each on a fresh cluster, and every run must deliver the
// same completions. Machine-readable results land in
// bench-results/bench_cluster.json; the committed baseline is
// bench-results/BENCH_cluster.json (gated by ci/bench_gate.py on
// ingest_eps; the lag percentiles ride along for humans). Run on an idle
// machine for stable numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "bench/bench_util.h"
#include "bench/bench_worker.h"
#include "streamworks/cluster/coordinator.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/stream/netflow_gen.h"

namespace streamworks::bench {
namespace {

struct Result {
  std::string scenario;
  uint64_t edges = 0;
  double seconds = 0;
  uint64_t completions = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  double eps() const { return seconds > 0 ? edges / seconds : 0; }
};

/// Observed cost of cluster observability on the ingest path, at 2
/// workers: federation registry + stage pipeline + a live 250ms scraper
/// against observability off. The gated number is the wall-clock ingest
/// slowdown, the cost a deployment actually pays. Each pair keeps one
/// obs-off and one obs-on cluster alive and feeds them the stream in
/// alternating passes until each has ingested for kOverheadMinSeconds.
/// Cluster ingest is CPU-bound, and on a shared 4-vCPU host its rate
/// drifts by ±10% between whole 1 s runs, so back-to-back runs cannot
/// resolve a 3% budget. Interleaved, a pair's standard deviation was
/// 2.3% at 1 s per side, 1.7% at 2 s and 1.3% at 3 s. At 2 s the median
/// of 5 pairs moved by a standard deviation of 0.7% between runs; at 1 s
/// one run in 10 crossed the budget. `min_scrapes` is the fewest scrapes any
/// obs-on cluster served in its pair; ci/bench_gate.py refuses a block
/// whose clusters barely scraped. The scraper thread's own CPU (render,
/// report pulls, merge) rides along per wall second; the per-epoch hooks
/// show only in the wall slowdown, as a CPU difference they are below
/// the noise.
struct Overhead {
  int workers = 0;
  int pairs = 0;
  double median_ingest_pct = 0;
  double mean_ingest_pct = 0;
  double scrape_cpu_ms_per_s = 0;
  int min_scrapes = 0;
  double gate_pct = 3.0;
};

/// Runs behind each row. One run of the default 20000-edge stream takes
/// 13-31 ms on a 4-vCPU VM, short enough that one scheduling hiccup moves
/// its rate by a quarter; the fastest of several is what the host can do.
constexpr int kRowRuns = 5;

constexpr double kOverheadMinSeconds = 2.0;
constexpr auto kScrapePeriod = std::chrono::milliseconds(250);

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

std::vector<StreamEdge> BenchStream(Interner* interner, int num_edges) {
  NetflowGenerator::Options opt;
  opt.seed = 99;
  opt.background_edges = num_edges;
  NetflowGenerator gen(opt, interner);
  gen.InjectWorm(num_edges / 4, 3);
  gen.InjectPortScan(num_edges / 2, 8);
  gen.InjectWorm((num_edges * 3) / 4, 3);
  return gen.Generate();
}

QueryGraph WormChain(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("Host");
  const auto h = b.AddVertex("Host");
  const auto x = b.AddVertex("Host");
  b.AddEdge(a, h, "exploit");
  b.AddEdge(h, x, "exploit");
  return b.Build("worm_chain").value();
}

QueryGraph Probe(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto s = b.AddVertex("Host");
  const auto t = b.AddVertex("Host");
  b.AddEdge(s, t, "synProbe");
  return b.Build("probe").value();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

/// A running cluster of `num_workers` daemons with the worm chain and
/// probe registered. With observability it is wired to a federation
/// registry and stage pipeline, and a scraper renders /metrics every
/// kScrapePeriod for the cluster's whole life.
class BenchCluster {
 public:
  BenchCluster(int num_workers, Interner* interner, bool with_obs) {
    DistributedBackendOptions options;
    for (int i = 0; i < num_workers; ++i) {
      workers_.push_back(std::make_unique<BenchWorker>());
      options.workers.push_back(workers_.back()->endpoint());
    }
    // Paced ingest: a shallow pending queue makes Feed backpressure
    // against the pump, so the delivery lag measures steady-state epoch
    // latency rather than the depth of an unbounded buffer.
    options.epoch_edges = 512;
    options.max_pending_edges = 2048;
    // The obs-on configuration is the full production wiring: federation
    // registry + stage pipeline on the coordinator, scraped concurrently
    // while the stream flows (each scrape pulls worker reports over the
    // control links, contending with the epoch pump for the cluster lock).
    if (with_obs) {
      options.registry = &registry_;
      options.pipeline = &pipeline_;
    }
    backend_ = std::make_unique<DistributedBackend>(options, interner);

    // Lag sampling: the callback runs on the pump thread; its sample is
    // now - enqueue time of the most recently fed edge. The completing
    // edge was fed no later than that, so this underestimates slightly —
    // the same slight bias at every worker count, which is what a
    // comparison needs.
    auto sink = [this](const CompleteMatch&) {
      const double lag = (clock_.ElapsedSeconds() -
                          last_feed_s_.load(std::memory_order_relaxed)) *
                         1000.0;
      std::lock_guard<std::mutex> lock(lag_mu_);
      lag_ms_.push_back(std::max(lag, 0.0));
      ++completions_;
    };
    if (!backend_->Start().ok()) {
      std::cerr << "cluster failed to start\n";
      std::exit(1);
    }
    backend_->Register(WormChain(interner),
                       DecompositionStrategy::kLeftDeepEdgeOrder, 200, sink)
        .value();
    backend_->Register(Probe(interner),
                       DecompositionStrategy::kLeftDeepEdgeOrder, 200, sink)
        .value();

    if (with_obs) {
      scraper_ = std::thread([this] {
        Timer wall;
        while (!scrape_stop_.load(std::memory_order_relaxed)) {
          (void)registry_.RenderPrometheus();
          ++scrapes_;
          std::this_thread::sleep_for(kScrapePeriod);
        }
        scrape_cpu_s_ = ThreadCpuSeconds();
        scrape_wall_s_ = wall.ElapsedSeconds();
      });
    }
  }

  ~BenchCluster() {
    StopScraper();
    backend_->Stop();
  }

  /// Joins the scraper; scrapes() and the scrape CPU are final after.
  void StopScraper() {
    scrape_stop_.store(true);
    if (scraper_.joinable()) scraper_.join();
  }

  /// Feeds `edges` once, each timestamp moved `shift` later so a replay
  /// continues the stream, then flushes. Returns the wall seconds taken.
  double FeedPass(const std::vector<StreamEdge>& edges, Timestamp shift) {
    Timer timer;
    for (StreamEdge e : edges) {
      e.ts += shift;
      last_feed_s_.store(clock_.ElapsedSeconds(), std::memory_order_relaxed);
      if (!backend_->Feed(e).ok()) {
        std::cerr << "ingest error\n";
        std::exit(1);
      }
    }
    backend_->Flush();
    return timer.ElapsedSeconds();
  }

  int scrapes() const { return scrapes_; }
  double scrape_cpu_s() const { return scrape_cpu_s_; }
  double scrape_wall_s() const { return scrape_wall_s_; }

  uint64_t completions() {
    std::lock_guard<std::mutex> lock(lag_mu_);
    return completions_;
  }

  double LagPercentileMs(double p) {
    std::lock_guard<std::mutex> lock(lag_mu_);
    return Percentile(lag_ms_, p);
  }

 private:
  std::vector<std::unique_ptr<BenchWorker>> workers_;
  MetricRegistry registry_;
  PipelineMetrics pipeline_;
  std::unique_ptr<DistributedBackend> backend_;

  Timer clock_;
  std::atomic<double> last_feed_s_{0.0};
  std::mutex lag_mu_;
  std::vector<double> lag_ms_;
  uint64_t completions_ = 0;

  std::atomic<bool> scrape_stop_{false};
  std::thread scraper_;
  // Written by the scraper thread, read after StopScraper joins it.
  int scrapes_ = 0;
  double scrape_cpu_s_ = 0;
  double scrape_wall_s_ = 0;
};

/// The fastest of kRowRuns runs of the stream at `num_workers`. Each run
/// is an independent deployment (fresh interner, stream and cluster,
/// like the correctness tests), and each must deliver the completions
/// the first one did.
Result RunScenario(int num_workers, int num_edges) {
  Result best;
  for (int run = 0; run < kRowRuns; ++run) {
    Interner interner;
    const auto edges = BenchStream(&interner, num_edges);
    BenchCluster cluster(num_workers, &interner, /*with_obs=*/false);
    Result result;
    result.scenario = "workers" + std::to_string(num_workers);
    result.edges = edges.size();
    result.seconds = cluster.FeedPass(edges, /*shift=*/0);
    result.completions = cluster.completions();
    result.p50_ms = cluster.LagPercentileMs(0.50);
    result.p99_ms = cluster.LagPercentileMs(0.99);
    if (run > 0 && result.completions != best.completions) {
      std::cerr << result.scenario << ": run " << (run + 1) << " delivered "
                << result.completions << " completions, run 1 "
                << best.completions << "\n";
      std::exit(1);
    }
    if (run == 0 || result.seconds < best.seconds) best = result;
  }
  return best;
}

/// `pairs` interleaved obs-off/obs-on pairs at 2 workers. A pair's
/// percentage is the on cluster's ingest time over the off cluster's,
/// minus one, for the same number of passes; which cluster goes first
/// alternates pass by pass. Median defends against one noisy pair; the
/// mean rides along for honesty about the spread.
Overhead MeasureOverhead(int num_edges, int pairs) {
  Overhead result;
  result.workers = 2;
  result.pairs = pairs;
  std::vector<double> pcts;
  double sum = 0;
  double scrape_cpu = 0;
  double scrape_wall = 0;
  for (int i = 0; i < pairs; ++i) {
    // Fresh interner + stream per cluster, like the scenario sweep.
    Interner off_interner;
    Interner on_interner;
    const auto off_edges = BenchStream(&off_interner, num_edges);
    const auto on_edges = BenchStream(&on_interner, num_edges);
    const Timestamp pass_span = off_edges.back().ts + 1;
    BenchCluster off(2, &off_interner, /*with_obs=*/false);
    BenchCluster on(2, &on_interner, /*with_obs=*/true);
    // One untimed pass each: connections warm, allocator pools filled.
    off.FeedPass(off_edges, 0);
    on.FeedPass(on_edges, 0);

    double seconds[2] = {0, 0};  // [off, on]
    BenchCluster* clusters[2] = {&off, &on};
    const std::vector<StreamEdge>* streams[2] = {&off_edges, &on_edges};
    int passes = 0;
    while (std::min(seconds[0], seconds[1]) < kOverheadMinSeconds) {
      ++passes;
      for (int k = 0; k < 2; ++k) {
        const int side = (passes + k) % 2;
        seconds[side] +=
            clusters[side]->FeedPass(*streams[side], passes * pass_span);
      }
    }
    on.StopScraper();
    const double pct = (seconds[1] / seconds[0] - 1.0) * 100.0;
    pcts.push_back(pct);
    sum += pct;
    scrape_cpu += on.scrape_cpu_s();
    scrape_wall += on.scrape_wall_s();
    result.min_scrapes =
        i == 0 ? on.scrapes() : std::min(result.min_scrapes, on.scrapes());
    const double edges = static_cast<double>(passes) *
                         static_cast<double>(off_edges.size());
    std::cout << "overhead pair " << (i + 1) << "/" << pairs << ": " << passes
              << " passes each, off=" << FormatDouble(edges / seconds[0], 0)
              << " e/s on=" << FormatDouble(edges / seconds[1], 0) << " e/s ("
              << FormatDouble(pct, 2) << "% wall; " << on.scrapes()
              << " scrapes)\n";
  }
  std::sort(pcts.begin(), pcts.end());
  result.median_ingest_pct = pcts[pcts.size() / 2];
  result.mean_ingest_pct = sum / static_cast<double>(pairs);
  result.scrape_cpu_ms_per_s =
      scrape_wall > 0 ? scrape_cpu / scrape_wall * 1000.0 : 0.0;
  return result;
}

void WriteJson(const std::vector<Result>& rows, const Overhead* overhead,
               const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  std::ofstream out(path);
  out << "{\n  \"bench\": \"cluster\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Result& r = rows[i];
    out << "    {\"scenario\": \"" << r.scenario << "\", \"edges\": "
        << r.edges << ", \"seconds\": " << FormatDouble(r.seconds, 4)
        << ", \"ingest_eps\": " << FormatDouble(r.eps(), 1)
        << ", \"completions\": " << r.completions
        << ", \"p50_ms\": " << FormatDouble(r.p50_ms, 3)
        << ", \"p99_ms\": " << FormatDouble(r.p99_ms, 3) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (overhead != nullptr) {
    out << ",\n  \"overhead\": {\"workers\": " << overhead->workers
        << ", \"pairs\": " << overhead->pairs << ", \"median_ingest_pct\": "
        << FormatDouble(overhead->median_ingest_pct, 2)
        << ", \"mean_ingest_pct\": "
        << FormatDouble(overhead->mean_ingest_pct, 2)
        << ", \"scrape_cpu_ms_per_s\": "
        << FormatDouble(overhead->scrape_cpu_ms_per_s, 3)
        << ", \"min_scrapes\": " << overhead->min_scrapes
        << ", \"gate_pct\": " << FormatDouble(overhead->gate_pct, 1) << "}";
  }
  out << "\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

void RunAll(int num_edges, const std::string& json_path, int overhead_pairs) {
  Banner("cluster", "multi-process sharding: ingest + delivery lag");
  std::vector<Result> rows;
  for (int workers : {1, 2, 4}) {
    rows.push_back(RunScenario(workers, num_edges));
  }

  std::cout << "each row: the fastest of " << kRowRuns << " runs\n";
  Table table({12, 10, 10, 14, 13, 11, 11});
  table.Row({"scenario", "edges", "seconds", "ingest e/s", "completions",
             "p50 ms", "p99 ms"});
  table.Separator();
  for (const Result& r : rows) {
    table.Row({r.scenario, std::to_string(r.edges),
               FormatDouble(r.seconds, 3), FormatDouble(r.eps(), 0),
               std::to_string(r.completions), FormatDouble(r.p50_ms, 2),
               FormatDouble(r.p99_ms, 2)});
  }

  Overhead overhead;
  if (overhead_pairs > 0) {
    std::cout << "\nobservability overhead (" << overhead_pairs
              << " obs-off/obs-on pairs at 2 workers, scraped live):\n";
    overhead = MeasureOverhead(num_edges, overhead_pairs);
    std::cout << "median " << FormatDouble(overhead.median_ingest_pct, 2)
              << "% mean " << FormatDouble(overhead.mean_ingest_pct, 2)
              << "% ingest slowdown (budget "
              << FormatDouble(overhead.gate_pct, 1) << "%), scrape cpu "
              << FormatDouble(overhead.scrape_cpu_ms_per_s, 2)
              << " ms/s, fewest scrapes in a run " << overhead.min_scrapes
              << "\n";
  }
  WriteJson(rows, overhead_pairs > 0 ? &overhead : nullptr, json_path);
}

}  // namespace
}  // namespace streamworks::bench

int main(int argc, char** argv) {
  int num_edges = 20000;
  int overhead_pairs = 5;
  std::string json_path = "bench-results/bench_cluster.json";
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
    if (arg == "--no-overhead") {
      overhead_pairs = 0;
      continue;
    }
    int64_t n = 0;
    if (!streamworks::ParseInt64(arg, &n) || n <= 0) {
      std::cerr << "usage: bench_cluster [num_edges] [--json PATH]"
                << " [--no-overhead]\n";
      return 1;
    }
    num_edges = static_cast<int>(n);
  }
  streamworks::bench::RunAll(num_edges, json_path, overhead_pairs);
  return 0;
}
