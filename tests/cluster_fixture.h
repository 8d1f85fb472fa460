// A cluster in the test process: worker daemons on their own threads, on
// real localhost TCP sockets, fronted by a real DistributedBackend. The
// cluster, partition, service and net suites run the sharded deployment
// on it, and compare its deliveries with one engine's through MatchSink
// on the random workloads below.

#ifndef STREAMWORKS_TESTS_CLUSTER_FIXTURE_H_
#define STREAMWORKS_TESTS_CLUSTER_FIXTURE_H_

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"

namespace streamworks {

/// One worker daemon on its own thread, with an abrupt-stop story: Kill()
/// stops the serve loop and joins, but (like a kill -9) performs no
/// protocol goodbye — the coordinator discovers the death as a link
/// failure. A fresh WorkerHarness on the same data_dir and port is the
/// restart.
class WorkerHarness {
 public:
  explicit WorkerHarness(std::string data_dir, int port = 0) {
    WorkerOptions options;
    options.port = port;
    options.data_dir = std::move(data_dir);
    options.poll_interval_ms = 20;
    daemon_ = std::make_unique<WorkerDaemon>(std::move(options));
  }

  ~WorkerHarness() { Kill(); }

  Status Start() {
    Status status = daemon_->Start();
    if (!status.ok()) return status;
    thread_ = std::thread([this] { serve_status_ = daemon_->Serve(stop_); });
    return OkStatus();
  }

  void Kill() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  int port() const { return daemon_->port(); }
  const Status& serve_status() const { return serve_status_; }
  const WorkerCounters& counters() const { return daemon_->counters(); }
  MetricRegistry* registry() { return daemon_->registry(); }

 private:
  std::unique_ptr<WorkerDaemon> daemon_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  Status serve_status_;
};

/// `num_workers` WorkerHarnesses and a started DistributedBackend over
/// them. Workers keep no frame log unless `dir_prefix` names a directory
/// for them.
struct ClusterFixture {
  /// Check `ok` (ASSERT_TRUE) before using; gtest fatal asserts cannot
  /// run inside a constructor.
  explicit ClusterFixture(int num_workers, const std::string& dir_prefix = "") {
    for (int i = 0; i < num_workers; ++i) {
      std::string dir;
      if (!dir_prefix.empty()) {
        dir = dir_prefix + "/worker" + std::to_string(i);
        std::filesystem::create_directories(dir);
      }
      workers.push_back(std::make_unique<WorkerHarness>(dir));
      if (!workers.back()->Start().ok()) return;
    }
    DistributedBackendOptions options;
    for (const auto& w : workers) {
      options.workers.push_back("127.0.0.1:" + std::to_string(w->port()));
    }
    options.epoch_edges = 64;  // small epochs: many barriers, more traffic
    options.reconnect_deadline_ms = 10000;
    // Federate worker metrics into a fixture-owned registry; cache 0 so
    // every scrape pulls fresh reports, which is what exactness tests need.
    options.registry = &registry;
    options.pipeline = &pipeline;
    options.metrics_cache_ms = 0;
    backend = std::make_unique<DistributedBackend>(options, &interner);
    ok = backend->Start().ok();
  }

  bool ok = false;
  Interner interner;
  MetricRegistry registry;
  PipelineMetrics pipeline;
  std::vector<std::unique_ptr<WorkerHarness>> workers;
  std::unique_ptr<DistributedBackend> backend;
};

/// Thread-safe sink for delivered matches in deployment-invariant text
/// form. Callbacks run under the coordinator's cluster mutex (or on the
/// single engine's feeding thread), where dereferencing cm.graph is safe.
class MatchSink {
 public:
  MatchCallback Callback() {
    return [this](const CompleteMatch& cm) {
      std::lock_guard<std::mutex> lock(mu_);
      rendered_.push_back(cm.match.ToExternalString(*cm.graph));
    };
  }

  std::vector<std::string> Sorted() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = rendered_;
    std::sort(out.begin(), out.end());
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rendered_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> rendered_;
};

/// Edges drawn uniformly over `num_vertices` vertices, two vertex labels
/// and three edge labels.
inline std::vector<StreamEdge> RandomStream(Interner* interner, uint64_t seed,
                                            int num_vertices, int num_edges) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = num_vertices;
  opt.num_edges = num_edges;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 3;
  return GenerateUniformStream(opt, interner);
}

/// `count` random connected queries of 3 or 4 vertices over RandomStream's
/// labels.
inline std::vector<QueryGraph> RandomQueries(Interner* interner,
                                             uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<QueryGraph> queries;
  for (int i = 0; i < count; ++i) {
    const int nv = 3 + i % 2;
    const int ne = nv - 1 + i % 3;
    queries.push_back(
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 3, interner).value());
  }
  return queries;
}

}  // namespace streamworks

#endif  // STREAMWORKS_TESTS_CLUSTER_FIXTURE_H_
