#ifndef STREAMWORKS_BENCH_BENCH_WORKER_H_
#define STREAMWORKS_BENCH_BENCH_WORKER_H_

// The cluster benches' workers: each BenchWorker is one worker daemon on
// its own thread in the bench process, on an ephemeral localhost TCP port
// and without a frame log, so a row prices the cluster wire and barrier
// protocol, not disk.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "streamworks/cluster/worker.h"

namespace streamworks::bench {

/// One worker daemon on its own thread: port 0 binds an ephemeral
/// listener, Serve runs until the destructor stops it.
class BenchWorker {
 public:
  BenchWorker() {
    WorkerOptions options;
    options.poll_interval_ms = 20;
    daemon_ = std::make_unique<WorkerDaemon>(std::move(options));
    if (!daemon_->Start().ok()) {
      std::cerr << "worker failed to start\n";
      std::exit(1);
    }
    thread_ = std::thread([this] { daemon_->Serve(stop_).ok(); });
  }

  ~BenchWorker() {
    stop_.store(true);
    thread_.join();
  }

  BenchWorker(const BenchWorker&) = delete;
  BenchWorker& operator=(const BenchWorker&) = delete;

  /// "host:port", as DistributedBackendOptions::workers lists it.
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(daemon_->port());
  }

 private:
  std::unique_ptr<WorkerDaemon> daemon_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace streamworks::bench

#endif  // STREAMWORKS_BENCH_BENCH_WORKER_H_
