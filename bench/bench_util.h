#ifndef STREAMWORKS_BENCH_BENCH_UTIL_H_
#define STREAMWORKS_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table benches: a fixed-width table printer
// matching the layout used in EXPERIMENTS.md, and a driver that replays a
// stream through an engine while sampling per-tick series.

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "streamworks/common/str_util.h"
#include "streamworks/common/timer.h"
#include "streamworks/core/engine.h"

namespace streamworks::bench {

/// Prints a header banner for one experiment.
inline void Banner(std::string_view experiment, std::string_view title) {
  std::cout << "\n=== " << experiment << ": " << title << " ===\n";
}

/// Fixed-width row printer: Row({"col", ...}) with widths per column.
class Table {
 public:
  explicit Table(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) {
    std::ostringstream os;
    for (size_t i = 0; i < cells.size(); ++i) {
      const int w = i < widths_.size() ? widths_[i] : 12;
      os << std::left << std::setw(w) << cells[i] << "  ";
    }
    std::cout << os.str() << "\n";
  }

  void Separator() {
    int total = 0;
    for (int w : widths_) total += w + 2;
    std::cout << std::string(total, '-') << "\n";
  }

 private:
  std::vector<int> widths_;
};

/// Replays `edges` through `engine`, returning wall-clock seconds.
inline double Replay(StreamWorksEngine& engine,
                     const std::vector<StreamEdge>& edges) {
  Timer timer;
  for (const StreamEdge& e : edges) {
    const Status s = engine.ProcessEdge(e);
    if (!s.ok()) {
      std::cerr << "ingest error: " << s.ToString() << "\n";
      std::exit(1);
    }
  }
  return timer.ElapsedSeconds();
}

/// One query's deterministic counts in a figure bench. `probes` and
/// `join_attempts` sum the SJ-Tree's per-node counters: each probe visits
/// a node store's live partial matches, so a change to how stores keep or
/// expire them that changes what a probe sees moves these two counts.
struct QueryCounts {
  std::string query;
  uint64_t completions = 0;
  uint64_t peak_partials = 0;
  uint64_t probes = 0;
  uint64_t join_attempts = 0;
};

/// The counts of a query registered with an engine.
inline QueryCounts CountsOf(const QueryRuntimeInfo& info) {
  QueryCounts counts{info.name, info.completions, info.peak_partial_matches};
  for (const SjNodeRuntime& node : info.nodes) {
    counts.probes += node.probes;
    counts.join_attempts += node.join_attempts;
  }
  return counts;
}

/// The counts of a tree a bench drives directly; the bench counts the
/// completions it collected.
inline QueryCounts CountsOf(std::string name, const SjTree& tree,
                            uint64_t completions) {
  QueryCounts counts{std::move(name), completions,
                     tree.PeakTotalPartialMatches()};
  for (int n = 0; n < tree.decomposition().num_nodes(); ++n) {
    counts.probes += tree.node_stats(n).probes;
    counts.join_attempts += tree.node_stats(n).join_attempts;
  }
  return counts;
}

/// One scenario row of deterministic counts: (key, value) pairs in order.
struct CountsRow {
  std::string scenario;
  std::vector<std::pair<std::string, uint64_t>> counts;
};

/// Writes a bench's deterministic counts as scenario rows to
/// bench-results/bench_<name>.json. The counts depend only on the stream
/// and the queries, so ci/bench_gate.py requires them to equal the
/// committed BENCH_<name>.json exactly; no timing rides along.
inline void WriteCountsJson(std::string_view name, uint64_t edges,
                            const std::vector<CountsRow>& rows) {
  const std::string path = StrCat("bench-results/bench_", name, ".json");
  std::filesystem::create_directories("bench-results");
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << name << "\",\n";
  out << "  \"edges\": " << edges << ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"scenario\": \"" << rows[i].scenario << "\"";
    for (const auto& [key, value] : rows[i].counts) {
      out << ", \"" << key << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

/// A figure bench's per-query completions, peak partials, probes and
/// join attempts.
inline void WriteCountsJson(std::string_view name, uint64_t edges,
                            const std::vector<QueryCounts>& queries) {
  std::vector<CountsRow> rows;
  for (const QueryCounts& q : queries) {
    rows.push_back({q.query,
                    {{"completions", q.completions},
                     {"peak_partials", q.peak_partials},
                     {"probes", q.probes},
                     {"join_attempts", q.join_attempts}}});
  }
  WriteCountsJson(name, edges, rows);
}

inline std::string Rate(uint64_t count, double seconds) {
  return FormatCount(
      static_cast<uint64_t>(count / std::max(seconds, 1e-9)));
}

}  // namespace streamworks::bench

#endif  // STREAMWORKS_BENCH_BENCH_UTIL_H_
