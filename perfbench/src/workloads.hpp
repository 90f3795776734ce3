// The three workloads of the end-to-end benchmark. Each builds the real
// pipeline, drives it with seeded inputs for a fixed time, checks every
// output against the oracle, and reports the metrics named in
// BENCHMARK.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: one untraced phase, end-to-end metrics. true: an untraced
  /// half then a traced half, per-layer metrics (and tracing overhead).
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string span_dir;
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; throws std::runtime_error when the pipeline cannot
/// be built. Human-readable detail goes to stdout as it is measured.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench
