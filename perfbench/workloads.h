#ifndef CASPER_PERFBENCH_WORKLOADS_H_
#define CASPER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// The benchmark's three workloads (see perfbench/README.md for why
/// each exists). RunWorkload builds the inputs from the seed, sets the
/// stack up, drives it for the given time and checks a seeded sample of
/// its answers. Untraced, it reports the end-to-end metrics; traced, it
/// replays the same stream through the tier calls the facade makes,
/// with spans around each layer, and reports the per-layer metrics.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the socket file and the written spans; created if
  /// missing.
  std::string out_dir;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool IsWorkload(const std::string& name);

/// Self-test: the traced channel's in-place read of an answer's header
/// must agree with the codec's decoder. Returns what failed.
std::vector<std::string> SelfTestAnswerHeader();

/// Prints the deterministic counters (and, traced, the layer table) to
/// stdout as it goes; the caller prints the result line.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // CASPER_PERFBENCH_WORKLOADS_H_
