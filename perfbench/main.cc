// Casper benchmark driver.
//
//   casper_perfbench --workload <query_mix|socket_query|move_and_query>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//
// Every run first runs the self-tests. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/README.md describes the workloads and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

/// Self-time arithmetic on a synthetic span tree (times in ns):
///
///   root [0, 100]
///     a  [10, 40]         a1 [15, 20] under a
///     b  [30, 60]         overlaps a: the union counts once
///     c  [90, 120]        sticks out of root: clipped to [90, 100]
///
/// root self = 100 - |[10,60] u [90,100]| = 40, a = 25, a1 = 5, b = 30,
/// c = 30 (its own interval is not clipped). b is detached, so its
/// wait is 30 (from root's start).
std::vector<std::string> SelfTestSelfTimes() {
  std::vector<std::string> failures;
  auto span = [](uint32_t id, uint32_t parent, const char* name, int64_t start,
                 int64_t end, bool detached = false) {
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.detached = detached;
    return s;
  };
  const std::vector<SpanRecord> spans = {
      span(1, 0, "root", 0, 100),    span(2, 1, "a", 10, 40),
      span(3, 2, "a1", 15, 20),      span(4, 1, "b", 30, 60, true),
      span(5, 1, "c", 90, 120),
  };
  const SelfTimeReport report = ComputeSelfTimes(spans);
  auto expect = [&](const char* name, double self_ns, double wait_ns = 0.0) {
    auto it = report.layers.find(name);
    if (it == report.layers.end() ||
        std::abs(it->second.self_seconds - self_ns * 1e-9) > 1e-15 ||
        std::abs(it->second.wait_seconds - wait_ns * 1e-9) > 1e-15) {
      failures.push_back(std::string("self time of ") + name);
    }
  };
  expect("root", 40);
  expect("a", 25);
  expect("a1", 5);
  expect("b", 30, 30);
  expect("c", 30);
  if (report.roots != 1 || std::abs(report.root_seconds - 100e-9) > 1e-15 ||
      std::abs(report.unattributed_seconds - 40e-9) > 1e-15) {
    failures.push_back("root totals");
  }

  // The recorder itself: nesting on one thread, an explicit parent from
  // another, inherited request ids.
  Tracer tracer;
  uint32_t outer_id = 0;
  {
    Tracer::Span outer(&tracer, "outer", 7);
    outer_id = outer.id();
    { Tracer::Span inner(&tracer, "inner"); }
    std::thread worker([&] { Tracer::Span remote(&tracer, "remote", 8, outer_id); });
    worker.join();
  }
  const std::vector<SpanRecord> recorded = tracer.Collect();
  bool ok = recorded.size() == 3;
  for (const SpanRecord& s : recorded) {
    const std::string name = s.name;
    if (name == "outer") ok = ok && s.parent == 0 && s.request == 7;
    if (name == "inner") ok = ok && s.parent == outer_id && s.request == 7 && !s.detached;
    if (name == "remote") ok = ok && s.parent == outer_id && s.request == 8 && s.detached;
    ok = ok && s.end_ns >= s.start_ns;
  }
  if (!ok) failures.push_back("span recorder parents / request ids");
  return failures;
}

bool SelfTest() {
  std::vector<std::string> failures = SelfTestOracles();
  for (const std::string& f : SelfTestSelfTimes()) failures.push_back(f);
  for (const std::string& f : SelfTestAnswerHeader()) failures.push_back(f);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench self-test failed: %s\n", f.c_str());
  }
  return failures.empty();
}

int Usage() {
  std::fprintf(stderr,
               "usage: casper_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.out_dir = ".bench_build/perfbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (!SelfTest()) return 1;
  if (!IsWorkload(options.workload) || options.seconds <= 0.0) return Usage();

  const RunReport report = RunWorkload(options);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct && report.failed == 0 ? 0 : 1;
}
