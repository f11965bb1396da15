#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string replica_bin;  // replica_server executable
  std::string run_root;     // parent of the per-run scratch directory
  std::string trace_dir;    // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `metrics` holds every end-to-end metric (untraced)
/// or every per-layer metric (traced); `lines` are human-readable details
/// printed before the JSON result; `context` is the machine context.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::string context;
};

Report RunOltpPoint(const RunConfig& config);
Report RunAnalytic(const RunConfig& config);
Report RunIngestReplicated(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
