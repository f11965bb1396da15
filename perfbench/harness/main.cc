// perfbench — drives one workload of the statement-lifecycle benchmark and
// prints its result as the last line of standard output (see README.md).
//
//   perfbench --workload <oltp_point|analytic|ingest_replicated>
//             --seed <n> --seconds <s> --trace <0|1>
//             --replica-bin <path> --run-root <dir> [--trace-dir <dir>]
//
// Exit code 0 when every output check passed, 1 on a mismatch, 2 on bad
// arguments.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/proc.h"
#include "harness/workloads.h"

namespace {

/// All digits, as measured; a non-finite ratio (an empty base) prints as 0
/// so the line stays valid JSON.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --replica-bin <path> "
               "--run-root <dir> [--trace-dir <dir>]\n",
               problem.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") config.workload = value;
      else if (flag == "--seed") config.seed = std::stoull(value);
      else if (flag == "--seconds") config.seconds = std::stod(value);
      else if (flag == "--trace") config.trace = value == "1";
      else if (flag == "--replica-bin") config.replica_bin = value;
      else if (flag == "--run-root") config.run_root = value;
      else if (flag == "--trace-dir") config.trace_dir = value;
      else return Usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return Usage("bad value for " + flag);
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  perfbench::InstallSignalCleanup();
  perfbench::Report report;
  if (config.workload == "oltp_point") {
    report = perfbench::RunOltpPoint(config);
  } else if (config.workload == "analytic") {
    report = perfbench::RunAnalytic(config);
  } else if (config.workload == "ingest_replicated") {
    if (config.replica_bin.empty() || config.run_root.empty()) {
      return Usage("ingest_replicated needs --replica-bin and --run-root");
    }
    report = perfbench::RunIngestReplicated(config);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }

  for (const std::string& line : report.lines) std::cout << line << '\n';
  std::cout << "{\"machine\": " << report.context << "}\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
              << Number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return report.correct ? 0 : 1;
}
