// LU cost ledger: one command, two workloads, one JSON result line.
//
//   lu_ledger --workload <shard_durable_rw|cluster_adf_e2e>
//             --seed <n> --seconds <s> --trace <0|1> [--root <dir>]
//   lu_ledger --list-metrics
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced pass. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one "ledger-info {...}" line of un-gated context (seed, input
// digest, sample counts, src/ line count, build type, nproc, WAL
// filesystem). A failed output check prints the result with correct=false
// and exits 1.
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "layers.h"
#include "obs/metrics.h"

namespace {

int usage() {
  std::cerr << "usage: lu_ledger --workload <shard_durable_rw|"
               "cluster_adf_e2e> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>] | --list-metrics\n";
  return 2;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string root = ".";
  ledger::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const ledger::MetricSpec& spec : ledger::metric_catalog()) {
        std::cout << (spec.end_to_end ? "end_to_end " : "per_layer ")
                  << spec.name << ' ' << spec.unit << '\n';
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (arg == "--root") {
        root = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !(config.seconds > 0.0)) {
    return usage();
  }

  config.work_dir = root + "/.bench_build/ledger_work";
  std::filesystem::create_directories(config.work_dir);
  // The serving binaries run with the metrics registry on.
  mgrid::obs::set_enabled(true);

  ledger::RunReport report;
  try {
    if (workload == "shard_durable_rw") {
      report = ledger::run_shard_durable_rw(config);
    } else if (workload == "cluster_adf_e2e") {
      report = ledger::run_cluster_adf_e2e(config);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "lu_ledger: " << workload << ": " << error.what() << '\n';
    return 1;
  }
  std::filesystem::remove_all(config.work_dir);

  ledger::Outcome& outcome = report.outcome;
  // A failed output check fails the whole run.
  if (!outcome.correct) outcome.failed = outcome.attempted;
  std::string info = "{\"workload\": " + json_string(workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"trace\": " + (config.trace ? "1" : "0");
  for (const auto& [key, value] : report.info) {
    info += ", " + json_string(key) + ": " + json_string(value);
  }
  info += ", \"failed_frac\": " +
          ledger::format_number(
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0) +
          ", \"src_loc\": " +
          std::to_string(ledger::count_source_lines(root + "/src")) +
          ", \"build_type\": " + json_string(LEDGER_BUILD_TYPE) +
          ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"wal_fs\": " +
          json_string(ledger::filesystem_type(root + "/.bench_build")) + "}";
  std::cout << "ledger-info " << info << '\n';
  if (!outcome.correct) {
    std::cerr << "lu_ledger: " << workload
              << ": output check failed: " << outcome.failure << '\n';
  }
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << report.metrics.to_json(!config.trace)
            << "}" << std::endl;
  return outcome.correct ? 0 : 1;
}
