// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary accepts `key=value` arguments (duration=..., seed=...,
// csv_dir=...) and prints (a) the paper's reference numbers, (b) our
// measured numbers, formatted as the same rows/series the paper reports.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "scenario/experiment.h"
#include "stats/csv.h"
#include "util/config.h"

namespace mgbench {

struct BenchArgs {
  mgrid::scenario::ExperimentOptions base;
  /// DTH factors to sweep ("0.75 av", "1.0 av", "1.25 av").
  std::vector<double> factors{0.75, 1.0, 1.25};
  /// Where to drop CSVs ("" = don't write files).
  std::string csv_dir;
};

/// Parses the common key=value arguments. Unknown keys are ignored by this
/// helper (individual benches may read them through the returned Config).
inline BenchArgs parse_args(int argc, char** argv,
                            mgrid::util::Config* out_config = nullptr) {
  const mgrid::util::Config config =
      mgrid::util::Config::from_argv(argc, argv);
  BenchArgs args;
  args.base.duration = config.get_double("duration", 1800.0);
  args.base.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  args.base.sample_period = config.get_double("sample_period", 1.0);
  args.base.motion_dt = config.get_double("motion_dt", 0.1);
  args.factors = config.get_double_list("factors", args.factors);
  args.csv_dir = config.get_string("csv_dir", "");
  if (out_config != nullptr) *out_config = config;
  return args;
}

/// Percentage reduction of `value` relative to `baseline`.
inline double reduction_percent(double baseline, double value) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (1.0 - value / baseline);
}

/// Prints a per-bucket series as rows of window averages so an 1800-point
/// series renders as ~`rows` digestible lines.
inline void print_series_table(
    const std::string& title, const std::vector<std::string>& labels,
    const std::vector<std::vector<double>>& series, std::size_t rows = 15) {
  std::size_t length = 0;
  for (const auto& s : series) length = std::max(length, s.size());
  if (length == 0) return;
  const std::size_t window = std::max<std::size_t>(1, length / rows);

  std::vector<std::string> header{"t (s)"};
  header.insert(header.end(), labels.begin(), labels.end());
  mgrid::stats::Table table(header);
  for (std::size_t start = 0; start < length; start += window) {
    std::vector<std::string> row{std::to_string(start) + "-" +
                                 std::to_string(
                                     std::min(start + window, length))};
    for (const auto& s : series) {
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t i = start; i < std::min(start + window, s.size());
           ++i) {
        sum += s[i];
        ++count;
      }
      row.push_back(mgrid::stats::format_double(
          count == 0 ? 0.0 : sum / static_cast<double>(count), 2));
    }
    table.add_row(std::move(row));
  }
  std::cout << title << " (window-averaged, " << window << " s windows)\n";
  table.write_pretty(std::cout);
  std::cout << '\n';
}

/// Optionally saves a full-resolution series CSV.
inline void maybe_save_csv(const BenchArgs& args, const std::string& filename,
                           const std::vector<std::string>& labels,
                           const std::vector<std::vector<double>>& series) {
  if (args.csv_dir.empty()) return;
  std::size_t length = 0;
  for (const auto& s : series) length = std::max(length, s.size());
  std::vector<std::string> header{"bucket"};
  header.insert(header.end(), labels.begin(), labels.end());
  mgrid::stats::Table table(header);
  for (std::size_t i = 0; i < length; ++i) {
    std::vector<std::string> row{std::to_string(i)};
    for (const auto& s : series) {
      row.push_back(i < s.size() ? mgrid::stats::format_double(s[i], 4)
                                 : std::string(""));
    }
    table.add_row(std::move(row));
  }
  const std::string path = args.csv_dir + "/" + filename;
  table.save_csv(path);
  std::cout << "wrote " << path << '\n';
}

inline std::string factor_label(double factor) {
  return mgrid::stats::format_double(factor, 2) + " av";
}

}  // namespace mgbench
