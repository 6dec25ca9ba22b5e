// Result ledger of one benchmark run: named metrics with units, attempted
// and failed operation counts, and the summary statistics the metrics are
// built from (median, tail percentile, peak resident memory).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Ledger {
 public:
  void add(const std::string& name, double value, const std::string& unit);

  /// Count one checked operation; a miss is remembered with its reason.
  void check(bool ok, const std::string& what);

  std::int64_t attempted() const noexcept { return attempted_; }
  std::int64_t failed() const noexcept { return failed_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  /// The one-line result object: correct, attempted, failed, metrics.
  std::string result_json() const;

 private:
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few reasons only
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Arithmetic mean, taken as first + mean deviation from it, so identical
/// samples give that value exactly whatever their count; 0 when empty.
double mean(const std::vector<double>& values);

/// statistic(group) averaged over the non-empty groups, so groups from
/// sources of different speed (serve patterns) weigh the same whatever
/// their sample counts; 0 when every group is empty.
double mean_over_groups(const std::vector<std::vector<double>>& groups,
                        double (*statistic)(std::vector<double>));

/// Index of the median element of `values` (lower middle for an even
/// count) — the sample whose components are reported together.
std::size_t median_index(const std::vector<double>& values);

/// The highest percentile that still has at least ten samples beyond it,
/// never below the median: with n sorted samples that is the (n-10)-th
/// smallest, at percentile 100 (n-10)/n, once n >= 21; smaller samples
/// report the median as p50.
struct TailPercentile {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
TailPercentile tail_percentile(std::vector<double> values);

/// Peak resident set size of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

}  // namespace perfbench
