#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

namespace {

constexpr std::size_t kMaxFailureNotes = 8;

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Ledger::add(const std::string& name, double value,
                 const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
}

void Ledger::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureNotes) failures_.push_back(what);
}

std::string Ledger::result_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) os << ", ";
    os << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double deviation = 0.0;
  for (double v : values) deviation += v - values.front();
  return values.front() + deviation / static_cast<double>(values.size());
}

double mean_over_groups(const std::vector<std::vector<double>>& groups,
                        double (*statistic)(std::vector<double>)) {
  std::vector<double> stats;
  for (const std::vector<double>& group : groups) {
    if (!group.empty()) stats.push_back(statistic(group));
  }
  return mean(stats);
}

std::size_t median_index(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  return order.empty() ? 0 : order[(order.size() - 1) / 2];
}

TailPercentile tail_percentile(std::vector<double> values) {
  TailPercentile tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  const std::size_t n = values.size();
  if (n < 21) {
    tail.value = median(std::move(values));
    return tail;
  }
  std::sort(values.begin(), values.end());
  // Exactly ten samples lie strictly beyond position n - 11.
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
