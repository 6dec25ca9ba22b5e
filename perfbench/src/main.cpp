// perfbench_run — runs one workload of the performance ledger.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//
// Prints human-readable notes, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 0 only when
// every check passed; a failed check still prints the result (correct =
// false), an error before measuring prints none.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ledger.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (!have_workload || !(config.seconds > 0.0)) usage();

  perfbench::Ledger ledger;
  try {
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0);
    perfbench::run_workload(config, ledger);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }
  for (const perfbench::Metric& m : ledger.metrics()) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : ledger.failures()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("%s\n", ledger.result_json().c_str());
  std::fflush(stdout);
  return ledger.failed() == 0 ? 0 : 1;
}
