// perfbench_selftest — checks the benchmark's own machinery:
//   - the tail-percentile helper keeps at least ten samples beyond it;
//   - per-group statistics weigh each non-empty group the same;
//   - the closed loop times a request from its send to its completion, not
//     to when the generator consumes the result;
//   - the F-U timing decorator only observes: factors are bitwise equal
//     with and without it, serial and parallel, CPU and simulated GPU.
// Exits 0 when every check passes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <thread>

#include "closed_loop.hpp"
#include "ledger.hpp"
#include "multifrontal/parallel.hpp"
#include "ordering/nested_dissection.hpp"
#include "policy/baseline_hybrid.hpp"
#include "sparse/generators.hpp"
#include "timing_executor.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  const auto t100 = tail_percentile(iota(100));
  expect(t100.value == 90.0 && t100.percentile == 90.0,
         "tail of 100 samples is p90 with ten samples beyond");
  const auto t1000 = tail_percentile(iota(1000));
  expect(t1000.value == 990.0 && t1000.percentile == 99.0,
         "tail of 1000 samples is p99 with ten samples beyond");
  std::vector<double> shuffled = iota(57);
  std::reverse(shuffled.begin(), shuffled.end());
  const auto t57 = tail_percentile(shuffled);
  std::size_t beyond = 0;
  for (double v : shuffled) beyond += v > t57.value ? 1 : 0;
  expect(beyond == 10, "unsorted input keeps exactly ten samples beyond");
  const auto t21 = tail_percentile(iota(21));
  expect(t21.value == 11.0, "21 samples: tail meets the median");
  const auto t9 = tail_percentile(iota(9));
  expect(t9.value == 5.0 && t9.percentile == 50.0,
         "too few samples report the median as p50");
}

void test_mean_over_groups() {
  using perfbench::mean_over_groups;
  using perfbench::median;
  // Medians 2 and 10; the larger group does not outweigh the smaller.
  expect(mean_over_groups({{1.0, 2.0, 3.0}, {}, {10.0}}, median) == 6.0,
         "mean over groups averages each non-empty group's median once");
  expect(mean_over_groups({{}, {}}, median) == 0.0,
         "mean over only empty groups is 0");
}

void test_closed_loop_latency() {
  using namespace std::chrono_literals;
  constexpr auto kService = 2ms;   // time each fake request takes
  constexpr auto kConsume = 60ms;  // generator work per completion
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  const perfbench::LoopTotals totals = perfbench::run_closed_loop<int>(
      3, 0.15, [](std::uint64_t id) { return static_cast<int>(id); },
      [&](int& id) {
        return std::async(std::launch::async, [&, id] {
          const int now = ++running;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(kService);
          --running;
          return id;
        });
      },
      [&](std::uint64_t id, int& request, std::optional<int> result) {
        expect(result.has_value() && *result == request &&
                   static_cast<std::uint64_t>(request) == id,
               "closed loop hands each result to its own request");
        std::this_thread::sleep_for(kConsume);
      });
  double worst = 0.0, best = 1e9;
  for (double s : totals.latency_s) {
    worst = std::max(worst, s);
    best = std::min(best, s);
  }
  expect(totals.latency_s.size() >= 3, "closed loop completed its requests");
  expect(best >= 0.002, "latency covers the request's own service time");
  // Timed to get(), a request finishing while the generator consumes
  // another would carry up to a full kConsume; half of it leaves room for
  // thread wake-ups on a loaded host.
  expect(worst < 0.030,
         "latency ends at completion, not when the generator consumes it");
  expect(peak.load() <= 3, "never more requests in flight than the loop's size");
  expect(totals.send_s.size() == totals.latency_s.size(),
         "one send timing per request");
}

bool same_factor(const mfgpu::Factorization& a, const mfgpu::Factorization& b) {
  if (a.panels.size() != b.panels.size()) return false;
  for (std::size_t i = 0; i < a.panels.size(); ++i) {
    const auto& pa = a.panels[i];
    const auto& pb = b.panels[i];
    if (pa.rows() != pb.rows() || pa.cols() != pb.cols() ||
        std::memcmp(pa.data(), pb.data(),
                    sizeof(double) * static_cast<std::size_t>(pa.rows()) *
                        static_cast<std::size_t>(pa.cols())) != 0) {
      return false;
    }
  }
  return true;
}

void test_decorator_pass_through() {
  mfgpu::Rng rng(11);
  const mfgpu::GridProblem grid = mfgpu::make_elasticity_3d(8, 8, 8, 3, rng);
  const mfgpu::Analysis analysis =
      mfgpu::analyze(grid.matrix, mfgpu::nested_dissection(grid.coords));

  for (const bool gpu : {false, true}) {
    auto make_inner = [gpu]() -> std::unique_ptr<mfgpu::FuExecutor> {
      if (!gpu) {
        return std::make_unique<mfgpu::PolicyExecutor>(mfgpu::Policy::P1);
      }
      return std::make_unique<mfgpu::DispatchExecutor>(
          mfgpu::make_baseline_hybrid(mfgpu::paper_thresholds()));
    };
    auto run = [&](bool wrapped, std::vector<perfbench::FuLedger>& ledgers) {
      mfgpu::FactorContext ctx;
      std::unique_ptr<mfgpu::Device> device;
      if (gpu) {
        mfgpu::Device::Options options;
        options.numeric = true;
        device = std::make_unique<mfgpu::Device>(options);
        ctx.device = device.get();
      }
      std::unique_ptr<mfgpu::FuExecutor> executor = make_inner();
      if (wrapped) {
        ledgers.assign(1, {});
        executor = std::make_unique<perfbench::TimingExecutor>(
            std::move(executor), ledgers.front());
      }
      return mfgpu::factorize(analysis, *executor, ctx);
    };
    std::vector<perfbench::FuLedger> ledgers;
    const mfgpu::FactorizeResult plain = run(false, ledgers);
    const mfgpu::FactorizeResult timed = run(true, ledgers);
    expect(same_factor(plain.factor, timed.factor),
           gpu ? "decorated hybrid factor is bitwise the plain one"
               : "decorated P1 factor is bitwise the plain one");
    expect(perfbench::matches_trace(ledgers, timed.trace),
           "decorator totals equal the trace's calls and F-U seconds");
    expect(timed.trace.total_time == plain.trace.total_time,
           "decorator leaves the simulated makespan unchanged");
    if (gpu) {
      expect(perfbench::sum_totals(ledgers, true).calls > 0,
             "hybrid run dispatched calls to the simulated GPU");
    }
  }

  mfgpu::ParallelFactorizeOptions options;
  // CPU workers only: which fronts a GPU worker runs in single precision
  // depends on stealing, so only CPU-only parallel factors repeat bitwise.
  options.workers = mfgpu::cpu_workers(4);
  const mfgpu::FactorizeResult plain =
      mfgpu::factorize_parallel(analysis, options);
  std::vector<perfbench::FuLedger> ledgers(options.workers.size());
  const mfgpu::FactorizeResult timed = mfgpu::factorize_parallel(
      analysis, options, perfbench::timed_factory(options.executor, ledgers));
  expect(same_factor(plain.factor, timed.factor),
         "decorated 4-worker parallel factor is bitwise the plain one");
  expect(perfbench::matches_trace(ledgers, timed.trace),
         "parallel decorator totals equal the trace's");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_mean_over_groups();
  test_closed_loop_latency();
  test_decorator_pass_through();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
