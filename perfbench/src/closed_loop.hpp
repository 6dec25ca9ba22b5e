// Closed-loop load generator: one generator thread keeps a fixed number of
// requests outstanding and sends the next one only after a previous one
// completed. Each outstanding slot has a watcher thread that blocks in
// future::get() and stamps the completion instant, so a request's latency
// runs from just before its send to its completion — not to whenever the
// generator gets round to consuming the result.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct LoopTotals {
  std::vector<double> latency_s;  ///< per completed request
  std::vector<double> send_s;     ///< wall seconds inside each send call
  double wall_s = 0.0;            ///< first send to last completion
};

/// Runs the loop for `seconds`, then drains what is in flight.
///   make(id)                    -> Request   (untimed: builds the input)
///   send(Request&)              -> std::future<Result>   (latency starts)
///   done(id, Request&, Result)  — runs on the generator thread, untimed
/// A future that throws is passed to `done` as std::nullopt.
template <typename Result, typename Make, typename Send, typename Done>
LoopTotals run_closed_loop(int outstanding, double seconds, Make make,
                           Send send, Done done) {
  using Request = decltype(make(std::uint64_t{0}));
  struct Completion {
    std::size_t slot = 0;
    Clock::time_point completed;
    std::optional<Result> result;
  };
  struct Slot {
    std::uint64_t id = 0;
    Request request{};
    Clock::time_point sent;
    std::optional<std::future<Result>> job;
    bool quit = false;
  };

  std::mutex mutex;  // guards every Slot::job / quit and `completions`
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::deque<Completion> completions;
  std::vector<Slot> slots(static_cast<std::size_t>(outstanding));

  auto watch = [&](std::size_t index) {
    Slot& slot = slots[index];
    for (;;) {
      std::future<Result> job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return slot.quit || slot.job.has_value(); });
        if (!slot.job.has_value()) return;
        job = std::move(*slot.job);
        slot.job.reset();
      }
      Completion c;
      c.slot = index;
      try {
        c.result.emplace(job.get());
      } catch (const std::exception&) {
        c.result.reset();
      }
      c.completed = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mutex);
        completions.push_back(std::move(c));
      }
      done_cv.notify_one();
    }
  };

  LoopTotals totals;
  std::uint64_t next_id = 0;
  auto issue = [&](std::size_t index) {
    Slot& slot = slots[index];
    slot.id = next_id++;
    slot.request = make(slot.id);
    slot.sent = Clock::now();
    std::future<Result> future = send(slot.request);
    totals.send_s.push_back(seconds_since(slot.sent));
    {
      std::lock_guard<std::mutex> lock(mutex);
      slot.job.emplace(std::move(future));
    }
    work_cv.notify_all();
  };

  std::vector<std::thread> watchers;
  watchers.reserve(slots.size());
  // Stops and joins the watchers on every exit path; a watcher still
  // blocked in get() returns once its request completes.
  struct JoinOnExit {
    std::function<void()> stop;
    ~JoinOnExit() { stop(); }
  } join_on_exit{[&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (Slot& slot : slots) slot.quit = true;
    }
    work_cv.notify_all();
    for (std::thread& t : watchers) t.join();
  }};
  for (std::size_t i = 0; i < slots.size(); ++i) watchers.emplace_back(watch, i);

  const Clock::time_point start = Clock::now();
  Clock::time_point last_completion = start;
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < slots.size(); ++i, ++in_flight) issue(i);
  while (in_flight > 0) {
    Completion c;
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return !completions.empty(); });
      c = std::move(completions.front());
      completions.pop_front();
    }
    --in_flight;
    Slot& slot = slots[c.slot];
    totals.latency_s.push_back(seconds_between(slot.sent, c.completed));
    last_completion = std::max(last_completion, c.completed);
    done(slot.id, slot.request, std::move(c.result));
    if (seconds_since(start) < seconds) {
      issue(c.slot);
      ++in_flight;
    }
  }
  totals.wall_s = seconds_between(start, last_completion);
  return totals;
}

}  // namespace perfbench
