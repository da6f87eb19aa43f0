#pragma once
/// \file sweep.hpp
/// Parallel experiment sweeps.
///
/// Every figure in the paper is a grid of *independent* simulations
/// (mechanism x pattern x load x fault set x seed). ParallelSweep fans
/// such a grid across a ThreadPool: each point gets its own Experiment
/// (own topology copy, tables, traffic and RNG stream, all derived from
/// the spec's seed), so no mutable state crosses tasks and the merged
/// result vector is bit-identical to running the same points in a serial
/// loop — results are always delivered in submission order, whatever
/// order the workers finish in.
///
/// Two layers:
///  - map(): a deterministic ordered parallel map over any index range —
///    the engine's core. Exception-safe (a throw from the function or the
///    delivery callback drains the pool before unwinding) and ordered
///    (delivery strictly in index order on the calling thread).
///  - run_tasks(): executes TaskSpecs (see harness/taskspec.hpp) — the
///    serializable task model shared by the drivers' in-process runs and
///    the hxsp_runner tool (fed by --emit-tasks manifests). Results
///    come back as TaskResult variants matching each task's kind; a rate
///    sweep is a list of TaskSpec::rate tasks.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "harness/taskspec.hpp"
#include "util/thread_pool.hpp"

namespace hxsp {

/// Fans independent work across worker threads and merges results in
/// submission order. The pool persists across calls, so one
/// ParallelSweep can serve a whole bench driver.
class ParallelSweep {
 public:
  /// \p workers <= 0 selects the hardware concurrency.
  explicit ParallelSweep(int workers = 0);

  int workers() const { return pool_.size(); }

  /// Runs every task (any mix of kinds); result i holds tasks[i]'s
  /// TaskResult. When \p on_result is provided it is invoked on the
  /// calling thread in submission order (task 0 first) as soon as each
  /// result and all its predecessors are ready — incremental output stays
  /// deterministic. An exception from a task or from \p on_result
  /// propagates to the caller only after every in-flight worker job has
  /// finished, so no worker can outlive the run's state; still-queued
  /// tasks are skipped rather than simulated during that drain.
  /// \p step_threads > 0 gives every task's Network its own deterministic
  /// intra-run step pool of that many workers (see run_task) — sweep
  /// parallelism across tasks and step parallelism within one compose
  /// freely, and neither changes a byte of output.
  /// \p captures (optional) is resized to tasks.size() and slot i receives
  /// task i's telemetry capture — each worker writes only its own slot, so
  /// the collection is race-free and in submission order by construction.
  std::vector<TaskResult> run_tasks(
      const std::vector<TaskSpec>& tasks,
      const std::function<void(std::size_t, const TaskResult&)>& on_result = {},
      int step_threads = 0, std::vector<TelemetryCapture>* captures = nullptr);

  /// Deterministic ordered parallel map: evaluates fn(0) .. fn(n-1) on
  /// the pool and returns the results indexed by input. \p on_result is
  /// called on this thread strictly in index order. R must be default-
  /// constructible. This is the primitive run_tasks() is built on;
  /// drivers whose unit of work is not a simulation (pure graph studies)
  /// use it directly and inherit the same determinism and exception-drain
  /// guarantees: fn must be self-contained (no shared mutable state).
  template <typename R>
  std::vector<R> map(
      std::size_t n, const std::function<R(std::size_t)>& fn,
      const std::function<void(std::size_t, const R&)>& on_result = {}) {
    std::vector<R> results(n);
    if (n == 0) return results;

    std::mutex mu;
    std::condition_variable ready;
    std::vector<char> done(n, 0);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<bool> aborted{false};

    // Everything below may throw (submit allocates, fn is arbitrary user
    // code, on_result is caller code); before any exception unwinds this
    // frame the pool must drain, since in-flight jobs reference the
    // locals above. Results are delivered strictly in index order —
    // workers may finish in any order, the caller never observes that.
    try {
      for (std::size_t i = 0; i < n; ++i) {
        pool_.submit([&, i] {
          // Once an error is pending the run only needs to drain, not
          // compute: skip still-queued jobs (each can be minutes at
          // paper scale). A throw must not escape the worker thread
          // (std::terminate); capture it and rethrow on the delivering
          // thread, in order.
          if (!aborted.load(std::memory_order_relaxed)) {
            try {
              results[i] = fn(i);
            } catch (...) {
              errors[i] = std::current_exception();
            }
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            done[i] = 1;
          }
          ready.notify_all();
        });
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::unique_lock<std::mutex> lock(mu);
        ready.wait(lock, [&] { return done[i] != 0; });
        lock.unlock();
        if (errors[i]) std::rethrow_exception(errors[i]);
        if (on_result) on_result(i, results[i]);
      }
    } catch (...) {
      aborted.store(true, std::memory_order_relaxed);
      pool_.wait_idle();
      throw;
    }
    pool_.wait_idle();
    return results;
  }

  /// \p proto repeated over \p trials seeds, keeping its kind/parameters.
  /// Task ids are NOT adjusted; route the result through a TaskGrid when
  /// stable ids are needed.
  static std::vector<TaskSpec> expand_task_seeds(const TaskSpec& proto,
                                                 std::uint64_t first_seed,
                                                 int trials);

 private:
  ThreadPool pool_;
};

} // namespace hxsp
