// A small thread pool for experiment-level parallelism.
//
// Every simulation in a sweep is independent (one fresh System per job), so
// the pool only has to keep cores busy: submit() appends to one FIFO queue
// and every idle worker pops its front, so tasks start in submission order
// (the order run_streaming folds them in).  Tasks are coarse (whole
// simulations, milliseconds to minutes), so one mutex guards the queue —
// contention is unmeasurable at this granularity and the simple design is
// easy to audit.
//
// Determinism note: tasks START in submission order but may finish in any
// order.  Reproducibility of sweep output comes from jobs deriving their
// seeds from grid coordinates and folding in grid order (see
// runner/sweep.cc).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace allarm::runner {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Starts `workers` threads (at least 1).
  explicit ThreadPool(std::uint32_t workers);

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Tasks should signal failure through their result
  /// slot (the sweep runner's completion records do); as a safety net, a
  /// task that throws anyway is caught — the FIRST such exception is
  /// captured and rethrown from the next wait_idle(), instead of the
  /// std::terminate an escaped worker exception would cause.  Later
  /// exceptions are dropped; the pool keeps draining tasks either way.
  void submit(Task task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task leaked (clearing it — the pool is reusable
  /// afterwards).
  void wait_idle();

  std::uint32_t worker_count() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

  /// Workers currently executing a task.  A sampled utilization gauge for
  /// the service heartbeat — instantaneous, already stale when returned.
  std::uint32_t busy_count() const;

 private:
  void worker_loop();
  /// wait_idle() without the rethrow, for the destructor (which must not
  /// throw) and as the shared blocking core.
  void wait_idle_no_rethrow();

  mutable std::mutex mutex_;        // Guards queue_ and the counters below.
  std::condition_variable work_cv_;  // Signals workers: work or stop.
  std::condition_variable idle_cv_;  // Signals wait_idle(): all done.
  std::deque<Task> queue_;           // Submitted tasks not yet started.
  std::uint64_t unfinished_ = 0;     // Tasks submitted but not yet completed.
  std::uint32_t busy_ = 0;           // Workers currently inside task().
  std::exception_ptr first_error_;   // First exception leaked by a task.
  bool stopping_ = false;

  std::vector<std::thread> threads_;  // Last: the workers use the above.
};

}  // namespace allarm::runner
