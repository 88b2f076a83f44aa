#include "runner/thread_pool.hh"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace allarm::runner {

ThreadPool::ThreadPool(std::uint32_t workers) {
  const std::uint32_t count = std::max<std::uint32_t>(workers, 1);
  threads_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
#if defined(__linux__)
    // Name the workers so `top -H`, perf and core dumps attribute sweep
    // time to the pool instead of anonymous threads (15-char limit).
    const std::string name = "allarm-w" + std::to_string(i);
    pthread_setname_np(threads_.back().native_handle(), name.c_str());
#endif
  }
}

ThreadPool::~ThreadPool() {
  wait_idle_no_rethrow();  // A destructor must not throw; the error (if
                           // any) was either seen by a wait_idle() or lost.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  // An empty task is a caller bug; reject it here rather than surface a
  // bad_function_call from some later wait_idle().
  if (!task) throw std::invalid_argument("ThreadPool: empty task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
    std::swap(error, first_error_);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::wait_idle_no_rethrow() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

std::uint32_t ThreadPool::busy_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // Stopping and no work left.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      // Leaked exception: capture the first for wait_idle() to rethrow.
      // Letting it escape this thread would std::terminate the process.
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = std::move(error);
      --busy_;
      --unfinished_;
      if (unfinished_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace allarm::runner
