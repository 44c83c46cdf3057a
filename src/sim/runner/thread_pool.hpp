// Fixed-size worker pool for the parallel scenario engine.
//
// Deliberately work-stealing-free: one locked FIFO drained by a fixed set of
// workers.  Scenario sweeps submit coarse-grained trial jobs (each runs a
// whole simulation), so queue contention is negligible and the simple design
// keeps the engine easy to reason about.  Reproducibility never depends on
// scheduling: memoized_sweep and the JobBatch scenarios write every trial
// into a preassigned slot and merge by trial index, so results are
// bit-identical at any thread count.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dyngossip {

class TimelineRecorder;

/// Fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `n_threads` workers (0: one per hardware thread).
  explicit ThreadPool(std::size_t n_threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task.  Tasks must not call submit/wait_idle on their own
  /// pool (the pool is a leaf executor, not a nested scheduler).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// max(1, std::thread::hardware_concurrency()).
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

  /// Attaches a timeline recorder (null detaches): each task's time from
  /// submit to pop is recorded as a "queue_wait" span on the worker that
  /// picked it up.  Call only while the pool is idle — the pointer is read
  /// under the queue lock but attachment itself is not synchronized with
  /// in-flight work.
  void set_timeline(TimelineRecorder* timeline);

 private:
  /// A queued task plus its submit timestamp (stamped only while a timeline
  /// is attached; otherwise the clock is never read).
  struct Job {
    std::function<void()> task;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Job> queue_;
  TimelineRecorder* timeline_ = nullptr;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;  // queued + currently running
  bool stop_ = false;
};

}  // namespace dyngossip
