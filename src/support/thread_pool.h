// A small fixed-size thread pool with a parallel-for helper.
//
// Used by the partitioned clustering pipeline to simulate the paper's
// 50-machine map step on a single host, and by the batch scan paths
// (Scanner::scan_batch, CdnFilter). Tasks must not throw across the pool
// boundary; exceptions are captured and rethrown to the caller.
//
// parallel_for/parallel_ranges carry a per-call completion latch: each
// batch waits only on its own tasks and observes only its own first
// exception, so any number of concurrent batches may share one pool
// without stealing each other's completion. The pool-global wait() remains
// for bare submit() users and must not be mixed with concurrent batches it
// does not own.
//
// Placement: worker i is pinned to the i-th CPU of the creating thread's
// affinity mask, wrapping around when there are more workers than CPUs
// (thread-per-core); with a one-CPU mask nothing is pinned and the workers
// simply inherit it. The kernel cannot be trusted to spread the workers
// itself: on hosts whose cpusets run with sched_load_balance=0 it never
// migrates a thread, so every worker stays on the CPU it was created on.
// Measured on such a 4-CPU host before this rule, all seven threads of a
// kzbench run sat on one CPU and a 4-way pool phase got 5.4 s of CPU
// across 15.6 s of summed task wall time — pool size 1 and 4 ran alike.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace kizzle {

class ThreadPool {
 public:
  // n_threads == 0 means hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task.
  void submit(std::function<void()> task);

  // Blocks until all submitted tasks have finished. If any task threw, the
  // first captured exception is rethrown here. Pool-global: only for
  // callers that own every outstanding submit()ted task.
  void wait();

  // Runs fn(i) for i in [0, n) across the pool and waits for completion on
  // a latch private to this call: concurrent batches on one pool are safe,
  // and each caller sees (only) its own batch's first-thrown exception.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Splits [0, n) into at most max_tasks contiguous ranges and runs
  // fn(task, begin, end) for each across the pool, waiting for completion
  // (per-call latch, as parallel_for). `task` is a dense index in
  // [0, actual_tasks) so callers can keep per-task scratch (partial edge
  // lists, stat counters) without locking; actual_tasks == min(n,
  // max_tasks) is returned. Used by the clustering neighbor-graph build.
  std::size_t parallel_ranges(
      std::size_t n, std::size_t max_tasks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace kizzle
