#include "support/thread_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>

namespace kizzle {

namespace {

// The CPUs of the calling thread's affinity mask, ascending.
std::vector<int> creator_cpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Placement is best effort: a refused pthread_setaffinity_np leaves the
  // worker on the inherited mask, which is where it would be anyway.
  const std::vector<int> cpus = creator_cpus();
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    if (cpus.size() < 2) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    pthread_setaffinity_np(workers_.back().native_handle(), sizeof(one), &one);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

namespace {

// Per-batch completion state: each parallel_for/parallel_ranges call gets
// its own latch, so two batches interleaved on one pool cannot steal each
// other's completion signal or first-thrown exception (the old pool-global
// wait() made a shared pool a silent correctness hazard for batch scans).
struct BatchLatch {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = 0;
  std::exception_ptr error;

  void finish_one(std::exception_ptr err) {
    std::lock_guard<std::mutex> lock(mu);
    if (err && !error) error = std::move(err);
    if (--remaining == 0) cv.notify_all();
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto latch = std::make_shared<BatchLatch>();
  latch->remaining = n;
  for (std::size_t i = 0; i < n; ++i) {
    submit([&fn, i, latch] {
      std::exception_ptr err;
      try {
        fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      latch->finish_one(std::move(err));
    });
  }
  latch->wait_all();
}

std::size_t ThreadPool::parallel_ranges(
    std::size_t n, std::size_t max_tasks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return 0;
  const std::size_t tasks = std::min(n, std::max<std::size_t>(1, max_tasks));
  const std::size_t base = n / tasks;
  const std::size_t extra = n % tasks;  // first `extra` ranges get one more
  auto latch = std::make_shared<BatchLatch>();
  latch->remaining = tasks;
  std::size_t begin = 0;
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t end = begin + base + (t < extra ? 1 : 0);
    submit([&fn, t, begin, end, latch] {
      std::exception_ptr err;
      try {
        fn(t, begin, end);
      } catch (...) {
        err = std::current_exception();
      }
      latch->finish_one(std::move(err));
    });
    begin = end;
  }
  latch->wait_all();
  return tasks;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace kizzle
