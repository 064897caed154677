#include "src/common/threadpool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <exception>

namespace p3c {

size_t ThreadPool::HardwareConcurrency() {
#if defined(__linux__)
  // The calling thread's affinity mask, i.e. what `nproc` prints: a
  // process pinned by taskset or a cgroup cpuset gets that many lanes,
  // not the machine's core count.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareConcurrency();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_task_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push(std::move(task));
    ++pending_;
  }
  cv_task_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  cv_done_.Wait(mu_, [this]() P3C_REQUIRES(mu_) { return pending_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelFor(n, /*grain=*/0, fn);
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t)>& fn) {
  ParallelForCapped(n, /*max_workers=*/0, grain, fn);
}

void ThreadPool::ParallelForCapped(size_t n, size_t max_workers, size_t grain,
                                   const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t width = max_workers == 0
                           ? workers_.size()
                           : std::min(max_workers, workers_.size());
  if (n == 1 || width == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Auto grain: ~8 claims per worker balances load across uneven bodies
  // while keeping counter traffic negligible even for n in the tens of
  // thousands (the map-split regime the runner produces at scale).
  if (grain == 0) grain = std::max<size_t>(1, n / (width * 8));
  const size_t num_claims = (n + grain - 1) / grain;
  const size_t closures = std::min(num_claims, width);
  // Claim counter: relaxed is enough — claiming only needs atomicity
  // (each index handed out once); all inter-thread ordering for the
  // claimed work goes through the pool's queue mutex and Wait barrier.
  std::atomic<size_t> next{0};
  // First-error-wins capture: an exception escaping `fn` on a worker
  // must surface on the caller, not std::terminate the process. Workers
  // stop claiming ranges once a throw is seen.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  Mutex error_mu;
  for (size_t c = 0; c < closures; ++c) {
    Submit([&next, n, grain, &fn, &failed, &first_error, &error_mu] {
      for (size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
           begin < n;
           begin = next.fetch_add(grain, std::memory_order_relaxed)) {
        if (failed.load(std::memory_order_acquire)) return;
        const size_t end = std::min(n, begin + grain);
        try {
          for (size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          MutexLock lock(error_mu);
          if (!failed.load(std::memory_order_relaxed)) {
            first_error = std::current_exception();
            failed.store(true, std::memory_order_release);
          }
          return;
        }
      }
    });
  }
  Wait();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      cv_task_.Wait(mu_, [this]() P3C_REQUIRES(mu_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      --pending_;
      if (pending_ == 0) cv_done_.NotifyAll();
    }
  }
}

}  // namespace p3c
