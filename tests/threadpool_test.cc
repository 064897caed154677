#include "src/common/threadpool.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace p3c {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(10, [&order](size_t i) { order.push_back(static_cast<int>(i)); });
  // With one worker, ParallelFor degenerates to a serial loop in order.
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, HardwareConcurrencyPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

#if defined(__linux__)
TEST(ThreadPoolTest, HardwareConcurrencyRespectsAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t pinned = ThreadPool::HardwareConcurrency();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(ThreadPool::HardwareConcurrency(),
            static_cast<size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ThreadPoolTest, ParallelForRethrowsWorkerException) {
  // Regression: an exception escaping the body used to reach a worker
  // thread and std::terminate the process. It must surface on the
  // calling thread instead.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [](size_t i) {
                         if (i == 137) throw std::runtime_error("boom 137");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRethrowsSerialPathException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   10, [](size_t) { throw std::runtime_error("serial"); }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForThrowPreservesMessageAndPoolIsReusable) {
  ThreadPool pool(4);
  std::string message;
  try {
    pool.ParallelFor(100, [](size_t i) {
      throw std::runtime_error("failed at " + std::to_string(i));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("failed at "), std::string::npos);
  // The pool must stay usable after a throwing ParallelFor.
  std::atomic<int> counter{0};
  pool.ParallelFor(50, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ManyTasksDoNotDeadlock) {
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100000, [&sum](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100000ull * 99999ull / 2);
}

}  // namespace
}  // namespace p3c
