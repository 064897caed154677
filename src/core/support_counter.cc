#include "src/core/support_counter.h"

#include <algorithm>
#include <bit>
#include <span>

#include "src/common/resource.h"

namespace p3c::core {

namespace {

size_t NumTasks(size_t n, ThreadPool* pool) {
  if (pool == nullptr || n == 0) return 1;
  return std::min(n, pool->num_threads() * 4);
}

/// Runs `fn(task, begin, end)` over `n` points split into NumTasks
/// contiguous ranges, serial when pool is null.
template <typename Fn>
void ForEachRange(size_t n, ThreadPool* pool, const Fn& fn) {
  if (pool == nullptr || n == 0) {
    fn(0, 0, n);
    return;
  }
  const size_t num_tasks = NumTasks(n, pool);
  pool->ParallelFor(num_tasks, [&](size_t task) {
    const size_t begin = n * task / num_tasks;
    const size_t end = n * (task + 1) / num_tasks;
    fn(task, begin, end);
  });
}

/// Runs `fn(begin, end, counts)` over ForEachRange's ranges of `n`
/// points, each task adding into its own `k` counters, and returns their
/// sum. The per-task counters are charged to MemScope::kSupportPartials
/// for the call.
template <typename Fn>
std::vector<uint64_t> SumOverRanges(size_t n, size_t k, ThreadPool* pool,
                                    const Fn& fn) {
  const size_t num_tasks = NumTasks(n, pool);
  const resource::ScopedBytes charge(
      resource::MemScope::kSupportPartials,
      static_cast<int64_t>(num_tasks * k * sizeof(uint64_t)));
  std::vector<std::vector<uint64_t>> partials(num_tasks,
                                              std::vector<uint64_t>(k, 0));
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    fn(begin, end, std::span<uint64_t>(partials[task]));
  });
  std::vector<uint64_t> supports(k, 0);
  for (const auto& local : partials) {
    for (size_t j = 0; j < k; ++j) supports[j] += local[j];
  }
  return supports;
}

}  // namespace

std::vector<uint64_t> CountSupports(const data::Dataset& dataset,
                                    const std::vector<Signature>& signatures,
                                    ThreadPool* pool) {
  const size_t k = signatures.size();
  if (k == 0) return {};
  const Rssc index(signatures);
  const size_t d = dataset.num_dims();
  return SumOverRanges(
      dataset.num_points(), k, pool,
      [&](size_t begin, size_t end, std::span<uint64_t> counts) {
        Rssc::Counter counter(index, counts);
        counter.Add(dataset.values().data() + begin * d, end - begin, d);
        counter.Finish();
      });
}

std::vector<uint64_t> CountSupportsNaive(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  const size_t k = signatures.size();
  if (k == 0) return {};
  return SumOverRanges(
      dataset.num_points(), k, pool,
      [&](size_t begin, size_t end, std::span<uint64_t> counts) {
        for (size_t i = begin; i < end; ++i) {
          const auto row = dataset.Row(static_cast<data::PointId>(i));
          for (size_t j = 0; j < k; ++j) {
            if (signatures[j].Contains(row)) ++counts[j];
          }
        }
      });
}

std::vector<std::vector<data::PointId>> ComputeSupportSets(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  const size_t k = signatures.size();
  std::vector<std::vector<data::PointId>> sets(k);
  if (k == 0) return sets;
  const Rssc index(signatures);
  const size_t n = dataset.num_points();
  const size_t num_tasks = NumTasks(n, pool);
  std::vector<std::vector<std::vector<data::PointId>>> partials(
      num_tasks, std::vector<std::vector<data::PointId>>(k));
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    Rssc::Scratch scratch;
    std::vector<uint64_t> words(k);
    auto& local = partials[task];
    const size_t d = dataset.num_dims();
    for (size_t group = begin; group < end; group += 64) {
      index.Members(dataset.values().data() + group * d,
                    std::min<size_t>(64, end - group), d, scratch, words);
      for (size_t j = 0; j < k; ++j) {
        for (uint64_t word = words[j]; word != 0; word &= word - 1) {
          local[j].push_back(
              static_cast<data::PointId>(group + std::countr_zero(word)));
        }
      }
    }
  });
  // Tasks own contiguous ascending ranges, so concatenation in task order
  // keeps each set sorted.
  resource::ScopedBytes partials_charge(
      resource::MemScope::kSupportPartials);
  if (resource::MemoryTracker::Global().enabled()) {
    int64_t bytes = 0;
    for (const auto& local : partials) {
      for (const auto& ids : local) {
        bytes +=
            static_cast<int64_t>(ids.capacity() * sizeof(data::PointId));
      }
    }
    partials_charge.Set(bytes);
  }
  for (auto& local : partials) {
    for (size_t j = 0; j < k; ++j) {
      sets[j].insert(sets[j].end(), local[j].begin(), local[j].end());
    }
  }
  return sets;
}

std::vector<int32_t> UniqueAssignments(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  const size_t n = dataset.num_points();
  std::vector<int32_t> assignment(n, -1);
  if (signatures.empty()) return assignment;
  const Rssc index(signatures);
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    (void)task;
    Rssc::Scratch scratch;
    std::vector<uint64_t> words(signatures.size());
    const size_t d = dataset.num_dims();
    for (size_t group = begin; group < end; group += 64) {
      const size_t rows = std::min<size_t>(64, end - group);
      index.Members(dataset.values().data() + group * d, rows, d, scratch,
                    words);
      Rssc::UniqueMembers(words, rows, &assignment[group]);
    }
  });
  return assignment;
}

}  // namespace p3c::core
