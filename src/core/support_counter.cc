#include "src/core/support_counter.h"

#include <algorithm>
#include <bit>

#include "src/common/resource.h"

namespace p3c::core {

namespace {

/// Per-task support counters, charged to the support-partials scope
/// through the allocator itself — the type is local to this file, so
/// the cross-allocator-move caveat of TrackedAllocator never applies.
using TrackedCounts =
    std::vector<uint64_t, resource::TrackedAllocator<uint64_t>>;

TrackedCounts MakeTrackedCounts(size_t k) {
  return TrackedCounts(k, 0,
                       resource::TrackedAllocator<uint64_t>(
                           resource::MemScope::kSupportPartials));
}

/// Runs `fn(task, begin, end)` over `n` points split into contiguous
/// ranges, serial when pool is null.
template <typename Fn>
size_t ForEachRange(size_t n, ThreadPool* pool, const Fn& fn) {
  if (pool == nullptr || n == 0) {
    fn(0, 0, n);
    return 1;
  }
  const size_t num_tasks = std::min(n, pool->num_threads() * 4);
  pool->ParallelFor(num_tasks, [&](size_t task) {
    const size_t begin = n * task / num_tasks;
    const size_t end = n * (task + 1) / num_tasks;
    fn(task, begin, end);
  });
  return num_tasks;
}

size_t NumTasks(size_t n, ThreadPool* pool) {
  if (pool == nullptr || n == 0) return 1;
  return std::min(n, pool->num_threads() * 4);
}

}  // namespace

std::vector<uint64_t> CountSupports(const data::Dataset& dataset,
                                    const std::vector<Signature>& signatures,
                                    ThreadPool* pool) {
  const size_t k = signatures.size();
  if (k == 0) return {};
  const Rssc index(signatures);
  const size_t n = dataset.num_points();

  const size_t num_tasks = NumTasks(n, pool);
  std::vector<TrackedCounts> partials(num_tasks, MakeTrackedCounts(k));
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    Rssc::Counter counter(index, partials[task]);
    const size_t d = dataset.num_dims();
    counter.Add(dataset.values().data() + begin * d, end - begin, d);
    counter.Finish();
  });

  std::vector<uint64_t> supports(k, 0);
  for (const auto& local : partials) {
    for (size_t j = 0; j < k; ++j) supports[j] += local[j];
  }
  return supports;
}

std::vector<uint64_t> CountSupportsNaive(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  const size_t k = signatures.size();
  if (k == 0) return {};
  const size_t n = dataset.num_points();
  const size_t num_tasks = NumTasks(n, pool);
  std::vector<TrackedCounts> partials(num_tasks, MakeTrackedCounts(k));
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    auto& local = partials[task];
    for (size_t i = begin; i < end; ++i) {
      const auto row = dataset.Row(static_cast<data::PointId>(i));
      for (size_t j = 0; j < k; ++j) {
        if (signatures[j].Contains(row)) ++local[j];
      }
    }
  });
  std::vector<uint64_t> supports(k, 0);
  for (const auto& local : partials) {
    for (size_t j = 0; j < k; ++j) supports[j] += local[j];
  }
  return supports;
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
