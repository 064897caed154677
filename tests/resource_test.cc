// Resource observability tests (DESIGN.md §15): the scoped memory
// ledger's charge/peak/phase semantics, the balance guarantees of the
// two adapters (ScopedBytes / ArenaCharge) — including a mid-run
// disable, which must clamp rather than drive the ledger negative — the
// /proc RSS probe, the deterministic gauge
// export, and the end-to-end contract that turning tracking on never
// changes pipeline output.
//
// Every test runs against the process-global tracker, so every test is
// responsible for leaving it disabled with zero outstanding charges;
// the fixture enforces the invariant in TearDown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/counters.h"
#include "src/common/resource.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/mr/p3c_mr.h"

namespace p3c::resource {
namespace {

class ResourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryTracker::Global().Enable(true);
    MemoryTracker::Global().ResetRun();
  }
  void TearDown() override {
    MemoryTracker& tracker = MemoryTracker::Global();
    // A test that leaks charges would poison every later test in the
    // binary — the ledger is process-global on purpose.
    EXPECT_EQ(tracker.TotalCurrentBytes(), baseline_);
    tracker.Enable(false);
    tracker.ResetRun();
  }
  /// Outstanding bytes other code charged before this test began
  /// (static-duration structures may hold charges).
  int64_t baseline_ = MemoryTracker::Global().TotalCurrentBytes();
};

// ---- Tracker ledger semantics ----------------------------------------

TEST_F(ResourceTest, ChargeReleaseAndPeaks) {
  MemoryTracker& t = MemoryTracker::Global();
  const int64_t cur0 = t.CurrentBytes(MemScope::kBench);
  t.Charge(MemScope::kBench, 1000);
  EXPECT_EQ(t.CurrentBytes(MemScope::kBench), cur0 + 1000);
  EXPECT_GE(t.PeakBytes(MemScope::kBench), cur0 + 1000);
  t.Charge(MemScope::kBench, -400);
  EXPECT_EQ(t.CurrentBytes(MemScope::kBench), cur0 + 600);
  // The peak holds the high-water, not the current level.
  EXPECT_GE(t.PeakBytes(MemScope::kBench), cur0 + 1000);
  t.Release(MemScope::kBench, 600);
  EXPECT_EQ(t.CurrentBytes(MemScope::kBench), cur0);
}

TEST_F(ResourceTest, DisabledChargeIsANoOpButReleaseApplies) {
  MemoryTracker& t = MemoryTracker::Global();
  t.Charge(MemScope::kBench, 500);
  t.Enable(false);
  // Charge gates on enabled() — the zero-cost-when-off contract.
  t.Charge(MemScope::kBench, 10000);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 500);
  // Release is unconditional so adapters can balance what they already
  // charged across a disable.
  t.Release(MemScope::kBench, 500);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
  t.Enable(true);
}

TEST_F(ResourceTest, ScopesAccumulateIntoTheTotal) {
  MemoryTracker& t = MemoryTracker::Global();
  t.Charge(MemScope::kShuffleRuns, 300);
  t.Charge(MemScope::kRsscIndex, 200);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 500);
  EXPECT_GE(t.TotalPeakBytes(), baseline_ + 500);
  t.Release(MemScope::kShuffleRuns, 300);
  t.Release(MemScope::kRsscIndex, 200);
}

TEST_F(ResourceTest, PhaseWindowsMaxMergeByName) {
  MemoryTracker& t = MemoryTracker::Global();
  // Two windows under the same name (the EM loop runs "em-step" many
  // times): the exported phase peak is the max across windows.
  t.BeginPhase("em-step");
  t.Charge(MemScope::kGmmMatrices, 100);
  t.Release(MemScope::kGmmMatrices, 100);
  const int64_t first = t.EndPhase();
  EXPECT_GE(first, baseline_ + 100);

  t.BeginPhase("em-step");
  t.Charge(MemScope::kGmmMatrices, 700);
  t.Release(MemScope::kGmmMatrices, 700);
  const int64_t second = t.EndPhase();
  EXPECT_GE(second, baseline_ + 700);

  MetricBag bag;
  t.ExportGauges(&bag);
  EXPECT_EQ(bag.GetGauge("mem.phase.em-step.peak_bytes"),
            static_cast<double>(second));
}

TEST_F(ResourceTest, BeginPhaseResetsTheWindowToOutstandingBytes) {
  MemoryTracker& t = MemoryTracker::Global();
  t.Charge(MemScope::kBench, 5000);
  t.Release(MemScope::kBench, 5000);
  // The 5000-byte spike happened before the window opened; the window
  // peak starts at the bytes outstanding at BeginPhase.
  t.BeginPhase("later");
  t.Charge(MemScope::kBench, 10);
  t.Release(MemScope::kBench, 10);
  EXPECT_LE(t.EndPhase(), baseline_ + 10);
}

TEST_F(ResourceTest, ResetRunClearsPeaksToCurrentAndDropsPhases) {
  MemoryTracker& t = MemoryTracker::Global();
  t.BeginPhase("p");
  t.Charge(MemScope::kBench, 4096);
  t.Release(MemScope::kBench, 4096);
  t.EndPhase();
  t.ResetRun();
  // Peaks collapse to the (zero-delta) current level and the phase
  // table empties — a fresh run starts from a clean slate.
  EXPECT_EQ(t.PeakBytes(MemScope::kBench),
            t.CurrentBytes(MemScope::kBench));
  MetricBag bag;
  t.ExportGauges(&bag);
  EXPECT_EQ(bag.Find("mem.phase.p.peak_bytes"), nullptr);
}

TEST_F(ResourceTest, ExportGaugesNamesAndDrift) {
  MemoryTracker& t = MemoryTracker::Global();
  t.ResetRun();
  t.Charge(MemScope::kDataset, 2048);
  MetricBag bag;
  t.ExportGauges(&bag);
  EXPECT_GE(bag.GetGauge("mem.dataset.peak_bytes"), 2048.0);
  EXPECT_GE(bag.GetGauge("mem.total.peak_bytes"), 2048.0);
  // Scopes that never charged stay absent — the export is sparse.
  EXPECT_EQ(bag.Find("mem.shuffle-merged.peak_bytes"), nullptr);
  if (MemoryTracker::SampleRss().has_value()) {
    // Where /proc exists the sampled ledger rides along, with the
    // drift gauge making the tracked-vs-sampled gap observable.
    EXPECT_GT(bag.GetGauge("mem.sampled.vm_rss_bytes"), 0.0);
    EXPECT_GT(bag.GetGauge("mem.sampled.vm_hwm_bytes"), 0.0);
    ASSERT_NE(bag.Find("mem.sampled.untracked_bytes"), nullptr);
    EXPECT_GE(bag.GetGauge("mem.sampled.untracked_bytes"), 0.0);
  }
  t.Release(MemScope::kDataset, 2048);
}

TEST_F(ResourceTest, DebugStringRendersNonzeroScopes) {
  MemoryTracker& t = MemoryTracker::Global();
  t.ResetRun();
  t.Charge(MemScope::kEmitter, 64);
  const std::string s = t.DebugString();
  EXPECT_NE(s.find("emitter="), std::string::npos);
  EXPECT_NE(s.find("total="), std::string::npos);
  t.Release(MemScope::kEmitter, 64);
}

// ---- Adapters ---------------------------------------------------------

TEST_F(ResourceTest, ScopedBytesDeltaChargesAndBalances) {
  MemoryTracker& t = MemoryTracker::Global();
  {
    ScopedBytes mem(MemScope::kHistogramBins);
    mem.Set(100);
    EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 100);
    mem.Set(250);  // +150 delta, not +250
    EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 250);
    mem.Set(50);  // shrink releases
    EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 50);
  }
  // Destructor released the remainder.
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
}

TEST_F(ResourceTest, ScopedBytesCopyChargesIndependentlyMoveTransfers) {
  MemoryTracker& t = MemoryTracker::Global();
  {
    ScopedBytes a(MemScope::kEmitter, 100);
    ScopedBytes b = a;  // copy: two owners, two charges
    EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 200);
    ScopedBytes c = std::move(a);  // move: charge transfers, no double
    EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 200);
    EXPECT_EQ(c.bytes(), 100);
    (void)b;
  }
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
}

TEST_F(ResourceTest, ScopedBytesMidRunDisableNeverLeaksOrGoesNegative) {
  MemoryTracker& t = MemoryTracker::Global();
  ScopedBytes mem(MemScope::kBench, 300);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 300);
  t.Enable(false);
  // While disabled, Set releases what was actually charged (the
  // adapter tracks charged_ separately from the logical bytes_) and
  // applies nothing new.
  mem.Set(900);
  EXPECT_EQ(mem.bytes(), 900);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
  t.Enable(true);
  // Re-enabling: the next Set charges from the clean slate.
  mem.Set(50);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_ + 50);
  mem.Set(0);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
}

TEST_F(ResourceTest, ArenaChargeSubClampsToWhatWasCharged) {
  MemoryTracker& t = MemoryTracker::Global();
  ArenaCharge arena(MemScope::kShuffleRuns);
  arena.Add(1000);
  // Over-release clamps — the ledger can never go below the baseline
  // even if a caller's bookkeeping is off or a disable dropped an Add.
  arena.Sub(4000);
  EXPECT_EQ(arena.outstanding(), 0);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
  arena.Add(500);
  arena.ReleaseAll();
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
}

TEST_F(ResourceTest, ArenaChargeIsThreadSafe) {
  MemoryTracker& t = MemoryTracker::Global();
  ArenaCharge arena(MemScope::kShuffleMerged);
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&arena] {
      for (int i = 0; i < kIters; ++i) {
        arena.Add(16);
        arena.Sub(16);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(arena.outstanding(), 0);
  EXPECT_EQ(t.TotalCurrentBytes(), baseline_);
}

// ---- RSS probe --------------------------------------------------------

TEST_F(ResourceTest, SampleRssReadsProcWhereAvailable) {
  const auto sample = MemoryTracker::SampleRss();
  if (!sample.has_value()) GTEST_SKIP() << "/proc not available";
  EXPECT_GT(sample->vm_rss_bytes, 0);
  // The kernel's high-water mark can never sit under the live RSS.
  EXPECT_GE(sample->vm_hwm_bytes, sample->vm_rss_bytes);
}

// ---- Gauge merge semantics (the exactly-once foundation) -------------

TEST_F(ResourceTest, GaugeMergeTakesTheMaxAcrossBags) {
  // mem.*.peak_bytes gauges merge as max (MetricKind::kGauge), so the
  // merged peak across threads/retries is order-free and counts each
  // peak once — the property the fault-injection suite leans on.
  MetricBag a;
  MetricBag b;
  a.SetGauge("mem.task.peak_bytes", 1000.0);
  b.SetGauge("mem.task.peak_bytes", 700.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.GetGauge("mem.task.peak_bytes"), 1000.0);
  b.MergeFrom(a);
  EXPECT_EQ(b.GetGauge("mem.task.peak_bytes"), 1000.0);
  // Merge order does not matter and repeated merges are idempotent.
  b.MergeFrom(a);
  EXPECT_EQ(b.GetGauge("mem.task.peak_bytes"), 1000.0);
}

// ---- MetricBag rendering ---------------------------------------------

TEST_F(ResourceTest, ToStringRendersOneLinePerMetric) {
  MetricBag bag;
  bag.Increment("records", 5);
  bag.SetGauge("mem.total.peak_bytes", 4096.0);
  const std::string table = bag.ToString("  ");
  EXPECT_NE(table.find("records"), std::string::npos);
  EXPECT_NE(table.find("mem.total.peak_bytes"), std::string::npos);
  // Name, kind and value; every line starts with the indent.
  EXPECT_NE(table.find("gauge      4096"), std::string::npos);
  EXPECT_NE(table.find("counter    5"), std::string::npos);
  EXPECT_EQ(table.rfind("  mem.total.peak_bytes", 0), 0u);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 2);
}

// ---- End-to-end: tracking must never change results -------------------

TEST_F(ResourceTest, PipelineOutputIsIdenticalWithTrackingOn) {
  data::GeneratorConfig config;
  config.num_points = 3000;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.seed = 91;
  const auto data = data::GenerateSynthetic(config).value();

  MemoryTracker::Global().Enable(false);
  mr::P3CMROptions options;
  options.params.light = true;
  mr::P3CMR off{options};
  const auto result_off = off.Cluster(data.dataset);
  ASSERT_TRUE(result_off.ok()) << result_off.status().ToString();

  MemoryTracker::Global().Enable(true);
  mr::P3CMR on{options};
  const auto result_on = on.Cluster(data.dataset);
  ASSERT_TRUE(result_on.ok()) << result_on.status().ToString();

  // Identical clustering and identical user-visible counters: the
  // tracker observes the run, it never participates in it.
  ASSERT_EQ(result_on->clusters.size(), result_off->clusters.size());
  for (size_t c = 0; c < result_on->clusters.size(); ++c) {
    EXPECT_EQ(result_on->clusters[c].points, result_off->clusters[c].points);
    EXPECT_EQ(result_on->clusters[c].attrs, result_off->clusters[c].attrs);
  }
  // Every counter is byte-identical across the toggle: the memory
  // gauges live on the job rows and in the driver bag.
  const MetricBag off_counters = off.counters();
  const MetricBag on_counters = on.counters();
  for (const auto& [name, metric] : off_counters.values()) {
    const Metric* other = on_counters.Find(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_TRUE(metric == *other) << name;
  }
  for (const auto& [name, metric] : on_counters.values()) {
    EXPECT_NE(off_counters.Find(name), nullptr) << name;
  }
  EXPECT_EQ(on_counters.ToJson(), off_counters.ToJson());
  // The tracked run set the task peak gauge and exported the driver
  // gauges; the untracked run emitted neither.
  EXPECT_GT(on.driver_metrics().GetGauge("mem.task.peak_bytes"), 0.0);
  EXPECT_GT(on.driver_metrics().GetGauge("mem.total.peak_bytes"), 0.0);
  EXPECT_GT(on.driver_metrics().GetGauge("mem.dataset.peak_bytes"), 0.0);
  EXPECT_EQ(off.driver_metrics().Find("mem.task.peak_bytes"), nullptr);
  EXPECT_EQ(off.driver_metrics().Find("mem.total.peak_bytes"), nullptr);
  for (const mr::JobMetrics& job : off.metrics().jobs()) {
    EXPECT_EQ(job.task_peak_bytes, 0u) << job.job_name;
  }
}

// ---- Dataset buffers ----------------------------------------------------

// Whether or not a buffer lands on huge pages, every way a dataset is
// born keeps its contents, an exact capacity and the matching charge.
TEST_F(ResourceTest, DatasetBuffersKeepContentsCapacityAndCharge) {
  MemoryTracker& t = MemoryTracker::Global();
  const int64_t before = t.CurrentBytes(MemScope::kDataset);
  const auto charged = [&] {
    return t.CurrentBytes(MemScope::kDataset) - before;
  };
  // 3 MiB spans a 2 MiB-aligned interior; 240 bytes does not.
  for (const size_t n : {size_t{49152}, size_t{3}}) {
    SCOPED_TRACE(std::to_string(n) + " points");
    const size_t d = 10;
    data::Dataset zeros(n, d);
    EXPECT_EQ(zeros.values().capacity(), n * d);
    EXPECT_EQ(charged(), static_cast<int64_t>(n * d * sizeof(double)));
    EXPECT_TRUE(std::all_of(zeros.values().begin(), zeros.values().end(),
                            [](double v) { return v == 0.0; }));
    for (size_t i = 0; i < n; ++i) {
      zeros.Set(static_cast<data::PointId>(i), i % d,
                static_cast<double>(i) / static_cast<double>(n));
    }

    const std::string path =
        std::string(::testing::TempDir()) + "/resource_dataset.p3cd";
    ASSERT_TRUE(data::WriteBinary(zeros, path).ok());
    {
      Result<data::Dataset> read = data::ReadBinary(path);
      std::remove(path.c_str());
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_EQ(read->values(), zeros.values());
      EXPECT_EQ(read->values().capacity(), n * d);
      EXPECT_EQ(charged(), static_cast<int64_t>(2 * n * d * sizeof(double)));
    }

    std::vector<data::PointId> rows;
    for (size_t i = 0; i < n; i += 2) {
      rows.push_back(static_cast<data::PointId>(i));
    }
    {
      const data::Dataset selected = zeros.Select(rows);
      EXPECT_EQ(selected.values().capacity(), rows.size() * d);
      EXPECT_EQ(charged(), static_cast<int64_t>((n + rows.size()) * d *
                                                sizeof(double)));
      for (size_t i = 0; i < rows.size(); ++i) {
        const auto row = selected.Row(static_cast<data::PointId>(i));
        const auto source = zeros.Row(rows[i]);
        ASSERT_TRUE(std::equal(row.begin(), row.end(), source.begin()));
      }
    }

    std::vector<double> values = zeros.values();
    values.reserve(values.size() + d);  // FromRowMajor keeps what it gets
    const size_t capacity = values.capacity();
    {
      const data::Dataset wrapped =
          data::Dataset::FromRowMajor(std::move(values), d).value();
      EXPECT_EQ(wrapped.values(), zeros.values());
      EXPECT_EQ(wrapped.values().capacity(), capacity);
      EXPECT_EQ(charged(), static_cast<int64_t>((n * d + capacity) *
                                                sizeof(double)));
    }
  }
  EXPECT_EQ(charged(), 0);
}

}  // namespace
}  // namespace p3c::resource
