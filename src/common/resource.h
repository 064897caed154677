#ifndef P3C_COMMON_RESOURCE_H_
#define P3C_COMMON_RESOURCE_H_

// Resource observability (DESIGN.md §15): scoped memory accounting for
// the engine's known hot structures, an OS-level RSS probe, and the
// adapters (ScopedBytes / ArenaCharge) that instrumented call sites use
// to keep charges balanced.
//
// The tracker follows the Tracer's cost model: off by default, and when
// off every instrumented site pays exactly one relaxed atomic load of
// the enabled flag — no locks, no map lookups, no clock reads. Scopes
// are a fixed enum (not strings) precisely so the charge path is an
// array index plus a pair of relaxed atomics.
//
// Two sources of truth, deliberately kept distinct:
//   - *Tracked* bytes: what the instrumented structures report through
//     Charge(). Deterministic, per-scope, and byte-exact for the
//     top-level buffers — but blind to allocator slack, transient merge
//     churn, and element payloads behind pointers.
//   - *Sampled* bytes: VmRSS/VmHWM read from /proc/self/status. The
//     whole process, but only as precise as the kernel's page
//     accounting and only where /proc exists.
// The gap between them is exported as its own gauge
// (mem.sampled.untracked_bytes) so drift is observable, not hidden.
//
// Enable/disable is a run-boundary switch: flip it while instrumented
// structures are live and their release charges may be dropped (the
// adapters track what they actually charged, so they never drive the
// ledger negative — but per-allocation exactness across a mid-run
// toggle is explicitly not promised).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/common/counters.h"
#include "src/common/sync.h"

namespace p3c::resource {

/// The blessed hot-structure scopes. Adding a scope is a two-line
/// change (enum + name); the fixed size keeps Charge() lock-free.
enum class MemScope : uint8_t {
  kShuffleRuns = 0,   ///< sorted map-output runs (partition.h)
  kShuffleMerged,     ///< merged pairs + MergedPartition buffers
  kEmitter,           ///< VectorEmitter pair buffers (runner.h)
  kRsscIndex,         ///< RSSC word-packed bitmaps + separators
  kSupportPartials,   ///< per-task support counting partials
  kHistogramBins,     ///< histogram / cluster-histogram bins (mr jobs)
  kGmmMatrices,       ///< EM moment & covariance accumulators
  kDataset,           ///< row-major dataset values (data::Dataset)
  kBench,             ///< bench working sets (bench_* binaries)
  kNumScopes,         ///< sentinel, not a scope
};

constexpr size_t kNumMemScopes = static_cast<size_t>(MemScope::kNumScopes);

/// Stable scope name used in gauge keys: mem.<name>.peak_bytes.
const char* MemScopeName(MemScope scope);

/// One /proc/self/status reading. VmHWM is the kernel's own high-water
/// mark, so a single end-of-run sample captures the peak without any
/// periodic polling.
struct RssSample {
  int64_t vm_rss_bytes = 0;
  int64_t vm_hwm_bytes = 0;
};

/// Process-wide scoped memory ledger. All users go through Global();
/// like the Tracer the instance is never destroyed, so release charges
/// from static-duration structures stay safe.
class MemoryTracker {
 public:
  static MemoryTracker& Global();

  /// Runtime switch (see the header comment for toggle semantics).
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Adds `delta` (signed) bytes to `scope`. No-op while disabled —
  /// this is the zero-cost-when-off gate; adapters that must balance a
  /// charge they already made use Release() instead.
  void Charge(MemScope scope, int64_t delta) {
    if (!enabled()) return;
    ApplyDelta(scope, delta);
  }

  /// Unconditionally subtracts `bytes` previously charged. Only the
  /// adapters call this (they know the exact amount they applied), so
  /// a disable between charge and release cannot leak ledger bytes.
  void Release(MemScope scope, int64_t bytes) { ApplyDelta(scope, -bytes); }

  [[nodiscard]] int64_t CurrentBytes(MemScope scope) const {
    return scopes_[Index(scope)].current.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t PeakBytes(MemScope scope) const {
    return scopes_[Index(scope)].peak.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t TotalCurrentBytes() const {
    return total_current_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t TotalPeakBytes() const {
    return total_peak_.load(std::memory_order_relaxed);
  }

  /// Phase windows: BeginPhase resets the window peak to the bytes
  /// currently outstanding; EndPhase returns the window's total-bytes
  /// peak and max-merges it into the named phase table exported by
  /// ExportGauges as mem.phase.<name>.peak_bytes. Driver-thread API
  /// (the pipeline runs phases sequentially); concurrent Charge()
  /// calls from worker threads are safe at any time.
  void BeginPhase(const std::string& name);
  int64_t EndPhase();

  /// Clears peaks, phase windows, and the phase table for a fresh run.
  /// Outstanding current bytes survive — they are still allocated.
  void ResetRun();

  /// Deterministic export into `bag`:
  ///   mem.<scope>.peak_bytes        per scope with a nonzero peak
  ///   mem.total.peak_bytes          peak of the summed ledger
  ///   mem.phase.<name>.peak_bytes   per completed phase window
  /// and, when /proc is readable:
  ///   mem.sampled.vm_rss_bytes / mem.sampled.vm_hwm_bytes
  ///   mem.sampled.untracked_bytes   max(0, VmHWM - tracked peak): the
  ///                                 drift between the two ledgers
  /// Gauges merge as max, so re-export and cross-bag merges stay
  /// exactly-once-deterministic.
  void ExportGauges(MetricBag* bag) const;

  /// Compact one-line "scope=current/peak" rendering of the nonzero
  /// scopes, for the heartbeat log line.
  [[nodiscard]] std::string DebugString() const;

  /// Reads VmRSS/VmHWM from /proc/self/status; nullopt where /proc is
  /// absent (portability: the tracker itself never requires it).
  static std::optional<RssSample> SampleRss();

 private:
  struct ScopeStats {
    std::atomic<int64_t> current{0};
    std::atomic<int64_t> peak{0};
  };

  /// A new total peak must climb this far past the last recorded
  /// instant before another mem-high-water event is traced — keeps the
  /// trace readable instead of one instant per allocation.
  static constexpr int64_t kTraceInstantGrainBytes = 1 << 20;

  MemoryTracker() = default;

  static size_t Index(MemScope scope) { return static_cast<size_t>(scope); }

  void ApplyDelta(MemScope scope, int64_t delta);
  static void MaxMerge(std::atomic<int64_t>& peak, int64_t value) {
    int64_t seen = peak.load(std::memory_order_relaxed);
    while (value > seen &&
           !peak.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> enabled_{false};
  ScopeStats scopes_[kNumMemScopes];
  std::atomic<int64_t> total_current_{0};
  std::atomic<int64_t> total_peak_{0};
  std::atomic<int64_t> window_peak_{0};
  std::atomic<int64_t> last_instant_peak_{0};

  /// Guards only the phase-window bookkeeping; the hot Charge() path
  /// never touches it (atomics above). Leaf lock: nothing else is
  /// acquired while it is held.
  mutable Mutex phase_mu_{"MemoryTracker::phase_mu_"};
  std::string current_phase_ P3C_GUARDED_BY(phase_mu_);
  std::map<std::string, int64_t> phase_peaks_ P3C_GUARDED_BY(phase_mu_);
};

/// Value-semantic charge for a single owner (one task-local buffer).
/// Set() re-charges the delta; copies charge independently; moves
/// transfer the charge; the destructor releases whatever this instance
/// actually charged. Not thread-safe — one owner, like the buffer it
/// shadows.
class ScopedBytes {
 public:
  explicit ScopedBytes(MemScope scope) : scope_(scope) {}
  ScopedBytes(MemScope scope, int64_t bytes) : scope_(scope) { Set(bytes); }

  ScopedBytes(const ScopedBytes& other) : scope_(other.scope_) {
    Set(other.bytes_);
  }
  ScopedBytes& operator=(const ScopedBytes& other) {
    if (this != &other) {
      Set(0);
      scope_ = other.scope_;
      Set(other.bytes_);
    }
    return *this;
  }
  ScopedBytes(ScopedBytes&& other) noexcept
      : scope_(other.scope_), bytes_(other.bytes_), charged_(other.charged_) {
    other.bytes_ = 0;
    other.charged_ = 0;
  }
  ScopedBytes& operator=(ScopedBytes&& other) noexcept {
    if (this != &other) {
      Set(0);
      scope_ = other.scope_;
      bytes_ = other.bytes_;
      charged_ = other.charged_;
      other.bytes_ = 0;
      other.charged_ = 0;
    }
    return *this;
  }
  ~ScopedBytes() { Set(0); }

  /// Sets the tracked size to `bytes`, charging or releasing the
  /// difference. While the tracker is disabled only releases of
  /// already-charged bytes are applied.
  void Set(int64_t bytes) {
    bytes_ = bytes;
    MemoryTracker& tracker = MemoryTracker::Global();
    if (tracker.enabled()) {
      if (bytes != charged_) {
        tracker.Release(scope_, charged_ - bytes);
        charged_ = bytes;
      }
    } else if (charged_ != 0) {
      tracker.Release(scope_, charged_);
      charged_ = 0;
    }
  }

  [[nodiscard]] int64_t bytes() const { return bytes_; }
  [[nodiscard]] MemScope scope() const { return scope_; }

 private:
  MemScope scope_;
  int64_t bytes_ = 0;    ///< logical size the owner last reported
  int64_t charged_ = 0;  ///< what actually reached the tracker
};

/// Thread-safe accumulating charge for a structure many workers grow
/// concurrently (the shuffle's runs and merged partitions). Add/Sub are
/// relaxed-atomic; the destructor releases the outstanding remainder.
class ArenaCharge {
 public:
  explicit ArenaCharge(MemScope scope) : scope_(scope) {}
  ~ArenaCharge() { ReleaseAll(); }

  ArenaCharge(const ArenaCharge&) = delete;
  ArenaCharge& operator=(const ArenaCharge&) = delete;

  void Add(int64_t bytes) {
    if (bytes <= 0) return;
    MemoryTracker& tracker = MemoryTracker::Global();
    if (!tracker.enabled()) return;
    tracker.Charge(scope_, bytes);
    charged_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Releases up to `bytes`, clamped to what was actually charged so a
  /// mid-run disable can never push the ledger negative.
  void Sub(int64_t bytes) {
    if (bytes <= 0) return;
    int64_t seen = charged_.load(std::memory_order_relaxed);
    int64_t take;
    do {
      take = seen < bytes ? seen : bytes;
      if (take <= 0) return;
    } while (!charged_.compare_exchange_weak(seen, seen - take,
                                             std::memory_order_relaxed));
    MemoryTracker::Global().Release(scope_, take);
  }

  void ReleaseAll() {
    const int64_t outstanding =
        charged_.exchange(0, std::memory_order_relaxed);
    if (outstanding > 0) MemoryTracker::Global().Release(scope_, outstanding);
  }

  [[nodiscard]] int64_t outstanding() const {
    return charged_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MemScope scope() const { return scope_; }

 private:
  MemScope scope_;
  std::atomic<int64_t> charged_{0};
};

}  // namespace p3c::resource

#endif  // P3C_COMMON_RESOURCE_H_
