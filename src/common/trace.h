#ifndef P3C_COMMON_TRACE_H_
#define P3C_COMMON_TRACE_H_

// Hierarchical tracing for the MapReduce engine and the P3C+-MR
// pipelines, exported as Chrome trace-event JSON (the format Perfetto
// and chrome://tracing load directly).
//
// Span hierarchy (DESIGN.md §10):
//   pipeline → phase → MR job → task attempt → shuffle partition
//
// Spans are recorded through RAII TraceSpan guards as balanced B/E
// event pairs on the recording thread's lane; shuffle partitions get
// their own synthetic lanes (one per partition index) so reducer skew
// is visible as lane-length imbalance. Task retries are stitched
// together with flow events (s → f) from the failed attempt to its
// replacement.
//
// Cost model: tracing must be invisible when off.
//   - Compile time: building with -DP3C_DISABLE_TRACING (CMake option
//     P3C_ENABLE_TRACING=OFF) makes Tracer::enabled() a constant false,
//     so every guarded call site and TraceSpan body dead-codes away.
//   - Run time (default build): every guard starts with one relaxed
//     atomic load of the enabled flag and returns; no allocation, no
//     lock, no clock read. Callers that build span names/args with
//     StringPrintf must themselves gate on Tracer::Global().enabled()
//     when they sit on a hot path (the engine's per-task sites do).
//   - Enabled: events append to per-thread buffers (a mutex per buffer,
//     uncontended except during export), so recording threads never
//     serialize against each other.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"

namespace p3c {

/// One recorded trace event. `phase` uses the Chrome trace-event
/// single-letter codes: B/E (duration begin/end), i (instant), s/f
/// (flow start/finish), M (metadata).
struct TraceEvent {
  char phase = 'B';
  uint64_t ts_us = 0;    ///< microseconds since tracer start (monotone)
  uint64_t seq = 0;      ///< global tie-break for equal timestamps
  uint32_t tid = 0;      ///< lane: thread id or synthetic partition lane
  uint64_t flow_id = 0;  ///< s/f events: the flow being stitched
  std::string name;
  std::string args_json;  ///< pre-rendered "args" object; empty = none
};

/// Process-wide trace collector. All users go through Tracer::Global();
/// the instance is never destroyed (worker threads may outlive main's
/// locals), so recording and export are safe at any point.
class Tracer {
 public:
  /// Synthetic lanes for per-shuffle-partition spans sit above this
  /// offset so they can never collide with real thread lanes.
  static constexpr uint32_t kPartitionLaneBase = 1u << 20;
  /// Lane id base for worker-process slots of the process backend
  /// (lane = kWorkerLaneBase + slot index), clear of both thread ids
  /// and partition lanes.
  static constexpr uint32_t kWorkerLaneBase = 1u << 21;

  static Tracer& Global();

  /// Runtime switch. Enabling mid-run is allowed; events recorded while
  /// disabled are simply never made.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const {
#ifdef P3C_DISABLE_TRACING
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }

  /// Microseconds since tracer construction (steady clock, monotone).
  uint64_t NowMicros() const;

  /// Unique id for a flow (retry stitching).
  uint64_t NextFlowId() {
    return flow_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Raw event recording; prefer TraceSpan for durations. All of these
  /// are no-ops while disabled. `lane_override` 0 means the calling
  /// thread's lane. Args on an E event are merged into its span's args
  /// by trace viewers.
  void RecordBegin(std::string name, std::string args_json = "",
                   uint32_t lane_override = 0);
  void RecordEnd(uint32_t lane_override = 0, std::string args_json = "");
  void RecordInstant(std::string name, std::string args_json = "",
                     uint32_t lane_override = 0);
  void RecordFlowStart(uint64_t flow_id, std::string name,
                       uint32_t lane_override = 0);
  void RecordFlowEnd(uint64_t flow_id, std::string name,
                     uint32_t lane_override = 0);

  /// Names a lane in the exported file (thread_name metadata event).
  /// Idempotent: repeat calls for an already-named lane are dropped, so
  /// per-job code can name its partition lanes unconditionally.
  void NameLane(uint32_t lane, std::string name);

  /// Chrome trace-event JSON: a single array of event objects, globally
  /// sorted by (ts, seq) so timestamps are monotone in file order.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  /// Drops every buffered event (new runs start clean).
  void Clear();

  /// Number of buffered events (tests).
  size_t NumEvents() const;

 private:
  /// Per-thread event buffer. The owning thread appends under the
  /// buffer's own mutex — uncontended until an exporter walks the
  /// registry — and the registry holds shared ownership so buffers
  /// survive thread exit.
  ///
  /// Lock order: registry_mu_ (shared or exclusive) is always taken
  /// BEFORE any ThreadBuffer::mu; recording threads take only their own
  /// buffer's mu and never the registry.
  struct ThreadBuffer {
    explicit ThreadBuffer(uint32_t tid_in) : tid(tid_in) {}
    const uint32_t tid;
    mutable Mutex mu{"Tracer::ThreadBuffer::mu"};
    std::vector<TraceEvent> events P3C_GUARDED_BY(mu);
  };

  Tracer();

  ThreadBuffer& LocalBuffer();
  void Append(TraceEvent event, uint32_t lane_override);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> flow_ids_{0};
  std::atomic<uint32_t> next_tid_{1};
  uint64_t epoch_ns_ = 0;

  /// Reader/writer split: exporters (ToJson/NumEvents) take the shared
  /// side so concurrent exports never serialize; registration and lane
  /// naming take the exclusive side.
  mutable SharedMutex registry_mu_{"Tracer::registry_mu_"};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      P3C_GUARDED_BY(registry_mu_);
  std::vector<uint32_t> named_lanes_
      P3C_GUARDED_BY(registry_mu_);  // NameLane dedup
};

/// RAII duration span: records B at construction and the matching E at
/// destruction, on the same lane. When the tracer is disabled at
/// construction the span is inert — its destructor records nothing even
/// if tracing is switched on mid-span, because an unmatched E event
/// would break the stack discipline the trace validator checks.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string args_json = "",
                     uint32_t lane_override = 0)
      : lane_(lane_override), active_(Tracer::Global().enabled()) {
    if (active_) {
      Tracer::Global().RecordBegin(std::move(name), std::move(args_json),
                                   lane_);
    }
  }

  ~TraceSpan() {
    if (active_) Tracer::Global().RecordEnd(lane_, std::move(end_args_));
  }

  /// Args known only when the span's work is done, recorded on its E
  /// event. Callers build them only while active().
  void SetEndArgs(std::string args_json) { end_args_ = std::move(args_json); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }

 private:
  uint32_t lane_;
  bool active_;
  std::string end_args_;
};

}  // namespace p3c

#endif  // P3C_COMMON_TRACE_H_
