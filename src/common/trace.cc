#include "src/common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/common/atomic_file.h"
#include "src/common/string_util.h"

namespace p3c {

namespace {

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Tracer::Tracer() : epoch_ns_(SteadyNowNanos()) {}

Tracer& Tracer::Global() {
  // Leaked on purpose: worker threads may record (or their thread-local
  // buffer shared_ptrs may release) after main's statics are destroyed.
  static Tracer* tracer = new Tracer;
  return *tracer;
}

uint64_t Tracer::NowMicros() const {
  return (SteadyNowNanos() - epoch_ns_) / 1000;
}

Tracer::ThreadBuffer& Tracer::LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (local == nullptr) {
    local = std::make_shared<ThreadBuffer>(
        next_tid_.fetch_add(1, std::memory_order_relaxed));
    WriterMutexLock lock(registry_mu_);
    buffers_.push_back(local);
  }
  return *local;
}

void Tracer::Append(TraceEvent event, uint32_t lane_override) {
  ThreadBuffer& buffer = LocalBuffer();
  event.ts_us = NowMicros();
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  event.tid = lane_override != 0 ? lane_override : buffer.tid;
  MutexLock lock(buffer.mu);
  buffer.events.push_back(std::move(event));
}

void Tracer::RecordBegin(std::string name, std::string args_json,
                         uint32_t lane_override) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = 'B';
  event.name = std::move(name);
  event.args_json = std::move(args_json);
  Append(std::move(event), lane_override);
}

void Tracer::RecordEnd(uint32_t lane_override, std::string args_json) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = 'E';
  event.args_json = std::move(args_json);
  Append(std::move(event), lane_override);
}

void Tracer::RecordInstant(std::string name, std::string args_json,
                           uint32_t lane_override) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = 'i';
  event.name = std::move(name);
  event.args_json = std::move(args_json);
  Append(std::move(event), lane_override);
}

void Tracer::RecordFlowStart(uint64_t flow_id, std::string name,
                             uint32_t lane_override) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = 's';
  event.flow_id = flow_id;
  event.name = std::move(name);
  Append(std::move(event), lane_override);
}

void Tracer::RecordFlowEnd(uint64_t flow_id, std::string name,
                           uint32_t lane_override) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = 'f';
  event.flow_id = flow_id;
  event.name = std::move(name);
  Append(std::move(event), lane_override);
}

void Tracer::NameLane(uint32_t lane, std::string name) {
  if (!enabled()) return;
  {
    WriterMutexLock lock(registry_mu_);
    for (uint32_t named : named_lanes_) {
      if (named == lane) return;
    }
    named_lanes_.push_back(lane);
  }
  TraceEvent event;
  event.phase = 'M';
  event.name = "thread_name";
  event.args_json = StringPrintf("{\"name\": \"%s\"}",
                                 JsonEscape(name).c_str());
  Append(std::move(event), lane);
}

std::string Tracer::ToJson() const {
  // Snapshot every buffer, then sort globally by (ts, seq) so file
  // order has monotone timestamps (Perfetto does not require it, but
  // the trace-smoke validator and human readers do).
  std::vector<TraceEvent> events;
  {
    ReaderMutexLock registry_lock(registry_mu_);
    for (const auto& buffer : buffers_) {
      MutexLock lock(buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.seq < b.seq;
            });

  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += StringPrintf(
        "{\"name\": \"%s\", \"cat\": \"p3c\", \"ph\": \"%c\", "
        "\"ts\": %llu, \"pid\": 1, \"tid\": %u",
        JsonEscape(e.name).c_str(), e.phase,
        static_cast<unsigned long long>(e.ts_us), e.tid);
    if (e.phase == 's' || e.phase == 'f') {
      out += StringPrintf(", \"id\": %llu",
                          static_cast<unsigned long long>(e.flow_id));
      // Bind the flow finish to the enclosing slice's start so Perfetto
      // draws the retry arrow into the replacement attempt.
      if (e.phase == 'f') out += ", \"bp\": \"e\"";
    }
    if (e.phase == 'i') out += ", \"s\": \"t\"";
    if (!e.args_json.empty()) out += ", \"args\": " + e.args_json;
    out += "}";
  }
  out += "\n]\n";
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  return AtomicWriteFile(path, ToJson());
}

void Tracer::Clear() {
  WriterMutexLock registry_lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    MutexLock lock(buffer->mu);
    buffer->events.clear();
  }
  named_lanes_.clear();  // a fresh run re-emits its lane metadata
}

size_t Tracer::NumEvents() const {
  ReaderMutexLock registry_lock(registry_mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) {
    MutexLock lock(buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

}  // namespace p3c
