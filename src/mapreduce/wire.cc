#include "src/mapreduce/wire.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>

#include "src/common/string_util.h"
#include "src/data/io.h"

namespace p3c::mr::wire {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kTask:
      return "TASK";
    case FrameType::kResult:
      return "RESULT";
    case FrameType::kPing:
      return "PING";
    case FrameType::kShutdown:
      return "SHUTDOWN";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  const uint32_t type_u32 = static_cast<uint32_t>(type);
  const uint64_t size = payload.size();
  const uint64_t checksum = data::Hash64(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&type_u32), sizeof(type_u32));
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.append(payload.data(), payload.size());
  return out;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  const std::string bytes = EncodeFrame(type, payload);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StringPrintf("writing %s frame: %s",
                                          FrameTypeName(type),
                                          std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::optional<Frame>> FrameReader::Next() {
  // Compact the buffer once consumed bytes dominate, so a long-lived
  // stream never grows without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) return std::optional<Frame>{};
  const char* p = buffer_.data() + consumed_;
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("worker frame: bad magic (stream desynced)");
  }
  uint32_t version = 0;
  uint32_t type_u32 = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, p + 4, sizeof(version));
  std::memcpy(&type_u32, p + 8, sizeof(type_u32));
  std::memcpy(&size, p + 12, sizeof(size));
  std::memcpy(&checksum, p + 20, sizeof(checksum));
  if (version != kVersion) {
    return Status::IOError(StringPrintf(
        "worker frame: protocol version %u, expected %u", version, kVersion));
  }
  if (type_u32 < static_cast<uint32_t>(FrameType::kHello) ||
      type_u32 > static_cast<uint32_t>(FrameType::kShutdown)) {
    return Status::IOError(
        StringPrintf("worker frame: unknown frame type %u", type_u32));
  }
  if (size > kMaxFramePayload) {
    return Status::IOError(StringPrintf(
        "worker frame: payload size %llu exceeds the %llu-byte bound",
        static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(kMaxFramePayload)));
  }
  if (available < kHeaderBytes + size) return std::optional<Frame>{};
  Frame frame;
  frame.type = static_cast<FrameType>(type_u32);
  frame.payload.assign(p + kHeaderBytes, size);
  consumed_ += kHeaderBytes + size;
  const uint64_t actual =
      data::Hash64(frame.payload.data(), frame.payload.size());
  if (actual != checksum) {
    return Status::IOError(
        StringPrintf("worker %s frame: checksum mismatch",
                     FrameTypeName(frame.type)));
  }
  return std::optional<Frame>{std::move(frame)};
}

void EncodeMetricBag(const MetricBag& bag, WireWriter& writer) {
  writer.PutU64(bag.values().size());
  for (const auto& [name, metric] : bag.values()) {
    writer.PutString(name);
    writer.PutU32(static_cast<uint32_t>(metric.kind));
    writer.PutU64(metric.count);
    writer.PutDouble(metric.sum);
    writer.PutDouble(metric.min);
    writer.PutDouble(metric.max);
    for (uint64_t bucket : metric.buckets) writer.PutU64(bucket);
  }
}

Result<MetricBag> DecodeMetricBag(WireReader& reader) {
  MetricBag bag;
  const uint64_t n = reader.GetU64();
  for (uint64_t i = 0; i < n && reader.status().ok(); ++i) {
    const std::string name = reader.GetString();
    Metric metric;
    const uint32_t kind = reader.GetU32();
    if (kind > static_cast<uint32_t>(MetricKind::kHistogram)) {
      return Status::IOError(
          StringPrintf("metric '%s': unknown kind %u", name.c_str(), kind));
    }
    metric.kind = static_cast<MetricKind>(kind);
    metric.count = reader.GetU64();
    metric.sum = reader.GetDouble();
    metric.min = reader.GetDouble();
    metric.max = reader.GetDouble();
    for (uint64_t& bucket : metric.buckets) bucket = reader.GetU64();
    bag.Set(name, metric);
  }
  P3C_RETURN_NOT_OK(reader.status());
  return bag;
}

std::string EncodeTaskFrame(const TaskFrame& task) {
  WireWriter w;
  w.PutU32(task.kind);
  w.PutU64(task.task_index);
  w.PutU64(task.attempt);
  return w.Take();
}

Result<TaskFrame> DecodeTaskFrame(std::string_view payload) {
  WireReader r(payload, "TASK frame");
  TaskFrame task;
  task.kind = r.GetU32();
  task.task_index = r.GetU64();
  task.attempt = r.GetU64();
  P3C_RETURN_NOT_OK(r.Finish());
  return task;
}

std::string EncodeResultFrame(const ResultFrame& result) {
  WireWriter w;
  w.PutU32(result.status_code);
  w.PutString(result.message);
  w.PutI64(result.peak_rss_bytes);
  EncodeMetricBag(result.counters, w);
  w.PutString(result.payload);
  return w.Take();
}

Result<ResultFrame> DecodeResultFrame(std::string_view payload) {
  WireReader r(payload, "RESULT frame");
  ResultFrame result;
  result.status_code = r.GetU32();
  result.message = r.GetString();
  result.peak_rss_bytes = r.GetI64();
  auto counters = DecodeMetricBag(r);
  P3C_RETURN_NOT_OK(counters.status());
  result.counters = std::move(*counters);
  result.payload = r.GetString();
  P3C_RETURN_NOT_OK(r.Finish());
  return result;
}

std::string EncodeHelloFrame(const HelloFrame& hello) {
  WireWriter w;
  w.PutU64(hello.pid);
  w.PutU32(hello.version);
  return w.Take();
}

Result<HelloFrame> DecodeHelloFrame(std::string_view payload) {
  WireReader r(payload, "HELLO frame");
  HelloFrame hello;
  hello.pid = r.GetU64();
  hello.version = r.GetU32();
  P3C_RETURN_NOT_OK(r.Finish());
  return hello;
}

}  // namespace p3c::mr::wire
