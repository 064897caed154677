#include "src/mapreduce/wire.h"

#include <errno.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

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

namespace {

/// The frame header of a payload made of `parts`.
std::string FrameHeader(FrameType type,
                        std::initializer_list<std::string_view> parts) {
  uint64_t size = 0;
  data::Hasher hasher;
  for (std::string_view part : parts) {
    size += part.size();
    hasher.Update(part.data(), part.size());
  }
  const uint32_t version = kVersion;
  const uint32_t type_u32 = static_cast<uint32_t>(type);
  const uint64_t checksum = hasher.Digest();
  std::string out;
  out.reserve(kHeaderBytes);
  out.append(kMagic, sizeof(kMagic));
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&type_u32), sizeof(type_u32));
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return out;
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out = FrameHeader(type, {payload});
  out.append(payload.data(), payload.size());
  return out;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  return WriteFrame(fd, type, {payload});
}

Status WriteFrame(int fd, FrameType type,
                  std::initializer_list<std::string_view> parts) {
  FrameWriter writer(type, parts);
  while (!writer.done()) {
    auto wrote = writer.WriteSome(fd);
    P3C_RETURN_NOT_OK(wrote.status());
    if (*wrote == 0) {
      return Status::IOError(StringPrintf(
          "writing %s frame: the pipe is full", FrameTypeName(type)));
    }
  }
  return Status::OK();
}

FrameWriter::FrameWriter(FrameType type,
                         std::initializer_list<std::string_view> parts)
    : type_(type), header_(FrameHeader(type, parts)) {
  pending_.reserve(parts.size() + 1);
  pending_.push_back(header_);
  for (std::string_view part : parts) {
    if (!part.empty()) pending_.push_back(part);
  }
}

Result<size_t> FrameWriter::WriteSome(int fd) {
  size_t total = 0;
  std::vector<struct iovec> iov;
  while (!done()) {
    iov.clear();
    for (size_t i = next_; i < pending_.size() && iov.size() < IOV_MAX; ++i) {
      iov.push_back({const_cast<char*>(pending_[i].data()),
                     pending_[i].size()});
    }
    const ssize_t n =
        ::writev(fd, iov.data(), static_cast<int>(iov.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Status::IOError(StringPrintf("writing %s frame: %s",
                                          FrameTypeName(type_),
                                          std::strerror(errno)));
    }
    total += static_cast<size_t>(n);
    // Trim what went out; a short write resumes mid-part.
    for (size_t left = static_cast<size_t>(n); left > 0;) {
      std::string_view& part = pending_[next_];
      const size_t step = std::min(left, part.size());
      part.remove_prefix(step);
      left -= step;
      if (part.empty()) ++next_;
    }
  }
  return total;
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
  const size_t end = consumed_ + kHeaderBytes + size;
  if (buffer_.size() < end) {
    // Room for the rest of the frame at once, rather than regrowing
    // (and recopying) a large frame as it arrives.
    buffer_.reserve(consumed_ + kHeaderBytes + std::min(size, kReserveBytes));
    return std::optional<Frame>{};
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type_u32);
  frame.payload.assign(p + kHeaderBytes, size);
  consumed_ = end;
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
  }
}

Result<MetricBag> DecodeMetricBag(WireReader& reader) {
  // Every metric takes at least its name length, kind, count and sum.
  constexpr size_t kMinMetricBytes = 8 + 4 + 8 + 8;
  MetricBag bag;
  const uint64_t n = reader.GetU64();
  P3C_RETURN_NOT_OK(reader.status());
  if (n > reader.remaining() / kMinMetricBytes) {
    return Status::IOError(StringPrintf(
        "metric bag: %llu metrics announced, %zu bytes follow",
        static_cast<unsigned long long>(n), reader.remaining()));
  }
  for (uint64_t i = 0; i < n && reader.status().ok(); ++i) {
    const std::string name = reader.GetString();
    Metric metric;
    const uint32_t kind = reader.GetU32();
    if (kind > static_cast<uint32_t>(MetricKind::kGauge)) {
      return Status::IOError(
          StringPrintf("metric '%s': unknown kind %u", name.c_str(), kind));
    }
    metric.kind = static_cast<MetricKind>(kind);
    metric.count = reader.GetU64();
    metric.sum = reader.GetDouble();
    bag.Set(name, metric);
  }
  P3C_RETURN_NOT_OK(reader.status());
  return bag;
}

namespace {

/// The last `rest` bytes of `payload`, moved out of it, when they are
/// the `size` bytes its head announced; kIOError otherwise.
Result<std::string> TakeRest(std::string payload, size_t rest, uint64_t size,
                             const char* what) {
  if (size != rest) {
    return Status::IOError(StringPrintf(
        "%s: %llu bytes announced, %zu follow", what,
        static_cast<unsigned long long>(size), rest));
  }
  payload.erase(0, payload.size() - rest);
  return payload;
}

}  // namespace

std::string EncodeTaskFrameHead(const TaskFrame& task) {
  WireWriter w;
  w.PutU32(task.kind);
  w.PutU64(task.task_index);
  w.PutU64(task.attempt);
  w.PutU64(task.input.size());
  return w.Take();
}

Result<TaskFrame> DecodeTaskFrame(std::string payload) {
  WireReader r(payload, "TASK frame");
  TaskFrame task;
  task.kind = r.GetU32();
  task.task_index = r.GetU64();
  task.attempt = r.GetU64();
  const uint64_t input_size = r.GetU64();
  P3C_RETURN_NOT_OK(r.status());
  const size_t rest = r.remaining();
  auto input =
      TakeRest(std::move(payload), rest, input_size, "TASK frame input");
  P3C_RETURN_NOT_OK(input.status());
  task.input = std::move(input).value();
  return task;
}

std::string EncodeResultFrameHead(const ResultFrame& result) {
  WireWriter w;
  w.PutU32(result.status_code);
  w.PutString(result.message);
  w.PutI64(result.peak_rss_bytes);
  w.PutU64(result.payload.size());
  return w.Take();
}

Result<ResultFrame> DecodeResultFrame(std::string payload) {
  WireReader r(payload, "RESULT frame");
  ResultFrame result;
  result.status_code = r.GetU32();
  result.message = r.GetString();
  result.peak_rss_bytes = r.GetI64();
  const uint64_t payload_size = r.GetU64();
  P3C_RETURN_NOT_OK(r.status());
  const size_t rest = r.remaining();
  auto bytes = TakeRest(std::move(payload), rest, payload_size,
                        "RESULT frame payload");
  P3C_RETURN_NOT_OK(bytes.status());
  result.payload = std::move(bytes).value();
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
