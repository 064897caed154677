#ifndef P3C_MAPREDUCE_WIRE_H_
#define P3C_MAPREDUCE_WIRE_H_

// Length-prefixed, checksummed task protocol for the multi-process
// worker backend (DESIGN.md §16). Every message between the driver and
// a worker process is one frame:
//
//   magic "P3CW" | version u32 | type u32 | payload_size u64 |
//   Hash64(payload) u64 | payload bytes
//
// — the pipe-stream sibling of the v3 binary container and the P3CK
// blob container (src/data/io.*): same fixed header + Hash64 checksum
// discipline, so a torn write, a short read, or a worker that died
// mid-frame is detected as corruption instead of being half-parsed.
//
// Payloads are encoded with WireWriter/WireReader: a tiny
// little-endian codec with typed Put/Get templates covering exactly
// the key/value/output types the paper's jobs use — trivially
// copyable scalars and PODs, std::string, std::vector<T>, and
// std::pair<A, B> — plus Metric/MetricBag for shipping task counters
// back. `IsWireSerializable<T>` reports at compile time whether a
// job's types can cross the process boundary at all; jobs whose types
// cannot (none in-tree today) simply keep running in-process.

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/mapreduce/partition.h"

namespace p3c::mr::wire {

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

inline constexpr char kMagic[4] = {'P', '3', 'C', 'W'};
/// v1 sealed payloads with FNV-1a; v2 with data::Hash64; v3 TASK frames
/// carry the task's input bytes (a reduce task's shuffle partition); v4
/// metrics are a kind, a count and a sum, and RESULT frames carry no
/// counters of their own (a map task's ride in its payload).
inline constexpr uint32_t kVersion = 4;
/// Frame header size on the wire: magic + version + type + size + checksum.
inline constexpr size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;
/// Upper bound a reader accepts for one frame payload (defense against
/// parsing garbage as a colossal length and allocating it).
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 34;  // 16 GiB

enum class FrameType : uint32_t {
  kHello = 1,     ///< worker → driver: pid + protocol version handshake
  kTask = 2,      ///< driver → worker: run task (kind, index, attempt, input)
  kResult = 3,    ///< worker → driver: status + payload + RSS
  kPing = 4,      ///< worker → driver: heartbeat (empty payload)
  kShutdown = 5,  ///< driver → worker: exit cleanly (empty payload)
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Serializes one frame (header + checksum + payload) into a byte
/// string ready for a single write.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Writes one frame to `fd`, retrying short writes and EINTR. Not
/// thread-safe per fd; callers serialize (the worker's result/ping
/// writers share a mutex).
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// WriteFrame of the concatenation of `parts`, without copying them
/// into one buffer: the checksum streams over the parts, and writev
/// sends the header and the parts as they are. TASK and RESULT frames
/// go out this way, as a small head and their (possibly large) bytes.
/// `fd` must block; a non-blocking fd goes through FrameWriter.
Status WriteFrame(int fd, FrameType type,
                  std::initializer_list<std::string_view> parts);

/// One frame written as the fd takes it: the header and the parts go
/// out with writev, uncopied, over as many calls as a non-blocking fd
/// needs. The driver sends TASK frames this way, so that a worker that
/// stops reading cannot hold it in a write. The parts must outlive the
/// writer.
class FrameWriter {
 public:
  FrameWriter(FrameType type, std::initializer_list<std::string_view> parts);
  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  /// Writes what `fd` takes now and returns the byte count: 0 when a
  /// non-blocking fd is full, everything left on a blocking one.
  /// kIOError on a write error (EPIPE: the reader has gone).
  Result<size_t> WriteSome(int fd);

  bool done() const { return next_ == pending_.size(); }

 private:
  FrameType type_;
  std::string header_;
  /// The header, then the non-empty parts; written ones are trimmed.
  std::vector<std::string_view> pending_;
  size_t next_ = 0;  ///< first entry of pending_ not fully written
};

/// Incremental frame parser over a byte stream: feed bytes as they
/// arrive, pull complete frames out. Detects bad magic, version skew,
/// oversized lengths, and checksum mismatches as kIOError — a
/// protocol error is never silently resynchronized.
class FrameReader {
 public:
  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  /// Next complete frame, std::nullopt when more bytes are needed, or
  /// kIOError on a malformed stream. Once a header has arrived, the
  /// buffer is sized for its whole frame (up to kReserveBytes).
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed (diagnostics).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  /// The most the reader reserves for a frame on its header's word,
  /// before the payload (and with it the checksum) has arrived; larger
  /// frames grow the buffer as they arrive.
  static constexpr uint64_t kReserveBytes = uint64_t{1} << 26;  // 64 MiB

  std::string buffer_;
  size_t consumed_ = 0;
};

// ---------------------------------------------------------------------------
// Typed payload codec
// ---------------------------------------------------------------------------

/// Compile-time "can T cross the process boundary" predicate.
template <typename T, typename = void>
struct IsWireSerializable : std::is_trivially_copyable<T> {};

template <>
struct IsWireSerializable<std::string> : std::true_type {};

template <typename T>
struct IsWireSerializable<std::vector<T>> : IsWireSerializable<T> {};

template <typename A, typename B>
struct IsWireSerializable<std::pair<A, B>>
    : std::conjunction<IsWireSerializable<A>, IsWireSerializable<B>> {};

template <typename T>
inline constexpr bool kIsWireSerializable = IsWireSerializable<T>::value;

/// Appends typed values to a byte string. Fixed-width little-endian
/// integers for lengths; trivially copyable values are memcpy'd (the
/// driver and its forked workers share one ABI by construction).
class WireWriter {
 public:
  void PutRaw(const void* data, size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutRaw(s.data(), s.size());
  }

  template <typename T>
  void Put(const T& value) {
    static_assert(kIsWireSerializable<T>,
                  "type cannot be shipped across the worker boundary");
    if constexpr (std::is_same_v<T, std::string>) {
      PutString(value);
    } else {
      PutRaw(&value, sizeof(T));
    }
  }

  template <typename A, typename B>
  void Put(const std::pair<A, B>& value) {
    Put(value.first);
    Put(value.second);
  }

  template <typename T>
  void Put(const std::vector<T>& value) {
    PutU64(value.size());
    if constexpr (std::is_trivially_copyable_v<T> &&
                  !std::is_same_v<T, std::string>) {
      PutRaw(value.data(), value.size() * sizeof(T));
    } else {
      for (const T& v : value) Put(v);
    }
  }

  /// Bytes Put(value) appends, so that an encoder can size its buffer
  /// once instead of regrowing it (Reserve).
  template <typename T>
  static size_t SizeOf(const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      return sizeof(uint64_t) + value.size();
    } else {
      return sizeof(T);
    }
  }
  template <typename A, typename B>
  static size_t SizeOf(const std::pair<A, B>& value) {
    return SizeOf(value.first) + SizeOf(value.second);
  }
  template <typename T>
  static size_t SizeOf(const std::vector<T>& value) {
    size_t bytes = sizeof(uint64_t);
    if constexpr (std::is_trivially_copyable_v<T> &&
                  !std::is_same_v<T, std::string>) {
      bytes += value.size() * sizeof(T);
    } else {
      for (const T& v : value) bytes += SizeOf(v);
    }
    return bytes;
  }

  void Reserve(size_t bytes) { out_.reserve(bytes); }
  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Decodes what WireWriter wrote — worker frames and the checkpoint
/// record (src/mr/checkpoint.cc) alike. Sticky status: over-runs set a
/// kIOError status once and every later Get returns zero values;
/// callers check status()/Finish() after decoding instead of after
/// every field.
class WireReader {
 public:
  explicit WireReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  void GetRaw(void* out, size_t n) {
    if (!status_.ok()) {
      std::memset(out, 0, n);
      return;
    }
    if (pos_ + n > data_.size()) {
      status_ = Status::IOError(context_ + ": payload truncated");
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  int64_t GetI64() {
    int64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  double GetDouble() {
    double v = 0.0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  std::string GetString() {
    const uint64_t n = GetU64();
    if (!status_.ok()) return {};
    if (n > data_.size() - pos_) {
      status_ = Status::IOError(context_ + ": string length over-runs");
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  template <typename T>
  void Get(T* out) {
    static_assert(kIsWireSerializable<T>,
                  "type cannot be shipped across the worker boundary");
    if constexpr (std::is_same_v<T, std::string>) {
      *out = GetString();
    } else {
      GetRaw(out, sizeof(T));
    }
  }

  template <typename A, typename B>
  void Get(std::pair<A, B>* out) {
    Get(&out->first);
    Get(&out->second);
  }

  template <typename T>
  void Get(std::vector<T>* out) {
    const uint64_t n = GetU64();
    if (!status_.ok()) return;
    // Sanity bound before reserving: every element encodes to at least
    // one byte, so a length beyond the remaining payload is corruption,
    // not a huge allocation waiting to happen.
    if (n > data_.size() - pos_) {
      status_ = Status::IOError(context_ + ": vector length over-runs");
      return;
    }
    out->clear();
    if constexpr (std::is_trivially_copyable_v<T> &&
                  !std::is_same_v<T, std::string>) {
      if (pos_ + n * sizeof(T) > data_.size()) {
        status_ = Status::IOError(context_ + ": vector bytes over-run");
        return;
      }
      out->resize(n);
      std::memcpy(out->data(), data_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    } else {
      out->reserve(n);
      for (uint64_t i = 0; i < n && status_.ok(); ++i) {
        T v;
        Get(&v);
        out->push_back(std::move(v));
      }
    }
  }

  const Status& status() const { return status_; }
  /// Bytes not yet decoded.
  size_t remaining() const { return data_.size() - pos_; }

  /// OK only when every payload byte was decoded — trailing garbage is
  /// corruption.
  Status Finish() const {
    if (!status_.ok()) return status_;
    if (pos_ != data_.size()) {
      return Status::IOError(context_ + ": undecoded trailing bytes");
    }
    return Status::OK();
  }

 private:
  std::string_view data_;
  std::string context_;
  size_t pos_ = 0;
  Status status_;
};

// ---------------------------------------------------------------------------
// Metric / task-frame codecs
// ---------------------------------------------------------------------------

/// Serializes a MetricBag (a map task's counters crossing back to the
/// driver inside its payload, and the checkpoint's merged counters):
/// a count, then per metric its name, kind u32, count u64 and sum f64.
void EncodeMetricBag(const MetricBag& bag, WireWriter& writer);
/// Decodes a bag; kIOError on any malformation — an unknown kind, a
/// truncated metric, or a count the remaining bytes cannot hold (caught
/// before any metric is decoded).
Result<MetricBag> DecodeMetricBag(WireReader& reader);

/// TASK frame payload: which task of the installed job to run, and the
/// bytes it runs from beyond what the worker inherited at fork — empty
/// for a map task, the EncodePartition bytes of a reduce task's
/// partition.
struct TaskFrame {
  uint32_t kind = 0;  ///< TaskKind as uint32
  uint64_t task_index = 0;
  uint64_t attempt = 0;
  std::string input;
};
/// The TASK payload up to its input bytes (their length included);
/// the payload is this followed by task.input, sent as two parts.
std::string EncodeTaskFrameHead(const TaskFrame& task);
/// Decodes a TASK payload. Takes it by value: the input bytes are the
/// payload's own, moved into the frame rather than copied. kIOError
/// when the input length disagrees with the bytes after the task
/// fields.
Result<TaskFrame> DecodeTaskFrame(std::string payload);

/// RESULT frame payload: the task's outcome. `payload` is the
/// phase-specific serialized task output (empty on failure; a map
/// task's carries its emitter's MetricBag); `peak_rss_bytes` is the
/// worker's /proc RSS sample (0 where /proc is unavailable).
struct ResultFrame {
  uint32_t status_code = 0;  ///< StatusCode as uint32
  std::string message;
  int64_t peak_rss_bytes = 0;
  std::string payload;
};
/// The RESULT payload up to its result bytes (their length included);
/// the payload is this followed by result.payload, sent as two parts.
std::string EncodeResultFrameHead(const ResultFrame& result);
/// Decodes a RESULT payload, moving (not copying) the result bytes out
/// of it, like DecodeTaskFrame.
Result<ResultFrame> DecodeResultFrame(std::string payload);

/// A reduce task's merged shuffle partition as TASK-frame input: its
/// group keys, group offsets and values.
template <typename K, typename V>
std::string EncodePartition(const MergedPartition<K, V>& part) {
  WireWriter w;
  w.Reserve(WireWriter::SizeOf(part.group_keys) +
            WireWriter::SizeOf(part.group_offsets) +
            WireWriter::SizeOf(part.values));
  w.Put(part.group_keys);
  w.Put(part.group_offsets);
  w.Put(part.values);
  return w.Take();
}

/// Decodes what EncodePartition wrote. kIOError unless every byte
/// decodes and the groups tile the values: one offset per group plus
/// one, starting at 0, strictly increasing (no group is empty), ending
/// at the value count, with strictly increasing keys.
template <typename K, typename V>
Result<MergedPartition<K, V>> DecodePartition(std::string_view bytes) {
  WireReader r(bytes, "reduce task partition");
  MergedPartition<K, V> part;
  r.Get(&part.group_keys);
  r.Get(&part.group_offsets);
  r.Get(&part.values);
  P3C_RETURN_NOT_OK(r.Finish());
  const std::vector<size_t>& offsets = part.group_offsets;
  const auto corrupt = [](const char* what) {
    return Status::IOError(std::string("reduce task partition: ") + what);
  };
  if (offsets.size() != part.group_keys.size() + 1) {
    return corrupt("group offsets disagree with the group count");
  }
  if (offsets.front() != 0 || offsets.back() != part.values.size()) {
    return corrupt("group offsets do not span the values");
  }
  for (size_t g = 0; g < part.group_keys.size(); ++g) {
    if (offsets[g + 1] <= offsets[g]) {
      return corrupt("group offsets are not increasing");
    }
    if (g > 0 && !(part.group_keys[g - 1] < part.group_keys[g])) {
      return corrupt("group keys are not increasing");
    }
  }
  return part;
}

/// HELLO frame payload: worker pid + protocol version.
struct HelloFrame {
  uint64_t pid = 0;
  uint32_t version = kVersion;
};
std::string EncodeHelloFrame(const HelloFrame& hello);
Result<HelloFrame> DecodeHelloFrame(std::string_view payload);

}  // namespace p3c::mr::wire

#endif  // P3C_MAPREDUCE_WIRE_H_
