#include "src/data/io.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/common/atomic_file.h"
#include "src/common/string_util.h"

namespace p3c::data {

namespace {

constexpr char kMagic[4] = {'P', '3', 'C', 'D'};
/// v1: magic + version + n + d. v2 appended a u64 FNV-1a payload
/// checksum; v3 has the same layout with a Hash64 checksum. Writers emit
/// v3; readers accept v1 and v3 and reject v2, whose checksum no reader
/// computes any more.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;
constexpr uint32_t kRetiredVersion = 2;
constexpr size_t kHeaderBytesV1 = sizeof(kMagic) + sizeof(uint32_t) +
                                  2 * sizeof(uint64_t);
constexpr size_t kHeaderBytesV3 = kHeaderBytesV1 + sizeof(uint64_t);

uint64_t LoadWord(const unsigned char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Bijective 64-bit finalizer (MurmurHash3's fmix64).
uint64_t Finalize(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

/// RAII FILE* wrapper.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() { return f_; }
  std::FILE* release() { return std::exchange(f_, nullptr); }

 private:
  std::FILE* f_;
};

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  const size_t n = dataset.num_points();
  const size_t d = dataset.num_dims();
  for (size_t i = 0; i < n; ++i) {
    const auto row = dataset.Row(static_cast<PointId>(i));
    for (size_t j = 0; j < d; ++j) {
      if (std::fprintf(writer.stream(), j + 1 < d ? "%.17g," : "%.17g\n",
                       row[j]) < 0) {
        return Status::IOError("write failed: " + path);
      }
    }
  }
  return writer.Commit();
}

Result<Dataset> ReadCsv(const std::string& path) {
  File f(path, "r");
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  Dataset out;
  std::string line;
  std::vector<double> row;
  int ch;
  size_t line_no = 0;
  while (true) {
    line.clear();
    while ((ch = std::fgetc(f.get())) != EOF && ch != '\n') {
      line.push_back(static_cast<char>(ch));
    }
    if (line.empty() && ch == EOF) break;
    ++line_no;
    if (StripWhitespace(line).empty()) {
      if (ch == EOF) break;
      continue;
    }
    row.clear();
    for (const std::string& field : Split(line, ',')) {
      char* end = nullptr;
      const std::string stripped(StripWhitespace(field));
      const double v = std::strtod(stripped.c_str(), &end);
      if (end == stripped.c_str() || *end != '\0') {
        return Status::IOError(StringPrintf(
            "%s:%zu: non-numeric field '%s'", path.c_str(), line_no,
            stripped.c_str()));
      }
      row.push_back(v);
    }
    Status st = out.AppendRow(row);
    if (!st.ok()) {
      return Status::IOError(StringPrintf("%s:%zu: %s", path.c_str(), line_no,
                                          st.message().c_str()));
    }
    if (ch == EOF) break;
  }
  return out;
}

void Hasher::Update(const void* data, size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  bytes_ += len;
  if (tail_len_ > 0) {
    const size_t take = std::min(len, sizeof(tail_) - tail_len_);
    std::memcpy(tail_ + tail_len_, p, take);
    tail_len_ += take;
    p += take;
    len -= take;
    if (tail_len_ < sizeof(tail_)) return;
    Absorb(LoadWord(tail_));
    tail_len_ = 0;
  }
  while (len >= 8 && next_lane_ != 0) {
    Absorb(LoadWord(p));
    p += 8;
    len -= 8;
  }
  // Four independent lanes in registers: the multiplies overlap, so the
  // loop runs at memory bandwidth.
  uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
  const size_t blocks = len / 32;
  for (size_t i = 0; i < blocks; ++i, p += 32) {
    a = Step(a, LoadWord(p));
    b = Step(b, LoadWord(p + 8));
    c = Step(c, LoadWord(p + 16));
    d = Step(d, LoadWord(p + 24));
  }
  lanes_[0] = a;
  lanes_[1] = b;
  lanes_[2] = c;
  lanes_[3] = d;
  len -= 32 * blocks;
  while (len >= 8) {
    Absorb(LoadWord(p));
    p += 8;
    len -= 8;
  }
  std::memcpy(tail_, p, len);
  tail_len_ = len;
}

uint64_t Hasher::Digest() const {
  Hasher last = *this;
  if (last.tail_len_ > 0) {
    std::memset(last.tail_ + last.tail_len_, 0,
                sizeof(last.tail_) - last.tail_len_);
    last.Absorb(LoadWord(last.tail_));
  }
  uint64_t h = Finalize(bytes_);
  for (uint64_t lane : last.lanes_) h = Finalize(h ^ lane);
  return h;
}

uint64_t Hash64(const void* data, size_t len) {
  Hasher hasher;
  hasher.Update(data, len);
  return hasher.Digest();
}

Result<BinaryHeader> ReadBinaryHeader(std::FILE* f, const std::string& path) {
  BinaryHeader header;
  char magic[4];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a P3CD container (bad magic): " + path);
  }
  if (std::fread(&header.version, sizeof(header.version), 1, f) != 1) {
    return Status::IOError("truncated header: " + path);
  }
  if (header.version == kRetiredVersion) {
    return Status::IOError(StringPrintf(
        "container version %u carries the retired FNV-1a payload checksum, "
        "which this build no longer verifies; regenerate the file (this "
        "build writes version %u): %s",
        header.version, kVersion, path.c_str()));
  }
  if (header.version < kMinVersion || header.version > kVersion) {
    return Status::IOError(StringPrintf(
        "unsupported container version %u (supported: %u..%u): %s",
        header.version, kMinVersion, kVersion, path.c_str()));
  }
  if (std::fread(&header.num_points, sizeof(header.num_points), 1, f) != 1 ||
      std::fread(&header.num_dims, sizeof(header.num_dims), 1, f) != 1) {
    return Status::IOError("truncated header: " + path);
  }
  header.header_bytes = kHeaderBytesV1;
  if (header.version == kVersion) {
    if (std::fread(&header.checksum, sizeof(header.checksum), 1, f) != 1) {
      return Status::IOError("truncated header (missing checksum): " + path);
    }
    header.header_bytes = kHeaderBytesV3;
  }
  if (header.num_dims == 0 && header.num_points > 0) {
    return Status::IOError("zero dimensionality: " + path);
  }
  return header;
}

Status WriteBinary(const Dataset& dataset, const std::string& path) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  const uint64_t n = dataset.num_points();
  const uint64_t d = dataset.num_dims();
  const auto& values = dataset.values();
  const uint64_t checksum =
      Hash64(values.data(), values.size() * sizeof(double));
  P3C_RETURN_NOT_OK(writer.Append(kMagic, sizeof(kMagic)));
  P3C_RETURN_NOT_OK(writer.Append(&kVersion, sizeof(kVersion)));
  P3C_RETURN_NOT_OK(writer.Append(&n, sizeof(n)));
  P3C_RETURN_NOT_OK(writer.Append(&d, sizeof(d)));
  P3C_RETURN_NOT_OK(writer.Append(&checksum, sizeof(checksum)));
  if (!values.empty()) {
    P3C_RETURN_NOT_OK(
        writer.Append(values.data(), values.size() * sizeof(double)));
  }
  return writer.Commit();
}

namespace {

/// Checks that `file_size` is exactly header + n*d doubles — catching
/// both truncated files and trailing garbage with a Status that names
/// the expected and found byte counts, and rejecting a header whose
/// payload size overflows 64 bits.
Status ValidateBinarySize(const BinaryHeader& header, uint64_t file_size,
                          const std::string& path) {
  // Checked arithmetic: a hostile header whose n * d * 8 wraps around
  // 2^64 must not alias a small file size and reach the allocations.
  uint64_t values = 0;
  uint64_t payload_bytes = 0;
  uint64_t expected = 0;
  if (__builtin_mul_overflow(header.num_points, header.num_dims, &values) ||
      __builtin_mul_overflow(values, uint64_t{sizeof(double)},
                             &payload_bytes) ||
      __builtin_add_overflow(static_cast<uint64_t>(header.header_bytes),
                             payload_bytes, &expected)) {
    return Status::IOError(StringPrintf(
        "%s: %llu points x %llu dims overflows the payload size; the "
        "header is corrupt",
        path.c_str(), static_cast<unsigned long long>(header.num_points),
        static_cast<unsigned long long>(header.num_dims)));
  }
  if (file_size == expected) return Status::OK();
  return Status::IOError(StringPrintf(
      "%s: %llu points x %llu dims implies %llu bytes, file has %llu "
      "(truncated or trailing garbage)",
      path.c_str(), static_cast<unsigned long long>(header.num_points),
      static_cast<unsigned long long>(header.num_dims),
      static_cast<unsigned long long>(expected),
      static_cast<unsigned long long>(file_size)));
}

/// Opens `path` for reading, reads its header and checks the file size
/// against it; leaves `f` at the first payload byte.
Result<BinaryHeader> OpenContainer(const std::string& path, File& f) {
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  Result<BinaryHeader> header = ReadBinaryHeader(f.get(), path);
  if (!header.ok()) return header.status();
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IOError("tell failed: " + path);
  P3C_RETURN_NOT_OK(ValidateBinarySize(
      *header, static_cast<uint64_t>(file_size), path));
  if (std::fseek(f.get(), static_cast<long>(header->header_bytes),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  return header;
}

/// OK for a version-1 file (no checksum) or a matching `computed`.
Status CheckPayloadChecksum(const BinaryHeader& header, uint64_t computed,
                            const std::string& path) {
  if (header.version != kVersion || computed == header.checksum) {
    return Status::OK();
  }
  return Status::IOError(StringPrintf(
      "%s: payload checksum mismatch (header %016llx, computed %016llx): "
      "file is corrupt",
      path.c_str(), static_cast<unsigned long long>(header.checksum),
      static_cast<unsigned long long>(computed)));
}

}  // namespace

Result<Dataset> ReadBinary(const std::string& path) {
  File f(path, "rb");
  Result<BinaryHeader> header = OpenContainer(path, f);
  if (!header.ok()) return header.status();
  const uint64_t n = header->num_points;
  const uint64_t d = header->num_dims;
  std::vector<double> values;
  ResizeOnHugePages(values, n * d);
  if (!values.empty() &&
      std::fread(values.data(), sizeof(double), values.size(), f.get()) !=
          values.size()) {
    return Status::IOError("truncated payload: " + path);
  }
  P3C_RETURN_NOT_OK(CheckPayloadChecksum(
      *header, Hash64(values.data(), values.size() * sizeof(double)), path));
  if (d == 0) return Dataset();
  return Dataset::FromRowMajor(std::move(values), d);
}

Result<BinaryDatasetReader> BinaryDatasetReader::Open(
    const std::string& path) {
  File f(path, "rb");
  Result<BinaryHeader> header = OpenContainer(path, f);
  if (!header.ok()) return header.status();
  const uint64_t n = header->num_points;
  const uint64_t d = header->num_dims;
  Hasher checksum;
  Hasher fingerprint;
  fingerprint.Update(&n, sizeof(n));
  fingerprint.Update(&d, sizeof(d));
  std::vector<unsigned char> chunk(kFingerprintChunkBytes);
  // ValidateBinarySize has ruled out overflow.
  for (uint64_t left = n * d * sizeof(double); left > 0;) {
    const size_t bytes = static_cast<size_t>(
        std::min<uint64_t>(left, chunk.size()));
    if (std::fread(chunk.data(), 1, bytes, f.get()) != bytes) {
      return Status::IOError("truncated payload: " + path);
    }
    checksum.Update(chunk.data(), bytes);
    const uint64_t chunk_hash = Hash64(chunk.data(), bytes);
    fingerprint.Update(&chunk_hash, sizeof(chunk_hash));
    left -= bytes;
  }
  P3C_RETURN_NOT_OK(CheckPayloadChecksum(*header, checksum.Digest(), path));
  return BinaryDatasetReader(path, *header, fingerprint.Digest(),
                             f.release());
}

Status BinaryDatasetReader::ReadRows(uint64_t begin, size_t count,
                                     double* out) const {
  if (begin > num_points() || count > num_points() - begin) {
    return Status::OutOfRange(StringPrintf(
        "%s: rows [%llu, %llu) lie past its %llu rows", path_.c_str(),
        static_cast<unsigned long long>(begin),
        static_cast<unsigned long long>(begin + count),
        static_cast<unsigned long long>(num_points())));
  }
  const size_t row_bytes = static_cast<size_t>(num_dims()) * sizeof(double);
  const size_t bytes = count * row_bytes;
  const auto offset =
      static_cast<off_t>(header_.header_bytes + begin * row_bytes);
  auto* dst = reinterpret_cast<char*>(out);
  for (size_t done = 0; done < bytes;) {
    const ssize_t got =
        ::pread(fileno(file_.get()), dst + done, bytes - done,
                offset + static_cast<off_t>(done));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return Status::IOError(StringPrintf("%s: read failed: %s",
                                          path_.c_str(),
                                          std::strerror(errno)));
    }
    if (got == 0) {
      return Status::IOError(StringPrintf(
          "%s: truncated payload: rows [%llu, %llu) end past the end of "
          "the file",
          path_.c_str(), static_cast<unsigned long long>(begin),
          static_cast<unsigned long long>(begin + count)));
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

namespace {

constexpr char kBlobMagic[4] = {'P', '3', 'C', 'K'};
/// v1 sealed the payload with FNV-1a; v2 with Hash64.
constexpr uint32_t kBlobVersion = 2;
constexpr size_t kBlobHeaderBytes = sizeof(kBlobMagic) + 2 * sizeof(uint32_t) +
                                    2 * sizeof(uint64_t);

}  // namespace

Status WriteBlobFile(const std::string& path, uint32_t kind,
                     const std::string& payload) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  const uint64_t size = payload.size();
  const uint64_t checksum = Hash64(payload.data(), payload.size());
  P3C_RETURN_NOT_OK(writer.Append(kBlobMagic, sizeof(kBlobMagic)));
  P3C_RETURN_NOT_OK(writer.Append(&kBlobVersion, sizeof(kBlobVersion)));
  P3C_RETURN_NOT_OK(writer.Append(&kind, sizeof(kind)));
  P3C_RETURN_NOT_OK(writer.Append(&size, sizeof(size)));
  P3C_RETURN_NOT_OK(writer.Append(&checksum, sizeof(checksum)));
  P3C_RETURN_NOT_OK(writer.Append(payload));
  return writer.Commit();
}

Result<std::string> ReadBlobFile(const std::string& path,
                                 uint32_t expected_kind) {
  File f(path, "rb");
  if (!f.ok()) {
    return Status::IOError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  char magic[4];
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kBlobMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a P3CK blob (bad magic): " + path);
  }
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
      std::fread(&kind, sizeof(kind), 1, f.get()) != 1 ||
      std::fread(&size, sizeof(size), 1, f.get()) != 1 ||
      std::fread(&checksum, sizeof(checksum), 1, f.get()) != 1) {
    return Status::IOError("truncated blob header: " + path);
  }
  if (version != kBlobVersion) {
    return Status::IOError(StringPrintf(
        "unsupported blob container version %u (expected %u): %s", version,
        kBlobVersion, path.c_str()));
  }
  if (kind != expected_kind) {
    return Status::IOError(StringPrintf(
        "blob kind mismatch (found %u, expected %u): %s", kind, expected_kind,
        path.c_str()));
  }
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IOError("tell failed: " + path);
  if (static_cast<uint64_t>(file_size) != kBlobHeaderBytes + size) {
    return Status::IOError(StringPrintf(
        "%s: blob declares %llu payload bytes, file has %llu after the "
        "header (truncated or trailing garbage)",
        path.c_str(), static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(
            static_cast<uint64_t>(file_size) -
            std::min<uint64_t>(static_cast<uint64_t>(file_size),
                               kBlobHeaderBytes))));
  }
  if (std::fseek(f.get(), static_cast<long>(kBlobHeaderBytes), SEEK_SET) !=
      0) {
    return Status::IOError("seek failed: " + path);
  }
  std::string payload(size, '\0');
  if (size > 0 &&
      std::fread(payload.data(), 1, payload.size(), f.get()) !=
          payload.size()) {
    return Status::IOError("truncated blob payload: " + path);
  }
  const uint64_t computed = Hash64(payload.data(), payload.size());
  if (computed != checksum) {
    return Status::IOError(StringPrintf(
        "%s: blob payload checksum mismatch (header %016llx, computed "
        "%016llx): file is corrupt",
        path.c_str(), static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(computed)));
  }
  return payload;
}

}  // namespace p3c::data
