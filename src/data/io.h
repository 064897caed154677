#ifndef P3C_DATA_IO_H_
#define P3C_DATA_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace p3c::data {

/// Writes the dataset as headerless CSV, one point per line, full double
/// precision (%.17g round-trips).
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a headerless numeric CSV; every line must have the same number
/// of fields. Empty files yield an empty dataset.
Result<Dataset> ReadCsv(const std::string& path);

/// Writes the dataset in the library's binary container (version 3):
/// magic "P3CD", u32 version, u64 n, u64 d, u64 Hash64 checksum of the
/// payload, then n*d little-endian doubles. Compact and fast for the
/// large benchmark inputs; the checksum lets readers reject silent
/// corruption and the exact size implied by (n, d) lets them reject
/// truncation.
Status WriteBinary(const Dataset& dataset, const std::string& path);

/// Reads the binary container written by WriteBinary, validating magic,
/// version, exact payload size, and (version 3) the payload checksum.
/// Version-1 files (no checksum field) are still readable; version-2
/// files carry the retired FNV-1a checksum and are rejected with a
/// Status asking for the file to be regenerated.
Result<Dataset> ReadBinary(const std::string& path);

/// Streaming 64-bit checksum of a byte stream, word-wise so a 400 MB
/// dataset hashes at memory speed. Little-endian 8-byte word i updates
/// lane i mod 4 as `s = (s ^ w) * K; s ^= s >> 29`; a final partial
/// word is zero-padded. The digest folds the total byte length, then
/// each lane, through a bijective finalizer. Every step is a bijection
/// of the word, so a change confined to one word always changes the
/// digest, and the digest does not depend on how the stream was split
/// into Update calls. Not cryptographic: it detects corruption, not
/// tampering.
class Hasher {
 public:
  void Update(const void* data, size_t len);
  [[nodiscard]] uint64_t Digest() const;

 private:
  void Absorb(uint64_t word) {
    lanes_[next_lane_] = Step(lanes_[next_lane_], word);
    next_lane_ = (next_lane_ + 1) % 4;
  }
  static uint64_t Step(uint64_t lane, uint64_t word) {
    lane = (lane ^ word) * 0x9fb21c651e98df25ull;
    return lane ^ (lane >> 29);
  }

  uint64_t lanes_[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                        0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  size_t next_lane_ = 0;  ///< lane of the next full word
  uint64_t bytes_ = 0;    ///< total bytes seen
  unsigned char tail_[8] = {};
  size_t tail_len_ = 0;  ///< bytes of a partial word held in tail_
};

/// One-shot Hasher over `len` bytes.
uint64_t Hash64(const void* data, size_t len);

/// Chunk size of the dataset fingerprint (mr::DatasetFingerprint): a
/// Hasher over u64 n, u64 d, then the Hash64 of each chunk of the
/// row-major payload in order (the last chunk may be short). Chunks
/// hash independently, so a loaded Dataset's can be hashed in parallel
/// and the digest never depends on how many threads did it.
inline constexpr size_t kFingerprintChunkBytes = size_t{1} << 20;

/// Parsed header of the binary container. `header_bytes` is the payload
/// offset (24 for v1, 32 for v3); `checksum` is 0 for v1 files.
struct BinaryHeader {
  uint32_t version = 0;
  uint64_t num_points = 0;
  uint64_t num_dims = 0;
  uint64_t checksum = 0;
  size_t header_bytes = 0;
};

/// Reads and validates the container header from `f` (positioned at the
/// file start). Returns a descriptive Status naming `path` on bad magic,
/// unsupported or retired version, truncated header, or zero
/// dimensionality.
Result<BinaryHeader> ReadBinaryHeader(std::FILE* f, const std::string& path);

/// Row reader over the binary container written by WriteBinary, for
/// data sets larger than memory (the paper's largest input is 0.2 TB).
/// It keeps the file open and reads rows on demand with positioned
/// reads, so any number of threads, and forked worker processes, may
/// read it at once. ReadRows is virtual so that a test can observe which
/// rows a job reads.
class BinaryDatasetReader {
 public:
  virtual ~BinaryDatasetReader() = default;
  BinaryDatasetReader(BinaryDatasetReader&&) = default;
  BinaryDatasetReader& operator=(BinaryDatasetReader&&) = default;

  /// Validates the header and that the file holds exactly the payload
  /// the header promises, then reads the payload once in 1 MiB chunks:
  /// a version-3 file whose checksum does not match is rejected here,
  /// and the same pass computes fingerprint(). Every failure is an
  /// IOError naming `path`.
  static Result<BinaryDatasetReader> Open(const std::string& path);

  [[nodiscard]] uint64_t num_points() const { return header_.num_points; }
  [[nodiscard]] uint64_t num_dims() const { return header_.num_dims; }

  /// data::Hasher over u64 n, u64 d and the Hash64 of each
  /// kFingerprintChunkBytes payload chunk, as read by Open:
  /// mr::DatasetFingerprint of the loaded Dataset.
  [[nodiscard]] uint64_t fingerprint() const { return fingerprint_; }

  /// Reads rows [begin, begin + count) into `out` (count * num_dims()
  /// doubles). A file that ends before the last of them (it shrank after
  /// Open) gives an IOError saying "truncated"; rows past num_points()
  /// give OutOfRange.
  virtual Status ReadRows(uint64_t begin, size_t count, double* out) const;

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  BinaryDatasetReader(std::string path, BinaryHeader header,
                      uint64_t fingerprint, std::FILE* file)
      : path_(std::move(path)),
        header_(header),
        fingerprint_(fingerprint),
        file_(file) {}

  std::string path_;
  BinaryHeader header_;
  uint64_t fingerprint_ = 0;
  /// Read only through its descriptor.
  std::unique_ptr<std::FILE, Closer> file_;
};

/// The rows a job reads, selected by the kind of input: an in-memory
/// Dataset, read in place, or a container read through a
/// BinaryDatasetReader. Implicit from either, so a call written for a
/// Dataset takes a file unchanged. It points at the dataset or reader,
/// which must outlive it.
class RowInput {
 public:
  RowInput(const Dataset& dataset)  // NOLINT(google-explicit-constructor)
      : dataset_(&dataset),
        num_points_(dataset.num_points()),
        num_dims_(dataset.num_dims()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  RowInput(const BinaryDatasetReader& file)
      : file_(&file),
        num_points_(static_cast<size_t>(file.num_points())),
        num_dims_(static_cast<size_t>(file.num_dims())) {}

  [[nodiscard]] size_t num_points() const { return num_points_; }
  [[nodiscard]] size_t num_dims() const { return num_dims_; }
  /// The in-memory dataset, or null for a file.
  [[nodiscard]] const Dataset* dataset() const { return dataset_; }
  /// The file's reader, or null for a dataset.
  [[nodiscard]] const BinaryDatasetReader* file() const { return file_; }

 private:
  const Dataset* dataset_ = nullptr;
  const BinaryDatasetReader* file_ = nullptr;
  size_t num_points_;
  size_t num_dims_;
};

/// Generic checksummed blob container, the checkpoint sibling of the
/// dataset container above: magic "P3CK", u32 container version, u32
/// caller-chosen kind tag, u64 payload size, u64 Hash64 checksum of the
/// payload, then the payload bytes. The size field rejects truncation
/// and trailing garbage, the checksum rejects bit flips, and the kind
/// tag rejects a structurally valid blob of the wrong species (a phase
/// state file where a manifest was expected). Written via the atomic
/// temp+fsync+rename writer, so a crash mid-write can never leave a
/// half blob under `path`.
Status WriteBlobFile(const std::string& path, uint32_t kind,
                     const std::string& payload);

/// Reads a blob written by WriteBlobFile, validating magic, container
/// version, kind tag, exact size, and payload checksum. Every failure
/// names `path` and the specific violated invariant.
Result<std::string> ReadBlobFile(const std::string& path,
                                 uint32_t expected_kind);

}  // namespace p3c::data

#endif  // P3C_DATA_IO_H_
