#include "src/data/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/data/colon.h"

namespace p3c::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset SampleData() {
  return Dataset::FromRowMajor({0.25, 0.5, 0.125, 1.0, 0.0, 1e-17}, 3)
      .value();
}

TEST(CsvIoTest, RoundTrip) {
  const std::string path = TempPath("round.csv");
  const Dataset original = SampleData();
  ASSERT_TRUE(WriteCsv(original, path).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_points(), 2u);
  EXPECT_EQ(loaded->num_dims(), 3u);
  EXPECT_EQ(loaded->values(), original.values());  // %.17g round-trips
  std::remove(path.c_str());
}

TEST(CsvIoTest, MissingFileFails) {
  Result<Dataset> loaded = ReadCsv(TempPath("does-not-exist.csv"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CsvIoTest, NonNumericFieldFails) {
  const std::string path = TempPath("bad.csv");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1.0,banana\n", f);
  std::fclose(f);
  Result<Dataset> loaded = ReadCsv(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvIoTest, RaggedRowsFail) {
  const std::string path = TempPath("ragged.csv");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1,2,3\n1,2\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTrip) {
  const std::string path = TempPath("round.p3cd");
  const Dataset original = SampleData();
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->values(), original.values());
  EXPECT_EQ(loaded->num_dims(), 3u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WritesVersion3SealedByHash64) {
  const std::string path = TempPath("v3.p3cd");
  const Dataset original = SampleData();
  ASSERT_TRUE(WriteBinary(original, path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Result<BinaryHeader> header = ReadBinaryHeader(f, path);
  std::fclose(f);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->version, 3u);
  EXPECT_EQ(header->header_bytes, 32u);
  const auto& values = original.values();
  EXPECT_EQ(header->checksum,
            Hash64(values.data(), values.size() * sizeof(double)));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsBadMagic) {
  const std::string path = TempPath("bad.p3cd");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOPE and more bytes to skip the magic check", f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncatedPayload) {
  const std::string path = TempPath("trunc.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  // Truncate the file.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
#ifdef _WIN32
  _chsize(fileno(f), 30);
#else
  ASSERT_EQ(ftruncate(fileno(f), 30), 0);
#endif
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsFlippedPayloadByte) {
  const std::string path = TempPath("corrupt.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  // Flip one byte in the middle of the payload: the size still matches,
  // so only the checksum can catch it.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  std::fputc(byte ^ 0x5a, f);
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTrailingGarbage) {
  const std::string path = TempPath("padded.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("extra", f);
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing garbage"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadsVersion1Container) {
  // Hand-write a v1 file (no checksum field): readers must stay
  // backward compatible.
  const std::string path = TempPath("v1.p3cd");
  const Dataset original = SampleData();
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'P', '3', 'C', 'D'};
  const uint32_t version = 1;
  const uint64_t n = original.num_points();
  const uint64_t d = original.num_dims();
  ASSERT_EQ(std::fwrite(magic, 1, sizeof(magic), f), sizeof(magic));
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&d, sizeof(d), 1, f), 1u);
  const auto& values = original.values();
  ASSERT_EQ(std::fwrite(values.data(), sizeof(double), values.size(), f),
            values.size());
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->values(), original.values());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsUnsupportedVersion) {
  const std::string path = TempPath("future.p3cd");
  ASSERT_TRUE(WriteBinary(SampleData(), path).ok());
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint32_t version = 99;
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);  // right after the magic
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  std::fclose(f);
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported container version"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ColonLikeTest, ShapeAndClasses) {
  const ColonLikeData data = MakeColonLikeDataset();
  EXPECT_EQ(data.dataset.num_points(), 62u);
  EXPECT_EQ(data.dataset.num_dims(), 2000u);
  EXPECT_TRUE(data.dataset.IsNormalized());
  size_t tumor = 0;
  for (int label : data.labels) tumor += label == 1 ? 1 : 0;
  EXPECT_EQ(tumor, 40u);
  EXPECT_EQ(data.informative_genes.size(), 12u);
}

TEST(ColonLikeTest, InformativeGenesSeparateClasses) {
  const ColonLikeData data = MakeColonLikeDataset();
  // On an informative gene, class means should differ clearly more often
  // than not (label noise keeps it from being universal).
  size_t separated = 0;
  for (size_t g : data.informative_genes) {
    double mean_tumor = 0.0;
    double mean_normal = 0.0;
    size_t n_tumor = 0;
    size_t n_normal = 0;
    for (size_t i = 0; i < data.labels.size(); ++i) {
      const double v = data.dataset.Get(static_cast<PointId>(i), g);
      if (data.labels[i] == 1) {
        mean_tumor += v;
        ++n_tumor;
      } else {
        mean_normal += v;
        ++n_normal;
      }
    }
    mean_tumor /= static_cast<double>(n_tumor);
    mean_normal /= static_cast<double>(n_normal);
    if (std::abs(mean_tumor - mean_normal) > 0.2) ++separated;
  }
  EXPECT_GT(separated, data.informative_genes.size() / 2);
}

TEST(ColonLikeTest, DeterministicInSeed) {
  const ColonLikeData a = MakeColonLikeDataset();
  const ColonLikeData b = MakeColonLikeDataset();
  EXPECT_EQ(a.dataset.values(), b.dataset.values());
  EXPECT_EQ(a.labels, b.labels);
}

/// Writes a bare 32-byte header (no payload) claiming n points x d dims.
void WriteHeaderOnly(const std::string& path, uint64_t n, uint64_t d,
                     uint32_t version = 3) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'P', '3', 'C', 'D'};
  const uint64_t checksum = 0;
  ASSERT_EQ(std::fwrite(magic, 1, sizeof(magic), f), sizeof(magic));
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&d, sizeof(d), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&checksum, sizeof(checksum), 1, f), 1u);
  std::fclose(f);
}

// n * d * 8 = 2^64 wraps to 0, so an unchecked size check sees exactly
// the 32-byte header it expects and lets the allocation through.
constexpr uint64_t kWrappingCount = uint64_t{1} << 61;

void ExpectOverflowRejected(const Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("overflows"), std::string::npos)
      << status.ToString();
}

TEST(BinaryIoTest, ReadBinaryRejectsOverflowingPointCount) {
  const std::string path = TempPath("overflow_n.p3cd");
  WriteHeaderOnly(path, kWrappingCount, 1);
  ExpectOverflowRejected(ReadBinary(path).status());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadBinaryRejectsOverflowingDimCount) {
  const std::string path = TempPath("overflow_d.p3cd");
  WriteHeaderOnly(path, 1, kWrappingCount);
  ExpectOverflowRejected(ReadBinary(path).status());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReaderOpenRejectsOverflowingPointCount) {
  const std::string path = TempPath("open_overflow_n.p3cd");
  WriteHeaderOnly(path, kWrappingCount, 1);
  ExpectOverflowRejected(BinaryDatasetReader::Open(path).status());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReaderOpenRejectsOverflowingDimCount) {
  const std::string path = TempPath("open_overflow_d.p3cd");
  WriteHeaderOnly(path, 1, kWrappingCount);
  ExpectOverflowRejected(BinaryDatasetReader::Open(path).status());
  std::remove(path.c_str());
}

// A v2 file's checksum is FNV-1a, which no reader computes any more.
// The header claims 2^40 doubles that are not there: the rejection must
// come from the version alone, before anything is sized by the header.
void ExpectRetiredVersionRejected(const Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("version 2"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("retired FNV-1a"), std::string::npos)
      << status.ToString();
}

TEST(BinaryIoTest, ReadBinaryRejectsRetiredVersion2) {
  const std::string path = TempPath("retired_v2.p3cd");
  WriteHeaderOnly(path, uint64_t{1} << 40, 1, /*version=*/2);
  ExpectRetiredVersionRejected(ReadBinary(path).status());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReaderOpenRejectsRetiredVersion2) {
  const std::string path = TempPath("open_retired_v2.p3cd");
  WriteHeaderOnly(path, uint64_t{1} << 40, 1, /*version=*/2);
  ExpectRetiredVersionRejected(
      BinaryDatasetReader::Open(path).status());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p3c::data
