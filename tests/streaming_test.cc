// Tests of the out-of-core streaming Light pipeline: block reader
// mechanics and exact agreement with the in-memory Light pipeline.

#include "src/core/streaming.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "src/core/p3c.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"
#include "src/data/io.h"

namespace p3c::core {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

data::SyntheticData MakeData(uint64_t seed, size_t n = 6000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 30;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

TEST(BinaryDatasetReaderTest, HeaderAndBlocks) {
  const auto data = MakeData(51, 1000);
  const std::string path = TempPath("reader.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());

  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_points(), 1000u);
  EXPECT_EQ(reader->num_dims(), 30u);

  // Blocks partition the rows exactly, in order, with correct content.
  size_t blocks = 0;
  uint64_t rows = 0;
  Status st = reader->ForEachBlock(
      128, [&](data::PointId first, const data::Dataset& block) {
        EXPECT_EQ(first, rows);
        ++blocks;
        for (size_t i = 0; i < block.num_points(); ++i) {
          for (size_t j = 0; j < 3; ++j) {  // spot-check a few columns
            EXPECT_DOUBLE_EQ(
                block.Get(static_cast<data::PointId>(i), j),
                data.dataset.Get(static_cast<data::PointId>(rows + i), j));
          }
        }
        rows += block.num_points();
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(rows, 1000u);
  EXPECT_EQ(blocks, 8u);  // ceil(1000 / 128)
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, CallbackErrorStopsPass) {
  const auto data = MakeData(52, 500);
  const std::string path = TempPath("reader_err.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  int calls = 0;
  Status st = reader->ForEachBlock(
      100, [&](data::PointId, const data::Dataset&) {
        ++calls;
        return Status::Internal("stop");
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(calls, 1);
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, RejectsGarbage) {
  const std::string path = TempPath("garbage.p3cd");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage bytes, definitely not a P3CD header", f);
  std::fclose(f);
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, OpenRejectsTruncatedFile) {
  const auto data = MakeData(56, 300);
  const std::string path = TempPath("reader_trunc.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 8), 0);  // drop one double
  std::fclose(f);
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
      << reader.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, FullPassDetectsFlippedPayloadByte) {
  const auto data = MakeData(57, 400);
  const std::string path = TempPath("reader_flip.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());
  // Flip one bit in the payload mantissa; the size is unchanged, so
  // only the streaming checksum can catch it.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  std::fputc(byte ^ 0x01, f);
  std::fclose(f);

  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();  // size still valid
  Status st = reader->ForEachBlock(
      128, [](data::PointId, const data::Dataset&) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, VerifiesChecksumAtEveryBlockSize) {
  // The running checksum sees the payload in blocks of any row count;
  // the digest must not depend on where the blocks split it.
  const size_t n = 300;
  const auto data = MakeData(58, n);
  const std::string clean = TempPath("reader_blocks.p3cd");
  const std::string flipped = TempPath("reader_blocks_flip.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, clean).ok());
  ASSERT_TRUE(data::WriteBinary(data.dataset, flipped).ok());
  std::FILE* f = std::fopen(flipped.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 1000, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 1000, SEEK_SET), 0);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);
  for (size_t block_rows : {size_t{1}, size_t{7}, n}) {
    SCOPED_TRACE("block_rows " + std::to_string(block_rows));
    const auto ok = [](data::PointId, const data::Dataset&) {
      return Status::OK();
    };
    auto reader = BinaryDatasetReader::Open(clean);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_TRUE(reader->ForEachBlock(block_rows, ok).ok());
    auto corrupt = BinaryDatasetReader::Open(flipped);
    ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();
    const Status st = corrupt->ForEachBlock(block_rows, ok);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
        << st.ToString();
  }
  std::remove(clean.c_str());
  std::remove(flipped.c_str());
}

TEST(BinaryDatasetReaderTest, AbortedPassSkipsChecksumVerification) {
  // A callback abort leaves the tail unread, so the pass must report
  // the callback's error, not a bogus checksum failure.
  const auto data = MakeData(58, 400);
  const std::string path = TempPath("reader_abort.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Status st = reader->ForEachBlock(
      100, [](data::PointId, const data::Dataset&) {
        return Status::Internal("abort early");
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST(StreamingLightTest, MatchesInMemoryLightPipeline) {
  const auto data = MakeData(53);
  const std::string path = TempPath("stream.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());

  core::P3CParams params = LightParams();
  params.multilevel_candidates = false;
  P3CPipeline in_memory{params, /*num_threads=*/1};
  auto mem = in_memory.Cluster(data.dataset);
  ASSERT_TRUE(mem.ok());

  StreamingLightPipeline streaming{params, /*block_rows=*/500};
  auto out = streaming.Cluster(path);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // In-memory unique-member counts for cross-checking.
  std::vector<Signature> signatures;
  for (const auto& core : mem->cores) signatures.push_back(core.signature);
  const auto unique =
      UniqueAssignments(data.dataset, signatures, nullptr);
  std::vector<uint64_t> unique_counts(signatures.size(), 0);
  for (int32_t u : unique) {
    if (u >= 0) ++unique_counts[static_cast<size_t>(u)];
  }

  ASSERT_EQ(out->clusters.size(), mem->clusters.size());
  for (size_t c = 0; c < out->clusters.size(); ++c) {
    EXPECT_EQ(out->clusters[c].core, mem->cores[c].signature);
    EXPECT_EQ(out->clusters[c].support, mem->cores[c].support);
    EXPECT_EQ(out->clusters[c].unique_members, unique_counts[c]);
    EXPECT_EQ(out->clusters[c].attrs, mem->clusters[c].attrs);
    ASSERT_EQ(out->clusters[c].intervals.size(),
              mem->clusters[c].intervals.size());
    for (size_t j = 0; j < out->clusters[c].intervals.size(); ++j) {
      EXPECT_DOUBLE_EQ(out->clusters[c].intervals[j].lower,
                       mem->clusters[c].intervals[j].lower);
      EXPECT_DOUBLE_EQ(out->clusters[c].intervals[j].upper,
                       mem->clusters[c].intervals[j].upper);
    }
    // Reported support = full support-set size = the in-memory cluster's
    // reported point count.
    EXPECT_EQ(out->clusters[c].support, mem->clusters[c].points.size());
  }
  EXPECT_GE(out->passes, 4u);
  std::remove(path.c_str());
}

TEST(StreamingLightTest, BlockSizeDoesNotChangeResult) {
  const auto data = MakeData(54, 3000);
  const std::string path = TempPath("stream_blocks.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());
  core::P3CParams params = LightParams();

  StreamingLightPipeline tiny{params, /*block_rows=*/64};
  StreamingLightPipeline huge{params, /*block_rows=*/1 << 20};
  auto a = tiny.Cluster(path);
  auto b = huge.Cluster(path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->clusters.size(), b->clusters.size());
  for (size_t c = 0; c < a->clusters.size(); ++c) {
    EXPECT_EQ(a->clusters[c].core, b->clusters[c].core);
    EXPECT_EQ(a->clusters[c].support, b->clusters[c].support);
    EXPECT_EQ(a->clusters[c].unique_members, b->clusters[c].unique_members);
    EXPECT_EQ(a->clusters[c].attrs, b->clusters[c].attrs);
  }
  std::remove(path.c_str());
}

TEST(StreamingLightTest, AssignmentFileMatchesMembership) {
  const auto data = MakeData(55, 2000);
  const std::string path = TempPath("stream_assign.p3cd");
  const std::string assign = TempPath("stream_assign.csv");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());

  StreamingLightPipeline streaming{LightParams(), 256};
  auto out = streaming.ClusterAndAssign(path, assign);
  ASSERT_TRUE(out.ok());

  // Parse the file and cross-check counts.
  std::FILE* f = std::fopen(assign.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);  // header
  std::vector<uint64_t> unique_counts(out->clusters.size(), 0);
  uint64_t rows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long point = 0;
    int cluster = 0;
    ASSERT_EQ(std::sscanf(line, "%llu,%d", &point, &cluster), 2);
    EXPECT_EQ(point, rows);
    if (cluster >= 0) ++unique_counts[static_cast<size_t>(cluster)];
    ++rows;
  }
  std::fclose(f);
  EXPECT_EQ(rows, 2000u);
  for (size_t c = 0; c < out->clusters.size(); ++c) {
    EXPECT_EQ(unique_counts[c], out->clusters[c].unique_members);
  }
  std::remove(path.c_str());
  std::remove(assign.c_str());
}

TEST(StreamingLightTest, MissingFile) {
  StreamingLightPipeline streaming;
  EXPECT_FALSE(streaming.Cluster(TempPath("nope.p3cd")).ok());
}

// Regression: a support-counting scan that fails mid-run (file
// truncated between passes) must surface as an error, not be silently
// treated as zero support. Before the fix, the counter swallowed the
// scan Status and the pipeline reported a clean "no clusters" result
// from a corrupt file.
TEST(StreamingLightTest, MidRunTruncationIsAnErrorNotEmptyResult) {
  const auto data = MakeData(57);
  const std::string path = TempPath("midrun_truncate.p3cd");
  ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());

  StreamingLightPipeline streaming{LightParams(), /*block_rows=*/500};
  bool truncated = false;
  streaming.set_before_support_scan_hook_for_test([&] {
    if (truncated) return;
    truncated = true;
    // Drop the payload tail after the (successful) histogram pass:
    // every subsequent scan hits a short read.
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, 4096);
    ASSERT_EQ(ftruncate(fileno(f), size - 4096), 0);
    std::fclose(f);
  });

  auto out = streaming.Cluster(path);
  ASSERT_TRUE(truncated) << "support scan hook never ran";
  ASSERT_FALSE(out.ok())
      << "mid-run truncation produced a clean result instead of an error";
  EXPECT_EQ(out.status().code(), StatusCode::kIOError)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("truncated"), std::string::npos)
      << out.status().ToString();
  std::remove(path.c_str());
}

TEST(StreamingLightTest, HistogramPassRejectsValuesOutsideUnitRange) {
  const std::string path = TempPath("streaming_range.p3cd");
  for (double value : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -1e-300,
                       1.0 + 0x1.0p-52, -0.0, 1.0}) {
    data::Dataset dataset = MakeData(53, 2000).dataset;
    dataset.Set(1500, 7, value);
    ASSERT_TRUE(data::WriteBinary(dataset, path).ok());
    StreamingLightPipeline pipeline{StreamingLightParams(), 256};
    const auto result = pipeline.Cluster(path);
    if (value >= 0.0 && value <= 1.0) {
      EXPECT_TRUE(result.ok()) << value << ": " << result.status().ToString();
    } else {
      ASSERT_FALSE(result.ok()) << value;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << value;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p3c::core
