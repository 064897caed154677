// Tests of data::Hasher / data::Hash64, the word-wise checksum behind
// the P3CD container, P3CK blobs, worker frames and the dataset
// fingerprint: pinned digests, agreement with a plain transcription of
// the algorithm, independence from how the stream is split and aligned,
// and detection of every single-bit flip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "src/data/io.h"

namespace p3c::data {
namespace {

std::vector<unsigned char> Pattern(size_t len) {
  std::vector<unsigned char> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<unsigned char>((i * 131 + 17) & 0xff);
  }
  return bytes;
}

uint64_t HashOf(const std::vector<unsigned char>& bytes) {
  return Hash64(bytes.data(), bytes.size());
}

uint64_t Fmix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

/// The algorithm as specified, one byte-assembled word at a time.
uint64_t Transcription(const std::vector<unsigned char>& bytes) {
  uint64_t lanes[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                       0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  const size_t words = (bytes.size() + 7) / 8;
  for (size_t i = 0; i < words; ++i) {
    uint64_t w = 0;
    for (size_t b = 0; b < 8 && 8 * i + b < bytes.size(); ++b) {
      w |= uint64_t{bytes[8 * i + b]} << (8 * b);
    }
    uint64_t& s = lanes[i % 4];
    s = (s ^ w) * 0x9fb21c651e98df25ull;
    s ^= s >> 29;
  }
  uint64_t h = Fmix64(bytes.size());
  for (uint64_t lane : lanes) h = Fmix64(h ^ lane);
  return h;
}

TEST(HashTest, KnownAnswers) {
  const std::pair<size_t, uint64_t> pinned[] = {
      {0, 0xaa80f7466ca3941full},
      {1, 0xe9d08f501b56ab80ull},
      {7, 0x5e30cc2c7781e489ull},
      {8, 0x59d607644200af97ull},
      {31, 0x53fafb655c30cf84ull},
      {32, 0x94f9b3a73d5289acull},
      {33, 0x54605aafb6f2a7f7ull},
      {1 << 20, 0x71319b35f085cecaull},
  };
  for (const auto& [len, digest] : pinned) {
    EXPECT_EQ(HashOf(Pattern(len)), digest) << len << " bytes";
  }
}

TEST(HashTest, MatchesTranscriptionOfTheAlgorithm) {
  std::mt19937_64 rng(7);
  for (size_t len = 0; len <= 300; ++len) {
    std::vector<unsigned char> bytes(len);
    for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
    EXPECT_EQ(HashOf(bytes), Transcription(bytes)) << len << " bytes";
  }
}

TEST(HashTest, EverySplitOf257BytesGivesTheSameDigest) {
  const std::vector<unsigned char> bytes = Pattern(257);
  const uint64_t whole = HashOf(bytes);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    Hasher hasher;
    hasher.Update(bytes.data(), cut);
    (void)hasher.Digest();  // a peek must not disturb the stream
    hasher.Update(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(hasher.Digest(), whole) << "split at " << cut;
  }
}

TEST(HashTest, RandomSplitsOfOneMiBGiveTheSameDigest) {
  const std::vector<unsigned char> bytes = Pattern(1 << 20);
  const uint64_t whole = HashOf(bytes);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Hasher hasher;
    size_t at = 0;
    while (at < bytes.size()) {
      // Mostly short pieces, so partial words carry across many calls.
      const size_t piece = std::min<size_t>(
          bytes.size() - at, trial % 2 == 0 ? rng() % 64 : rng() % 100000);
      hasher.Update(bytes.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(hasher.Digest(), whole) << "trial " << trial;
  }
}

TEST(HashTest, UnalignedStartGivesTheSameDigest) {
  const std::vector<unsigned char> bytes = Pattern(1000);
  const uint64_t aligned = HashOf(bytes);
  for (size_t offset = 1; offset < 8; ++offset) {
    std::vector<unsigned char> shifted(offset + bytes.size());
    std::copy(bytes.begin(), bytes.end(), shifted.begin() + offset);
    EXPECT_EQ(Hash64(shifted.data() + offset, bytes.size()), aligned)
        << "offset " << offset;
  }
}

TEST(HashTest, EverySingleBitFlipOver4KiBChangesTheDigest) {
  std::vector<unsigned char> bytes = Pattern(4096);
  const uint64_t clean = HashOf(bytes);
  size_t undetected = 0;
  for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    if (HashOf(bytes) == clean) ++undetected;
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(undetected, 0u);
}

TEST(HashTest, AppendingAZeroByteChangesTheDigest) {
  for (size_t len : {0u, 1u, 7u, 8u, 31u, 32u, 4096u}) {
    std::vector<unsigned char> bytes = Pattern(len);
    const uint64_t before = HashOf(bytes);
    bytes.push_back(0);
    EXPECT_NE(HashOf(bytes), before) << len << " bytes";
  }
}

}  // namespace
}  // namespace p3c::data
