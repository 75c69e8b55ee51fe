#include "util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "util/prng.h"

namespace msa::util {
namespace {

/// Bitwise CRC-32 (reflected 0xEDB88320), one byte at a time: the
/// reference the table-driven update must match.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(Prng& prng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(prng());
  return out;
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths around the 8-byte slicing step, at every start offset mod 8.
  Prng prng{0xC4C32u};
  const std::vector<std::uint8_t> buf = random_bytes(prng, 300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> s{buf.data() + offset, len};
      ASSERT_EQ(crc32(s), bytewise_crc32(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, RandomChunkingOfOneMebibyteMatchesBytewise) {
  Prng prng{0x1A11Bu};
  const std::vector<std::uint8_t> buf = random_bytes(prng, std::size_t{1} << 20);
  const std::uint32_t want = bytewise_crc32(buf);
  EXPECT_EQ(crc32(buf), want);
  Crc32 chunked;
  for (std::size_t pos = 0; pos < buf.size();) {
    const std::size_t n = std::min<std::size_t>(prng.between(0, 5000),
                                                 buf.size() - pos);
    chunked.update(std::span{buf.data() + pos, n});
    pos += n;
  }
  EXPECT_EQ(chunked.value(), want);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(crc32(""), 0x00000000u); }

TEST(Crc32, SingleByte) {
  // crc32("a") is a standard known value.
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  for (const char c : data) {
    inc.update(std::string_view{&c, 1});
  }
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, ChunkBoundaryInvariance) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  const std::uint32_t whole = crc32(data);
  for (const std::size_t split : {1UL, 7UL, 500UL, 999UL}) {
    Crc32 c;
    c.update(std::span{data.data(), split});
    c.update(std::span{data.data() + split, data.size() - split});
    EXPECT_EQ(c.value(), whole) << "split at " << split;
  }
}

TEST(Crc32, ResetRestoresInitialState) {
  Crc32 c;
  c.update("garbage");
  c.reset();
  c.update("123456789");
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const std::uint32_t before = crc32(data);
  data[30] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

TEST(Crc32, DifferentOrderDifferentCrc) {
  EXPECT_NE(crc32("ab"), crc32("ba"));
}

}  // namespace
}  // namespace msa::util
