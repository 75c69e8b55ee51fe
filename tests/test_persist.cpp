// Persistence layer tests: endian-safe encoding round-trips, CRC-framed
// record streams, and — the crash-safety property — torn or corrupt tails
// end the stream cleanly and append recovery chops them off.
#include "persist/record_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "persist/encoding.h"

namespace msa::persist {
namespace {

std::filesystem::path tmp_file(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_persist_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  return path;
}

void truncate_by(const std::filesystem::path& path, std::uintmax_t bytes) {
  const std::uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, bytes);
  std::filesystem::resize_file(path, size - bytes);
}

void flip_byte_at_end(const std::filesystem::path& path,
                      std::uintmax_t from_end) {
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(f.is_open());
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, from_end);
  f.seekg(static_cast<std::streamoff>(size - 1 - from_end));
  char c = 0;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(size - 1 - from_end));
  c = static_cast<char>(c ^ 0x5a);
  f.write(&c, 1);
}

TEST(Encoding, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.f64(std::numeric_limits<double>::infinity());

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  // Bit-exact, not just value-equal: -0.0 must stay negative.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.done());
}

TEST(Encoding, NanPayloadSurvives) {
  const double weird_nan =
      std::bit_cast<double>(0x7ff8dead00000001ULL);  // NaN with payload
  ByteWriter w;
  w.f64(weird_nan);
  ByteReader r{w.bytes()};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x7ff8dead00000001ULL);
}

TEST(Encoding, LittleEndianOnDisk) {
  ByteWriter w;
  w.u32(0x01020304u);
  const auto bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(Encoding, VarintRoundTripAndSizes) {
  const struct {
    std::uint64_t value;
    std::size_t encoded_bytes;
  } cases[] = {
      {0, 1},      {1, 1},          {127, 1},
      {128, 2},    {16383, 2},      {16384, 3},
      {1u << 28, 5}, {1ULL << 56, 9}, {std::numeric_limits<std::uint64_t>::max(), 10},
  };
  for (const auto& c : cases) {
    ByteWriter w;
    w.varint(c.value);
    EXPECT_EQ(w.size(), c.encoded_bytes) << c.value;
    ByteReader r{w.bytes()};
    EXPECT_EQ(r.varint(), c.value);
    EXPECT_TRUE(r.done());
  }
}

TEST(Encoding, StringsWithEmbeddedNulsAndEmpty) {
  ByteWriter w;
  w.str("");
  w.str(std::string_view{"a\0b", 3});
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), (std::string{"a\0b", 3}));
}

TEST(Encoding, ReaderThrowsOnOverrun) {
  ByteWriter w;
  w.u16(7);
  ByteReader r{w.bytes()};
  EXPECT_THROW((void)r.u32(), std::out_of_range);
  // Unterminated varint: every byte has the continuation bit set.
  const std::uint8_t bad[] = {0x80, 0x80};
  ByteReader r2{bad};
  EXPECT_THROW((void)r2.varint(), std::out_of_range);
}

TEST(RecordIo, RoundTripManyRecords) {
  const auto path = tmp_file("roundtrip.rec");
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kTruncate};
    for (std::uint8_t i = 0; i < 10; ++i) {
      std::vector<std::uint8_t> payload(i * 37u);
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::uint8_t>(i + j);
      }
      writer.append(i, payload);
    }
  }
  RecordReader reader{path.string()};
  for (std::uint8_t i = 0; i < 10; ++i) {
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value()) << unsigned{i};
    EXPECT_EQ(rec->type, i);
    ASSERT_EQ(rec->payload.size(), i * 37u);
    for (std::size_t j = 0; j < rec->payload.size(); ++j) {
      ASSERT_EQ(rec->payload[j], static_cast<std::uint8_t>(i + j));
    }
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.valid_bytes(), std::filesystem::file_size(path));
}

TEST(RecordIo, RejectsBadMagic) {
  const auto path = tmp_file("badmagic.rec");
  std::ofstream{path, std::ios::binary} << "this is not a record store";
  EXPECT_THROW(RecordReader{path.string()}, std::runtime_error);
  // Append must refuse too rather than clobber a foreign file: not even
  // the cut to `valid_bytes` may touch it.
  EXPECT_THROW((RecordWriter{path.string(), RecordWriter::Mode::kAppend,
                             kRecordMagic.size()}),
               std::runtime_error);
  std::ifstream in{path, std::ios::binary};
  const std::string left{std::istreambuf_iterator<char>{in}, {}};
  EXPECT_EQ(left, "this is not a record store");
}

TEST(RecordIo, TornHeaderStopsCleanly) {
  const auto path = tmp_file("tornheader.rec");
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kTruncate};
    writer.append(1, std::vector<std::uint8_t>{1, 2, 3});
    writer.append(2, std::vector<std::uint8_t>{4, 5});
  }
  const auto intact = std::filesystem::file_size(path);
  // Simulate a crash mid-header: 3 stray bytes after the last record.
  std::ofstream{path, std::ios::binary | std::ios::app} << "xyz";

  RecordReader reader{path.string()};
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.valid_bytes(), intact);
}

TEST(RecordIo, TornBodyStopsCleanly) {
  const auto path = tmp_file("tornbody.rec");
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kTruncate};
    writer.append(1, std::vector<std::uint8_t>(64, 0xaa));
    writer.append(2, std::vector<std::uint8_t>(64, 0xbb));
  }
  truncate_by(path, 10);  // last frame loses 10 body bytes

  RecordReader reader{path.string()};
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(RecordIo, CrcMismatchStopsCleanly) {
  const auto path = tmp_file("badcrc.rec");
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kTruncate};
    writer.append(1, std::vector<std::uint8_t>(32, 0x11));
    writer.append(2, std::vector<std::uint8_t>(32, 0x22));
  }
  flip_byte_at_end(path, 4);  // corrupt the last record's body

  RecordReader reader{path.string()};
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(RecordIo, InsaneLengthPrefixIsCorruption) {
  const auto path = tmp_file("insanelen.rec");
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kTruncate};
    writer.append(1, std::vector<std::uint8_t>{9});
  }
  // Hand-craft a frame whose length prefix claims ~4 GB.
  ByteWriter bogus;
  bogus.u32(0xfffffff0u);
  bogus.u32(0);
  std::ofstream app{path, std::ios::binary | std::ios::app};
  app.write(reinterpret_cast<const char*>(bogus.bytes().data()),
            static_cast<std::streamsize>(bogus.size()));
  app.close();

  RecordReader reader{path.string()};
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(RecordIo, AppendRecoveryChopsTornTailAndContinues) {
  const auto path = tmp_file("recover.rec");
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kTruncate};
    writer.append(1, std::vector<std::uint8_t>(16, 0x01));
    writer.append(2, std::vector<std::uint8_t>(16, 0x02));
    writer.append(3, std::vector<std::uint8_t>(16, 0x03));
  }
  truncate_by(path, 7);  // tear record 3

  std::uint64_t valid_bytes = 0;
  {
    RecordReader scan{path.string()};
    while (scan.next().has_value()) {
    }
    ASSERT_TRUE(scan.truncated());
    valid_bytes = scan.valid_bytes();
  }
  {
    RecordWriter writer{path.string(), RecordWriter::Mode::kAppend,
                        valid_bytes};
    writer.append(4, std::vector<std::uint8_t>(16, 0x04));
  }

  RecordReader reader{path.string()};
  std::vector<std::uint8_t> types;
  for (auto rec = reader.next(); rec.has_value(); rec = reader.next()) {
    types.push_back(rec->type);
  }
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(types, (std::vector<std::uint8_t>{1, 2, 4}));
}

}  // namespace
}  // namespace msa::persist
