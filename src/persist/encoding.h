// Endian-safe binary encoding primitives for the on-disk record format.
// All multi-byte integers are little-endian on disk regardless of host
// byte order; doubles are serialized as their IEEE-754 bit pattern so a
// value round-trips bit-exactly (including -0.0, subnormals, infinities
// and NaN payloads — the campaign reports must be byte-identical whether
// they were computed in RAM or reloaded from a store). Unsigned varints
// use LEB128 (7 bits per byte, high bit = continuation), which keeps
// small counts and cell indices at one byte.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace msa::persist {

/// Append-only serialization buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
    buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  }

  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  }

  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  }

  /// IEEE-754 bit pattern; exact round-trip for every double, NaNs
  /// included.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint, 1–10 bytes.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Varint byte length followed by the raw bytes.
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw bytes, no length prefix — for splicing an already-encoded,
  /// self-delimiting payload (a segment block entry) into a buffer.
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked deserializer over a byte span. Overruns and malformed
/// varints throw std::out_of_range — inside a CRC-validated record that
/// means a format bug, not disk corruption, so throwing is correct.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : data_{bytes} {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::string str();
  /// A varint element count. Every element takes at least one byte, so a
  /// count beyond the bytes left is damage: it throws std::runtime_error
  /// "persist: <what> count N exceeds its payload" before the count can
  /// size a reserve().
  [[nodiscard]] std::uint64_t count(const char* what);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace msa::persist
