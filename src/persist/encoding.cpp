#include "persist/encoding.h"

#include <stdexcept>
#include <string>

namespace msa::persist {

void ByteReader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw std::out_of_range("persist: record payload shorter than expected");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int shift = 0; shift < 16; shift += 8) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(data_[pos_++])
                                        << shift));
  }
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    // The 10th byte may only carry the single remaining bit.
    if (shift == 63 && byte > 1) {
      throw std::out_of_range("persist: varint exceeds 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw std::out_of_range("persist: unterminated varint");
}

std::string ByteReader::str() {
  const std::uint64_t len = varint();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::uint64_t ByteReader::count(const char* what) {
  const std::uint64_t n = varint();
  if (n > remaining()) {
    throw std::runtime_error("persist: " + std::string{what} + " count " +
                             std::to_string(n) + " exceeds its payload");
  }
  return n;
}

}  // namespace msa::persist
