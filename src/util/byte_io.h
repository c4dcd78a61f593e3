#ifndef CBIR_UTIL_BYTE_IO_H_
#define CBIR_UTIL_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace cbir {

/// The unsigned integer a value's bytes travel as: itself for integers,
/// the IEEE-754 bit pattern for doubles.
template <typename T>
using WireBits =
    typename std::conditional_t<std::is_same_v<T, double>,
                                std::type_identity<uint64_t>,
                                std::make_unsigned<T>>::type;

/// \brief Appends little-endian values to a byte buffer. Each value is
/// written byte by byte (no reinterpret_cast of multi-byte values), so the
/// format is identical on any host endianness. The width is the static
/// type's: Put(int32_t) writes 4 bytes, Put(double) writes 8 (IEEE-754
/// bits), Put(std::string) writes a u32 length and then the bytes.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_same_v<T, double>
  void Put(T v) {
    WireBits<T> bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    const size_t at = out_->size();
    out_->resize(at + sizeof(bits));
    for (size_t i = 0; i < sizeof(bits); ++i) {
      (*out_)[at + i] = static_cast<uint8_t>(bits >> (8 * i));
    }
  }

  void Put(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  std::vector<uint8_t>* out_;
};

/// \brief Bounds-checked little-endian reader, the inverse of ByteWriter.
/// Every Read returns false instead of touching out-of-range memory, and a
/// string's length prefix is checked against the bytes remaining before
/// anything is copied.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  template <typename T>
    requires std::is_integral_v<T> || std::is_same_v<T, double>
  bool Read(T* v) {
    using Bits = WireBits<T>;
    if (remaining() < sizeof(Bits)) return false;
    Bits bits = 0;
    for (size_t i = 0; i < sizeof(bits); ++i) {
      bits |= static_cast<Bits>(static_cast<Bits>(data_[pos_++]) << (8 * i));
    }
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }

  bool Read(std::string* s) {
    uint32_t len = 0;
    if (!Read(&len) || len > remaining()) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace cbir

#endif  // CBIR_UTIL_BYTE_IO_H_
