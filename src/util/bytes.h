// Wire serialization. Rover marshals QRPC requests, RDO descriptors, and
// object payloads into a compact little-endian byte format:
//   - unsigned integers: LEB128 varint
//   - signed integers:   zigzag + varint
//   - fixed 32/64:       little-endian
//   - strings/bytes:     varint length prefix + raw bytes
//
// WireWriter appends to an owned buffer; WireReader consumes a span and
// reports truncation/corruption via Status rather than crashing.

#ifndef ROVER_SRC_UTIL_BYTES_H_
#define ROVER_SRC_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace rover {

using Bytes = std::vector<uint8_t>;

inline Bytes BytesFromString(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// Encoded length of `v` as a LEB128 varint (what WireWriter::WriteVarint
// appends).
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Encoded length of a varint-length-prefixed string or byte run of `n` bytes.
inline size_t LengthPrefixedSize(size_t n) { return VarintSize(n) + n; }

class WireWriter {
 public:
  WireWriter() = default;

  // Pre-size the buffer for a known (or estimated) encoding size so the hot
  // marshal paths don't pay repeated geometric-growth copies.
  void Reserve(size_t n) { buffer_.reserve(buffer_.size() + n); }

  void WriteVarint(uint64_t v);
  void WriteZigzag(int64_t v);
  void WriteFixed32(uint32_t v);
  void WriteFixed64(uint64_t v);
  void WriteBool(bool v) { WriteVarint(v ? 1 : 0); }
  void WriteDouble(double v);
  void WriteString(std::string_view s);
  void WriteBytes(const Bytes& b);
  void WriteRaw(const void* data, size_t n);

  const Bytes& data() const { return buffer_; }
  Bytes TakeData() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

class WireReader {
 public:
  explicit WireReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadZigzag();
  Result<uint32_t> ReadFixed32();
  Result<uint64_t> ReadFixed64();
  Result<bool> ReadBool();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<Bytes> ReadBytes();

  // Borrow `n` raw bytes in place (no copy, no length prefix). The pointer
  // is valid only as long as the underlying buffer.
  Result<const uint8_t*> ReadRaw(size_t n);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Truncated(const char* what) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace rover

#endif  // ROVER_SRC_UTIL_BYTES_H_
