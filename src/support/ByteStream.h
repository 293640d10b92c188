//===- support/ByteStream.h - Little-endian byte serialization --*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounds-checked little-endian serialization used by the binary module
/// format and the persistent cache file format. Readers never trust their
/// input: every read is length-checked and failure poisons the reader, so
/// deserializers can check a single error flag at the end.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_SUPPORT_BYTESTREAM_H
#define PCC_SUPPORT_BYTESTREAM_H

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace pcc {

/// Stores \p Value little-endian at \p Out. Unchecked: for serializers
/// that fill an exactly presized buffer, and for back-patching
/// (ByteWriter is the growable writer). Compiles to one store on
/// little-endian hosts.
template <typename T> inline void storeLittleEndian(uint8_t *Out, T Value) {
  static_assert(std::is_unsigned_v<T>, "unsigned fixed-width values only");
  for (size_t I = 0; I != sizeof(T); ++I)
    Out[I] = static_cast<uint8_t>(Value >> (8 * I));
}

/// Loads a little-endian value from \p In. Unchecked: the caller has
/// already bounds-checked the bytes (ByteReader is the checked reader).
template <typename T> inline T loadLittleEndian(const uint8_t *In) {
  static_assert(std::is_unsigned_v<T>, "unsigned fixed-width values only");
  T Value = 0;
  for (size_t I = 0; I != sizeof(T); ++I)
    Value = static_cast<T>(Value | static_cast<T>(In[I]) << (8 * I));
  return Value;
}

/// Appends little-endian encoded values to a growable byte buffer.
class ByteWriter {
public:
  void writeU8(uint8_t Value) { Bytes.push_back(Value); }
  void writeU16(uint16_t Value) { writeLittleEndian(Value); }
  void writeU32(uint32_t Value) { writeLittleEndian(Value); }
  void writeU64(uint64_t Value) { writeLittleEndian(Value); }
  void writeI64(int64_t Value) {
    writeU64(static_cast<uint64_t>(Value));
  }

  /// Writes a u32 length prefix followed by the raw string bytes.
  void writeString(const std::string &Str);

  /// Writes raw bytes with no length prefix.
  void writeBytes(const void *Data, size_t Size);

  /// Writes a u32 length prefix followed by the raw bytes.
  void writeBlob(const std::vector<uint8_t> &Blob);

  /// Overwrites 4 bytes at \p Offset (for back-patching size fields).
  void patchU32(size_t Offset, uint32_t Value);

  /// Pre-allocates capacity for \p Total bytes so a serializer with a
  /// computed size estimate appends without reallocation churn.
  void reserve(size_t Total) { Bytes.reserve(Total); }

  size_t capacity() const { return Bytes.capacity(); }
  size_t size() const { return Bytes.size(); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  template <typename T> void writeLittleEndian(T Value) {
    for (size_t I = 0; I != sizeof(T); ++I)
      Bytes.push_back(static_cast<uint8_t>(Value >> (8 * I)));
  }

  std::vector<uint8_t> Bytes;
};

/// Reads little-endian values from a byte span. Any out-of-bounds read
/// sets a sticky failure flag and yields zeroes, so a deserializer can
/// issue all its reads and check failed() once.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  uint8_t readU8();
  uint16_t readU16();
  uint32_t readU32();
  uint64_t readU64();
  int64_t readI64() { return static_cast<int64_t>(readU64()); }

  /// Reads a u32-length-prefixed string. On overflow returns "" and fails.
  std::string readString();

  /// Reads \p Size raw bytes into \p Out. On overflow zero-fills and fails.
  void readBytes(void *Out, size_t Size);

  /// Reads a u32-length-prefixed byte blob.
  std::vector<uint8_t> readBlob();

  /// Skips \p Count bytes.
  void skip(size_t Count);

  bool failed() const { return Failed; }
  size_t offset() const { return Offset; }
  size_t remaining() const { return Failed ? 0 : Size - Offset; }
  bool atEnd() const { return Failed || Offset == Size; }

private:
  uint64_t readLittleEndian(unsigned NumBytes);
  bool checkAvailable(size_t Count);

  const uint8_t *Data;
  size_t Size;
  size_t Offset = 0;
  bool Failed = false;
};

} // namespace pcc

#endif // PCC_SUPPORT_BYTESTREAM_H
