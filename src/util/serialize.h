#ifndef METABLINK_UTIL_SERIALIZE_H_
#define METABLINK_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace metablink::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `n` bytes. Pass a prior
/// result as `seed` to continue a running checksum over multiple buffers.
/// Used by the checkpoint container format for per-section integrity.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Append-only little-endian binary encoder used for model checkpoints and
/// knowledge-base snapshots.
class BinaryWriter {
 public:
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloatVector(const std::vector<float>& v);
  void WriteU32Vector(const std::vector<std::uint32_t>& v);
  /// Length-prefixed raw byte blob (int8 index payloads, packed structs).
  void WriteByteVector(const std::vector<std::int8_t>& v);
  /// Appends `n` bytes verbatim — no length prefix. Used by the checkpoint
  /// container to splice already-encoded section payloads.
  void WriteRaw(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }

  /// Writes the accumulated buffer to `path` crash-safely: the bytes go to
  /// `path + ".tmp"`, are flushed and fsync'd, and only then renamed over
  /// `path`. A crash mid-write leaves either the old file or the stray temp
  /// file, never a torn `path`; on any failure the temp file is deleted and
  /// the previous `path` contents are untouched.
  Status WriteToFile(const std::string& path) const;

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked decoder matching BinaryWriter. All reads return Status and
/// fail with kOutOfRange on truncated input instead of crashing; a length
/// prefix is checked against the bytes left before it sizes an allocation.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> data)
      : data_(std::move(data)) {}

  /// Loads the whole regular file at `path` into a reader; kIoError if it
  /// cannot be opened, is not a regular file, or cannot be fully read.
  static Result<BinaryReader> FromFile(const std::string& path);

  Status ReadU32(std::uint32_t* out);
  Status ReadU64(std::uint64_t* out);
  Status ReadI64(std::int64_t* out);
  Status ReadF32(float* out);
  Status ReadF64(double* out);
  Status ReadString(std::string* out);
  Status ReadFloatVector(std::vector<float>* out);
  Status ReadU32Vector(std::vector<std::uint32_t>* out);
  Status ReadByteVector(std::vector<std::int8_t>* out);
  /// Reads exactly `n` raw bytes (no length prefix) into `*out`.
  Status ReadBytes(std::size_t n, std::vector<std::uint8_t>* out);

  /// True when all bytes have been consumed.
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Bytes not yet consumed.
  std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  Status ReadRaw(void* dst, std::size_t n);
  /// Reads a u64 element count and fails with kOutOfRange unless that many
  /// `elem_size`-byte elements fit in the bytes left.
  Status ReadCount(std::size_t elem_size, const char* what, std::size_t* n);

  std::vector<std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace metablink::util

#endif  // METABLINK_UTIL_SERIALIZE_H_
