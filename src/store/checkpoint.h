#ifndef METABLINK_STORE_CHECKPOINT_H_
#define METABLINK_STORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace metablink::store {

/// Current container format version. Readers accept any version up to this
/// one; files written by a newer build are rejected with InvalidArgument
/// rather than misparsed.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Framed checkpoint container: every persistent artifact in the system —
/// trainer checkpoints, model weights, the dense index, KB snapshots,
/// bundle manifests — is one of these on disk.
///
/// Layout (all little-endian):
///
///   u32 magic "MBCK"
///   u32 format version
///   u32 section count
///   per section:
///     string name         (u64 length + bytes)
///     u64    payload size
///     u32    crc32 over name bytes + payload bytes
///     payload bytes
///
/// The per-section CRC covers the section name so a flipped byte anywhere
/// in a section (including its label) surfaces as kDataLoss; truncation
/// anywhere surfaces as kOutOfRange; trailing garbage after the last
/// section is kDataLoss. Corruption is always a clean Status, never a
/// crash or a silently wrong model.
class CheckpointWriter {
 public:
  /// Starts a named section and returns the writer that encodes its
  /// payload. The pointer stays valid until the next AddSection /
  /// Serialize call. Names must be unique within one container.
  util::BinaryWriter* AddSection(const std::string& name);

  /// Frames every section into one container byte stream.
  std::vector<std::uint8_t> Serialize() const;

  /// Serializes and writes crash-safely (temp file + fsync + rename; see
  /// BinaryWriter::WriteToFile).
  util::Status WriteToFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, util::BinaryWriter>> sections_;
};

/// Parses and integrity-checks a checkpoint container. All validation
/// (magic, version, bounds, CRCs, full consumption) happens in Parse /
/// FromFile, so a constructed reader is known-good.
class CheckpointReader {
 public:
  static util::Result<CheckpointReader> FromFile(const std::string& path);
  static util::Result<CheckpointReader> Parse(std::vector<std::uint8_t> bytes);

  std::uint32_t version() const { return version_; }
  bool Has(const std::string& name) const;
  std::vector<std::string> SectionNames() const;

  /// A decoder positioned at the start of the named section's payload.
  /// NotFound when the section is absent.
  util::Result<util::BinaryReader> Section(const std::string& name) const;

 private:
  CheckpointReader() = default;

  std::uint32_t version_ = 0;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

}  // namespace metablink::store

#endif  // METABLINK_STORE_CHECKPOINT_H_
