#include "util/serialize.h"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>

#include "util/string_util.h"

namespace metablink::util {

namespace {
template <typename T>
void AppendRaw(std::vector<std::uint8_t>* buf, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf->insert(buf->end(), p, p + sizeof(T));
}

std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}
}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = MakeCrc32Table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::WriteU32(std::uint32_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteU64(std::uint64_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteI64(std::int64_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteF32(float v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteF64(double v) { AppendRaw(&buffer_, v); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteU64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(float));
}

void BinaryWriter::WriteU32Vector(const std::vector<std::uint32_t>& v) {
  WriteU64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(std::uint32_t));
}

void BinaryWriter::WriteByteVector(const std::vector<std::int8_t>& v) {
  WriteU64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size());
}

void BinaryWriter::WriteRaw(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + n);
}

Status BinaryWriter::WriteToFile(const std::string& path) const {
  // Temp-file + rename: `path` is only ever replaced by a fully flushed
  // file, so a crash at any point leaves the previous contents readable.
  // The temp lives next to the target (rename must not cross filesystems).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for writing", tmp.c_str()));
  }
  const std::size_t written =
      buffer_.empty() ? 0 : std::fwrite(buffer_.data(), 1, buffer_.size(), f);
  bool ok = written == buffer_.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("short write to %s", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(
        StrFormat("cannot rename %s over %s", tmp.c_str(), path.c_str()));
  }
  return Status::OK();
}

Result<BinaryReader> BinaryReader::FromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for reading", path.c_str()));
  }
  // Size the buffer only from a regular file's successful seek/tell: on a
  // directory fopen succeeds and ftell reports a bogus huge size.
  struct ::stat st;
  long size = -1;
  if (::fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) &&
      std::fseek(f, 0, SEEK_END) == 0) {
    size = std::ftell(f);
  }
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError(
        StrFormat("cannot size %s: not a readable regular file", path.c_str()));
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  std::size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) {
    return Status::IoError(StrFormat("short read from %s", path.c_str()));
  }
  return BinaryReader(std::move(data));
}

Status BinaryReader::ReadRaw(void* dst, std::size_t n) {
  if (n > data_.size() - pos_) {
    return Status::OutOfRange("truncated input buffer");
  }
  if (n == 0) return Status::OK();  // an empty vector's data() may be null
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::ReadCount(std::size_t elem_size, const char* what,
                               std::size_t* n) {
  std::uint64_t count = 0;
  METABLINK_RETURN_IF_ERROR(ReadU64(&count));
  if (count > Remaining() / elem_size) {  // overflow-safe bound check
    return Status::OutOfRange(StrFormat("truncated %s", what));
  }
  *n = static_cast<std::size_t>(count);
  return Status::OK();
}

Status BinaryReader::ReadU32(std::uint32_t* out) {
  return ReadRaw(out, sizeof(*out));
}
Status BinaryReader::ReadU64(std::uint64_t* out) {
  return ReadRaw(out, sizeof(*out));
}
Status BinaryReader::ReadI64(std::int64_t* out) {
  return ReadRaw(out, sizeof(*out));
}
Status BinaryReader::ReadF32(float* out) { return ReadRaw(out, sizeof(*out)); }
Status BinaryReader::ReadF64(double* out) { return ReadRaw(out, sizeof(*out)); }

Status BinaryReader::ReadString(std::string* out) {
  std::size_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadCount(1, "string", &n));
  out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::ReadFloatVector(std::vector<float>* out) {
  std::size_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadCount(sizeof(float), "float vector", &n));
  out->resize(n);
  return ReadRaw(out->data(), n * sizeof(float));
}

Status BinaryReader::ReadU32Vector(std::vector<std::uint32_t>* out) {
  std::size_t n = 0;
  METABLINK_RETURN_IF_ERROR(
      ReadCount(sizeof(std::uint32_t), "u32 vector", &n));
  out->resize(n);
  return ReadRaw(out->data(), n * sizeof(std::uint32_t));
}

Status BinaryReader::ReadByteVector(std::vector<std::int8_t>* out) {
  std::size_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadCount(1, "byte vector", &n));
  out->resize(n);
  return ReadRaw(out->data(), n);
}

Status BinaryReader::ReadBytes(std::size_t n, std::vector<std::uint8_t>* out) {
  if (n > data_.size() - pos_) {  // overflow-safe bound check
    return Status::OutOfRange("truncated raw bytes");
  }
  out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return Status::OK();
}

}  // namespace metablink::util
