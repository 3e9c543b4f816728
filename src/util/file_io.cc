#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fedadmm {
namespace {

// Reflected CRC-32 table for polynomial 0xEDB88320, built once.
const uint32_t* Crc32Table() {
  static const uint32_t* const table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Bytes(const void* data, size_t len) {
  out_.append(static_cast<const char*>(data), len);
}

void ByteWriter::String(std::string_view s) {
  U64(s.size());
  Bytes(s.data(), s.size());
}

void ByteWriter::Floats(std::span<const float> v) {
  U64(v.size());
  Bytes(v.data(), v.size() * sizeof(float));
}

Result<uint8_t> ByteReader::U8() {
  if (remaining() < 1) return Status::IoError("ByteReader: buffer exhausted");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  uint32_t v = 0;
  if (remaining() < 4) return Status::IoError("ByteReader: buffer exhausted");
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

Result<uint64_t> ByteReader::U64() {
  uint64_t v = 0;
  if (remaining() < 8) return Status::IoError("ByteReader: buffer exhausted");
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

Result<int64_t> ByteReader::I64() {
  FEDADMM_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::F64() {
  FEDADMM_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status ByteReader::Bytes(void* out, size_t len) {
  if (remaining() < len) {
    return Status::IoError("ByteReader: buffer exhausted");
  }
  // An empty vector's data() may be null, which memcpy must not receive.
  if (len == 0) return Status::OK();
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Result<std::string> ByteReader::String() {
  FEDADMM_ASSIGN_OR_RETURN(uint64_t len, U64());
  if (remaining() < len) {
    return Status::IoError("ByteReader: string length past buffer end");
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<std::vector<float>> ByteReader::Floats() {
  FEDADMM_ASSIGN_OR_RETURN(uint64_t count, U64());
  if (remaining() < count * sizeof(float)) {
    return Status::IoError("ByteReader: float count past buffer end");
  }
  std::vector<float> v(count);
  FEDADMM_RETURN_IF_ERROR(Bytes(v.data(), count * sizeof(float)));
  return v;
}

RandomAccessFile::~RandomAccessFile() { Close(); }

Status RandomAccessFile::Open(const std::string& path, bool truncate) {
  Close();
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Errno("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  fd_ = fd;
  size_ = static_cast<int64_t>(st.st_size);
  path_ = path;
  return Status::OK();
}

Status RandomAccessFile::ReadAt(int64_t offset, void* out, size_t len) const {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  auto* p = static_cast<char*>(out);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, p + done, len - done,
                              static_cast<off_t>(offset) +
                                  static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path_);
    }
    if (n == 0) {
      return Status::IoError("RandomAccessFile: short read at offset " +
                              std::to_string(offset) + " in '" + path_ + "'");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RandomAccessFile::Append(const void* data, size_t len,
                                int64_t* offset_out) {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  const int64_t at = size_;
  const auto* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd_, p + done, len - done,
                               static_cast<off_t>(at) +
                                   static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite", path_);
    }
    done += static_cast<size_t>(n);
  }
  size_ = at + static_cast<int64_t>(len);
  if (offset_out != nullptr) *offset_out = at;
  return Status::OK();
}

Status RandomAccessFile::Truncate(int64_t end) {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = end;
  return Status::OK();
}

Status RandomAccessFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
  return Status::OK();
}

void RandomAccessFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  size_ = 0;
  path_.clear();
}

void RemoveFileIfExists(const std::string& path) { ::unlink(path.c_str()); }

}  // namespace fedadmm
