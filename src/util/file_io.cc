#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace fedadmm {
namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is the
// byte-at-a-time table, row k advances a byte's contribution k more bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t row = 1; row < 8; ++row) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[row - 1][i];
      t[row][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " '" + path + "': " + std::strerror(errno));
}

// Calls `fn(piece, length)` for bytes [begin, end) of `head` ++ `body`, in
// order: at most one piece of each.
template <typename T, typename Fn>
void ForEachPiece(std::span<T> head, std::span<T> body, size_t begin,
                  size_t end, Fn&& fn) {
  if (begin < head.size()) {
    const size_t stop = std::min(end, head.size());
    fn(head.data() + begin, stop - begin);
    begin = stop;
  }
  if (begin < end) fn(body.data() + (begin - head.size()), end - begin);
}

// Moves the first `len` bytes of `head` ++ `body` to or from `fd` at
// `offset` with `io` (preadv or pwritev), resuming after short transfers
// and EINTR. Zero bytes moved is a short read (end of file).
template <typename T, typename Io>
Status TransferAll(Io io, const char* op, int fd, const std::string& path,
                   int64_t offset, std::span<T> head, std::span<T> body,
                   size_t len) {
  size_t done = 0;
  while (done < len) {
    iovec iov[2] = {};
    int count = 0;
    ForEachPiece(head, body, done, len, [&](T* p, size_t n) {
      iov[count++] = {const_cast<uint8_t*>(p), n};
    });
    const ssize_t n = io(fd, iov, count,
                         static_cast<off_t>(offset) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno(op, path);
    }
    if (n == 0) {
      return Status::IoError("RandomAccessFile: short " + std::string(op) +
                             " at offset " + std::to_string(offset) +
                             " in '" + path + "'");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const Crc32Tables& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
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
  written_ = static_cast<int64_t>(st.st_size);
  path_ = path;
  return Status::OK();
}

Status RandomAccessFile::ReadAt(int64_t offset, void* out, size_t len) const {
  return ReadAt(offset, {static_cast<uint8_t*>(out), len}, {});
}

Status RandomAccessFile::ReadAt(int64_t offset, std::span<uint8_t> head,
                                std::span<uint8_t> body) const {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  const size_t len = head.size() + body.size();
  if (offset < 0 || offset > size() ||
      len > static_cast<uint64_t>(size() - offset)) {
    return Status::IoError("RandomAccessFile: short read at offset " +
                           std::to_string(offset) + " in '" + path_ + "'");
  }
  // Bytes before `written_` come off the fd, the rest out of the stage.
  const size_t from_fd =
      offset >= written_
          ? 0
          : std::min(len, static_cast<size_t>(written_ - offset));
  FEDADMM_RETURN_IF_ERROR(TransferAll(::preadv, "preadv", fd_, path_, offset,
                                      head, body, from_fd));
  if (from_fd < len) {
    const uint8_t* staged =
        stage_.get() + (offset + static_cast<int64_t>(from_fd) - written_);
    ForEachPiece(head, body, from_fd, len, [&staged](uint8_t* p, size_t n) {
      std::memcpy(p, staged, n);
      staged += n;
    });
  }
  return Status::OK();
}

Status RandomAccessFile::Append(std::span<const uint8_t> head,
                                std::span<const uint8_t> body,
                                int64_t* offset_out) {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  const int64_t at = size();
  const size_t len = head.size() + body.size();
  if (len >= kStagingBytes) {
    // Too big to stage: write out what is staged, then the run in place.
    FEDADMM_RETURN_IF_ERROR(Flush());
    FEDADMM_RETURN_IF_ERROR(
        TransferAll(::pwritev, "pwritev", fd_, path_, written_, head, body,
                    len));
    written_ += static_cast<int64_t>(len);
  } else {
    if (!stage_) {
      stage_ = std::make_unique_for_overwrite<uint8_t[]>(kStagingBytes);
    }
    const auto stage = [this](const uint8_t* p, size_t n) {
      std::memcpy(stage_.get() + staged_, p, n);
      staged_ += n;
    };
    size_t done = 0;
    if (len > kStagingBytes - staged_) {
      // Fill the buffer, write it out whole, then stage the rest. On a
      // failed write the partial run is dropped again: all or nothing.
      const size_t before = staged_;
      done = kStagingBytes - staged_;
      ForEachPiece(head, body, 0, done, stage);
      const Status status = Flush();
      if (!status.ok()) {
        staged_ = before;
        return status;
      }
    }
    ForEachPiece(head, body, done, len, stage);
  }
  if (offset_out != nullptr) *offset_out = at;
  return Status::OK();
}

Status RandomAccessFile::Flush() {
  if (staged_ == 0) return Status::OK();
  FEDADMM_RETURN_IF_ERROR(TransferAll(
      ::pwritev, "pwritev", fd_, path_, written_,
      std::span<const uint8_t>(stage_.get(), staged_), {}, staged_));
  written_ += static_cast<int64_t>(staged_);
  staged_ = 0;
  return Status::OK();
}

Status RandomAccessFile::Truncate(int64_t end) {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  FEDADMM_RETURN_IF_ERROR(Flush());
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
    return Errno("ftruncate", path_);
  }
  written_ = end;
  return Status::OK();
}

Status RandomAccessFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("RandomAccessFile: not open");
  FEDADMM_RETURN_IF_ERROR(Flush());
  if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
  return Status::OK();
}

void RandomAccessFile::Close() {
  if (fd_ >= 0) {
    (void)Flush();
    ::close(fd_);
  }
  fd_ = -1;
  written_ = 0;
  staged_ = 0;
  stage_.reset();
  path_.clear();
}

void RemoveFileIfExists(const std::string& path) { ::unlink(path.c_str()); }

}  // namespace fedadmm
