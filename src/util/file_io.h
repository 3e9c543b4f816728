/// \file file_io.h
/// \brief Checksummed binary file primitives for the out-of-core layer
/// (state/slab_log.h, which the tiered store and the simulation checkpoint
/// both write through):
///
///   * `Crc32`            — the IEEE 802.3 polynomial, slice-by-8 (eight
///                          table lookups per 8-byte word, same values as
///                          the byte-at-a-time loop); every on-disk record
///                          carries one so a torn tail or a flipped bit is
///                          detected, never replayed.
///   * `RandomAccessFile` — positional I/O over one POSIX fd with
///                          write-combined appends: appended bytes collect
///                          in a fixed-size staging buffer that goes out in
///                          one pwrite when it fills (or on `Sync`,
///                          `Truncate` and close), and `ReadAt` serves the
///                          staged tail from memory. Appends track the
///                          logical end so the slab log can hand out stable
///                          record offsets; reads never share seek state.
///
/// No byte codec lives here: what goes inside a record is encoded with
/// `comm/wire.h`.

#ifndef FEDADMM_UTIL_FILE_IO_H_
#define FEDADMM_UTIL_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "util/status.h"

namespace fedadmm {

/// \brief CRC-32 (IEEE 802.3, reflected) of `len` bytes; `seed` chains
/// incremental computations (pass a previous return value).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// \brief One POSIX fd with positional reads/writes and a tracked append
/// end. Appends are staged: they cost a memcpy until `kStagingBytes` have
/// collected, then one pwrite. A write error surfaces at the `Append`,
/// `Sync` or `Truncate` that flushes. `Sync` is the durability point:
/// bytes appended after the last `Sync` may be lost to a crash (a SIGKILL
/// loses the staged ones), and close flushes on a best-effort basis only,
/// which is why every checkpoint group ends in `Sync`.
///
/// Not thread-safe for appends: an `Append`, `Sync` or `Truncate` must not
/// run concurrently with any other call, reads included, because reads
/// look at the staging buffer. Concurrent `ReadAt` calls are safe against
/// each other.
class RandomAccessFile {
 public:
  /// Size of the append staging buffer (allocated on the first append).
  static constexpr size_t kStagingBytes = size_t{256} << 10;

  RandomAccessFile() = default;
  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Opens (creating if absent) for read/write; `truncate` wipes existing
  /// contents. The append end starts at the existing size (0 after
  /// truncate).
  Status Open(const std::string& path, bool truncate);
  bool is_open() const { return fd_ >= 0; }

  /// Reads exactly `len` bytes at `offset`, staged bytes included; IoError
  /// when the range runs past the append end.
  Status ReadAt(int64_t offset, void* out, size_t len) const;
  /// Scatter form: fills `head` and then `body` from consecutive bytes at
  /// `offset` with one positional read (preadv), so a record header and
  /// its payload land in separate buffers without a copy.
  Status ReadAt(int64_t offset, std::span<uint8_t> head,
                std::span<uint8_t> body) const;
  /// Appends `head` and then `body` as one contiguous run at the append
  /// end; returns the offset of its first byte via `offset_out` (may be
  /// null). All or nothing: on error the append end does not move.
  Status Append(std::span<const uint8_t> head, std::span<const uint8_t> body,
                int64_t* offset_out = nullptr);
  /// Drops every byte past `end` and moves the append end there — how the
  /// slab log discards a torn tail before resuming appends.
  Status Truncate(int64_t end);
  /// Writes the staged bytes out, then fdatasync: makes every appended byte
  /// durable (checkpoint commits).
  Status Sync();

  /// Logical append end: bytes written out plus bytes staged.
  int64_t size() const { return written_ + static_cast<int64_t>(staged_); }
  const std::string& path() const { return path_; }

  /// Flushes the staged bytes (best effort) and closes the fd.
  void Close();

 private:
  /// Writes the staged bytes out at `written_`.
  Status Flush();

  int fd_ = -1;
  /// Bytes on the fd: the staging buffer holds file bytes from here on.
  int64_t written_ = 0;
  size_t staged_ = 0;
  std::unique_ptr<uint8_t[]> stage_;
  std::string path_;
};

/// \brief Best-effort unlink (scratch-file hygiene); ignores a missing
/// file.
void RemoveFileIfExists(const std::string& path);

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_FILE_IO_H_
