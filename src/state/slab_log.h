/// \file slab_log.h
/// \brief Append-only, CRC-framed record log — the disk tier's substrate.
///
/// One file, one record grammar, two users:
///
///   * the tiered store (state/tiered_store.h) appends evicted client
///     slabs and faults them back by offset — its in-memory directory maps
///     (client, slot) → the offset this log returned;
///   * the simulation checkpoint (state/checkpoint.h) appends
///     meta + slab + commit record groups; recovery replays the last group
///     whose commit landed, reading its slabs back by offset.
///
/// Record layout (all little-endian). The 37-byte header has its own
/// encoder, which writes into a stack buffer rather than through
/// `comm/wire.h`, because the tiered store's eviction path must not
/// allocate:
///
///   u32 magic        'SLBG'
///   u8  type         1 = slab, 2 = meta, 3 = commit
///   u32 client       slab records; 0 otherwise
///   u32 slot         slab records; 0 otherwise
///   i64 value        commit: the committed round; meta: free tag; else 0
///   u64 payload_len
///   u32 payload_crc  CRC-32 of the payload bytes
///   u32 header_crc   CRC-32 of the 33 header bytes above
///   ...payload...
///
/// Both CRCs must validate before a record is surfaced; `Scan` stops at
/// the first byte that fails (torn tail from a SIGKILL mid-append, or a
/// flipped bit) and reports the valid prefix length, so a reopened log
/// resumes appending over the garbage instead of replaying it.
///
/// I/O: appends are write-combined in the file's staging buffer
/// (util/file_io.h) — one record costs a header encode and a memcpy, and
/// the buffer goes out in one pwrite when it fills or on `Sync` — and a
/// slab fault is one positional read of header and payload together.
/// Staged records read back like written ones. `Sync` is the durability
/// point. The staging buffer (`RandomAccessFile::kStagingBytes`) is not
/// counted in any store's `bytes_resident`.
///
/// Thread-safety: `Append` and `Sync` must be externally serialized with
/// every other call, reads included (reads look at the staging buffer);
/// reads are safe concurrently with each other. The tiered store holds its
/// own mutex around all of them.

#ifndef FEDADMM_STATE_SLAB_LOG_H_
#define FEDADMM_STATE_SLAB_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/file_io.h"
#include "util/status.h"

namespace fedadmm {

/// \brief The CRC-framed record log.
class SlabLog {
 public:
  enum class RecordType : uint8_t { kSlab = 1, kMeta = 2, kCommit = 3 };

  /// One decoded record (header + payload + its file span).
  struct Record {
    RecordType type = RecordType::kSlab;
    int client = 0;
    int slot = 0;
    int64_t value = 0;
    std::string payload;
    /// File offset of the record's first header byte.
    int64_t offset = 0;
  };

  /// Opens `path` (creating it when absent). `truncate` wipes existing
  /// contents — the tiered store's scratch mode. Without `truncate` the
  /// valid prefix is scanned and any torn tail is cut off, so appends
  /// resume exactly after the last intact record — the checkpoint mode.
  static Result<std::unique_ptr<SlabLog>> Open(const std::string& path,
                                               bool truncate);

  /// Appends one record; returns the offset later `ReadAt` calls use.
  Result<int64_t> Append(RecordType type, int client, int slot, int64_t value,
                         std::span<const uint8_t> payload);

  /// `Append` with a float payload stored as raw fp32 bit patterns.
  Result<int64_t> AppendFloats(RecordType type, int client, int slot,
                               std::span<const float> payload);

  /// Reads and validates the record at `offset`; IoError on any mismatch
  /// (bad magic, bad CRC, truncated payload). On error the contents of
  /// `out` are unspecified.
  Status ReadAt(int64_t offset, Record* out) const;

  /// Decodes a slab record's payload into `out` (fp32 bit copy) with one
  /// positional read; the payload length must be exactly `out.size()`
  /// floats. On error the contents of `out` are unspecified.
  Status ReadFloatsAt(int64_t offset, std::span<float> out) const;

  /// Visits every valid record from the start in file order (visitor may
  /// be null to just measure); returns the end offset of the valid prefix.
  /// A torn or corrupt record stops the scan without an error — that is
  /// the recovery semantic, not a failure.
  Result<int64_t> Scan(const std::function<void(const Record&)>& visitor) const;

  /// Writes out the staged records and makes every appended record
  /// durable (fdatasync).
  Status Sync();

  int64_t end_offset() const { return file_.size(); }
  const std::string& path() const { return file_.path(); }

 private:
  SlabLog() = default;

  /// Reads one record at `offset`; sets `*valid` false (without an error
  /// Status) when the bytes there are not an intact record.
  Status ReadRecord(int64_t offset, Record* out, bool* valid) const;
  /// File bytes after a header at `offset`, or -1 when no header fits
  /// there. Computed without overflow, so a crafted length compares safely.
  int64_t RoomAfterHeader(int64_t offset) const;
  Status NoRecordAt(int64_t offset) const;

  RandomAccessFile file_;
};

}  // namespace fedadmm

#endif  // FEDADMM_STATE_SLAB_LOG_H_
