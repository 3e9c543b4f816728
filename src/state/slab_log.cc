#include "state/slab_log.h"

namespace fedadmm {
namespace {

constexpr uint32_t kMagic = 0x47424C53u;  // 'SLBG' little-endian
// magic(4) + type(1) + client(4) + slot(4) + value(8) + payload_len(8) +
// payload_crc(4); the trailing header_crc(4) covers these 33 bytes.
constexpr size_t kHeaderBody = 33;
constexpr size_t kHeaderSize = kHeaderBody + 4;

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(SlabLog::RecordType::kSlab) &&
         type <= static_cast<uint8_t>(SlabLog::RecordType::kCommit);
}

/// The decoded fields of one record header.
struct Header {
  uint8_t type = 0;
  uint32_t client = 0;
  uint32_t slot = 0;
  int64_t value = 0;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0;
};

void EncodeHeader(SlabLog::RecordType type, int client, int slot,
                  int64_t value, std::span<const uint8_t> payload,
                  uint8_t* out) {
  uint8_t* p = out;
  const auto put = [&p](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) *p++ = static_cast<uint8_t>(v >> (8 * i));
  };
  put(kMagic, 4);
  put(static_cast<uint8_t>(type), 1);
  put(static_cast<uint32_t>(client), 4);
  put(static_cast<uint32_t>(slot), 4);
  put(static_cast<uint64_t>(value), 8);
  put(payload.size(), 8);
  put(Crc32(payload.data(), payload.size()), 4);
  put(Crc32(out, kHeaderBody), 4);
}

/// Decodes the header bytes `in` and tells whether they start an intact
/// record: magic, type and header CRC check out, and the payload fits in
/// the `room` bytes the file holds after the header. Every read path runs
/// these checks here; only the payload CRC is left to the caller.
bool DecodeHeader(const uint8_t* in, uint64_t room, Header* out) {
  const uint8_t* p = in;
  const auto get = [&p](int bytes) {
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= uint64_t{*p++} << (8 * i);
    return v;
  };
  const uint64_t magic = get(4);
  out->type = static_cast<uint8_t>(get(1));
  out->client = static_cast<uint32_t>(get(4));
  out->slot = static_cast<uint32_t>(get(4));
  out->value = static_cast<int64_t>(get(8));
  out->payload_len = get(8);
  out->payload_crc = static_cast<uint32_t>(get(4));
  const uint64_t header_crc = get(4);
  return magic == kMagic && ValidType(out->type) &&
         header_crc == Crc32(in, kHeaderBody) && out->payload_len <= room;
}

}  // namespace

Result<std::unique_ptr<SlabLog>> SlabLog::Open(const std::string& path,
                                               bool truncate) {
  std::unique_ptr<SlabLog> log(new SlabLog());
  FEDADMM_RETURN_IF_ERROR(log->file_.Open(path, truncate));
  if (!truncate && log->file_.size() > 0) {
    // Recovery: find the valid prefix and drop any torn tail so the next
    // append lands right after the last intact record.
    FEDADMM_ASSIGN_OR_RETURN(int64_t valid_end, log->Scan(nullptr));
    if (valid_end < log->file_.size()) {
      FEDADMM_RETURN_IF_ERROR(log->file_.Truncate(valid_end));
    }
  }
  return log;
}

Result<int64_t> SlabLog::Append(RecordType type, int client, int slot,
                                int64_t value,
                                std::span<const uint8_t> payload) {
  uint8_t header[kHeaderSize] = {};
  EncodeHeader(type, client, slot, value, payload, header);
  int64_t offset = 0;
  FEDADMM_RETURN_IF_ERROR(file_.Append(header, payload, &offset));
  return offset;
}

Result<int64_t> SlabLog::AppendFloats(RecordType type, int client, int slot,
                                      std::span<const float> payload) {
  return Append(type, client, slot, /*value=*/0,
                {reinterpret_cast<const uint8_t*>(payload.data()),
                 payload.size() * sizeof(float)});
}

int64_t SlabLog::RoomAfterHeader(int64_t offset) const {
  const int64_t size = file_.size();
  if (offset < 0 || offset > size ||
      size - offset < static_cast<int64_t>(kHeaderSize)) {
    return -1;
  }
  return size - offset - static_cast<int64_t>(kHeaderSize);
}

Status SlabLog::NoRecordAt(int64_t offset) const {
  return Status::IoError("SlabLog: no valid record at offset " +
                         std::to_string(offset) + " in '" + path() + "'");
}

Status SlabLog::ReadRecord(int64_t offset, Record* out, bool* valid) const {
  *valid = false;
  const int64_t room = RoomAfterHeader(offset);
  if (room < 0) return Status::OK();  // past the end: not a record
  uint8_t bytes[kHeaderSize] = {};
  FEDADMM_RETURN_IF_ERROR(file_.ReadAt(offset, bytes, kHeaderSize));
  Header header;
  if (!DecodeHeader(bytes, static_cast<uint64_t>(room), &header)) {
    return Status::OK();
  }
  out->payload.resize(header.payload_len);
  FEDADMM_RETURN_IF_ERROR(
      file_.ReadAt(offset + static_cast<int64_t>(kHeaderSize),
                   out->payload.data(), out->payload.size()));
  if (header.payload_crc !=
      Crc32(out->payload.data(), out->payload.size())) {
    return Status::OK();
  }
  out->type = static_cast<RecordType>(header.type);
  out->client = static_cast<int>(header.client);
  out->slot = static_cast<int>(header.slot);
  out->value = header.value;
  out->offset = offset;
  *valid = true;
  return Status::OK();
}

Status SlabLog::ReadAt(int64_t offset, Record* out) const {
  bool valid = false;
  FEDADMM_RETURN_IF_ERROR(ReadRecord(offset, out, &valid));
  return valid ? Status::OK() : NoRecordAt(offset);
}

Status SlabLog::ReadFloatsAt(int64_t offset, std::span<float> out) const {
  const std::span<uint8_t> payload(reinterpret_cast<uint8_t*>(out.data()),
                                   out.size_bytes());
  const int64_t room = RoomAfterHeader(offset);
  if (room < 0) return NoRecordAt(offset);
  // One read brings in the header and the payload whenever the file holds
  // that many bytes; a record too short for `out` fails the length check.
  uint8_t bytes[kHeaderSize] = {};
  const bool fits = static_cast<uint64_t>(room) >= payload.size();
  FEDADMM_RETURN_IF_ERROR(file_.ReadAt(
      offset, bytes, fits ? payload : std::span<uint8_t>()));
  Header header;
  if (!DecodeHeader(bytes, static_cast<uint64_t>(room), &header)) {
    return NoRecordAt(offset);
  }
  if (header.payload_len != payload.size()) {
    return Status::IoError(
        "SlabLog: slab payload at offset " + std::to_string(offset) +
        " holds " + std::to_string(header.payload_len / sizeof(float)) +
        " floats, want " + std::to_string(out.size()));
  }
  if (header.payload_crc != Crc32(payload.data(), payload.size())) {
    return NoRecordAt(offset);
  }
  return Status::OK();
}

Result<int64_t> SlabLog::Scan(
    const std::function<void(const Record&)>& visitor) const {
  int64_t offset = 0;
  Record record;
  while (true) {
    bool valid = false;
    FEDADMM_RETURN_IF_ERROR(ReadRecord(offset, &record, &valid));
    if (!valid) break;
    offset += static_cast<int64_t>(kHeaderSize + record.payload.size());
    if (visitor) visitor(record);
  }
  return offset;
}

Status SlabLog::Sync() { return file_.Sync(); }

}  // namespace fedadmm
