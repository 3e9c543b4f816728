#include "serve/frame.h"

#include <cstring>

#include "comm/wire.h"
#include "util/rng.h"

namespace fedadmm::serve {
namespace {

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kBye);
}

/// Starts a frame: reserves `body_len` past the header and writes the
/// header. Every builder funnels through here so the exact-reserve
/// invariant holds in one place.
wire::Writer BeginFrame(std::vector<uint8_t>* out, FrameType type,
                        uint64_t session, uint32_t body_len) {
  out->reserve(kFrameHeaderBytes + body_len);
  wire::Writer w(out);
  w.PutU32(kFrameMagic);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU16(0);  // flags
  w.PutU64(session);
  w.PutU32(body_len);
  return w;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("serve: malformed ") + what);
}

}  // namespace

Status ParseFrameHeader(const uint8_t* data, size_t len, FrameHeader* out) {
  wire::ReaderView r(data, len);
  uint32_t magic = 0;
  uint8_t type = 0;
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&magic));
  if (magic != kFrameMagic) return Malformed("frame: bad magic");
  FEDADMM_RETURN_IF_ERROR(r.TryU8(&out->version));
  if (out->version != kProtocolVersion) {
    return Malformed("frame: unsupported protocol version");
  }
  FEDADMM_RETURN_IF_ERROR(r.TryU8(&type));
  if (!KnownFrameType(type)) return Malformed("frame: unknown type");
  out->type = static_cast<FrameType>(type);
  FEDADMM_RETURN_IF_ERROR(r.TryU16(&out->flags));
  FEDADMM_RETURN_IF_ERROR(r.TryU64(&out->session));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&out->body_len));
  if (out->body_len > kMaxBodyBytes) {
    return Malformed("frame: oversized body");
  }
  return Status::OK();
}

std::vector<uint8_t> BuildHelloFrame(uint32_t client_id) {
  std::vector<uint8_t> out;
  wire::Writer w = BeginFrame(&out, FrameType::kHello, 0, 4);
  w.PutU32(client_id);
  return out;
}

std::vector<uint8_t> BuildWelcomeFrame(uint64_t session, uint32_t client_id) {
  std::vector<uint8_t> out;
  wire::Writer w = BeginFrame(&out, FrameType::kWelcome, 0, 12);
  w.PutU64(session);
  w.PutU32(client_id);
  return out;
}

std::vector<uint8_t> BuildPullFrame(uint64_t session, uint32_t round) {
  std::vector<uint8_t> out;
  wire::Writer w = BeginFrame(&out, FrameType::kPull, session, 4);
  w.PutU32(round);
  return out;
}

std::vector<uint8_t> BuildModelFrame(uint32_t round, bool encoded,
                                     uint64_t dim, const uint8_t* payload,
                                     uint32_t payload_len) {
  std::vector<uint8_t> out;
  const uint32_t body = 4 + 1 + 8 + 4 + payload_len;
  wire::Writer w = BeginFrame(&out, FrameType::kModel, 0, body);
  w.PutU32(round);
  w.PutU8(encoded ? 1 : 0);
  w.PutU64(dim);
  w.PutU32(payload_len);
  if (payload_len > 0) {
    std::memcpy(w.Extend(payload_len), payload, payload_len);
  }
  return out;
}

std::vector<uint8_t> BuildStandbyFrame(uint32_t round) {
  std::vector<uint8_t> out;
  wire::Writer w = BeginFrame(&out, FrameType::kStandby, 0, 4);
  w.PutU32(round);
  return out;
}

std::vector<uint8_t> BuildUpdateFrame(uint64_t session,
                                      const UpdateFrameHeader& header,
                                      const uint8_t* payload1,
                                      const uint8_t* payload2) {
  std::vector<uint8_t> out;
  const uint32_t body = static_cast<uint32_t>(
      kUpdateFixedBytes + header.payload1_len + header.payload2_len);
  wire::Writer w = BeginFrame(&out, FrameType::kUpdate, session, body);
  w.PutU32(header.round);
  w.PutU32(header.epochs_run);
  w.PutU32(header.steps_run);
  w.PutF64(header.train_loss);
  w.PutU64(header.dim1);
  w.PutU32(header.payload1_len);
  w.PutU64(header.dim2);
  w.PutU32(header.payload2_len);
  if (header.payload1_len > 0) {
    std::memcpy(w.Extend(header.payload1_len), payload1, header.payload1_len);
  }
  if (header.payload2_len > 0) {
    std::memcpy(w.Extend(header.payload2_len), payload2, header.payload2_len);
  }
  return out;
}

std::vector<uint8_t> BuildAckFrame(const AckBody& ack) {
  std::vector<uint8_t> out;
  wire::Writer w = BeginFrame(&out, FrameType::kAck, 0, 21);
  w.PutU8(static_cast<uint8_t>(ack.status));
  w.PutU32(ack.round);
  w.PutF64(ack.work_fraction);
  w.PutF64(ack.retry_after_seconds);
  return out;
}

std::vector<uint8_t> BuildErrorFrame(ErrorCode code,
                                     std::string_view message) {
  std::vector<uint8_t> out;
  const uint16_t msg_len =
      static_cast<uint16_t>(message.size() > 0xFFFF ? 0xFFFF
                                                    : message.size());
  wire::Writer w =
      BeginFrame(&out, FrameType::kError, 0, 4 + static_cast<uint32_t>(msg_len));
  w.PutU16(static_cast<uint16_t>(code));
  w.PutU16(msg_len);
  if (msg_len > 0) {
    std::memcpy(w.Extend(msg_len), message.data(), msg_len);
  }
  return out;
}

std::vector<uint8_t> BuildByeFrame(uint64_t session) {
  std::vector<uint8_t> out;
  BeginFrame(&out, FrameType::kBye, session, 0);
  return out;
}

Status ParseHelloBody(const uint8_t* data, size_t len, uint32_t* client_id) {
  wire::ReaderView r(data, len);
  FEDADMM_RETURN_IF_ERROR(r.TryU32(client_id));
  if (r.remaining() != 0) return Malformed("HELLO body: trailing bytes");
  return Status::OK();
}

Status ParseWelcomeBody(const uint8_t* data, size_t len, uint64_t* session,
                        uint32_t* client_id) {
  wire::ReaderView r(data, len);
  FEDADMM_RETURN_IF_ERROR(r.TryU64(session));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(client_id));
  if (r.remaining() != 0) return Malformed("WELCOME body: trailing bytes");
  return Status::OK();
}

Status ParsePullBody(const uint8_t* data, size_t len, uint32_t* round) {
  wire::ReaderView r(data, len);
  FEDADMM_RETURN_IF_ERROR(r.TryU32(round));
  if (r.remaining() != 0) return Malformed("PULL body: trailing bytes");
  return Status::OK();
}

Status ParseModelBody(const uint8_t* data, size_t len, ModelBody* out) {
  wire::ReaderView r(data, len);
  uint8_t encoded = 0;
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&out->round));
  FEDADMM_RETURN_IF_ERROR(r.TryU8(&encoded));
  if (encoded > 1) return Malformed("MODEL body: bad encoded flag");
  out->encoded = encoded != 0;
  FEDADMM_RETURN_IF_ERROR(r.TryU64(&out->dim));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&out->payload_len));
  FEDADMM_RETURN_IF_ERROR(r.TrySkip(out->payload_len, &out->payload));
  if (r.remaining() != 0) return Malformed("MODEL body: trailing bytes");
  return Status::OK();
}

Status ParseStandbyBody(const uint8_t* data, size_t len, uint32_t* round) {
  wire::ReaderView r(data, len);
  FEDADMM_RETURN_IF_ERROR(r.TryU32(round));
  if (r.remaining() != 0) return Malformed("STANDBY body: trailing bytes");
  return Status::OK();
}

Status ParseUpdateBody(const uint8_t* data, size_t len, UpdateBody* out) {
  wire::ReaderView r(data, len);
  UpdateFrameHeader& h = out->header;
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&h.round));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&h.epochs_run));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&h.steps_run));
  FEDADMM_RETURN_IF_ERROR(r.TryF64(&h.train_loss));
  FEDADMM_RETURN_IF_ERROR(r.TryU64(&h.dim1));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&h.payload1_len));
  FEDADMM_RETURN_IF_ERROR(r.TryU64(&h.dim2));
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&h.payload2_len));
  FEDADMM_RETURN_IF_ERROR(r.TrySkip(h.payload1_len, &out->payload1));
  FEDADMM_RETURN_IF_ERROR(r.TrySkip(h.payload2_len, &out->payload2));
  if (r.remaining() != 0) return Malformed("UPDATE body: trailing bytes");
  return Status::OK();
}

Status ParseAckBody(const uint8_t* data, size_t len, AckBody* out) {
  wire::ReaderView r(data, len);
  uint8_t status = 0;
  FEDADMM_RETURN_IF_ERROR(r.TryU8(&status));
  if (status > static_cast<uint8_t>(AckStatus::kThrottled)) {
    return Malformed("ACK body: unknown status");
  }
  out->status = static_cast<AckStatus>(status);
  FEDADMM_RETURN_IF_ERROR(r.TryU32(&out->round));
  FEDADMM_RETURN_IF_ERROR(r.TryF64(&out->work_fraction));
  FEDADMM_RETURN_IF_ERROR(r.TryF64(&out->retry_after_seconds));
  if (r.remaining() != 0) return Malformed("ACK body: trailing bytes");
  return Status::OK();
}

Status ParseErrorBody(const uint8_t* data, size_t len, ErrorBody* out) {
  wire::ReaderView r(data, len);
  uint16_t code = 0;
  uint16_t msg_len = 0;
  FEDADMM_RETURN_IF_ERROR(r.TryU16(&code));
  FEDADMM_RETURN_IF_ERROR(r.TryU16(&msg_len));
  const uint8_t* msg = nullptr;
  FEDADMM_RETURN_IF_ERROR(r.TrySkip(msg_len, &msg));
  if (r.remaining() != 0) return Malformed("ERROR body: trailing bytes");
  out->code = static_cast<ErrorCode>(code);
  out->message.assign(reinterpret_cast<const char*>(msg), msg_len);
  return Status::OK();
}

uint64_t SessionTokenForClient(uint32_t client_id) {
  // A serve-local salt keeps these tokens off every engine RNG stream.
  return SplitMix64(0x5E55104E5A17ull ^
                    (static_cast<uint64_t>(client_id) + 1));
}

Status FrameAssembler::Push(const uint8_t* data, size_t len) {
  if (!error_.ok()) return error_;
  // Compact once the consumed prefix dominates, so a long-lived session
  // does not grow its buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + len);
  return Validate();
}

Status FrameAssembler::Validate() {
  // Only the next unconsumed header needs checking: frames behind it were
  // validated when they became visible.
  if (buffer_.size() - consumed_ < kFrameHeaderBytes) return Status::OK();
  FrameHeader header;
  error_ = ParseFrameHeader(buffer_.data() + consumed_, kFrameHeaderBytes,
                            &header);
  return error_;
}

Result<bool> FrameAssembler::Next(std::vector<uint8_t>* frame) {
  if (!error_.ok()) return error_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return false;
  FrameHeader header;
  FEDADMM_RETURN_IF_ERROR(ParseFrameHeader(buffer_.data() + consumed_,
                                           kFrameHeaderBytes, &header));
  const size_t total = kFrameHeaderBytes + header.body_len;
  if (available < total) return false;
  frame->assign(buffer_.begin() + static_cast<ptrdiff_t>(consumed_),
                buffer_.begin() + static_cast<ptrdiff_t>(consumed_ + total));
  consumed_ += total;
  // Validate the header that just became visible; a poison there is
  // reported on the *next* call, so this good frame is still delivered.
  (void)Validate();
  return true;
}

}  // namespace fedadmm::serve
