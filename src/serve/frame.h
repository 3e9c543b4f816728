/// \file frame.h
/// \brief The serving frontend's wire grammar: length-prefixed frames.
///
/// Every message between a client session and the frontend is one frame:
///
///   header (20 bytes, little-endian):
///     u32 magic      "FADM" (0x4D444146)
///     u8  version    kProtocolVersion
///     u8  type       FrameType
///     u16 flags      reserved, 0
///     u64 session    session token (client→server; server frames carry 0,
///                    the per-connection stream identifies the receiver —
///                    this is what lets one MODEL frame be shared zero-copy
///                    across every session of a broadcast)
///     u32 body_len   bytes that follow
///   body (type-specific, layouts below)
///
/// Session lifecycle: HELLO(client_id) → WELCOME(session); then per round
/// PULL(round) → MODEL(round, payload) | STANDBY(round); UPDATE(metadata,
/// payloads) → ACK(status, work_fraction, retry_after) | ERROR; BYE closes.
/// The UPDATE payloads are the existing codec wire formats (comm/) verbatim
/// — the frontend adds framing, never re-encodes.
///
/// Every parser here returns Status through `wire::ReaderView`: these bytes
/// cross a process/network boundary and must never abort the server
/// (tests/serve/malformed_frame_fuzz_test.cc). Every builder reserves the
/// exact frame size before writing — frames never reallocate mid-encode.

#ifndef FEDADMM_SERVE_FRAME_H_
#define FEDADMM_SERVE_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fedadmm::serve {

/// "FADM" as a little-endian u32.
inline constexpr uint32_t kFrameMagic = 0x4D444146u;
/// Version 2 dropped UPDATE's f64 gradient-norm field (fixed part 52 → 44
/// bytes), so a version-1 peer is refused at the header, never misparsed.
inline constexpr uint8_t kProtocolVersion = 2;
/// Fixed header size preceding every body.
inline constexpr size_t kFrameHeaderBytes = 20;
/// Upper bound on body_len: anything larger is rejected before buffering,
/// so a hostile header cannot make the server allocate unbounded memory.
inline constexpr uint32_t kMaxBodyBytes = 64u << 20;

enum class FrameType : uint8_t {
  kHello = 1,
  kWelcome = 2,
  kPull = 3,
  kModel = 4,
  kStandby = 5,
  kUpdate = 6,
  kAck = 7,
  kError = 8,
  kBye = 9,
};

/// \brief Decoded frame header.
struct FrameHeader {
  uint8_t version = 0;
  FrameType type = FrameType::kHello;
  uint16_t flags = 0;
  uint64_t session = 0;
  uint32_t body_len = 0;
};

/// Parses and validates a header from the first `kFrameHeaderBytes` of
/// `data`: magic, version, known type, and the body_len bound.
Status ParseFrameHeader(const uint8_t* data, size_t len, FrameHeader* out);

/// Round value STANDBY carries when no round is open yet.
inline constexpr uint32_t kNoOpenRound = 0xFFFFFFFFu;

/// \brief ACK verdict for one upload.
enum class AckStatus : uint8_t {
  /// Admitted in full (mirrors ClientFate::kAdmitted).
  kAccepted = 0,
  /// Admitted at `work_fraction` (mirrors ClientFate::kAdmittedPartial).
  kPartial = 1,
  /// The straggler policy dropped this upload (mirrors kDropped).
  kRejected = 2,
  /// The shard's ingest queue was full — backpressure; retry the same
  /// UPDATE after `retry_after_seconds`.
  kThrottled = 3,
};

/// \brief ACK body: u8 status, u32 round, f64 work_fraction,
/// f64 retry_after_seconds.
struct AckBody {
  AckStatus status = AckStatus::kAccepted;
  uint32_t round = 0;
  double work_fraction = 1.0;
  double retry_after_seconds = 0.0;
};

/// \brief ERROR frame reason codes.
enum class ErrorCode : uint16_t {
  /// The frame or body failed to parse.
  kMalformed = 1,
  /// The header's session token is not bound to this connection.
  kUnknownSession = 2,
  /// A well-formed frame that violates the session/round state machine
  /// (duplicate HELLO, UPDATE for a closed round, duplicate upload, ...).
  kProtocol = 3,
  /// The update payload failed codec validation on the shard worker.
  kDecode = 4,
  /// The frontend is not (or no longer) serving rounds.
  kNotServing = 5,
};

/// \brief ERROR body: u16 code, u16 message_len, message bytes.
struct ErrorBody {
  ErrorCode code = ErrorCode::kMalformed;
  std::string message;
};

/// \brief UPDATE body prefix: u32 round, u32 epochs_run, u32 steps_run,
/// f64 train_loss, u64 dim1, u32 payload1_len, u64 dim2, u32 payload2_len
/// — followed by payload1 then payload2 bytes.
/// The sender's client id is *not* on the wire: the session binding is the
/// only identity the server trusts.
struct UpdateFrameHeader {
  uint32_t round = 0;
  uint32_t epochs_run = 0;
  uint32_t steps_run = 0;
  double train_loss = 0.0;
  uint64_t dim1 = 0;
  uint32_t payload1_len = 0;
  uint64_t dim2 = 0;
  uint32_t payload2_len = 0;
};
/// Fixed bytes of the UPDATE body before the payloads.
inline constexpr size_t kUpdateFixedBytes = 44;

/// \brief Parsed UPDATE body; payload pointers view the input buffer.
struct UpdateBody {
  UpdateFrameHeader header;
  const uint8_t* payload1 = nullptr;
  const uint8_t* payload2 = nullptr;
};

/// \brief Parsed MODEL body; the payload pointer views the input buffer.
/// Body layout: u32 round, u8 encoded, u64 dim, u32 payload_len, payload.
struct ModelBody {
  uint32_t round = 0;
  /// True when the payload is downlink-codec wire bytes (decode with the
  /// codec); false when it is raw little-endian fp32 θ.
  bool encoded = false;
  uint64_t dim = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
};

// Builders. Each returns a complete frame (header + body) with the exact
// final size reserved up front.
std::vector<uint8_t> BuildHelloFrame(uint32_t client_id);
std::vector<uint8_t> BuildWelcomeFrame(uint64_t session, uint32_t client_id);
std::vector<uint8_t> BuildPullFrame(uint64_t session, uint32_t round);
std::vector<uint8_t> BuildModelFrame(uint32_t round, bool encoded,
                                     uint64_t dim, const uint8_t* payload,
                                     uint32_t payload_len);
std::vector<uint8_t> BuildStandbyFrame(uint32_t round);
std::vector<uint8_t> BuildUpdateFrame(uint64_t session,
                                      const UpdateFrameHeader& header,
                                      const uint8_t* payload1,
                                      const uint8_t* payload2);
std::vector<uint8_t> BuildAckFrame(const AckBody& ack);
std::vector<uint8_t> BuildErrorFrame(ErrorCode code,
                                     std::string_view message);
std::vector<uint8_t> BuildByeFrame(uint64_t session);

// Body parsers (`data`/`len` is the body only, after the header).
Status ParseHelloBody(const uint8_t* data, size_t len, uint32_t* client_id);
Status ParseWelcomeBody(const uint8_t* data, size_t len, uint64_t* session,
                        uint32_t* client_id);
Status ParsePullBody(const uint8_t* data, size_t len, uint32_t* round);
Status ParseModelBody(const uint8_t* data, size_t len, ModelBody* out);
Status ParseStandbyBody(const uint8_t* data, size_t len, uint32_t* round);
Status ParseUpdateBody(const uint8_t* data, size_t len, UpdateBody* out);
Status ParseAckBody(const uint8_t* data, size_t len, AckBody* out);
Status ParseErrorBody(const uint8_t* data, size_t len, ErrorBody* out);

/// The session token the frontend assigns `client_id` — a SplitMix64 of a
/// serve-local salt, deterministic so double runs produce identical byte
/// ledgers (and distinct per client: SplitMix64 is a bijection).
uint64_t SessionTokenForClient(uint32_t client_id);

/// \brief Reassembles frames from an arbitrary byte stream (socket reads
/// deliver fragments; loopback delivers whole frames — both feed here).
///
/// `Push` appends bytes; `Next` pops the earliest complete frame. A
/// malformed header (bad magic/version/type, oversized body) poisons the
/// stream: `Push`/`Next` return its Status forever after, and the caller
/// should drop the connection — there is no way to resynchronize a framed
/// stream after garbage.
class FrameAssembler {
 public:
  /// Appends `len` bytes, validating any newly visible header.
  Status Push(const uint8_t* data, size_t len);

  /// Moves the next complete frame (header + body) into `*frame`. Returns
  /// false when no complete frame is buffered. Errors iff the stream is
  /// poisoned.
  Result<bool> Next(std::vector<uint8_t>* frame);

  /// Bytes currently buffered (tests / backpressure accounting).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Status Validate();

  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  Status error_ = Status::OK();
};

}  // namespace fedadmm::serve

#endif  // FEDADMM_SERVE_FRAME_H_
