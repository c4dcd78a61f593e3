#ifndef CBIR_API_CODEC_H_
#define CBIR_API_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/messages.h"
#include "util/result.h"

namespace cbir::api {

/// \brief Versioned length-prefixed binary wire format for the API messages.
///
/// Every message travels as one frame (all integers little-endian, encoded
/// and decoded byte-by-byte so the codec is endian-portable):
///
///   uint32 magic       0x43424952 ("CBIR" read as a big-endian word)
///   uint16 version     1 or 2
///   uint8  type        MessageType
///   uint8  flags       v1: reserved, ignored. v2: envelope flags
///   uint32 body_size   bytes following this header (incl. envelope)
///   [envelope]         v2 request frames only, per flags (below)
///   byte[...]          message body (layouts in docs/API.md)
///
/// The docs/API.md layout table mirrors the one field list per message in
/// codec.cc: the same list drives encode and decode. Adding a message means
/// one field list plus one type-table entry.
///
/// Protocol v2 adds an optional request envelope between header and body,
/// gated by flag bits:
///
///   0x01  u32 deadline_ms   relative deadline; the server sheds the
///                           request once that budget has elapsed (0 =
///                           already expired — a cancel)
///   0x02  u32 seq           per-session sequence number (nonzero); lets
///                           the service apply a retried Feedback at most
///                           once and replay the cached response
///   0x04  u64 trace_id      client-chosen trace id; the server stamps the
///                           request's span tree and flight record with
///                           it so a client-side outlier can be matched to
///                           the server-side stage breakdown
///   0x08  (no payload)      EXPLAIN: asks the server to attach a profile
///                           block to its response. On a request the flag
///                           carries zero envelope bytes; the server's
///                           response then comes back as a v2 frame with
///                           flag 0x08 and a profile block (layout in
///                           docs/API.md) between header and body
///   0x10  u32 crc32         integrity trailer: the IEEE CRC32 of the whole
///                           frame (canonical header + envelope/profile +
///                           body) appended as the LAST four body bytes and
///                           counted in body_size. Verified before anything
///                           else is parsed; a mismatch is a typed kDataLoss
///                           error, so a bit-flipped frame is rejected
///                           instead of decoding as a different valid
///                           message. Valid on requests and responses; a
///                           server echoes it on the response when the
///                           request carried it
///   0x20  (no payload)      degraded response: the result was merged from
///                           fewer shards than configured (a router lost a
///                           backend mid-request). Response frames only
///
/// Envelope fields are encoded in flag-bit order (deadline, seq, trace_id;
/// the crc32 trailer goes last by definition). Unknown v2 flag bits are
/// malformed. Encoders emit a v1 frame whenever the envelope is empty — and
/// responses carry no envelope and only ever the 0x08/0x10/0x20 flags, only
/// when asked — so a v1 peer sees byte-identical traffic unless the client
/// opts in.
///
/// Decoding never trusts the peer: truncated frames, bad magic, unsupported
/// versions, oversized bodies, unknown message types, short bodies, and
/// trailing bytes all return typed errors (never UB or a crash — the codec
/// tests run the malformed-frame corpus under ASan).
inline constexpr uint32_t kWireMagic = 0x43424952;  // "CBIR"
inline constexpr uint16_t kProtocolVersionV1 = 1;
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint8_t kFrameFlagDeadline = 0x01;
inline constexpr uint8_t kFrameFlagSeq = 0x02;
inline constexpr uint8_t kFrameFlagTraceId = 0x04;
inline constexpr uint8_t kFrameFlagProfile = 0x08;
inline constexpr uint8_t kFrameFlagChecksum = 0x10;
inline constexpr uint8_t kFrameFlagDegraded = 0x20;
inline constexpr uint8_t kKnownFrameFlags =
    kFrameFlagDeadline | kFrameFlagSeq | kFrameFlagTraceId |
    kFrameFlagProfile | kFrameFlagChecksum | kFrameFlagDegraded;
/// Bytes of the flag-0x10 integrity trailer (one little-endian u32 CRC32).
inline constexpr size_t kChecksumTrailerBytes = 4;
/// Upper bound on body_size (64 MiB): a frame any bigger is rejected before
/// any allocation, so a hostile length prefix cannot OOM the server.
inline constexpr uint32_t kMaxFrameBody = 64u << 20;

/// \brief Wire discriminator of each message; values are part of the
/// protocol and never change once shipped.
enum class MessageType : uint8_t {
  kStartSessionRequest = 1,
  kStartSessionResponse = 2,
  kQueryRequest = 3,
  kQueryResponse = 4,
  kFeedbackRequest = 5,
  kFeedbackResponse = 6,
  kEndSessionRequest = 7,
  kEndSessionResponse = 8,
  kStatsRequest = 9,
  kStatsResponse = 10,
  kErrorResponse = 11,
  kMetricsRequest = 12,
  kMetricsResponse = 13,
  kDescribeRequest = 14,
  kDescribeResponse = 15,
  kCandidateRequest = 16,
  kCandidateResponse = 17,
};

/// \brief Parsed frame header (magic already verified). `flags` is 0 for
/// v1 frames (whatever the reserved byte held — v1 never defined it).
struct FrameHeader {
  uint16_t version = 0;
  MessageType type = MessageType::kErrorResponse;
  uint8_t flags = 0;
  uint32_t body_size = 0;
};

/// \brief The optional v2 request envelope. Fields are meaningful only when
/// their `has_` bit is set; an empty envelope encodes as a plain v1 frame.
struct RequestEnvelope {
  bool has_deadline = false;
  bool has_seq = false;
  bool has_trace_id = false;
  /// EXPLAIN request: flag-only, no envelope bytes — the server answers
  /// with a profile block attached to the response.
  bool has_profile = false;
  /// Integrity: append the flag-0x10 CRC32 trailer to the frame. A server
  /// echoes the trailer on its response to a checksummed request.
  bool has_checksum = false;
  uint32_t deadline_ms = 0;
  uint32_t seq = 0;
  uint64_t trace_id = 0;

  bool empty() const {
    return !has_deadline && !has_seq && !has_trace_id && !has_profile &&
           !has_checksum;
  }

  static RequestEnvelope WithDeadline(uint32_t ms) {
    RequestEnvelope e;
    e.has_deadline = true;
    e.deadline_ms = ms;
    return e;
  }

  static RequestEnvelope WithTraceId(uint64_t id) {
    RequestEnvelope e;
    e.has_trace_id = true;
    e.trace_id = id;
    return e;
  }

  static RequestEnvelope WithProfile() {
    RequestEnvelope e;
    e.has_profile = true;
    return e;
  }

  static RequestEnvelope WithChecksum() {
    RequestEnvelope e;
    e.has_checksum = true;
    return e;
  }

  bool operator==(const RequestEnvelope& o) const {
    return has_deadline == o.has_deadline && has_seq == o.has_seq &&
           has_trace_id == o.has_trace_id && has_profile == o.has_profile &&
           has_checksum == o.has_checksum &&
           deadline_ms == o.deadline_ms && seq == o.seq &&
           trace_id == o.trace_id;
  }
};

/// \brief Transport metadata a server attaches when encoding a response.
/// All-defaults encodes the plain (v1, byte-identical) frame.
struct ResponseFrameOptions {
  /// EXPLAIN profile block (flag 0x08); null = none.
  const ResponseProfile* profile = nullptr;
  /// Degraded-result marker (flag 0x20): fewer shards answered than are
  /// configured.
  bool degraded = false;
  /// Append the flag-0x10 CRC32 trailer (echoed when the request carried
  /// one).
  bool checksum = false;
};

/// Serializes a message into one complete frame (header + body). Encoding
/// itself is unbounded — it cannot fail — so transports must check the
/// result against kFrameHeaderBytes + kMaxFrameBody before putting it on
/// the wire (net::TcpServer substitutes a typed ErrorResponse,
/// net::TcpClient::Send fails OutOfRange), or the receiving decoder would
/// reject the frame and desynchronize the stream.
///
/// A request travels as a v2 frame when any envelope field is set, and as
/// a byte-identical v1 frame otherwise.
std::vector<uint8_t> EncodeRequest(const Request& request,
                                   const RequestEnvelope& envelope = {});
/// A response travels with its transport metadata (profile block, degraded
/// flag, checksum trailer) as a v2 frame; all-default options encode the
/// plain v1 frame.
std::vector<uint8_t> EncodeResponse(const Response& response,
                                    const ResponseFrameOptions& options = {});

/// Parses and validates the 12-byte frame header: checks size, magic,
/// version, body limit, and that `type` names a known message. `size` may
/// exceed kFrameHeaderBytes; only the first 12 bytes are read.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

/// Decodes one complete frame (header + body, exactly `size` bytes).
/// A response frame handed to DecodeRequest (or vice versa) is an
/// InvalidArgument, as are truncated/trailing bytes.
Result<Request> DecodeRequest(const uint8_t* data, size_t size,
                              RequestEnvelope* envelope = nullptr);
Result<Response> DecodeResponse(const uint8_t* data, size_t size,
                                ResponseProfile* profile = nullptr,
                                bool* degraded = nullptr);

/// Body-only decoders for transports that read the header and body
/// separately (the TCP server/client do): `header` must come from
/// DecodeFrameHeader and `size` must equal header.body_size. The request
/// decoder strips the v2 envelope (per header.flags) off the body first;
/// `envelope` (optional) receives it — empty for v1 frames. The response
/// decoder strips the 0x08 profile block the same way; `profile`
/// (optional) receives it (trace_id stays 0 when the frame carried none) —
/// a profile the caller did not ask to receive is still parsed and
/// validated, just dropped. The flag-0x10 checksum trailer, when present,
/// is verified FIRST (over the canonical header bytes plus the body up to
/// the trailer) and stripped — a mismatch is a typed kDataLoss error.
/// `degraded` (optional) receives the response's 0x20 flag. Any other flag
/// bit on a response frame is malformed: responses carry no envelope; and
/// 0x20 on a request frame is malformed in turn.
Result<Request> DecodeRequestBody(const FrameHeader& header,
                                  const uint8_t* body, size_t size,
                                  RequestEnvelope* envelope = nullptr);
Result<Response> DecodeResponseBody(const FrameHeader& header,
                                    const uint8_t* body, size_t size,
                                    ResponseProfile* profile = nullptr,
                                    bool* degraded = nullptr);

/// Wire type of a message (exposed for tests and the server loop).
MessageType TypeOf(const Request& request);
MessageType TypeOf(const Response& response);

}  // namespace cbir::api

#endif  // CBIR_API_CODEC_H_
