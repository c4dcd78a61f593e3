#include "api/codec.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>

#include "logdb/wal.h"
#include "util/byte_io.h"

namespace cbir::api {

namespace {

// ----------------------------------------------------------------- visitors --
//
// Every wire layout below is one field list, `Fields(IO&, M&)`, that names
// the fields of M in wire order. Running it with a Writer encodes and with a
// Reader decodes, so encode and decode cannot disagree about a byte. Fields
// are typed: integers travel at their own width, doubles as IEEE-754 bits,
// enums as their underlying integer, strings as a u32 length plus bytes,
// and vectors as a u32 count plus that many elements. Anything else is a
// struct with a field list of its own.

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// What ByteWriter and ByteReader encode directly.
template <typename T>
constexpr bool kIsPrimitive = std::is_integral_v<T> ||
                              std::is_same_v<T, double> ||
                              std::is_same_v<T, std::string>;

/// Encodes fields by appending their little-endian bytes.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : bytes_(out) {}

  template <typename... T>
  void operator()(const T&... fields) {
    (Put(fields), ...);
  }
  void Fail() {}

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      bytes_.Put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (kIsPrimitive<T>) {
      bytes_.Put(v);
    } else if constexpr (kIsVector<T>) {
      bytes_.Put(static_cast<uint32_t>(v.size()));
      for (const auto& element : v) Put(element);
    } else {
      // Field lists take M& so one function serves both directions; the
      // writer only ever reads through it.
      Fields(*this, const_cast<T&>(v));
    }
  }

  ByteWriter bytes_;
};

/// The minimum encoded size of one vector element, derived from its field
/// list: a default element has every string and vector empty, so it encodes
/// to the fewest bytes any element can. That is i32 4, f64 8, LogEntry 5,
/// Candidate 12, counter and gauge samples 20, histogram sample 68, profile
/// span 21, profile counter 12.
template <typename T>
size_t MinEncodedSize() {
  static const size_t bytes = [] {
    std::vector<uint8_t> out;
    Writer w(&out);
    w(T{});
    return out.size();
  }();
  return bytes;
}

/// Decodes fields, bounds-checked. The first short read (or Fail()) latches
/// the reader into failure; every later field is skipped, so decoders check
/// ok() once at the end. A vector's count is verified against the bytes
/// remaining, at the element's minimum encoded size, before the vector is
/// sized, so a hostile count cannot trigger a huge allocation.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : bytes_(data, size) {}

  template <typename... T>
  void operator()(T&... fields) {
    (Get(fields), ...);
  }
  void Fail() { ok_ = false; }
  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.remaining(); }

 private:
  template <typename T>
  void Get(T& v) {
    if (!ok_) return;
    if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      ok_ = bytes_.Read(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (kIsPrimitive<T>) {
      ok_ = bytes_.Read(&v);
    } else if constexpr (kIsVector<T>) {
      uint32_t n = 0;
      ok_ = bytes_.Read(&n) &&
            static_cast<size_t>(n) *
                    MinEncodedSize<typename T::value_type>() <=
                remaining();
      if (!ok_) return;
      v.resize(n);
      for (auto& element : v) Get(element);
    } else {
      Fields(*this, v);
    }
  }

  ByteReader bytes_;
  bool ok_ = true;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("wire codec: malformed frame (") +
                                 what + ")");
}

// -------------------------------------------------------------- field lists --

/// u32 magic precedes it on the wire; the decoder checks magic first.
template <class IO>
void Fields(IO& io, FrameHeader& m) {
  io(m.version, m.type, m.flags, m.body_size);
}

/// The v2 request envelope, in flag-bit order; only flagged fields travel.
template <class IO>
void Fields(IO& io, RequestEnvelope& m) {
  if (m.has_deadline) io(m.deadline_ms);
  if (m.has_seq) io(m.seq);
  if (m.has_trace_id) io(m.trace_id);
}

template <class IO>
void Fields(IO& io, QuerySpec& m) {
  io(m.kind);
  if (m.kind == QuerySpec::Kind::kCorpusId) {
    io(m.corpus_id);
  } else if (m.kind == QuerySpec::Kind::kFeature) {
    io(m.feature);
  } else {
    io.Fail();  // unknown QuerySpec kind
  }
}

template <class IO>
void Fields(IO& io, WireStatus& m) {
  io(m.code, m.message);
}

template <class IO>
void Fields(IO& io, logdb::LogEntry& m) {
  io(m.image_id, m.judgment);
}

template <class IO>
void Fields(IO& io, Candidate& m) {
  io(m.id, m.distance);
}

template <class IO>
void Fields(IO& io, MetricCounterSample& m) {
  io(m.name, m.label_key, m.label_value, m.value);
}

template <class IO>
void Fields(IO& io, MetricGaugeSample& m) {
  io(m.name, m.label_key, m.label_value, m.value);
}

template <class IO>
void Fields(IO& io, MetricHistogramSample& m) {
  io(m.name, m.label_key, m.label_value, m.count, m.saturated, m.mean_us,
     m.p50_us, m.p95_us, m.p99_us, m.max_us);
}

template <class IO>
void Fields(IO& io, ProfileSpan& m) {
  io(m.name, m.start_us, m.duration_us, m.depth);
}

template <class IO>
void Fields(IO& io, ProfileCounter& m) {
  io(m.name, m.value);
}

/// The 0x08 profile block, between a v2 response header and its body.
template <class IO>
void Fields(IO& io, ResponseProfile& m) {
  io(m.trace_id, m.total_us, m.spans, m.counters);
}

template <class IO>
void Fields(IO& io, StartSessionRequest& m) {
  io(m.query);
}

template <class IO>
void Fields(IO& io, QueryRequest& m) {
  io(m.session_id, m.k);
}

template <class IO>
void Fields(IO& io, FeedbackRequest& m) {
  io(m.session_id, m.k, m.round);
}

template <class IO>
void Fields(IO& io, EndSessionRequest& m) {
  io(m.session_id);
}

template <class IO>
void Fields(IO&, StatsRequest&) {}

template <class IO>
void Fields(IO&, MetricsRequest&) {}

template <class IO>
void Fields(IO&, DescribeRequest&) {}

template <class IO>
void Fields(IO& io, CandidateRequest& m) {
  io(m.query, m.k);
}

template <class IO>
void Fields(IO& io, StartSessionResponse& m) {
  io(m.status, m.session_id);
}

template <class IO>
void Fields(IO& io, QueryResponse& m) {
  io(m.status, m.ranking);
}

template <class IO>
void Fields(IO& io, FeedbackResponse& m) {
  io(m.status, m.ranking);
}

template <class IO>
void Fields(IO& io, EndSessionResponse& m) {
  io(m.status);
}

template <class IO>
void Fields(IO& io, StatsResponse& m) {
  io(m.status, m.requests, m.queries, m.feedbacks, m.sessions_started,
     m.sessions_ended, m.active_sessions, m.log_sessions_appended,
     m.cache_hit_rate, m.qps, m.latency_p50_us, m.latency_p95_us,
     m.latency_p99_us);
}

template <class IO>
void Fields(IO& io, MetricsResponse& m) {
  io(m.status, m.counters, m.gauges, m.histograms);
}

template <class IO>
void Fields(IO& io, DescribeResponse& m) {
  io(m.status, m.corpus_size, m.dims, m.num_categories, m.candidate_depth,
     m.default_k, m.scheme, m.index);
}

template <class IO>
void Fields(IO& io, CandidateResponse& m) {
  io(m.status, m.candidates);
}

template <class IO>
void Fields(IO& io, ErrorResponse& m) {
  io(m.status);
}

// ------------------------------------------------------------- type tables --

/// Wire type of each variant alternative, in variant order: the one place a
/// message is bound to its type number.
template <class Variant>
struct Wire;

template <>
struct Wire<Request> {
  static constexpr MessageType kTypes[] = {
      MessageType::kStartSessionRequest, MessageType::kQueryRequest,
      MessageType::kFeedbackRequest,     MessageType::kEndSessionRequest,
      MessageType::kStatsRequest,        MessageType::kMetricsRequest,
      MessageType::kDescribeRequest,     MessageType::kCandidateRequest,
  };
  static constexpr const char* kOtherSide =
      "response type where a request was expected";
};

template <>
struct Wire<Response> {
  static constexpr MessageType kTypes[] = {
      MessageType::kStartSessionResponse, MessageType::kQueryResponse,
      MessageType::kFeedbackResponse,     MessageType::kEndSessionResponse,
      MessageType::kStatsResponse,        MessageType::kMetricsResponse,
      MessageType::kDescribeResponse,     MessageType::kCandidateResponse,
      MessageType::kErrorResponse,
  };
  static constexpr const char* kOtherSide =
      "request type where a response was expected";
};

static_assert(std::size(Wire<Request>::kTypes) ==
              std::variant_size_v<Request>);
static_assert(std::size(Wire<Response>::kTypes) ==
              std::variant_size_v<Response>);

/// Index of `type` in Variant's type table, or variant_size when the type
/// belongs to the other side.
template <class Variant>
size_t IndexOf(MessageType type) {
  const auto& types = Wire<Variant>::kTypes;
  return static_cast<size_t>(std::find(std::begin(types), std::end(types),
                                       type) -
                             std::begin(types));
}

/// Flag bit of each request-envelope member.
constexpr std::pair<uint8_t, bool RequestEnvelope::*> kEnvelopeFlags[] = {
    {kFrameFlagDeadline, &RequestEnvelope::has_deadline},
    {kFrameFlagSeq, &RequestEnvelope::has_seq},
    {kFrameFlagTraceId, &RequestEnvelope::has_trace_id},
    {kFrameFlagProfile, &RequestEnvelope::has_profile},
    {kFrameFlagChecksum, &RequestEnvelope::has_checksum},
};

// ----------------------------------------------------------------- framing --

/// Writes one frame: the header (v1 exactly when `flags` is 0, so a peer
/// that opted into nothing sees byte-identical v1 traffic), `prefix` when
/// non-null (the request envelope or the response profile block), the
/// body, the body_size patch, and, under flag 0x10, the CRC32 trailer over
/// every byte before it.
template <class Variant, class Prefix>
std::vector<uint8_t> EncodeFrame(const Variant& message, uint8_t flags,
                                 const Prefix* prefix) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w(kWireMagic, FrameHeader{flags == 0 ? kProtocolVersionV1 : kProtocolVersion,
                            TypeOf(message), flags, 0});
  if (prefix != nullptr) w(*prefix);
  std::visit([&](const auto& body) { w(body); }, message);
  const bool checksum = (flags & kFrameFlagChecksum) != 0;
  const uint32_t body_size = static_cast<uint32_t>(
      out.size() - kFrameHeaderBytes + (checksum ? kChecksumTrailerBytes : 0));
  for (int i = 0; i < 4; ++i) out[8 + i] = uint8_t(body_size >> (8 * i));
  if (checksum) w(logdb::Crc32(out.data(), out.size()));
  return out;
}

/// Verifies and strips the flag-0x10 trailer off a frame body: recomputes
/// the CRC over the canonical header bytes plus the body up to the trailer
/// and compares. On success `*size` shrinks past the trailer; a mismatch is
/// a typed kDataLoss.
Status VerifyAndStripChecksum(const FrameHeader& header, const uint8_t* body,
                              size_t* size) {
  if (*size < kChecksumTrailerBytes) {
    return Malformed("short checksum trailer");
  }
  const size_t payload = *size - kChecksumTrailerBytes;
  // Rebuild the 12 header bytes exactly as the sender framed them — the
  // trailer covers type, flags, and body_size too, so a bit flip anywhere
  // in the frame is caught.
  std::vector<uint8_t> canonical;
  Writer w(&canonical);
  w(kWireMagic, header);
  uint32_t crc = logdb::Crc32(canonical.data(), canonical.size());
  crc = logdb::Crc32Continue(crc, body, payload);
  uint32_t stored = 0;
  ByteReader(body + payload, kChecksumTrailerBytes).Read(&stored);
  if (crc != stored) {
    return Status::DataLoss(
        "wire codec: frame failed its CRC32 integrity check (flag 0x10)");
  }
  *size = payload;
  return Status::OK();
}

/// Decodes the field list at the front of a body (envelope or profile
/// block) and advances `body` past it.
template <class Prefix>
Status StripPrefix(const uint8_t** body, size_t* size, Prefix* prefix,
                   const char* short_what) {
  Reader r(*body, *size);
  r(*prefix);
  if (!r.ok()) return Malformed(short_what);
  *body += *size - r.remaining();
  *size = r.remaining();
  return Status::OK();
}

template <class Variant, class Message>
Result<Variant> DecodeAs(const uint8_t* body, size_t size) {
  Reader r(body, size);
  Message message;
  r(message);
  if (!r.ok()) return Malformed("short body");
  if (r.remaining() != 0) return Malformed("trailing bytes");
  return Variant(std::move(message));
}

/// Decodes one body into the Variant alternative `type` names, through a
/// decoder array generated from the variant's alternatives.
template <class Variant, size_t... I>
Result<Variant> DecodeMessage(MessageType type, const uint8_t* body,
                              size_t size, std::index_sequence<I...>) {
  using Decoder = Result<Variant> (*)(const uint8_t*, size_t);
  static constexpr Decoder kDecoders[] = {
      &DecodeAs<Variant, std::variant_alternative_t<I, Variant>>...};
  const size_t index = IndexOf<Variant>(type);
  if (index == sizeof...(I)) return Malformed(Wire<Variant>::kOtherSide);
  return kDecoders[index](body, size);
}

template <class Variant>
Result<Variant> DecodeMessage(MessageType type, const uint8_t* body,
                              size_t size) {
  return DecodeMessage<Variant>(
      type, body, size,
      std::make_index_sequence<std::variant_size_v<Variant>>());
}

Result<FrameHeader> DecodeWholeFrameHeader(const uint8_t* data, size_t size) {
  CBIR_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(data, size));
  if (size != kFrameHeaderBytes + header.body_size) {
    return Malformed(size < kFrameHeaderBytes + header.body_size
                         ? "truncated body"
                         : "trailing bytes after frame");
  }
  return header;
}

}  // namespace

MessageType TypeOf(const Request& request) {
  return Wire<Request>::kTypes[request.index()];
}

MessageType TypeOf(const Response& response) {
  return Wire<Response>::kTypes[response.index()];
}

std::vector<uint8_t> EncodeRequest(const Request& request,
                                   const RequestEnvelope& envelope) {
  uint8_t flags = 0;
  for (const auto& [bit, member] : kEnvelopeFlags) {
    if (envelope.*member) flags |= bit;
  }
  return EncodeFrame(request, flags, &envelope);
}

std::vector<uint8_t> EncodeResponse(const Response& response,
                                    const ResponseFrameOptions& options) {
  // Each bit is opt-in per request, so v1 clients still see v1 bytes.
  uint8_t flags = 0;
  if (options.profile != nullptr) flags |= kFrameFlagProfile;
  if (options.checksum) flags |= kFrameFlagChecksum;
  if (options.degraded) flags |= kFrameFlagDegraded;
  return EncodeFrame(response, flags, options.profile);
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) return Malformed("truncated header");
  // Cannot fail: 12 bytes were checked.
  Reader r(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  FrameHeader header;
  r(magic, header);
  if (magic != kWireMagic) return Malformed("bad magic");
  if (header.version != kProtocolVersionV1 &&
      header.version != kProtocolVersion) {
    return Status::NotImplemented(
        "wire codec: unsupported protocol version " +
        std::to_string(header.version) + " (this peer speaks up to " +
        std::to_string(kProtocolVersion) + ")");
  }
  // v1 never defined the reserved byte, so it stays ignored; v2 made it the
  // envelope flags, where an unknown bit means a peer newer than us.
  if (header.version == kProtocolVersionV1) {
    header.flags = 0;
  } else if ((header.flags & ~kKnownFrameFlags) != 0) {
    return Malformed("unknown frame flags");
  }
  if (header.body_size > kMaxFrameBody) {
    return Status::OutOfRange("wire codec: frame body of " +
                              std::to_string(header.body_size) +
                              " bytes exceeds the " +
                              std::to_string(kMaxFrameBody) + "-byte limit");
  }
  if (IndexOf<Request>(header.type) == std::variant_size_v<Request> &&
      IndexOf<Response>(header.type) == std::variant_size_v<Response>) {
    return Malformed("unknown message type");
  }
  return header;
}

Result<Request> DecodeRequestBody(const FrameHeader& header,
                                  const uint8_t* body, size_t size,
                                  RequestEnvelope* envelope) {
  if (header.flags & kFrameFlagDegraded) {
    // 0x20 marks a degraded *response*; on a request it is nonsense.
    return Malformed("degraded flag on a request");
  }
  if (header.flags & kFrameFlagChecksum) {
    // Integrity first: nothing else in the frame is parsed until the
    // trailer matches, so a flipped bit cannot decode as a different
    // valid request.
    Status verified = VerifyAndStripChecksum(header, body, &size);
    if (!verified.ok()) return verified;
  }
  // Strip the v2 envelope off the body prefix before the message decoder
  // sees it; a v1 frame has no flags, so this is a no-op there. 0x08 is
  // flag-only on requests: the ask rides the bit, not bytes.
  RequestEnvelope parsed;
  for (const auto& [bit, member] : kEnvelopeFlags) {
    parsed.*member = (header.flags & bit) != 0;
  }
  Status stripped = StripPrefix(&body, &size, &parsed, "short envelope");
  if (!stripped.ok()) return stripped;
  if (envelope != nullptr) *envelope = parsed;
  return DecodeMessage<Request>(header.type, body, size);
}

Result<Response> DecodeResponseBody(const FrameHeader& header,
                                    const uint8_t* body, size_t size,
                                    ResponseProfile* profile,
                                    bool* degraded) {
  if ((header.flags &
       ~(kFrameFlagProfile | kFrameFlagChecksum | kFrameFlagDegraded)) != 0) {
    // Responses carry no envelope: deadline/seq/trace bits on a response
    // frame mean a confused or hostile peer, not a newer protocol.
    return Malformed("request envelope flags on a response");
  }
  if (header.flags & kFrameFlagChecksum) {
    Status verified = VerifyAndStripChecksum(header, body, &size);
    if (!verified.ok()) return verified;
  }
  if (degraded != nullptr) {
    *degraded = (header.flags & kFrameFlagDegraded) != 0;
  }
  if (header.flags & kFrameFlagProfile) {
    ResponseProfile parsed;
    Status stripped =
        StripPrefix(&body, &size, &parsed, "short profile block");
    if (!stripped.ok()) return stripped;
    if (profile != nullptr) *profile = std::move(parsed);
  }
  return DecodeMessage<Response>(header.type, body, size);
}

Result<Request> DecodeRequest(const uint8_t* data, size_t size,
                              RequestEnvelope* envelope) {
  CBIR_ASSIGN_OR_RETURN(FrameHeader header,
                        DecodeWholeFrameHeader(data, size));
  return DecodeRequestBody(header, data + kFrameHeaderBytes, header.body_size,
                           envelope);
}

Result<Response> DecodeResponse(const uint8_t* data, size_t size,
                                ResponseProfile* profile, bool* degraded) {
  CBIR_ASSIGN_OR_RETURN(FrameHeader header,
                        DecodeWholeFrameHeader(data, size));
  return DecodeResponseBody(header, data + kFrameHeaderBytes,
                            header.body_size, profile, degraded);
}

}  // namespace cbir::api
