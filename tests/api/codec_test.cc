#include "api/codec.h"

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

namespace cbir::api {
namespace {

// ---------------------------------------------------------- round-tripping --

/// Every request message round-trips bit-exactly through one frame.
template <typename M>
void ExpectRequestRoundTrip(const M& message) {
  const Request request(message);
  const std::vector<uint8_t> frame = EncodeRequest(request);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(std::holds_alternative<M>(decoded.value()));
  EXPECT_TRUE(std::get<M>(decoded.value()) == message);
}

template <typename M>
void ExpectResponseRoundTrip(const M& message) {
  const Response response(message);
  const std::vector<uint8_t> frame = EncodeResponse(response);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  Result<Response> decoded = DecodeResponse(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(std::holds_alternative<M>(decoded.value()));
  EXPECT_TRUE(std::get<M>(decoded.value()) == message);
}

TEST(CodecRoundTripTest, StartSessionRequestById) {
  StartSessionRequest m;
  m.query = QuerySpec::ById(12345);
  ExpectRequestRoundTrip(m);
  m.query = QuerySpec::ById(-1);  // invalid semantically, still encodable
  ExpectRequestRoundTrip(m);
}

TEST(CodecRoundTripTest, StartSessionRequestByFeature) {
  StartSessionRequest m;
  m.query = QuerySpec::ByFeature({0.0, -1.5, 3.25, 1e300, -0.0,
                                  std::numeric_limits<double>::infinity()});
  ExpectRequestRoundTrip(m);
  // Empty feature vector: representable on the wire (the service rejects it
  // with a typed error, not the codec).
  m.query = QuerySpec::ByFeature({});
  ExpectRequestRoundTrip(m);
}

TEST(CodecRoundTripTest, QueryRequest) {
  QueryRequest m;
  m.session_id = 0;
  m.k = 0;
  ExpectRequestRoundTrip(m);
  m.session_id = std::numeric_limits<uint64_t>::max();
  m.k = std::numeric_limits<int32_t>::min();
  ExpectRequestRoundTrip(m);
}

TEST(CodecRoundTripTest, FeedbackRequest) {
  FeedbackRequest m;
  m.session_id = 77;
  m.k = 20;
  ExpectRequestRoundTrip(m);  // empty round
  for (int i = 0; i < 200; ++i) {
    m.round.push_back(logdb::LogEntry{i * 3, int8_t(i % 2 == 0 ? 1 : -1)});
  }
  ExpectRequestRoundTrip(m);
}

TEST(CodecRoundTripTest, EndSessionAndStatsRequests) {
  EndSessionRequest end;
  end.session_id = 42;
  ExpectRequestRoundTrip(end);
  ExpectRequestRoundTrip(StatsRequest{});
}

TEST(CodecRoundTripTest, StartSessionResponse) {
  StartSessionResponse m;
  m.session_id = 99;
  ExpectResponseRoundTrip(m);
  m.status.code = StatusCodeToWireCode(StatusCode::kInvalidArgument);
  m.status.message = "query id out of range";
  m.session_id = 0;
  ExpectResponseRoundTrip(m);
}

TEST(CodecRoundTripTest, RankingResponses) {
  QueryResponse q;
  ExpectResponseRoundTrip(q);  // empty ranking, OK status
  for (int i = 0; i < 1000; ++i) q.ranking.push_back(1000 - i);
  ExpectResponseRoundTrip(q);

  FeedbackResponse f;
  f.ranking = {5, 4, 3, 2, 1, 0, -1};
  f.status.message = std::string(4096, 'x');  // maximal-ish message
  f.status.code = StatusCodeToWireCode(StatusCode::kNotFound);
  ExpectResponseRoundTrip(f);
}

TEST(CodecRoundTripTest, EndSessionStatsAndErrorResponses) {
  EndSessionResponse end;
  end.status.code = StatusCodeToWireCode(StatusCode::kNotFound);
  end.status.message = "unknown session";
  ExpectResponseRoundTrip(end);

  StatsResponse stats;
  stats.requests = 123456789;
  stats.queries = 1;
  stats.feedbacks = 2;
  stats.sessions_started = 3;
  stats.sessions_ended = 4;
  stats.active_sessions = 5;
  stats.log_sessions_appended = 6;
  stats.cache_hit_rate = 0.875;
  stats.qps = 1234.5;
  stats.latency_p50_us = 10.0;
  stats.latency_p95_us = 100.0;
  stats.latency_p99_us = 1000.0;
  ExpectResponseRoundTrip(stats);

  ErrorResponse error;
  error.status.code = StatusCodeToWireCode(StatusCode::kNotImplemented);
  error.status.message = "unsupported protocol version 9";
  ExpectResponseRoundTrip(error);
}

// ------------------------------------------------------------- wire status --

TEST(WireStatusTest, RoundTripsEveryStatusCode) {
  for (StatusCode code : kAllStatusCodes) {
    const Status status = code == StatusCode::kOk
                              ? Status::OK()
                              : Status(code, "some message");
    const WireStatus wire = ToWireStatus(status);
    const Status back = FromWireStatus(wire);
    EXPECT_EQ(back.code(), code) << StatusCodeToString(code);
    if (code != StatusCode::kOk) EXPECT_EQ(back.message(), "some message");
  }
}

TEST(WireStatusTest, UnknownWireCodeNeverDecodesAsOk) {
  WireStatus wire;
  wire.code = 0xDEADBEEF;
  wire.message = "from a newer peer";
  const Status back = FromWireStatus(wire);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.code(), StatusCode::kInternal);
}

// ------------------------------------------------------- malformed frames --

std::vector<uint8_t> ValidFrame() {
  FeedbackRequest m;
  m.session_id = 7;
  m.k = 10;
  m.round = {logdb::LogEntry{1, 1}, logdb::LogEntry{2, -1}};
  return EncodeRequest(Request(m));
}

TEST(CodecRobustnessTest, EveryTruncationFailsTyped) {
  const std::vector<uint8_t> frame = ValidFrame();
  for (size_t len = 0; len < frame.size(); ++len) {
    Result<Request> decoded = DecodeRequest(frame.data(), len);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CodecRobustnessTest, EverySingleBitFlipIsHandled) {
  const std::vector<uint8_t> frame = ValidFrame();
  // Flipping any single bit must produce either a typed decode error or a
  // (different) successfully decoded message — never UB or a crash. The CI
  // asan job runs this corpus under AddressSanitizer.
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = frame;
      corrupt[byte] = uint8_t(corrupt[byte] ^ (1u << bit));
      Result<Request> decoded = DecodeRequest(corrupt.data(), corrupt.size());
      if (!decoded.ok()) {
        const StatusCode code = decoded.status().code();
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kOutOfRange ||
                    code == StatusCode::kNotImplemented)
            << "byte " << byte << " bit " << bit << ": "
            << decoded.status();
      }
    }
  }
}

TEST(CodecRobustnessTest, BadMagicRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[0] = uint8_t(frame[0] ^ 0xFF);
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("bad magic"), std::string::npos);
}

TEST(CodecRobustnessTest, WrongVersionRejectedAsNotImplemented) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[4] = uint8_t(kProtocolVersion + 1);  // version lives at offset 4
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotImplemented);
}

TEST(CodecRobustnessTest, OversizedBodyRejectedBeforeAllocation) {
  std::vector<uint8_t> frame = ValidFrame();
  // Declare a body far beyond kMaxFrameBody; only the 12 header bytes
  // exist, so an implementation that trusted the length would allocate or
  // read wildly.
  const uint32_t huge = kMaxFrameBody + 1;
  for (int i = 0; i < 4; ++i) frame[8 + i] = uint8_t(huge >> (8 * i));
  Result<FrameHeader> header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
}

TEST(CodecRobustnessTest, UnknownMessageTypeRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[6] = 0x7F;  // type byte
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecRobustnessTest, ResponseTypeInRequestStreamRejected) {
  const std::vector<uint8_t> frame =
      EncodeResponse(Response(EndSessionResponse{}));
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  const std::vector<uint8_t> request_frame = ValidFrame();
  Result<Response> response =
      DecodeResponse(request_frame.data(), request_frame.size());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecRobustnessTest, TrailingBytesRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  frame.push_back(0xAB);
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecRobustnessTest, HostileContainerLengthRejectedBeforeAllocation) {
  // A StartSessionRequest whose feature-count prefix claims 2^32-1 doubles
  // in a tiny body must fail the bounds check, not allocate 32 GiB.
  StartSessionRequest m;
  m.query = QuerySpec::ByFeature({1.0});
  std::vector<uint8_t> frame = EncodeRequest(Request(m));
  // Body layout: u8 kind, u32 count, doubles. Count sits at header+1.
  const size_t count_offset = kFrameHeaderBytes + 1;
  for (int i = 0; i < 4; ++i) frame[count_offset + i] = 0xFF;
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecRobustnessTest, UnknownQuerySpecKindRejected) {
  StartSessionRequest m;
  m.query = QuerySpec::ById(3);
  std::vector<uint8_t> frame = EncodeRequest(Request(m));
  frame[kFrameHeaderBytes] = 9;  // kind byte
  Result<Request> decoded = DecodeRequest(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecRobustnessTest, GarbageBytesNeverCrash) {
  // Deterministic pseudo-random garbage, many lengths: decoding must always
  // return, never crash (ASan-gated in CI).
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t len : {0ul, 1ul, 11ul, 12ul, 13ul, 64ul, 1024ul}) {
    for (int rep = 0; rep < 64; ++rep) {
      std::vector<uint8_t> garbage(len);
      for (auto& b : garbage) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = uint8_t(x);
      }
      Result<Request> req = DecodeRequest(garbage.data(), garbage.size());
      Result<Response> resp = DecodeResponse(garbage.data(), garbage.size());
      // Random 12+ byte buffers essentially never form the magic; either
      // way both calls must have returned in a defined state.
      (void)req;
      (void)resp;
    }
  }
}

TEST(CodecFramingTest, HeaderFieldsAndTypeOf) {
  // An envelope-free request encodes as a v1 frame: old servers keep
  // understanding new clients that don't use v2 features.
  const std::vector<uint8_t> frame = ValidFrame();
  Result<FrameHeader> header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, kProtocolVersionV1);
  EXPECT_EQ(header->flags, 0);
  EXPECT_EQ(header->type, MessageType::kFeedbackRequest);
  EXPECT_EQ(header->body_size, frame.size() - kFrameHeaderBytes);

  EXPECT_EQ(TypeOf(Request(StatsRequest{})), MessageType::kStatsRequest);
  EXPECT_EQ(TypeOf(Response(ErrorResponse{})), MessageType::kErrorResponse);
}

// ------------------------------------------------------ protocol v2 frames --

TEST(CodecV2Test, EnvelopeRoundTripsThroughV2Frame) {
  FeedbackRequest m;
  m.session_id = 7;
  m.round = {logdb::LogEntry{1, 1}};
  for (const RequestEnvelope sent :
       {RequestEnvelope::WithDeadline(1500),
        [] {
          RequestEnvelope e;
          e.has_seq = true;
          e.seq = 42;
          return e;
        }(),
        [] {
          RequestEnvelope e = RequestEnvelope::WithDeadline(0);  // cancel
          e.has_seq = true;
          e.seq = 0xFFFFFFFF;
          return e;
        }(),
        RequestEnvelope::WithTraceId(0x0123456789ABCDEFull),
        RequestEnvelope::WithTraceId(std::numeric_limits<uint64_t>::max()),
        [] {
          // All three fields at once: deadline, seq, trace id, in flag-bit
          // order on the wire.
          RequestEnvelope e = RequestEnvelope::WithDeadline(30000);
          e.has_seq = true;
          e.seq = 7;
          e.has_trace_id = true;
          e.trace_id = 0xCAFEBABEDEADBEEFull;
          return e;
        }()}) {
    const std::vector<uint8_t> frame = EncodeRequest(Request(m), sent);
    Result<FrameHeader> header =
        DecodeFrameHeader(frame.data(), frame.size());
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->version, kProtocolVersion);
    RequestEnvelope got;
    Result<Request> decoded = DecodeRequest(frame.data(), frame.size(), &got);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(got == sent);
    ASSERT_TRUE(std::holds_alternative<FeedbackRequest>(decoded.value()));
    EXPECT_TRUE(std::get<FeedbackRequest>(decoded.value()) == m);
  }
}

TEST(CodecV2Test, EmptyEnvelopeIsByteIdenticalToV1) {
  QueryRequest m;
  m.session_id = 9;
  m.k = 5;
  const std::vector<uint8_t> v1 = EncodeRequest(Request(m));
  const std::vector<uint8_t> v2 = EncodeRequest(Request(m), RequestEnvelope{});
  EXPECT_EQ(v1, v2);
}

TEST(CodecV2Test, V1DecoderSurfacesEmptyEnvelope) {
  // A v1 frame decoded through the envelope-aware path reports no deadline
  // and no seq — old clients against new servers.
  QueryRequest m;
  m.session_id = 3;
  const std::vector<uint8_t> frame = EncodeRequest(Request(m));
  RequestEnvelope envelope = RequestEnvelope::WithDeadline(99);  // stale
  Result<Request> decoded =
      DecodeRequest(frame.data(), frame.size(), &envelope);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(envelope.empty());
}

TEST(CodecV2Test, UnknownFlagBitsRejected) {
  FeedbackRequest m;
  const std::vector<uint8_t> frame =
      EncodeRequest(Request(m), RequestEnvelope::WithDeadline(10));
  // Bits 0-4 are assigned (deadline/seq/trace/profile/checksum) and bit 5
  // (degraded) is response-only; 6-7 must stay rejected so they remain
  // available to future protocol revisions.
  for (uint8_t bit = 5; bit < 8; ++bit) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[7] = uint8_t(corrupt[7] | (1u << bit));  // flags live at offset 7
    Result<Request> decoded = DecodeRequest(corrupt.data(), corrupt.size());
    ASSERT_FALSE(decoded.ok()) << "flag bit " << int(bit) << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  // Bit 4 claims a CRC32 trailer the frame doesn't carry: rejected too, but
  // as data loss — the decoder can't tell a missing trailer from corruption.
  std::vector<uint8_t> claims_crc = frame;
  claims_crc[7] = uint8_t(claims_crc[7] | 0x10);
  Result<Request> decoded = DecodeRequest(claims_crc.data(), claims_crc.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CodecV2Test, TruncatedEnvelopeFailsTyped) {
  FeedbackRequest m;
  m.round = {logdb::LogEntry{4, -1}};
  RequestEnvelope envelope = RequestEnvelope::WithDeadline(250);
  envelope.has_seq = true;
  envelope.seq = 8;
  const std::vector<uint8_t> frame = EncodeRequest(Request(m), envelope);
  for (size_t len = 0; len < frame.size(); ++len) {
    Result<Request> decoded = DecodeRequest(frame.data(), len);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(CodecV2Test, ResponsesStayV1) {
  // Responses never carry envelopes, so a v2-speaking server remains
  // byte-compatible with v1 clients on the reply path.
  QueryResponse m;
  m.ranking = {1, 2, 3};
  const std::vector<uint8_t> frame = EncodeResponse(Response(m));
  Result<FrameHeader> header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, kProtocolVersionV1);
}

TEST(CodecV2Test, EverySingleBitFlipOfV2FrameIsHandled) {
  FeedbackRequest m;
  m.session_id = 7;
  m.round = {logdb::LogEntry{1, 1}, logdb::LogEntry{2, -1}};
  RequestEnvelope envelope = RequestEnvelope::WithDeadline(2000);
  envelope.has_seq = true;
  envelope.seq = 77;
  envelope.has_trace_id = true;
  envelope.trace_id = 0x1122334455667788ull;
  const std::vector<uint8_t> frame = EncodeRequest(Request(m), envelope);
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = frame;
      corrupt[byte] = uint8_t(corrupt[byte] ^ (1u << bit));
      Result<Request> decoded = DecodeRequest(corrupt.data(), corrupt.size());
      if (!decoded.ok()) {
        const StatusCode code = decoded.status().code();
        // kDataLoss: a flip of flags bit 4 makes the frame claim a CRC32
        // trailer it doesn't carry, which fails the integrity check typed.
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kOutOfRange ||
                    code == StatusCode::kNotImplemented ||
                    code == StatusCode::kDataLoss)
            << "byte " << byte << " bit " << bit << ": " << decoded.status();
      }
    }
  }
}

TEST(CodecV2Test, TraceIdOnlyEnvelopeAddsExactlyNineBytes) {
  // flag byte is already in the header; the trace id costs 8 envelope bytes,
  // and the frame stays v1-shaped everywhere else.
  QueryRequest m;
  m.session_id = 11;
  const std::vector<uint8_t> v1 = EncodeRequest(Request(m));
  const std::vector<uint8_t> v2 =
      EncodeRequest(Request(m), RequestEnvelope::WithTraceId(5));
  EXPECT_EQ(v2.size(), v1.size() + 8);
  Result<FrameHeader> header = DecodeFrameHeader(v2.data(), v2.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->flags, kFrameFlagTraceId);
}

// ----------------------------------------------------- profile (EXPLAIN) --

ResponseProfile MakeProfile() {
  ResponseProfile p;
  p.trace_id = 0xabcdef0123456789ull;
  p.total_us = 4211;
  p.spans = {{"decode", 0, 12, 0},
             {"solve", 118, 3970, 0},
             {"smo_inner", 200, 3500, 1}};
  p.counters = {{"smo_iterations", 142},
                {"kernel_cache_hits", 950},
                {"index_delta", -3}};  // two's complement survives the wire
  return p;
}

TEST(CodecProfileTest, ProfileFlagOnRequestCarriesNoEnvelopeBytes) {
  QueryRequest m;
  m.session_id = 4;
  const std::vector<uint8_t> v1 = EncodeRequest(Request(m));
  const std::vector<uint8_t> flagged =
      EncodeRequest(Request(m), RequestEnvelope::WithProfile());
  // Same length: the flag bit is the whole encoding.
  EXPECT_EQ(flagged.size(), v1.size());
  Result<FrameHeader> header =
      DecodeFrameHeader(flagged.data(), flagged.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->flags, kFrameFlagProfile);
  RequestEnvelope envelope;
  Result<Request> decoded =
      DecodeRequest(flagged.data(), flagged.size(), &envelope);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(envelope.has_profile);
  EXPECT_FALSE(envelope.has_deadline);
}

TEST(CodecProfileTest, ProfiledResponseRoundTrips) {
  QueryResponse m;
  m.ranking = {5, 3, 8};
  const ResponseProfile sent = MakeProfile();
  const std::vector<uint8_t> frame =
      EncodeResponse(Response(m), ResponseFrameOptions{.profile = &sent});
  Result<FrameHeader> header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->flags, kFrameFlagProfile);
  ResponseProfile got;
  Result<Response> decoded =
      DecodeResponse(frame.data(), frame.size(), &got);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(std::holds_alternative<QueryResponse>(decoded.value()));
  EXPECT_TRUE(std::get<QueryResponse>(decoded.value()) == m);
  EXPECT_TRUE(got == sent);
}

TEST(CodecProfileTest, ProfiledResponseDecodesWithoutOutParam) {
  // A caller that never asked for the profile still decodes the response;
  // the block is parsed, validated, and dropped.
  QueryResponse m;
  m.ranking = {1};
  const ResponseProfile profile = MakeProfile();
  const std::vector<uint8_t> frame =
      EncodeResponse(Response(m), ResponseFrameOptions{.profile = &profile});
  Result<Response> decoded = DecodeResponse(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(std::get<QueryResponse>(decoded.value()) == m);
}

TEST(CodecProfileTest, NullProfileEncodesByteIdenticalV1) {
  // The whole compatibility story in one assertion: not asking for a
  // profile yields exactly the bytes the previous protocol revision sent.
  QueryResponse m;
  m.ranking = {9, 2, 4};
  EXPECT_EQ(
      EncodeResponse(Response(m), ResponseFrameOptions{.profile = nullptr}),
      EncodeResponse(Response(m)));
}

TEST(CodecProfileTest, EnvelopeFlagsOnResponseRejected) {
  QueryResponse m;
  const ResponseProfile profile = MakeProfile();
  std::vector<uint8_t> frame =
      EncodeResponse(Response(m), ResponseFrameOptions{.profile = &profile});
  for (uint8_t flag : {kFrameFlagDeadline, kFrameFlagSeq, kFrameFlagTraceId}) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[7] = uint8_t(corrupt[7] | flag);  // flags live at offset 7
    Result<Response> decoded = DecodeResponse(corrupt.data(), corrupt.size());
    ASSERT_FALSE(decoded.ok()) << "flag " << int(flag) << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CodecProfileTest, HostileSpanCountRejectedBeforeAllocation) {
  QueryResponse m;
  const ResponseProfile profile = MakeProfile();
  std::vector<uint8_t> frame =
      EncodeResponse(Response(m), ResponseFrameOptions{.profile = &profile});
  // span_count is the u32 after the header (12) + trace_id (8) + total (8).
  const size_t count_at = kFrameHeaderBytes + 16;
  for (size_t i = 0; i < 4; ++i) frame[count_at + i] = 0xFF;
  Result<Response> decoded = DecodeResponse(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecProfileTest, EverySingleBitFlipOfProfiledFrameIsHandled) {
  // The profiled-response corpus twin of EverySingleBitFlipOfV2Frame: no
  // flip may crash or hang the decoder, only fail typed (or decode as a
  // different valid frame — integrity is opt-in via flag 0x10, and this
  // frame doesn't carry it).
  FeedbackResponse m;
  m.ranking = {3, 1, 4, 1, 5};
  const ResponseProfile profile = MakeProfile();
  const std::vector<uint8_t> frame =
      EncodeResponse(Response(m), ResponseFrameOptions{.profile = &profile});
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = frame;
      corrupt[byte] = uint8_t(corrupt[byte] ^ (1u << bit));
      ResponseProfile got;
      Result<Response> decoded =
          DecodeResponse(corrupt.data(), corrupt.size(), &got);
      if (!decoded.ok()) {
        const StatusCode code = decoded.status().code();
        // kDataLoss: a flip of flags bit 4 claims a CRC32 trailer the frame
        // doesn't carry, which fails the integrity check typed.
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kOutOfRange ||
                    code == StatusCode::kNotImplemented ||
                    code == StatusCode::kDataLoss)
            << "byte " << byte << " bit " << bit << ": " << decoded.status();
      }
    }
  }
}

// --------------------------------------------------------- metrics messages --

TEST(CodecRoundTripTest, MetricsRequest) {
  ExpectRequestRoundTrip(MetricsRequest{});
}

TEST(CodecRoundTripTest, MetricsResponseEmpty) {
  ExpectResponseRoundTrip(MetricsResponse{});
}

TEST(CodecRoundTripTest, MetricsResponsePopulated) {
  MetricsResponse m;
  MetricCounterSample c;
  c.name = "cbir_net_requests_total";
  c.value = std::numeric_limits<uint64_t>::max();
  m.counters.push_back(c);
  c.name = "cbir_request_stage_us";
  c.label_key = "stage";
  c.label_value = "solve";
  c.value = 0;
  m.counters.push_back(c);

  MetricGaugeSample g;
  g.name = "cbir_serve_active_sessions";
  g.value = -42;  // gauges are signed
  m.gauges.push_back(g);

  MetricHistogramSample h;
  h.name = "cbir_request_stage_us";
  h.label_key = "stage";
  h.label_value = "queue_wait";
  h.count = 123456;
  h.saturated = 7;
  h.mean_us = 41.5;
  h.p50_us = 10.0;
  h.p95_us = 510.25;
  h.p99_us = 990.0;
  h.max_us = 1e9;
  m.histograms.push_back(h);
  ExpectResponseRoundTrip(m);

  m.status.code = StatusCodeToWireCode(StatusCode::kUnavailable);
  m.status.message = "shed";
  ExpectResponseRoundTrip(m);
}

TEST(CodecRobustnessTest, MetricsResponseHostileCountRejected) {
  // A sample-count prefix claiming 2^32-1 histograms in a tiny body must
  // fail the bounds check before any allocation.
  MetricsResponse m;
  MetricHistogramSample h;
  h.name = "x";
  m.histograms.push_back(h);
  std::vector<uint8_t> frame = EncodeResponse(Response(m));
  // Body layout: WireStatus (u32 code, u32 len, bytes), then u32 counter
  // count (0), u32 gauge count (0), u32 histogram count.
  const size_t histogram_count_offset = kFrameHeaderBytes + 8 + 8;
  ASSERT_LT(histogram_count_offset + 4, frame.size());
  for (int i = 0; i < 4; ++i) frame[histogram_count_offset + i] = 0xFF;
  Result<Response> decoded = DecodeResponse(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ golden frames --

/// One pinned frame: a message, the envelope (requests) or frame options
/// (responses) it travels with, and the exact bytes the encoder emits. The
/// hex is the wire contract: an encoder or decoder change that moves a
/// single byte fails here, not in a peer running the previous release.
struct GoldenFrame {
  const char* name;
  std::variant<Request, Response> message;
  RequestEnvelope envelope;
  ResponseFrameOptions options;
  const char* hex;
};

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

std::vector<GoldenFrame> GoldenFrames() {
  static const ResponseProfile profile = MakeProfile();
  const WireStatus not_found = ToWireStatus(Status::NotFound("no session 9"));

  FeedbackRequest feedback;
  feedback.session_id = 7;
  feedback.k = 10;
  feedback.round = {logdb::LogEntry{1, 1}, logdb::LogEntry{2, -1}};
  CandidateRequest candidates_asked;
  candidates_asked.query = QuerySpec::ByFeature({0.5, -1.25});
  candidates_asked.k = 50;

  StartSessionResponse started;
  started.session_id = 42;
  QueryResponse ranked;
  ranked.ranking = {3, 1, 4};
  FeedbackResponse refused;
  refused.status = not_found;
  StatsResponse stats;
  stats.requests = 1;
  stats.queries = 2;
  stats.feedbacks = 3;
  stats.sessions_started = 4;
  stats.sessions_ended = 5;
  stats.active_sessions = 6;
  stats.log_sessions_appended = 7;
  stats.cache_hit_rate = 0.5;
  stats.qps = 120.25;
  stats.latency_p50_us = 10.0;
  stats.latency_p95_us = 20.0;
  stats.latency_p99_us = 40.0;
  MetricsResponse metrics;
  metrics.counters = {{"cbir_requests_total", "", "", 9}};
  metrics.gauges = {{"cbir_active", "shard", "0", -2}};
  MetricHistogramSample histogram;
  histogram.name = "cbir_us";
  histogram.count = 3;
  histogram.saturated = 1;
  histogram.mean_us = 1.5;
  histogram.p50_us = 1.0;
  histogram.p95_us = 2.0;
  histogram.p99_us = 4.0;
  histogram.max_us = 8.0;
  metrics.histograms = {histogram};
  DescribeResponse described;
  described.corpus_size = 20000;
  described.dims = 36;
  described.num_categories = 20;
  described.candidate_depth = 500;
  described.default_k = 20;
  described.scheme = "LRF-CSVM";
  described.index = "exact";
  CandidateResponse candidates;
  candidates.candidates = {{5, 0.25}, {9, 1.5}};

  RequestEnvelope everything;
  everything.has_deadline = true;
  everything.deadline_ms = 250;
  everything.has_seq = true;
  everything.seq = 3;
  everything.has_trace_id = true;
  everything.trace_id = 0x0123456789abcdefull;
  everything.has_profile = true;
  everything.has_checksum = true;
  ResponseFrameOptions profiled_degraded_checksummed;
  profiled_degraded_checksummed.profile = &profile;
  profiled_degraded_checksummed.degraded = true;
  profiled_degraded_checksummed.checksum = true;

  return {
      {"StartSessionRequestById",
       Request(StartSessionRequest{QuerySpec::ById(12345)}), {}, {},
       "5249424301000100050000000039300000"},
      {"StartSessionRequestByFeature",
       Request(StartSessionRequest{QuerySpec::ByFeature({0.5, -1.25})}), {}, {},
       "5249424301000100150000000102000000000000000000e03f000000000000f4"
       "bf"},
      {"QueryRequest", Request(QueryRequest{7, 10}), {}, {},
       "52494243010003000c00000007000000000000000a000000"},
      {"FeedbackRequest", Request(feedback), {}, {},
       "52494243010005001a00000007000000000000000a0000000200000001000000"
       "0102000000ff"},
      {"EndSessionRequest", Request(EndSessionRequest{7}), {}, {},
       "5249424301000700080000000700000000000000"},
      {"StatsRequest", Request(StatsRequest{}), {}, {},
       "524942430100090000000000"},
      {"MetricsRequest", Request(MetricsRequest{}), {}, {},
       "5249424301000c0000000000"},
      {"DescribeRequest", Request(DescribeRequest{}), {}, {},
       "5249424301000e0000000000"},
      {"CandidateRequest", Request(candidates_asked), {}, {},
       "5249424301001000190000000102000000000000000000e03f000000000000f4"
       "bf32000000"},
      {"StartSessionResponse", Response(started), {}, {},
       "52494243010002001000000000000000000000002a00000000000000"},
      {"QueryResponse", Response(ranked), {}, {},
       "5249424301000400180000000000000000000000030000000300000001000000"
       "04000000"},
      {"FeedbackResponseNotFound", Response(refused), {}, {},
       "524942430100060018000000030000000c0000006e6f2073657373696f6e2039"
       "00000000"},
      {"EndSessionResponse", Response(EndSessionResponse{}), {}, {},
       "5249424301000800080000000000000000000000"},
      {"StatsResponse", Response(stats), {}, {},
       "5249424301000a00680000000000000000000000010000000000000002000000"
       "0000000003000000000000000400000000000000050000000000000006000000"
       "000000000700000000000000000000000000e03f0000000000105e4000000000"
       "0000244000000000000034400000000000004440"},
      {"MetricsResponse", Response(metrics), {}, {},
       "5249424301000d00ab0000000000000000000000010000001300000063626972"
       "5f72657175657374735f746f74616c0000000000000000090000000000000001"
       "0000000b000000636269725f6163746976650500000073686172640100000030"
       "feffffffffffffff0100000007000000636269725f7573000000000000000003"
       "000000000000000100000000000000000000000000f83f000000000000f03f00"
       "0000000000004000000000000010400000000000002040"},
      {"DescribeResponse", Response(described), {}, {},
       "5249424301000f00350000000000000000000000204e00000000000024000000"
       "14000000f401000014000000080000004c52462d4353564d0500000065786163"
       "74"},
      {"CandidateResponse", Response(candidates), {}, {},
       "5249424301001100240000000000000000000000020000000500000000000000"
       "0000d03f09000000000000000000f83f"},
      {"ErrorResponse", Response(ErrorResponse{not_found}), {}, {},
       "5249424301000b0014000000030000000c0000006e6f2073657373696f6e2039"},
      {"FeedbackRequestFullEnvelope", Request(feedback), everything, {},
       "524942430200051f2e000000fa00000003000000efcdab896745230107000000"
       "000000000a00000002000000010000000102000000ff4cc00a7b"},
      {"QueryResponseProfiledDegradedChecksummed",
       Response(ranked), {}, profiled_degraded_checksummed,
       "5249424302000438d50000008967452301efcdab731000000000000003000000"
       "060000006465636f646500000000000000000c00000000000000000500000073"
       "6f6c76657600000000000000820f0000000000000009000000736d6f5f696e6e"
       "6572c800000000000000ac0d00000000000001030000000e000000736d6f5f69"
       "7465726174696f6e738e00000000000000110000006b65726e656c5f63616368"
       "655f68697473b6030000000000000b000000696e6465785f64656c7461fdffff"
       "ffffffffff0000000000000000030000000300000001000000040000009a2be0"
       "28"},
  };
}

TEST(CodecGoldenTest, EveryFrameShapeEncodesToPinnedBytesAndDecodesBack) {
  for (const GoldenFrame& row : GoldenFrames()) {
    SCOPED_TRACE(row.name);
    if (const Request* request = std::get_if<Request>(&row.message)) {
      const std::vector<uint8_t> frame = EncodeRequest(*request, row.envelope);
      EXPECT_EQ(ToHex(frame), row.hex);
      RequestEnvelope envelope;
      Result<Request> decoded =
          DecodeRequest(frame.data(), frame.size(), &envelope);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_TRUE(decoded.value() == *request);
      EXPECT_TRUE(envelope == row.envelope);
    } else {
      const Response& response = std::get<Response>(row.message);
      const std::vector<uint8_t> frame = EncodeResponse(response, row.options);
      EXPECT_EQ(ToHex(frame), row.hex);
      ResponseProfile profile;
      bool degraded = false;
      Result<Response> decoded =
          DecodeResponse(frame.data(), frame.size(), &profile, &degraded);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_TRUE(decoded.value() == response);
      EXPECT_TRUE(profile == (row.options.profile != nullptr
                                  ? *row.options.profile
                                  : ResponseProfile{}));
      EXPECT_EQ(degraded, row.options.degraded);
    }
  }
}

}  // namespace
}  // namespace cbir::api
