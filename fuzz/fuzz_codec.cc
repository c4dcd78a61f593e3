/// \file
/// libFuzzer harness for the wire codec — the one parser in the system that
/// eats attacker-controlled bytes straight off a socket. Every decode entry
/// point must return a typed error (or a valid message) for ANY input: no
/// crash, no sanitizer report, no unbounded allocation.
///
/// Build modes (see CMakeLists' CBIR_FUZZ option):
///  - Clang: linked against libFuzzer + ASan. Set CBIR_FUZZ_SEEDS=<dir> to
///    have the built-in seed corpus written into <dir> before fuzzing:
///      CBIR_FUZZ_SEEDS=corpus ./fuzz_codec corpus -max_total_time=60
///  - Other compilers (-DCBIR_FUZZ_STANDALONE): a self-driving main() that
///    replays file arguments, or — with no arguments — the built-in corpus
///    plus every truncation and every single-bit flip of each seed (the
///    hostile corpus from tests/api/codec_test.cc, mechanized).
///      ./fuzz_codec                       # built-in corpus sweep
///      ./fuzz_codec crash-1234 crash-99   # replay libFuzzer artifacts
///      ./fuzz_codec --write_seeds=DIR     # emit the seeds and exit

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "api/codec.h"
#include "logdb/log_session.h"

namespace {

using namespace cbir::api;  // NOLINT(google-build-using-namespace)

/// Valid frames of every shape the protocol knows (every message type, v2
/// envelope combinations, profiled, checksummed and degraded responses)
/// plus a few canonical hostile headers.
/// Mirrors the hand-built corpus in tests/api/codec_test.cc; the fuzzer
/// mutates outward from here.
std::vector<std::vector<uint8_t>> BuildSeedCorpus() {
  std::vector<std::vector<uint8_t>> seeds;

  StartSessionRequest start;
  start.query = QuerySpec::ById(12345);
  seeds.push_back(EncodeRequest(Request(start)));
  start.query = QuerySpec::ByFeature({0.0, -1.5, 3.25, 1e300, -0.0});
  seeds.push_back(EncodeRequest(Request(start)));

  QueryRequest query;
  query.session_id = 7;
  query.k = 10;
  seeds.push_back(EncodeRequest(Request(query)));

  FeedbackRequest feedback;
  feedback.session_id = 7;
  feedback.k = 10;
  feedback.round = {cbir::logdb::LogEntry{1, 1},
                    cbir::logdb::LogEntry{2, -1}};
  seeds.push_back(EncodeRequest(Request(feedback)));

  EndSessionRequest end;
  end.session_id = 7;
  seeds.push_back(EncodeRequest(Request(end)));
  seeds.push_back(EncodeRequest(Request(StatsRequest{})));
  seeds.push_back(EncodeRequest(Request(MetricsRequest{})));
  seeds.push_back(EncodeRequest(Request(DescribeRequest{})));
  CandidateRequest candidates;
  candidates.query = QuerySpec::ByFeature({0.5, -1.25});
  candidates.k = 50;
  seeds.push_back(EncodeRequest(Request(candidates)));

  // v2 envelopes: every flag, then all of them at once.
  seeds.push_back(
      EncodeRequest(Request(query), RequestEnvelope::WithDeadline(250)));
  seeds.push_back(
      EncodeRequest(Request(query), RequestEnvelope::WithTraceId(0x1234)));
  seeds.push_back(
      EncodeRequest(Request(query), RequestEnvelope::WithProfile()));
  seeds.push_back(
      EncodeRequest(Request(query), RequestEnvelope::WithChecksum()));
  RequestEnvelope everything;
  everything.has_deadline = true;
  everything.deadline_ms = 1000;
  everything.has_seq = true;
  everything.seq = 3;
  everything.has_trace_id = true;
  everything.trace_id = 0xFEEDFACE;
  everything.has_profile = true;
  seeds.push_back(EncodeRequest(Request(feedback), everything));

  // Responses: every message, then profiled, checksummed and degraded.
  QueryResponse response;
  response.ranking = {3, 1, 4, 1, 5};
  seeds.push_back(EncodeResponse(Response(response)));
  StatsResponse stats;
  stats.requests = 9;
  stats.qps = 12.5;
  seeds.push_back(EncodeResponse(Response(stats)));
  MetricsResponse metrics;
  metrics.counters.push_back(MetricCounterSample{"requests", "", "", 9});
  metrics.gauges.push_back(MetricGaugeSample{"active", "shard", "0", -2});
  MetricHistogramSample histogram;
  histogram.name = "latency_us";
  histogram.count = 3;
  metrics.histograms.push_back(histogram);
  seeds.push_back(EncodeResponse(Response(metrics)));
  DescribeResponse describe;
  describe.corpus_size = 2000;
  describe.scheme = "LRF-CSVM";
  describe.index = "exact";
  seeds.push_back(EncodeResponse(Response(describe)));
  CandidateResponse candidate_page;
  candidate_page.candidates = {Candidate{5, 0.25}, Candidate{9, 1.5}};
  seeds.push_back(EncodeResponse(Response(candidate_page)));
  seeds.push_back(EncodeResponse(Response(ErrorResponse{
      ToWireStatus(cbir::Status::InvalidArgument("bad frame"))})));
  ResponseProfile profile;
  profile.trace_id = 0xABCD;
  profile.total_us = 4321;
  profile.spans.push_back(ProfileSpan{});
  profile.counters.push_back(ProfileCounter{"smo_iterations", 142});
  seeds.push_back(EncodeResponse(Response(response),
                                 ResponseFrameOptions{.profile = &profile}));
  seeds.push_back(EncodeResponse(Response(response),
                                 ResponseFrameOptions{.checksum = true}));
  seeds.push_back(EncodeResponse(Response(candidate_page),
                                 ResponseFrameOptions{.degraded = true}));

  // Canonical hostility: bad magic, absurd length prefix, unknown type.
  seeds.push_back({0xDE, 0xAD, 0xBE, 0xEF, 0, 1, 3, 0, 0, 0, 0, 0});
  seeds.push_back({0x43, 0x42, 0x49, 0x52, 0, 1, 3, 0, 0xFF, 0xFF, 0xFF,
                   0xFF});
  seeds.push_back({0x43, 0x42, 0x49, 0x52, 0, 1, 0x7F, 0, 0, 0, 0, 0});
  return seeds;
}

void DecodeEverything(const uint8_t* data, size_t size) {
  (void)DecodeFrameHeader(data, size);
  RequestEnvelope envelope;
  (void)DecodeRequest(data, size, &envelope);
  ResponseProfile profile;
  (void)DecodeResponse(data, size, &profile);
  // The split header/body path the TCP server actually runs: only reached
  // when the header validates and the body length matches, same as a socket
  // read loop would guarantee.
  if (size >= kFrameHeaderBytes) {
    cbir::Result<FrameHeader> header =
        DecodeFrameHeader(data, kFrameHeaderBytes);
    if (header.ok() &&
        header.value().body_size == size - kFrameHeaderBytes) {
      const uint8_t* body = data + kFrameHeaderBytes;
      const size_t body_size = size - kFrameHeaderBytes;
      (void)DecodeRequestBody(header.value(), body, body_size, &envelope);
      (void)DecodeResponseBody(header.value(), body, body_size, &profile);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  DecodeEverything(data, size);
  return 0;
}

// ---------------------------------------------------------------------------
// Seed-corpus writing + a standalone driver for non-Clang builds.
// ---------------------------------------------------------------------------

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

int WriteSeeds(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::vector<std::vector<uint8_t>> seeds = BuildSeedCorpus();
  int written = 0;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const std::string path = dir + "/seed_" + std::to_string(i) + ".bin";
    std::ofstream ofs(path, std::ios::binary | std::ios::trunc);
    if (!ofs) {
      std::fprintf(stderr, "fuzz_codec: cannot write %s\n", path.c_str());
      return -1;
    }
    ofs.write(reinterpret_cast<const char*>(seeds[i].data()),
              static_cast<std::streamsize>(seeds[i].size()));
    ++written;
  }
  std::fprintf(stderr, "fuzz_codec: wrote %d seeds to %s\n", written,
               dir.c_str());
  return written;
}

}  // namespace

#if !defined(CBIR_FUZZ_STANDALONE)

/// libFuzzer calls this before fuzzing; CBIR_FUZZ_SEEDS=<dir> materializes
/// the built-in corpus there so the run starts from valid frames instead of
/// discovering the magic bytes from scratch.
extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  if (const char* dir = std::getenv("CBIR_FUZZ_SEEDS"); dir != nullptr) {
    WriteSeeds(dir);
  }
  return 0;
}

#else  // CBIR_FUZZ_STANDALONE

namespace {

uint64_t RunCase(const std::vector<uint8_t>& bytes) {
  DecodeEverything(bytes.data(), bytes.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strncmp(argv[1], "--write_seeds=", 14) == 0) {
    return WriteSeeds(argv[1] + 14) < 0 ? 1 : 0;
  }
  uint64_t cases = 0;
  if (argc > 1) {
    // Replay mode: each argument is a corpus file / crash artifact.
    for (int i = 1; i < argc; ++i) {
      std::ifstream ifs(argv[i], std::ios::binary);
      if (!ifs) {
        std::fprintf(stderr, "fuzz_codec: cannot read %s\n", argv[i]);
        return 1;
      }
      std::vector<uint8_t> bytes(
          (std::istreambuf_iterator<char>(ifs)),
          std::istreambuf_iterator<char>());
      cases += RunCase(bytes);
    }
  } else {
    // Built-in sweep: every seed, every truncation of it, every single-bit
    // flip of it — the codec tests' hostile corpus, mechanized over every
    // frame shape at once.
    for (const std::vector<uint8_t>& seed : BuildSeedCorpus()) {
      cases += RunCase(seed);
      for (size_t len = 0; len < seed.size(); ++len) {
        cases += RunCase(std::vector<uint8_t>(seed.begin(),
                                              seed.begin() +
                                                  static_cast<long>(len)));
      }
      for (size_t byte = 0; byte < seed.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          std::vector<uint8_t> corrupt = seed;
          corrupt[byte] = static_cast<uint8_t>(corrupt[byte] ^ (1u << bit));
          cases += RunCase(corrupt);
        }
      }
    }
  }
  std::fprintf(stderr, "fuzz_codec: %llu cases, no crashes\n",
               static_cast<unsigned long long>(cases));
  return 0;
}

#endif  // CBIR_FUZZ_STANDALONE
