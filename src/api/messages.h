#ifndef CBIR_API_MESSAGES_H_
#define CBIR_API_MESSAGES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "la/vector_ops.h"
#include "logdb/log_session.h"
#include "util/status.h"

namespace cbir::api {

/// \brief Transport-agnostic typed messages of the retrieval service API.
///
/// These plain structs are the one service surface shared by in-process
/// callers (api::Dispatcher -> serve::RetrievalService) and remote callers
/// (net::TcpClient -> wire codec -> net::TcpServer -> the same Dispatcher),
/// so the two paths can never drift apart. The wire layout lives in
/// api/codec.h; nothing in this header knows about bytes.

/// \brief Status as it crosses the wire: a stable uint32 code (see
/// StatusCodeToWireCode) plus the human-readable message. Every response
/// carries one; payload fields are meaningful only when ok().
struct WireStatus {
  uint32_t code = 0;  ///< StatusCodeToWireCode(StatusCode::kOk)
  std::string message;

  bool ok() const { return code == StatusCodeToWireCode(StatusCode::kOk); }

  bool operator==(const WireStatus& other) const {
    return code == other.code && message == other.message;
  }
};

/// Converts a util::Status into its wire form and back. Unknown wire codes
/// come back as kInternal (never kOk), so a corrupt frame cannot fake
/// success.
WireStatus ToWireStatus(const Status& status);
Status FromWireStatus(const WireStatus& wire);

/// \brief What a session queries for: either a corpus image id (the paper's
/// evaluation protocol) or a raw feature vector for an image the corpus has
/// never seen (the standard CBIR query-by-example deployment setting).
struct QuerySpec {
  enum class Kind : uint8_t {
    kCorpusId = 0,
    kFeature = 1,
  };

  Kind kind = Kind::kCorpusId;
  int32_t corpus_id = -1;  ///< valid when kind == kCorpusId
  la::Vec feature;         ///< valid when kind == kFeature

  static QuerySpec ById(int32_t id) {
    QuerySpec spec;
    spec.kind = Kind::kCorpusId;
    spec.corpus_id = id;
    return spec;
  }
  static QuerySpec ByFeature(la::Vec feature) {
    QuerySpec spec;
    spec.kind = Kind::kFeature;
    spec.feature = std::move(feature);
    return spec;
  }

  bool operator==(const QuerySpec& other) const {
    return kind == other.kind && corpus_id == other.corpus_id &&
           feature == other.feature;
  }
};

// ---------------------------------------------------------------- requests --

struct StartSessionRequest {
  QuerySpec query;

  bool operator==(const StartSessionRequest& o) const {
    return query == o.query;
  }
};

struct QueryRequest {
  uint64_t session_id = 0;
  int32_t k = 0;  ///< 0 = the service's default_k

  bool operator==(const QueryRequest& o) const {
    return session_id == o.session_id && k == o.k;
  }
};

struct FeedbackRequest {
  uint64_t session_id = 0;
  int32_t k = 0;
  std::vector<logdb::LogEntry> round;  ///< judgments, +-1 each

  bool operator==(const FeedbackRequest& o) const {
    if (session_id != o.session_id || k != o.k ||
        round.size() != o.round.size()) {
      return false;
    }
    for (size_t i = 0; i < round.size(); ++i) {
      if (round[i].image_id != o.round[i].image_id ||
          round[i].judgment != o.round[i].judgment) {
        return false;
      }
    }
    return true;
  }
};

struct EndSessionRequest {
  uint64_t session_id = 0;

  bool operator==(const EndSessionRequest& o) const {
    return session_id == o.session_id;
  }
};

struct StatsRequest {
  bool operator==(const StatsRequest&) const { return true; }
};

/// Asks for a full dump of the server's obs::MetricsRegistry — every
/// counter, gauge, and histogram summary, one sample per (name, label)
/// series. The wire twin of the --metrics-port plaintext exposition.
struct MetricsRequest {
  bool operator==(const MetricsRequest&) const { return true; }
};

/// Asks a server to describe the corpus and configuration it serves. The
/// connect-time handshake: the router validates shard compatibility with it,
/// remote drivers use it instead of rebuilding the corpus locally, and the
/// router's health checker uses it as the lightweight probe RPC.
struct DescribeRequest {
  bool operator==(const DescribeRequest&) const { return true; }
};

/// Asks for the first-round candidate set of a query — the top-k nearest
/// corpus images by exact feature distance, *with* the distances — without
/// creating a session. Stateless: the router scatter-gathers this across
/// shards and merges the per-shard lists by distance.
struct CandidateRequest {
  QuerySpec query;
  int32_t k = 0;  ///< 0 = the service's default_k

  bool operator==(const CandidateRequest& o) const {
    return query == o.query && k == o.k;
  }
};

// --------------------------------------------------------------- responses --

struct StartSessionResponse {
  WireStatus status;
  uint64_t session_id = 0;

  bool operator==(const StartSessionResponse& o) const {
    return status == o.status && session_id == o.session_id;
  }
};

struct QueryResponse {
  WireStatus status;
  std::vector<int32_t> ranking;

  bool operator==(const QueryResponse& o) const {
    return status == o.status && ranking == o.ranking;
  }
};

struct FeedbackResponse {
  WireStatus status;
  std::vector<int32_t> ranking;

  bool operator==(const FeedbackResponse& o) const {
    return status == o.status && ranking == o.ranking;
  }
};

struct EndSessionResponse {
  WireStatus status;

  bool operator==(const EndSessionResponse& o) const {
    return status == o.status;
  }
};

/// Snapshot of the serve::ServiceStats counters a remote operator needs.
struct StatsResponse {
  WireStatus status;
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t feedbacks = 0;
  uint64_t sessions_started = 0;
  uint64_t sessions_ended = 0;
  uint64_t active_sessions = 0;
  uint64_t log_sessions_appended = 0;
  double cache_hit_rate = 1.0;
  double qps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;

  bool operator==(const StatsResponse& o) const {
    return status == o.status && requests == o.requests &&
           queries == o.queries && feedbacks == o.feedbacks &&
           sessions_started == o.sessions_started &&
           sessions_ended == o.sessions_ended &&
           active_sessions == o.active_sessions &&
           log_sessions_appended == o.log_sessions_appended &&
           cache_hit_rate == o.cache_hit_rate && qps == o.qps &&
           latency_p50_us == o.latency_p50_us &&
           latency_p95_us == o.latency_p95_us &&
           latency_p99_us == o.latency_p99_us;
  }
};

/// One metric series as it crosses the wire. `label_key`/`label_value` are
/// empty strings for unlabeled metrics.
struct MetricCounterSample {
  std::string name, label_key, label_value;
  uint64_t value = 0;

  bool operator==(const MetricCounterSample& o) const {
    return name == o.name && label_key == o.label_key &&
           label_value == o.label_value && value == o.value;
  }
};

struct MetricGaugeSample {
  std::string name, label_key, label_value;
  int64_t value = 0;

  bool operator==(const MetricGaugeSample& o) const {
    return name == o.name && label_key == o.label_key &&
           label_value == o.label_value && value == o.value;
  }
};

/// A histogram travels as its summary (count + saturation + percentiles),
/// not its buckets: operators and the load driver want the percentiles, and
/// the summary stays a fixed ~70 bytes however long the server has run.
struct MetricHistogramSample {
  std::string name, label_key, label_value;
  uint64_t count = 0;
  uint64_t saturated = 0;  ///< samples clamped beyond the top bucket
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;

  bool operator==(const MetricHistogramSample& o) const {
    return name == o.name && label_key == o.label_key &&
           label_value == o.label_value && count == o.count &&
           saturated == o.saturated && mean_us == o.mean_us &&
           p50_us == o.p50_us && p95_us == o.p95_us && p99_us == o.p99_us &&
           max_us == o.max_us;
  }
};

/// Snapshot of the server's metrics registry (samples sorted by name then
/// label, the registry's iteration order).
struct MetricsResponse {
  WireStatus status;
  std::vector<MetricCounterSample> counters;
  std::vector<MetricGaugeSample> gauges;
  std::vector<MetricHistogramSample> histograms;

  bool operator==(const MetricsResponse& o) const {
    return status == o.status && counters == o.counters &&
           gauges == o.gauges && histograms == o.histograms;
  }
};

/// What a server serves: corpus shape, feedback scheme, and index
/// configuration, enough for a peer to decide compatibility without seeing
/// the data. Two shards are mergeable when everything except corpus_size
/// matches (replicas additionally match corpus_size).
struct DescribeResponse {
  WireStatus status;
  uint64_t corpus_size = 0;     ///< images in this shard's corpus
  uint32_t dims = 0;            ///< feature dimensionality
  uint32_t num_categories = 0;  ///< ground-truth categories (eval corpora)
  int32_t candidate_depth = 0;  ///< first-round cutoff (<=0 = full corpus)
  int32_t default_k = 0;        ///< ranking length when the client passes 0
  std::string scheme;           ///< feedback scheme name (e.g. "RF-SVM")
  std::string index;            ///< index description (e.g. "exact", "none")

  bool operator==(const DescribeResponse& o) const {
    return status == o.status && corpus_size == o.corpus_size &&
           dims == o.dims && num_categories == o.num_categories &&
           candidate_depth == o.candidate_depth &&
           default_k == o.default_k && scheme == o.scheme &&
           index == o.index;
  }
};

/// One scored first-round candidate: a corpus image id plus its exact
/// feature distance to the query. Distances make per-shard lists mergeable.
struct Candidate {
  int32_t id = -1;
  double distance = 0.0;

  bool operator==(const Candidate& o) const {
    return id == o.id && distance == o.distance;
  }
};

/// First-round candidates sorted by (distance, id) ascending — the same
/// total order the index uses, so merging shard lists reproduces the
/// single-node ranking on replicas.
struct CandidateResponse {
  WireStatus status;
  std::vector<Candidate> candidates;

  bool operator==(const CandidateResponse& o) const {
    return status == o.status && candidates == o.candidates;
  }
};

// ----------------------------------------------------- EXPLAIN profile --

/// One timed stage of the request, as it crosses the wire in a profile
/// block (the server-side obs::TraceSpan, flattened).
struct ProfileSpan {
  std::string name;
  uint64_t start_us = 0;     ///< offset from the request's trace start
  uint64_t duration_us = 0;
  uint8_t depth = 0;         ///< span-tree nesting depth

  bool operator==(const ProfileSpan& o) const {
    return name == o.name && start_us == o.start_us &&
           duration_us == o.duration_us && depth == o.depth;
  }
};

/// One named per-request work counter (smo_iterations,
/// kernel_cache_misses, index_rows_scanned...) — a delta for THIS request,
/// not a process aggregate.
struct ProfileCounter {
  std::string name;
  int64_t value = 0;

  bool operator==(const ProfileCounter& o) const {
    return name == o.name && value == o.value;
  }
};

/// \brief The per-query EXPLAIN block a server attaches to its response
/// when the request envelope carried the 0x08 profile flag: the stage
/// breakdown and work counters of exactly this request, measured where the
/// time was actually spent. Spans cover the stages completed before the
/// response was encoded (decode through solve); the encode/write stages
/// happen after the profile is serialized and so cannot appear in it.
struct ResponseProfile {
  uint64_t trace_id = 0;
  uint64_t total_us = 0;  ///< server time up to profile serialization
  std::vector<ProfileSpan> spans;
  std::vector<ProfileCounter> counters;

  bool operator==(const ResponseProfile& o) const {
    return trace_id == o.trace_id && total_us == o.total_us &&
           spans == o.spans && counters == o.counters;
  }
};

/// Sent when a request frame could not be decoded at all (bad magic,
/// unsupported version, malformed body): there is no request type to answer,
/// so the server replies with this and closes the connection (the stream may
/// be desynchronized).
struct ErrorResponse {
  WireStatus status;

  bool operator==(const ErrorResponse& o) const { return status == o.status; }
};

/// The closed set of API messages. The codec and the dispatcher both
/// std::visit these, so adding a message type is a compile-enforced
/// checklist (struct, variant entry, MessageType, codec type-table entry,
/// codec field list).
using Request =
    std::variant<StartSessionRequest, QueryRequest, FeedbackRequest,
                 EndSessionRequest, StatsRequest, MetricsRequest,
                 DescribeRequest, CandidateRequest>;
using Response =
    std::variant<StartSessionResponse, QueryResponse, FeedbackResponse,
                 EndSessionResponse, StatsResponse, MetricsResponse,
                 DescribeResponse, CandidateResponse, ErrorResponse>;

}  // namespace cbir::api

#endif  // CBIR_API_MESSAGES_H_
