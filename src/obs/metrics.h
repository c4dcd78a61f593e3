#ifndef CBIR_OBS_METRICS_H_
#define CBIR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

namespace cbir::obs {

/// \brief Latency percentiles summarized from a LatencyHistogram.
///
/// Percentile values are bucket upper bounds, so they over-estimate by at
/// most one bucket width (~12.5% with the log-linear layout below); `max_us`
/// has the same granularity. `saturated` counts the samples that landed
/// beyond the top bucket (~2^36 us): they are clamped into the last bucket
/// for the percentile math but reported here so a clamp never passes
/// silently.
struct LatencySummary {
  uint64_t count = 0;
  uint64_t saturated = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// \brief Fixed-bucket concurrent latency histogram (microsecond domain).
///
/// Log-linear layout: 8 linear buckets below 8us, then 8 sub-buckets per
/// power of two up to ~68s, so relative resolution stays ~12.5% across the
/// whole range. Record() is wait-free (one relaxed fetch_add per call plus
/// two for the mean), which keeps the serving hot path uncontended; the
/// percentile math happens only in Summarize().
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;                ///< 2^3 sub-buckets/octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxOctave = 36;             ///< caps at ~2^36 us
  static constexpr int kBuckets = kSub + (kMaxOctave - kSubBits) * kSub;

  /// Raw bucket counts at one instant — the currency of windowed summaries:
  /// subtract two snapshots taken `window` apart and the difference
  /// summarizes exactly the samples recorded in between (counters are
  /// monotonic, so the delta is always well-formed).
  struct Counts {
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t total_us = 0;
    uint64_t count = 0;
    uint64_t saturated = 0;
  };

  /// Records one latency observation. Values beyond the top bucket are
  /// clamped into it and counted as saturated. Safe to call from any number
  /// of threads.
  void Record(double micros);

  /// Aggregates the current counts into percentiles. Concurrent Record()
  /// calls may or may not be included — the summary is a snapshot, not a
  /// barrier.
  LatencySummary Summarize() const;

  /// Copies the current bucket counts (same snapshot semantics as
  /// Summarize: consistent enough for deltas, not a barrier).
  Counts SnapshotCounts() const;

  /// Percentiles over one counts snapshot (Summarize() is SummarizeCounts
  /// over SnapshotCounts()).
  static LatencySummary SummarizeCounts(const Counts& counts);

  /// `newer - older` per bucket, clamped at zero — the samples recorded
  /// between the two snapshots. Both must come from the same histogram
  /// with `older` taken first for the result to mean anything.
  static Counts DeltaCounts(const Counts& newer, const Counts& older);

  /// Samples in `counts` whose bucket lies entirely at or above
  /// `threshold_us`. The bucket straddling the threshold is NOT counted, so
  /// this under-reports by at most one bucket (~12.5%) — the conservative
  /// direction for a burn rate.
  static uint64_t CountAtOrAbove(const Counts& counts, uint64_t threshold_us);

  /// Bucket index for a microsecond value; exposed for tests.
  static int BucketIndex(uint64_t us);
  /// Exclusive upper bound (in us) of the given bucket; exposed for tests.
  static uint64_t BucketUpperBound(int bucket);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> total_us_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> saturated_{0};
};

/// \brief Monotonic named counter. Increment is one relaxed fetch_add.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins signed gauge (e.g. bytes resident, sessions live).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One sampled metric in a MetricsSnapshot. `label_key`/`label_value` are
/// empty for unlabeled metrics.
struct CounterSample {
  std::string name, label_key, label_value;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name, label_key, label_value;
  int64_t value = 0;
};
struct HistogramSample {
  std::string name, label_key, label_value;
  LatencySummary summary;
};

/// \brief Point-in-time copy of every registered metric, ordered by
/// (name, label) so renderings are stable across snapshots. `help` maps a
/// metric name to its registered # HELP text (names without an entry render
/// with # TYPE only).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::map<std::string, std::string> help;
};

/// \brief Registry of named counters, gauges, and latency histograms.
///
/// Get*() registers on first use and returns a stable pointer: callers look
/// a metric up once (into a function-local static or a member) and then
/// increment wait-free forever — registration takes the mutex, updates never
/// do. Metrics support one optional label dimension; the same name with
/// different label values yields distinct series (the per-stage latency
/// histograms are one name with stage="decode"/"solve"/... labels).
///
/// Naming scheme (docs/OBSERVABILITY.md): `cbir_<layer>_<what>[_<unit>]`,
/// counters suffixed `_total`, e.g. `cbir_net_bytes_read_total`,
/// `cbir_request_stage_us{stage="solve"}`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name,
                      const std::string& label_key = "",
                      const std::string& label_value = "");
  Gauge* GetGauge(const std::string& name, const std::string& label_key = "",
                  const std::string& label_value = "");
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& label_key = "",
                                 const std::string& label_value = "");

  /// Attaches a one-line # HELP text to a metric name (all label series of
  /// the name share it). Idempotent last-write-wins; call once next to the
  /// Get*() that registers the series.
  void SetHelp(const std::string& name, const std::string& help);

  /// Registers a callback that runs before every Snapshot(), outside the
  /// registry lock — the hook where pull-style sources (ServiceStats,
  /// TcpServerStats) copy their current values into gauges. Callbacks must
  /// stay valid for the registry's lifetime.
  void OnGather(std::function<void()> fn);

  /// Merges `child`'s series (and # HELP texts) into every Snapshot() and
  /// RenderExposition() of this registry; the child's own gather callbacks
  /// and includes run as part of that. This is how a per-instance registry
  /// (a RetrievalService's, a ShardRouter's) reaches a process-wide
  /// exporter. Series names should not repeat across the two: duplicates
  /// are kept side by side, not summed. `child` must outlive every
  /// Snapshot() of this registry, like an OnGather callback.
  void Include(MetricsRegistry* child);

  /// Runs the gather callbacks, then copies every metric, included
  /// registries' merged in (ordered by name and label). Wait-free writers
  /// are never blocked; the snapshot is consistent per metric, not across
  /// metrics.
  MetricsSnapshot Snapshot();

  /// Renders a Snapshot() in the Prometheus plaintext exposition style:
  /// one `name{label="v"} value` line per counter/gauge, and per histogram
  /// `_count`/`_saturated`/`_sum` lines plus `quantile`-labeled p50/p95/p99.
  /// Each name is preceded by a `# TYPE` line (counter/gauge/summary) and,
  /// when SetHelp was called for it, a `# HELP` line.
  std::string RenderExposition();

  /// The process-wide registry. Library-level instrumentation (net, svm,
  /// logdb) records here; each RetrievalService and ShardRouter records into
  /// its own registry, which a binary Include()s here. Exporters (the wire
  /// MetricsResponse, the --metrics-port listener) read here.
  static MetricsRegistry& Default();

 private:
  struct Key {
    std::string name, label_key, label_value;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      if (label_key != o.label_key) return label_key < o.label_key;
      return label_value < o.label_value;
    }
  };

  // Reader-writer split: registrations and help/callback setup are rare and
  // take the lock exclusively; Snapshot (per scrape) only reads the maps —
  // the instrument values themselves are atomics — so scrapes proceed
  // concurrently.
  mutable util::SharedMutex mu_{util::LockRank::kMetrics, "metrics_registry"};
  // node-based maps: pointers handed out stay stable across registrations.
  std::map<Key, std::unique_ptr<Counter>> counters_ CBIR_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ CBIR_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<LatencyHistogram>> histograms_
      CBIR_GUARDED_BY(mu_);
  std::map<std::string, std::string> help_ CBIR_GUARDED_BY(mu_);
  std::vector<std::function<void()>> gather_callbacks_ CBIR_GUARDED_BY(mu_);
  std::vector<MetricsRegistry*> children_ CBIR_GUARDED_BY(mu_);
};

/// Renders one snapshot as exposition text (exposed for tests; the member
/// RenderExposition composes Snapshot + this).
std::string RenderExposition(const MetricsSnapshot& snapshot);

}  // namespace cbir::obs

#endif  // CBIR_OBS_METRICS_H_
