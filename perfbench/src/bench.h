// Shared pieces of the benchmark program: run arguments, exact-sample
// statistics, process/host counters, the result report, and the span
// recorder used by the traced run. Nothing here reaches into the library's
// internals; every measurement is taken around calls into public functions.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: small corpora, a short loop, few quality sessions. Used by
  /// selftest.py; never by the measured runs.
  bool tiny = false;
  /// Self-test hook: perturbs the expected replay digest so the check has
  /// to fail.
  bool break_digest = false;
  /// Directory for scratch files (WAL directories, the span dump).
  std::string work_dir;
};

// ------------------------------------------------------------- statistics --

/// Exact quantile (linear interpolation between closest ranks) of the
/// samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU, context switches and peak RSS from getrusage(RUSAGE_SELF).
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  int64_t ctx_switches = 0;  ///< voluntary + involuntary
  double max_rss_mb = 0.0;
};
Usage ReadUsage();

/// Host-wide CPU jiffies from /proc/stat (all CPUs): total and stolen.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
/// Stolen share of host CPU time between two readings (0 if unreadable).
double StealFrac(const HostCpu& before, const HostCpu& after);

/// One latency sample and when it completed.
struct Timed {
  int64_t end_ns = 0;
  double us = 0.0;
};

/// The timed phase of a run cut into equal windows. A background thread
/// samples process CPU and host CPU at every boundary. Metrics are computed
/// over the quiet windows only: the eighth of the windows in which the host
/// stole the least CPU time, plus every other window with no more steal
/// than those. On a shared VM,
/// steal comes in episodes of seconds to minutes, and a program that wakes
/// threads often (fork-join fan-out, RPC hand-offs) waits for the
/// hypervisor on every wake-up during one. Choosing windows by the host's
/// steal counter, never by the metric itself, keeps those episodes out of
/// the result whenever part of the run was quiet.
class Windows {
 public:
  /// Starts the clock now: `count` windows of seconds/count each.
  Windows(double seconds, int count);
  ~Windows();
  Windows(const Windows&) = delete;
  Windows& operator=(const Windows&) = delete;

  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return start_ns_ + window_ns_ * count_; }
  int count() const { return count_; }
  /// Waits for the sample at the last boundary and picks the quiet windows.
  void Join();

  /// Over the quiet windows: completions per second; quantile `q` of the
  /// samples completed in them; process CPU ms per completion. Samples
  /// outside the quiet windows are ignored.
  double Rate(const std::vector<int64_t>& ends) const;
  double Quantile(const std::vector<Timed>& samples, double q) const;
  double CpuMsPer(const std::vector<int64_t>& ends) const;
  /// Host steal share over all windows, and over the quiet ones.
  double Steal() const;
  double QuietSteal() const;
  /// Samples that fall inside a quiet window.
  size_t Inside(const std::vector<int64_t>& ends) const;
  size_t quiet_count() const { return quiet_.size(); }

 private:
  bool IsQuiet(int64_t t) const;
  double WindowSteal(size_t w) const;

  const int count_;
  const int64_t start_ns_;
  const int64_t window_ns_;
  std::vector<Usage> usage_;  ///< count_ + 1 boundary samples
  std::vector<HostCpu> host_;
  std::vector<int> quiet_;    ///< window indexes, ascending
  std::thread sampler_;
};

/// FNV-1a style mixing of one 64-bit value into a digest.
uint64_t Mix(uint64_t digest, uint64_t value);

// ----------------------------------------------------------------- report --

/// Collects named metrics, prints each as a human-readable line with its
/// unit and sample count, and renders the final one-line JSON result.
class Report {
 public:
  /// `samples` is the number of measurements behind the value (0 = a count
  /// or a ratio of counts).
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// A failed correctness check; the run reports correct=false.
  void Fail(const std::string& what);
  /// A passed correctness check, printed for the log.
  void Pass(const std::string& what);

  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ----------------------------------------------------------------- tracing --

/// One recorded span. `parent` indexes the enclosing open span of the same
/// thread (-1 at top level); cross-thread parents are linked after the run.
struct SpanRecord {
  const char* name = nullptr;  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t thread = 0;
  uint64_t request = 0;  ///< benchmark request id (0 = none)
  /// Content key of the call (0 = none): equal on both sides of a hop
  /// that forwards the request unchanged, so links across it can use it.
  uint64_t key = 0;
};

/// In-memory span recorder. Disabled (the default) it costs one relaxed
/// load per span site. Each thread appends to its own buffer; buffers are
/// gathered once the traced phase has ended and every recording thread has
/// stopped.
class Tracer {
 public:
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// The request id spans opened on this thread are tagged with.
  static void SetRequest(uint64_t request);
  static uint64_t NewRequestId();

  /// Every span recorded so far, flattened across threads; parent indexes
  /// are rewritten to index the returned vector.
  static std::vector<SpanRecord> Collect();
  static void Clear();

  /// Writes the spans as TSV (name, start_ns, end_ns, parent, thread,
  /// request) to `path`.
  static bool Dump(const std::vector<SpanRecord>& spans,
                   const std::string& path);

 private:
  friend class Span;
  static int32_t Open(const char* name, uint64_t key);
  static void Close(int32_t index);
  static std::atomic<bool> enabled_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, uint64_t key = 0)
      : index_(Tracer::enabled() ? Tracer::Open(name, key) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};

/// Span analysis: links cross-thread children to their parents and
/// computes each span's self time (duration minus the union of its
/// children's intervals).
struct SpanTree {
  std::vector<SpanRecord> spans;
  std::vector<std::vector<int32_t>> children;
  /// Cross-thread links that had more than one candidate parent.
  size_t ambiguous_links = 0;

  /// Links every top-level span named `child` to a span named one of
  /// `parents` that contains it in time on another thread. A transport
  /// thread that serves one caller thread only links to that thread's
  /// spans, and spans that both carry a content key link only when the
  /// keys match. When several parents remain, the one with the fewest links
  /// so far (then the earliest) wins and the link counts as ambiguous.
  void LinkAcrossThreads(const char* child,
                         const std::vector<const char*>& parents);
  /// Fills `children` from the parent links (same-thread and linked).
  void BuildChildren();
  double SelfUs(size_t index) const;
  /// Self times (us) of every span whose name starts with `name`.
  std::vector<double> SelfTimesUs(const char* name) const;
  std::vector<double> DurationsUs(const char* name) const;
  /// For every span named `root`: the summed self time of its descendants
  /// per layer (the span name up to its first '.'), in us.
  std::map<std::string, std::vector<double>> LayerSelfUnder(
      const char* root) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
