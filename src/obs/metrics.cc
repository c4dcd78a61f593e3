#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <sstream>
#include <tuple>

#include "util/string_util.h"

namespace cbir::obs {

int LatencyHistogram::BucketIndex(uint64_t us) {
  if (us < kSub) return static_cast<int>(us);
  const int octave = 63 - std::countl_zero(us);
  if (octave >= kMaxOctave) return kBuckets - 1;
  const int sub =
      static_cast<int>((us >> (octave - kSubBits)) & (kSub - 1));
  return kSub + (octave - kSubBits) * kSub + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(int bucket) {
  if (bucket < kSub) return static_cast<uint64_t>(bucket) + 1;
  const int octave = kSubBits + (bucket - kSub) / kSub;
  const int sub = (bucket - kSub) % kSub;
  const uint64_t base = uint64_t{1} << octave;
  const uint64_t step = uint64_t{1} << (octave - kSubBits);
  return base + static_cast<uint64_t>(sub + 1) * step;
}

void LatencyHistogram::Record(double micros) {
  const uint64_t us =
      micros <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(micros));
  if (us >= BucketUpperBound(kBuckets - 1)) {
    saturated_.fetch_add(1, std::memory_order_relaxed);
  }
  buckets_[static_cast<size_t>(BucketIndex(us))].fetch_add(
      1, std::memory_order_relaxed);
  total_us_.fetch_add(us, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

LatencyHistogram::Counts LatencyHistogram::SnapshotCounts() const {
  Counts c;
  for (int b = 0; b < kBuckets; ++b) {
    c.buckets[static_cast<size_t>(b)] =
        buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  c.total_us = total_us_.load(std::memory_order_relaxed);
  c.count = count_.load(std::memory_order_relaxed);
  c.saturated = saturated_.load(std::memory_order_relaxed);
  return c;
}

LatencySummary LatencyHistogram::SummarizeCounts(const Counts& counts) {
  uint64_t total = 0;
  int top = -1;
  for (int b = 0; b < kBuckets; ++b) {
    total += counts.buckets[static_cast<size_t>(b)];
    if (counts.buckets[static_cast<size_t>(b)] > 0) top = b;
  }
  LatencySummary s;
  s.count = total;
  s.saturated = counts.saturated;
  if (total == 0) return s;
  s.mean_us = static_cast<double>(counts.total_us) /
              static_cast<double>(std::max<uint64_t>(counts.count, 1));
  s.max_us = static_cast<double>(BucketUpperBound(top));

  const auto percentile = [&](double q) {
    const uint64_t target = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += counts.buckets[static_cast<size_t>(b)];
      if (cum >= target) return static_cast<double>(BucketUpperBound(b));
    }
    return static_cast<double>(BucketUpperBound(kBuckets - 1));
  };
  s.p50_us = percentile(0.50);
  s.p95_us = percentile(0.95);
  s.p99_us = percentile(0.99);
  return s;
}

LatencySummary LatencyHistogram::Summarize() const {
  return SummarizeCounts(SnapshotCounts());
}

LatencyHistogram::Counts LatencyHistogram::DeltaCounts(const Counts& newer,
                                                       const Counts& older) {
  // Saturating subtraction: buckets are monotonic, but the two snapshots
  // are not a consistent cut under concurrent Record(), so a bucket the
  // newer snapshot read *before* the older one's reader got there can
  // appear smaller. Clamp instead of wrapping to a huge count.
  const auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  Counts d;
  for (int b = 0; b < kBuckets; ++b) {
    d.buckets[static_cast<size_t>(b)] =
        sub(newer.buckets[static_cast<size_t>(b)],
            older.buckets[static_cast<size_t>(b)]);
  }
  d.total_us = sub(newer.total_us, older.total_us);
  d.count = sub(newer.count, older.count);
  d.saturated = sub(newer.saturated, older.saturated);
  return d;
}

uint64_t LatencyHistogram::CountAtOrAbove(const Counts& counts,
                                          uint64_t threshold_us) {
  uint64_t over = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const uint64_t lower_bound = b == 0 ? 0 : BucketUpperBound(b - 1);
    if (lower_bound >= threshold_us) {
      over += counts.buckets[static_cast<size_t>(b)];
    }
  }
  return over;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& label_key,
                                     const std::string& label_value) {
  util::WriterLock lock(mu_);
  auto& slot = counters_[Key{name, label_key, label_value}];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& label_key,
                                 const std::string& label_value) {
  util::WriterLock lock(mu_);
  auto& slot = gauges_[Key{name, label_key, label_value}];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::string& label_key,
    const std::string& label_value) {
  util::WriterLock lock(mu_);
  auto& slot = histograms_[Key{name, label_key, label_value}];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  util::WriterLock lock(mu_);
  help_[name] = help;
}

void MetricsRegistry::OnGather(std::function<void()> fn) {
  util::WriterLock lock(mu_);
  gather_callbacks_.push_back(std::move(fn));
}

void MetricsRegistry::Include(MetricsRegistry* child) {
  util::WriterLock lock(mu_);
  children_.push_back(child);
}

namespace {

/// Appends `from` to `into` and restores the (name, label) order renderers
/// rely on to announce each name once.
template <typename Sample>
void MergeSorted(std::vector<Sample>* into, std::vector<Sample>* from) {
  into->insert(into->end(), std::make_move_iterator(from->begin()),
               std::make_move_iterator(from->end()));
  std::stable_sort(into->begin(), into->end(),
                   [](const Sample& a, const Sample& b) {
                     return std::tie(a.name, a.label_key, a.label_value) <
                            std::tie(b.name, b.label_key, b.label_value);
                   });
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() {
  // Callbacks run outside the lock: they typically Set() gauges, which
  // re-enters the registry through GetGauge. Children are snapshotted
  // outside it too — their lock has this one's rank, and the rank checker
  // forbids nesting equal ranks.
  std::vector<std::function<void()>> callbacks;
  std::vector<MetricsRegistry*> children;
  {
    util::ReaderLock lock(mu_);
    callbacks = gather_callbacks_;
    children = children_;
  }
  for (const auto& fn : callbacks) fn();
  std::vector<MetricsSnapshot> included;
  included.reserve(children.size());
  for (MetricsRegistry* child : children) {
    included.push_back(child->Snapshot());
  }

  MetricsSnapshot snapshot;
  util::ReaderLock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [key, counter] : counters_) {
    snapshot.counters.push_back(
        {key.name, key.label_key, key.label_value, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [key, gauge] : gauges_) {
    snapshot.gauges.push_back(
        {key.name, key.label_key, key.label_value, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [key, histogram] : histograms_) {
    snapshot.histograms.push_back(
        {key.name, key.label_key, key.label_value, histogram->Summarize()});
  }
  snapshot.help = help_;
  for (MetricsSnapshot& child : included) {
    MergeSorted(&snapshot.counters, &child.counters);
    MergeSorted(&snapshot.gauges, &child.gauges);
    MergeSorted(&snapshot.histograms, &child.histograms);
    snapshot.help.insert(child.help.begin(), child.help.end());
  }
  return snapshot;
}

namespace {

std::string LabelSet(const std::string& label_key,
                     const std::string& label_value,
                     const std::string& extra = "") {
  if (label_key.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!label_key.empty()) {
    out += label_key + "=\"" + label_value + "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

}  // namespace

std::string RenderExposition(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  // # HELP/# TYPE precede the first sample of each name (samples arrive
  // sorted by name, so one comparison against the previous name suffices);
  // real Prometheus scrapers require the TYPE line to ingest the family.
  std::string announced;
  const auto announce = [&](const std::string& name, const char* type) {
    if (name == announced) return;
    announced = name;
    const auto help = snapshot.help.find(name);
    if (help != snapshot.help.end()) {
      os << "# HELP " << name << " " << help->second << "\n";
    }
    os << "# TYPE " << name << " " << type << "\n";
  };
  for (const CounterSample& c : snapshot.counters) {
    announce(c.name, "counter");
    os << c.name << LabelSet(c.label_key, c.label_value) << " " << c.value
       << "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    announce(g.name, "gauge");
    os << g.name << LabelSet(g.label_key, g.label_value) << " " << g.value
       << "\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    announce(h.name, "summary");
    const std::string labels = LabelSet(h.label_key, h.label_value);
    os << h.name << "_count" << labels << " " << h.summary.count << "\n";
    os << h.name << "_saturated" << labels << " " << h.summary.saturated
       << "\n";
    os << h.name << "_sum" << labels << " "
       << FormatDouble(h.summary.mean_us *
                           static_cast<double>(h.summary.count), 0)
       << "\n";
    const auto quantile = [&](const char* q, double value) {
      os << h.name
         << LabelSet(h.label_key, h.label_value,
                     std::string("quantile=\"") + q + "\"")
         << " " << FormatDouble(value, 0) << "\n";
    };
    quantile("0.5", h.summary.p50_us);
    quantile("0.95", h.summary.p95_us);
    quantile("0.99", h.summary.p99_us);
  }
  return os.str();
}

std::string MetricsRegistry::RenderExposition() {
  return obs::RenderExposition(Snapshot());
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

}  // namespace cbir::obs
