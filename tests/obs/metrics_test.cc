#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cbir::obs {
namespace {

// ---------------------------------------------------------------- buckets --

TEST(LatencyHistogramTest, BucketIndexAndUpperBoundAgree) {
  // Every probed value must land in a bucket whose bounds contain it:
  // prev_upper <= us < upper. Probe bucket edges, edge+-1, and a spread of
  // values across the whole range.
  std::vector<uint64_t> probes = {0, 1, 2, 7, 8, 9, 100, 1000, 123456};
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const uint64_t upper = LatencyHistogram::BucketUpperBound(b);
    probes.push_back(upper - 1);
    probes.push_back(upper);
  }
  for (uint64_t us : probes) {
    const int bucket = LatencyHistogram::BucketIndex(us);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, LatencyHistogram::kBuckets);
    if (us < LatencyHistogram::BucketUpperBound(LatencyHistogram::kBuckets -
                                                1)) {
      EXPECT_LT(us, LatencyHistogram::BucketUpperBound(bucket)) << us;
    } else {
      EXPECT_EQ(bucket, LatencyHistogram::kBuckets - 1) << us;
    }
    if (bucket > 0) {
      EXPECT_GE(us, LatencyHistogram::BucketUpperBound(bucket - 1)) << us;
    }
  }
}

TEST(LatencyHistogramTest, UpperBoundsStrictlyIncrease) {
  for (int b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_LT(LatencyHistogram::BucketUpperBound(b - 1),
              LatencyHistogram::BucketUpperBound(b))
        << "bucket " << b;
  }
}

TEST(LatencyHistogramTest, EmptySummaryIsAllZero) {
  LatencyHistogram h;
  const LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.saturated, 0u);
  EXPECT_EQ(s.p50_us, 0.0);
  EXPECT_EQ(s.max_us, 0.0);
}

TEST(LatencyHistogramTest, PercentilesOverEstimateByAtMostOneBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(100.0);
  h.Record(5000.0);
  const LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 1001u);
  // p50/p95 sit in 100us's bucket: at least the value, within 12.5% above.
  EXPECT_GE(s.p50_us, 100.0);
  EXPECT_LE(s.p50_us, 100.0 * 1.125);
  EXPECT_GE(s.p95_us, 100.0);
  EXPECT_LE(s.p95_us, 100.0 * 1.125);
  EXPECT_GE(s.max_us, 5000.0);
  EXPECT_LE(s.max_us, 5000.0 * 1.125);
  EXPECT_NEAR(s.mean_us, (1000 * 100.0 + 5000.0) / 1001.0, 1.0);
}

TEST(LatencyHistogramTest, NegativeAndZeroClampToZeroBucket) {
  LatencyHistogram h;
  h.Record(-3.0);
  h.Record(0.0);
  const LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.saturated, 0u);
  EXPECT_EQ(s.max_us, 1.0);  // upper bound of bucket 0
}

TEST(LatencyHistogramTest, SaturationCountsClampedSamples) {
  LatencyHistogram h;
  const double top = static_cast<double>(
      LatencyHistogram::BucketUpperBound(LatencyHistogram::kBuckets - 1));
  h.Record(top);            // exactly at the bound: clamped
  h.Record(top * 4.0);      // far beyond: clamped
  h.Record(top - 2.0);      // inside the top bucket: not saturated
  const LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.saturated, 2u);
}

// --------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, GetReturnsStablePointerPerSeries) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("requests_total");
  Counter* b = r.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  // A label value makes a distinct series under the same name.
  Counter* labeled = r.GetCounter("requests_total", "stage", "solve");
  EXPECT_NE(a, labeled);
  EXPECT_NE(labeled, r.GetCounter("requests_total", "stage", "decode"));

  a->Increment();
  a->Increment(9);
  EXPECT_EQ(a->value(), 10u);
  EXPECT_EQ(labeled->value(), 0u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry r;
  Gauge* g = r.GetGauge("resident_bytes");
  g->Set(100);
  g->Add(-250);
  EXPECT_EQ(g->value(), -150);
}

TEST(MetricsRegistryTest, SnapshotOrderedByNameThenLabel) {
  MetricsRegistry r;
  r.GetCounter("zeta_total")->Increment(1);
  r.GetCounter("alpha_total", "stage", "write")->Increment(2);
  r.GetCounter("alpha_total", "stage", "decode")->Increment(3);
  const MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[0].label_value, "decode");
  EXPECT_EQ(snap.counters[0].value, 3u);
  EXPECT_EQ(snap.counters[1].label_value, "write");
  EXPECT_EQ(snap.counters[2].name, "zeta_total");
}

TEST(MetricsRegistryTest, OnGatherRunsBeforeSnapshot) {
  MetricsRegistry r;
  int gathers = 0;
  // The callback re-enters the registry through GetGauge — this must not
  // deadlock (callbacks run outside the registry lock).
  r.OnGather([&] {
    ++gathers;
    r.GetGauge("pulled")->Set(gathers);
  });
  MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 1);
  snap = r.Snapshot();
  EXPECT_EQ(snap.gauges[0].value, 2);
}

TEST(MetricsRegistryTest, IncludeMergesChildSeriesInOrder) {
  MetricsRegistry parent;
  MetricsRegistry child;
  parent.GetCounter("b_total")->Increment(1);
  parent.GetCounter("d_total")->Increment(2);
  parent.GetHistogram("stage_us", "stage", "decode")->Record(5.0);
  child.GetCounter("a_total")->Increment(3);
  child.GetCounter("c_total")->Increment(4);
  child.GetGauge("level")->Set(-2);
  child.GetHistogram("stage_us", "stage", "solve")->Record(7.0);
  child.GetHistogram("stage_us", "stage", "admission")->Record(1.0);
  parent.Include(&child);

  const MetricsSnapshot snap = parent.Snapshot();
  std::vector<std::string> counters;
  for (const CounterSample& c : snap.counters) counters.push_back(c.name);
  EXPECT_EQ(counters, (std::vector<std::string>{"a_total", "b_total",
                                                "c_total", "d_total"}));
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -2);
  std::vector<std::string> stages;
  for (const HistogramSample& h : snap.histograms) {
    stages.push_back(h.label_value);
  }
  EXPECT_EQ(stages,
            (std::vector<std::string>{"admission", "decode", "solve"}));

  // One family announced once even though its series come from two
  // registries; the child's writes show up live, not as a copy.
  child.GetCounter("a_total")->Increment();
  const std::string text = parent.RenderExposition();
  EXPECT_NE(text.find("a_total 4\n"), std::string::npos) << text;
  const std::string type_line = "# TYPE stage_us summary\n";
  const size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos) << text;
}

TEST(MetricsRegistryTest, IncludeCarriesHelpAndRunsChildGather) {
  MetricsRegistry parent;
  MetricsRegistry child;
  MetricsRegistry grandchild;
  child.SetHelp("pulled", "Set by the child's gather callback.");
  int gathers = 0;
  child.OnGather([&] { child.GetGauge("pulled")->Set(++gathers); });
  grandchild.GetCounter("deep_total")->Increment(9);
  child.Include(&grandchild);
  parent.Include(&child);

  const MetricsSnapshot snap = parent.Snapshot();
  EXPECT_EQ(gathers, 1);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "pulled");
  EXPECT_EQ(snap.gauges[0].value, 1);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 9u);

  const std::string text = parent.RenderExposition();
  EXPECT_EQ(gathers, 2);
  EXPECT_NE(text.find("# HELP pulled Set by the child's gather callback.\n"
                      "# TYPE pulled gauge\npulled 2\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, DefaultIsProcessWideSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

// The TSan job runs this: 8 writer threads hammer counters, gauges, and a
// histogram while a reader snapshots concurrently. Any lock misuse or
// non-atomic access in the wait-free paths shows up as a race report; the
// final counts also check that no increment was lost.
TEST(MetricsRegistryTest, ConcurrentIncrementAndSnapshot) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&r, t] {
      // Half the threads share one series; the rest register their own —
      // registration (locked) races with updates (wait-free) on purpose.
      Counter* shared = r.GetCounter("shared_total");
      Counter* own = r.GetCounter("own_total", "thread", std::to_string(t));
      Gauge* gauge = r.GetGauge("level");
      LatencyHistogram* h = r.GetHistogram("lat_us");
      for (int i = 0; i < kIters; ++i) {
        shared->Increment();
        own->Increment();
        gauge->Set(i);
        h->Record(static_cast<double>(i % 1000));
      }
    });
  }
  std::thread reader([&r] {
    for (int i = 0; i < 50; ++i) {
      const MetricsSnapshot snap = r.Snapshot();
      (void)snap;
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  const MetricsSnapshot snap = r.Snapshot();
  uint64_t shared = 0, own_sum = 0, hist_count = 0;
  for (const CounterSample& c : snap.counters) {
    if (c.name == "shared_total") shared = c.value;
    if (c.name == "own_total") own_sum += c.value;
  }
  for (const HistogramSample& h : snap.histograms) {
    if (h.name == "lat_us") hist_count = h.summary.count;
  }
  EXPECT_EQ(shared, uint64_t{kThreads} * kIters);
  EXPECT_EQ(own_sum, uint64_t{kThreads} * kIters);
  EXPECT_EQ(hist_count, uint64_t{kThreads} * kIters);
}

// ------------------------------------------------------------- exposition --

TEST(RenderExpositionTest, CountersGaugesAndHistogramLines) {
  MetricsRegistry r;
  r.GetCounter("cbir_net_requests_total")->Increment(42);
  r.GetCounter("cbir_request_errors_total", "kind", "decode")->Increment(3);
  r.GetGauge("cbir_serve_active_sessions")->Set(-7);
  LatencyHistogram* h = r.GetHistogram("cbir_net_request_us");
  for (int i = 0; i < 100; ++i) h->Record(64.0);

  const std::string text = r.RenderExposition();
  EXPECT_NE(text.find("cbir_net_requests_total 42\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("cbir_request_errors_total{kind=\"decode\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cbir_serve_active_sessions -7\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("cbir_net_request_us_count 100\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("cbir_net_request_us_saturated 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cbir_net_request_us_sum "), std::string::npos)
      << text;
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(text.find("cbir_net_request_us{quantile=\"" + std::string(q) +
                        "\"} "),
              std::string::npos)
        << text;
  }
  // Non-empty, no leading space; the rendering opens with the first
  // metric's `# TYPE` comment.
  EXPECT_EQ(text.front(), '#');
  EXPECT_EQ(text.back(), '\n');
}

TEST(RenderExpositionTest, HistogramWithLabelCarriesQuantileAsSecondLabel) {
  MetricsRegistry r;
  r.GetHistogram("cbir_request_stage_us", "stage", "solve")->Record(10.0);
  const std::string text = r.RenderExposition();
  EXPECT_NE(text.find("cbir_request_stage_us_count{stage=\"solve\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("cbir_request_stage_us{stage=\"solve\",quantile=\"0.5\"} "),
      std::string::npos)
      << text;
}

}  // namespace
}  // namespace cbir::obs
