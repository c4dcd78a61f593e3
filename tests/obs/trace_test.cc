#include "obs/trace.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace cbir::obs {
namespace {

// ------------------------------------------------------------ trace scope --

TEST(TraceScopeTest, InstallsAndRestoresCurrentTrace) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  RequestTrace outer(1);
  {
    TraceScope scope(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    RequestTrace inner(2);
    {
      TraceScope nested(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceScopeTest, CurrentTraceIsPerThread) {
  RequestTrace trace(7);
  TraceScope scope(&trace);
  RequestTrace* seen = &trace;
  std::thread other([&seen] { seen = CurrentTrace(); });
  other.join();
  EXPECT_EQ(seen, nullptr);  // the scope binds this thread only
  EXPECT_EQ(CurrentTrace(), &trace);
}

// ------------------------------------------------------------ scoped span --

TEST(ScopedSpanTest, RecordsHistogramWithoutTrace) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  LatencyHistogram h;
  { ScopedSpan span("solve", &h); }
  EXPECT_EQ(h.Summarize().count, 1u);
}

TEST(ScopedSpanTest, AttachesSpanToCurrentTrace) {
  RequestTrace trace(0xABC);
  {
    TraceScope scope(&trace);
    { ScopedSpan span("admission"); }
    { ScopedSpan span("solve"); }
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "admission");
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_EQ(trace.spans()[1].name, "solve");
  EXPECT_EQ(trace.spans()[1].depth, 0);
  // The second span starts no earlier than the first.
  EXPECT_GE(trace.spans()[1].start_us, trace.spans()[0].start_us);
}

TEST(ScopedSpanTest, NestedSpansCarryDepth) {
  RequestTrace trace(1);
  {
    TraceScope scope(&trace);
    ScopedSpan outer("request");
    {
      ScopedSpan inner("solve");
      { ScopedSpan innermost("kernel"); }
    }
  }
  // Spans land in End() order (innermost first).
  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].name, "kernel");
  EXPECT_EQ(trace.spans()[0].depth, 2);
  EXPECT_EQ(trace.spans()[1].name, "solve");
  EXPECT_EQ(trace.spans()[1].depth, 1);
  EXPECT_EQ(trace.spans()[2].name, "request");
  EXPECT_EQ(trace.spans()[2].depth, 0);
}

TEST(ScopedSpanTest, EndIsIdempotent) {
  RequestTrace trace(1);
  LatencyHistogram h;
  {
    TraceScope scope(&trace);
    ScopedSpan span("write", &h);
    span.End();
    span.End();  // second call must be a no-op; destructor adds a third
  }
  EXPECT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(h.Summarize().count, 1u);
}

TEST(ScopedSpanTest, TraceCapturedAtConstructionNotEnd) {
  // A span built outside any scope stays detached even if a trace is
  // installed before it ends — spans never attach retroactively.
  RequestTrace trace(1);
  ScopedSpan span("early");
  {
    TraceScope scope(&trace);
    span.End();
  }
  EXPECT_TRUE(trace.spans().empty());
}

// ----------------------------------------------------------- format trace --

TEST(FormatTraceTest, RendersIdTotalAndIndentedSpans) {
  RequestTrace trace(0x1F3A);
  trace.AddSpan("decode", 0, 12, 0);
  trace.AddSpan("solve", 118, 3970, 1);
  const std::string text = FormatTrace(trace, 4211);
  EXPECT_NE(text.find("trace 0x1f3a total=4211us"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  decode 12us @0us"), std::string::npos) << text;
  // Depth 1 gets one extra indent level.
  EXPECT_NE(text.find("\n    solve 3970us @118us"), std::string::npos)
      << text;
}

TEST(FormatTraceTest, CountersRenderAfterSpansAndAccumulateByName) {
  RequestTrace trace(0x2);
  trace.AddSpan("solve", 0, 100, 0);
  trace.AddCounter("smo_iterations", 40);
  trace.AddCounter("kernel_cache_hits", 9);
  trace.AddCounter("smo_iterations", 2);  // same name: summed, not appended
  ASSERT_EQ(trace.counters().size(), 2u);
  EXPECT_EQ(trace.counters()[0].value, 42);

  const std::string text = FormatTrace(trace, 100);
  EXPECT_NE(text.find("\n  smo_iterations=42"), std::string::npos) << text;
  EXPECT_NE(text.find("\n  kernel_cache_hits=9"), std::string::npos) << text;
  // Counters follow the span tree.
  EXPECT_LT(text.find("solve 100us"), text.find("smo_iterations=42"));
}

TEST(FormatTraceTest, SpanTreeRenderingMatchesDetachedVectors) {
  // FormatSpanTree (used by the flight recorder on copies that outlived
  // their trace) and FormatTrace must agree byte for byte.
  RequestTrace trace(0x77);
  trace.AddSpan("decode", 0, 12, 0);
  trace.AddCounter("index_rows_scanned", -3);
  EXPECT_EQ(FormatTrace(trace, 500),
            FormatSpanTree(0x77, 500, trace.spans(), trace.counters()));
}

}  // namespace
}  // namespace cbir::obs
