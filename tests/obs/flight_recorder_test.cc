#include "obs/flight_recorder.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cbir::obs {
namespace {

RequestTrace MakeTrace(uint64_t id) {
  RequestTrace trace(id);
  trace.AddSpan("decode", 0, 10, 0);
  trace.AddSpan("solve", 12, 100, 0);
  trace.AddCounter("smo_iterations", 7);
  return trace;
}

TEST(FlightRecorderTest, ErrorsAlwaysCapturedHealthyDroppedWhenSamplingOff) {
  FlightRecorderOptions options;
  options.capacity = 8;
  options.sample_every = 0;  // only errors (and slow, but threshold is off)
  FlightRecorder recorder(options);
  const RequestTrace trace = MakeTrace(0x42);

  for (int i = 0; i < 5; ++i) recorder.Record(trace, 3, 0, 100);
  recorder.Record(trace, 5, 14, 250);  // non-OK status
  recorder.Record(trace, 5, 2, 250);

  EXPECT_EQ(recorder.seen(), 7u);
  EXPECT_EQ(recorder.seen_errors(), 2u);
  EXPECT_EQ(recorder.captured_errors(), 2u);
  EXPECT_EQ(recorder.captured(), 2u);
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  for (const FlightRecord& r : records) {
    EXPECT_STREQ(r.reason, "error");
    EXPECT_EQ(r.trace_id, 0x42u);
    EXPECT_EQ(r.spans.size(), 2u);
    EXPECT_EQ(r.counters.size(), 1u);
  }
}

TEST(FlightRecorderTest, SlowThresholdCapturesAtExactlyThreshold) {
  FlightRecorderOptions options;
  options.sample_every = 0;
  options.slow_threshold_ms = 2;
  FlightRecorder recorder(options);
  const RequestTrace trace = MakeTrace(1);

  recorder.Record(trace, 3, 0, 1999);  // just under: dropped
  recorder.Record(trace, 3, 0, 2000);  // exactly at: captured
  EXPECT_EQ(recorder.captured_slow(), 1u);
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].reason, "slow");
  EXPECT_EQ(records[0].total_us, 2000u);

  // A non-positive threshold turns the slow criterion off entirely.
  for (int threshold_ms : {0, -3}) {
    options.slow_threshold_ms = threshold_ms;
    FlightRecorder off(options);
    off.Record(trace, 3, 0, uint64_t{1} << 30);
    EXPECT_EQ(off.captured_slow(), 0u) << threshold_ms;
    EXPECT_TRUE(off.Snapshot().empty()) << threshold_ms;
  }
}

TEST(FlightRecorderTest, SamplingIsDeterministicAndStartsAtFirstRequest) {
  FlightRecorderOptions options;
  options.sample_every = 4;
  FlightRecorder recorder(options);
  const RequestTrace trace = MakeTrace(2);

  // Healthy requests 1..8: the 1st and 5th are taken (tick 0 and 4).
  for (int i = 0; i < 8; ++i) recorder.Record(trace, 3, 0, 50);
  EXPECT_EQ(recorder.captured_sampled(), 2u);
  // An error does not consume a sampling tick: the next healthy request
  // after 8 healthy ones is tick 8 -> sampled again.
  recorder.Record(trace, 3, 9, 50);
  recorder.Record(trace, 3, 0, 50);
  EXPECT_EQ(recorder.captured_sampled(), 3u);
  EXPECT_EQ(recorder.captured_errors(), 1u);
}

TEST(FlightRecorderTest, RingKeepsNewestAndSnapshotIsOldestFirst) {
  FlightRecorderOptions options;
  options.capacity = 4;
  options.sample_every = 0;
  FlightRecorder recorder(options);

  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.Record(MakeTrace(i), 3, 7, i * 10);
  }
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Captures 7..10 survive, in capture order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].sequence, 7 + i);
    EXPECT_EQ(records[i].trace_id, 7 + i);
  }
}

TEST(FlightRecorderTest, DumpCarriesAccountingHeaderAndSpanTrees) {
  FlightRecorderOptions options;
  options.capacity = 8;
  options.sample_every = 2;
  FlightRecorder recorder(options);
  recorder.Record(MakeTrace(0x1f3a), 5, 0, 4211);  // sampled (tick 0)
  recorder.Record(MakeTrace(0xbeef), 3, 14, 99);   // error

  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("flight recorder: capacity=8 seen=2 captured=2 "
                      "seen_errors=1 captured_errors=1 captured_slow=0 "
                      "captured_sampled=1 sample_every=2"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("record seq=1 reason=sampled type=5 status=0 "
                      "trace 0x1f3a total=4211us"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("record seq=2 reason=error type=3 status=14 "
                      "trace 0xbeef total=99us"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\n  decode 10us @0us"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\n  smo_iterations=7"), std::string::npos) << dump;
}

TEST(FlightRecorderTest, EmptyRecorderDumpsHeaderOnly) {
  FlightRecorder recorder;
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("flight recorder: capacity=256 seen=0"),
            std::string::npos)
      << dump;
  EXPECT_EQ(dump.find("record seq="), std::string::npos) << dump;
}

// TSan coverage: concurrent recorders against a small ring (maximum slot
// contention) while a reader dumps — and the error accounting still exact.
TEST(FlightRecorderTest, ConcurrentRecordAndDump) {
  FlightRecorderOptions options;
  options.capacity = 4;
  options.sample_every = 3;
  FlightRecorder recorder(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string dump = recorder.Dump();
      EXPECT_NE(dump.find("flight recorder:"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const RequestTrace trace = MakeTrace(
            static_cast<uint64_t>(t) << 32 | static_cast<uint64_t>(i));
        // Every odd record is an error; evens are healthy (some sampled).
        recorder.Record(trace, 3, i % 2 == 1 ? 14 : 0, 100);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(recorder.seen(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(recorder.seen_errors(), uint64_t{kThreads} * kPerThread / 2);
  // The contract the chaos job relies on: every error was captured.
  EXPECT_EQ(recorder.captured_errors(), recorder.seen_errors());
  const std::vector<FlightRecord> records = recorder.Snapshot();
  EXPECT_EQ(records.size(), 4u);
  // Records are copied under their slot lock: each survivor is internally
  // consistent (never a torn mix of two requests).
  for (const FlightRecord& r : records) {
    EXPECT_EQ(r.spans.size(), 2u);
    ASSERT_EQ(r.counters.size(), 1u);
    EXPECT_EQ(r.counters[0].value, 7);
  }
  recorder.Record(MakeTrace(1), 3, 5, 10);
  EXPECT_EQ(recorder.captured_errors(), recorder.seen_errors());
}

}  // namespace
}  // namespace cbir::obs
