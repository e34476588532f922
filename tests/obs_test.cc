#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace qdb {
namespace obs {
namespace {

// --- Minimal JSON validator ------------------------------------------------
// Recursive-descent checker, enough to assert the exporters emit JSON any
// conforming parser accepts. Returns true iff the whole string is one valid
// JSON value.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Unescaped control character.
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Resets tracing to a known state around each trace test.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisableTracing();
    TraceLog::Global().SetCapacity(1 << 16);
    TraceLog::Global().Clear();
  }
  void TearDown() override {
    DisableTracing();
    TraceLog::Global().Clear();
  }
};

// --- Counters / gauges -----------------------------------------------------

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter* c = GetCounter("obs_test.concurrent_counter");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<long>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge* g = GetGauge("obs_test.gauge");
  g->Set(-3.25);
  EXPECT_DOUBLE_EQ(g->Value(), -3.25);
  g->Set(7.0);
  EXPECT_DOUBLE_EQ(g->Value(), 7.0);
}

TEST(RegistryTest, SameNameReturnsSamePointer) {
  Counter* a = GetCounter("obs_test.stable_pointer");
  Counter* b = GetCounter("obs_test.stable_pointer");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, GetCounter("obs_test.stable_pointer2"));
}

// --- Histograms ------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesUseLeSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  // v <= bound lands in the bucket (Prometheus "le"): 1.0 -> bucket 0,
  // 1.5 and 2.0 -> bucket 1, 5.0 -> bucket 2, 5.1 -> overflow.
  h.Observe(0.5);
  h.Observe(1.0);
  h.Observe(1.5);
  h.Observe(2.0);
  h.Observe(5.0);
  h.Observe(5.1);
  EXPECT_EQ(h.CountInBucket(0), 2);
  EXPECT_EQ(h.CountInBucket(1), 2);
  EXPECT_EQ(h.CountInBucket(2), 1);
  EXPECT_EQ(h.CountInBucket(3), 1);  // Overflow bucket.
  EXPECT_EQ(h.TotalCount(), 6);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 5.1);
}

TEST(HistogramTest, ConcurrentObservationsAreLossless) {
  Histogram* h = GetHistogram("obs_test.concurrent_hist", {10.0, 100.0});
  h->Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->TotalCount(), static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(h->CountInBucket(0), static_cast<long>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h->Sum(), static_cast<double>(kThreads) * kPerThread);
}

TEST(HistogramTest, ApproxQuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);  // Empty histogram.
  // 10 samples in (0, 10], 10 in (10, 20].
  for (int i = 0; i < 10; ++i) h.Observe(5.0);
  for (int i = 0; i < 10; ++i) h.Observe(15.0);
  // Median rank sits at the boundary of bucket 0; p75 is midway through
  // bucket 1 (linear interpolation inside the bucket).
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 0.0);  // Clamped.
}

TEST(HistogramTest, ApproxQuantileClampsOverflowToLastBound) {
  Histogram h({1.0, 2.0});
  h.Observe(100.0);  // Overflow bucket.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.99), 2.0);
}

TEST(HistogramTest, OverflowCountTracksSamplesAboveLastBound) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.OverflowCount(), 0);
  h.Observe(0.5);
  h.Observe(2.0);  // le="2" bucket, not overflow.
  EXPECT_EQ(h.OverflowCount(), 0);
  h.Observe(2.5);
  h.Observe(100.0);
  EXPECT_EQ(h.OverflowCount(), 2);
  h.Reset();
  EXPECT_EQ(h.OverflowCount(), 0);
}

TEST(RegistryTest, ExportsSurfaceHistogramOverflow) {
  Histogram* h = GetHistogram("obs_test.overflow_hist", {1.0, 2.0});
  h->Reset();
  h->Observe(0.5);
  h->Observe(7.0);  // Overflow: quantiles for this histogram are clamped.
  h->Observe(9.0);

  const std::string text = MetricsRegistry::Global().ExportText();
  EXPECT_NE(text.find("obs_test.overflow_hist_overflow 2"), std::string::npos)
      << text;

  const std::string json = MetricsRegistry::Global().ExportJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"obs_test.overflow_hist\":{"), std::string::npos);
  EXPECT_NE(json.find(",\"overflow\":2"), std::string::npos) << json;
}

TEST(RegistryTest, ExportsAreValidJsonAndListMetrics) {
  GetCounter("obs_test.export_counter")->Increment(3);
  GetGauge("obs_test.export_gauge")->Set(1.5);
  GetHistogram("obs_test.export_hist", {1.0, 2.0})->Observe(1.0);

  const std::string json = MetricsRegistry::Global().ExportJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"obs_test.export_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("obs_test.export_gauge"), std::string::npos);
  EXPECT_NE(json.find("obs_test.export_hist"), std::string::npos);

  const std::string text = MetricsRegistry::Global().ExportText();
  EXPECT_NE(text.find("obs_test.export_counter 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test.export_hist{le=\"1\"} 1"), std::string::npos);
}

// --- Trace spans -----------------------------------------------------------

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(TracingEnabled());
  {
    QDB_TRACE_SCOPE("should_not_record", "test");
  }
  EXPECT_EQ(TraceLog::Global().size(), 0u);
}

TEST_F(TraceTest, SpanRecordsNameCategoryAndDuration) {
  EnableTracing();
  {
    QDB_TRACE_SCOPE("outer_span", "test");
  }
  const std::vector<TraceEvent> events = TraceLog::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "outer_span");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GE(events[0].duration_us, 0);
  EXPECT_GE(events[0].start_us, 0);
}

TEST_F(TraceTest, NestedSpansAreContained) {
  EnableTracing();
  {
    QDB_TRACE_SCOPE("outer", "test");
    {
      QDB_TRACE_SCOPE("inner", "test");
    }
  }
  const std::vector<TraceEvent> events = TraceLog::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans finish innermost-first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.thread_id, outer.thread_id);
  // The inner interval must lie within the outer one.
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDropped) {
  TraceLog::Global().SetCapacity(4);
  EnableTracing();
  for (int i = 0; i < 10; ++i) {
    QDB_TRACE_SCOPE("ring_span", "test");
  }
  EXPECT_EQ(TraceLog::Global().size(), 4u);
  EXPECT_EQ(TraceLog::Global().dropped(), 6u);
  const std::vector<TraceEvent> events = TraceLog::Global().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: start times must be non-decreasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_us, events[i - 1].start_us);
  }
}

TEST_F(TraceTest, ChromeTraceJsonIsValidAndNamesSpans) {
  EnableTracing();
  {
    QDB_TRACE_SCOPE("json_outer", "cat_a");
    QDB_TRACE_SCOPE("json_inner", "cat_b");
  }
  const std::string json = TraceLog::Global().ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"json_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"json_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat_a\""), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceRejectsBadPath) {
  EnableTracing();
  {
    QDB_TRACE_SCOPE("span", "test");
  }
  EXPECT_FALSE(
      TraceLog::Global().WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST_F(TraceTest, ConcurrentSpansFromManyThreads) {
  EnableTracing();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        QDB_TRACE_SCOPE("mt_span", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  const TraceLog& log = TraceLog::Global();
  EXPECT_EQ(log.size() + log.dropped(),
            static_cast<size_t>(kThreads) * kPerThread);
  // Events from all threads interleave; each must still be well-formed.
  std::map<uint64_t, int> per_thread;
  for (const TraceEvent& e : log.Snapshot()) {
    EXPECT_STREQ(e.name, "mt_span");
    ++per_thread[e.thread_id];
  }
  EXPECT_GE(per_thread.size(), 2u);
}

TEST_F(TraceTest, SpansStartedWhileDisabledDoNotRecordAfterEnable) {
  ASSERT_FALSE(TracingEnabled());
  {
    TraceSpan span("enabled_mid_span", "test");
    EnableTracing();
  }  // Span was constructed while disabled: must not record.
  EXPECT_EQ(TraceLog::Global().size(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace qdb
