// Metrics/trace subsystem: counter/gauge/histogram semantics, scoped-timer
// nesting, JSON export round-trip, disabled-mode no-op behaviour, and the
// recording contract: references outlive Reset(), which zeroes in place.
#include "common/metrics.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace automc {
namespace {

using metrics::Histogram;
using metrics::MetricsRegistry;

// Pulls the numeric value following `"key": ` out of a JSON document. Good
// enough for round-tripping our own flat export without a JSON library.
double ExtractNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return -1e300;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    trace::ClearRoots();
    metrics::SetEnabled(true);
    trace::SetEnabled(false);
  }
  void TearDown() override {
    MetricsRegistry::Global().Reset();
    trace::ClearRoots();
    metrics::SetEnabled(true);
    trace::SetEnabled(false);
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  AUTOMC_METRIC_COUNT("t.counter");
  AUTOMC_METRIC_COUNT("t.counter", 4);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("t.counter").value(), 5);
  // Same name resolves to the same instance.
  MetricsRegistry::Global().GetCounter("t.counter").Add(2);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("t.counter").value(), 7);
}

TEST_F(MetricsTest, GaugeLastValueWins) {
  AUTOMC_METRIC_GAUGE("t.gauge", 1.5);
  AUTOMC_METRIC_GAUGE("t.gauge", -2.25);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Global().GetGauge("t.gauge").value(),
                   -2.25);
}

TEST_F(MetricsTest, HistogramBucketSemantics) {
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("t.hist", {1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (inclusive upper edge)
  h.Observe(5.0);    // <= 10
  h.Observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  std::vector<int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 1);
}

TEST_F(MetricsTest, HistogramDefaultBoundsCoverMillisecondRange) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("t.default");
  ASSERT_FALSE(h.bounds().empty());
  EXPECT_LE(h.bounds().front(), 1e-3);
  EXPECT_GE(h.bounds().back(), 1e4);
  h.Observe(0.42);
  EXPECT_EQ(h.count(), 1);
}

TEST_F(MetricsTest, ScopedTimerFeedsHistogram) {
  { AUTOMC_SCOPED_TIMER("t.timer_ms"); }
  Histogram& h = MetricsRegistry::Global().GetHistogram("t.timer_ms");
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.sum(), 0.0);
}

TEST_F(MetricsTest, ScopedTimerNestingBuildsTraceTree) {
  trace::SetEnabled(true);
  {
    AUTOMC_SCOPED_TIMER("t.outer_ms");
    {
      AUTOMC_SCOPED_TIMER("t.inner_ms");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    { AUTOMC_SCOPED_TIMER("t.inner2_ms"); }
  }
  std::vector<trace::Span> roots = trace::Roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "t.outer_ms");
  ASSERT_EQ(roots[0].children.size(), 2u);
  EXPECT_EQ(roots[0].children[0].name, "t.inner_ms");
  EXPECT_EQ(roots[0].children[1].name, "t.inner2_ms");
  EXPECT_GE(roots[0].ms, roots[0].children[0].ms);
  EXPECT_GT(roots[0].children[0].ms, 0.0);
  // Trace JSON mirrors the tree.
  std::string json = trace::ToJson();
  EXPECT_NE(json.find("t.outer_ms"), std::string::npos);
  EXPECT_NE(json.find("t.inner_ms"), std::string::npos);
}

TEST_F(MetricsTest, JsonExportRoundTrip) {
  AUTOMC_METRIC_COUNT("rt.executions", 42);
  AUTOMC_METRIC_GAUGE("rt.gauge", 3.5);
  Histogram& h = MetricsRegistry::Global().GetHistogram("rt.hist", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(9.0);

  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_DOUBLE_EQ(ExtractNumber(json, "rt.executions"), 42.0);
  EXPECT_DOUBLE_EQ(ExtractNumber(json, "rt.gauge"), 3.5);
  // Histogram summary fields appear after the histogram name.
  size_t hist_pos = json.find("\"rt.hist\"");
  ASSERT_NE(hist_pos, std::string::npos);
  std::string hist_part = json.substr(hist_pos);
  EXPECT_DOUBLE_EQ(ExtractNumber(hist_part, "count"), 3.0);
  EXPECT_DOUBLE_EQ(ExtractNumber(hist_part, "sum"), 11.0);
  // The export prints 12 significant digits, not full double precision.
  EXPECT_NEAR(ExtractNumber(hist_part, "mean"), 11.0 / 3.0, 1e-9);

  // File round-trip: WriteJson output re-reads byte-identical to ToJson.
  std::string path = ::testing::TempDir() + "/automc_metrics_rt.json";
  ASSERT_TRUE(MetricsRegistry::Global().WriteJson(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), MetricsRegistry::Global().ToJson());
  std::remove(path.c_str());
}

TEST_F(MetricsTest, DumpIfConfiguredHonorsEnv) {
  AUTOMC_METRIC_COUNT("dump.counter", 7);
  // Unset: nothing written.
  unsetenv("AUTOMC_METRICS_OUT");
  EXPECT_FALSE(MetricsRegistry::Global().DumpIfConfigured());
  // Set: file appears with the counter in it.
  std::string path = ::testing::TempDir() + "/automc_metrics_dump.json";
  setenv("AUTOMC_METRICS_OUT", path.c_str(), 1);
  EXPECT_TRUE(MetricsRegistry::Global().DumpIfConfigured());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_DOUBLE_EQ(ExtractNumber(buf.str(), "dump.counter"), 7.0);
  unsetenv("AUTOMC_METRICS_OUT");
  std::remove(path.c_str());
}

TEST_F(MetricsTest, DisabledModeIsNoOp) {
  metrics::SetEnabled(false);
  EXPECT_FALSE(metrics::Enabled());
  AUTOMC_METRIC_COUNT("off.counter", 5);
  AUTOMC_METRIC_GAUGE("off.gauge", 1.0);
  AUTOMC_METRIC_OBSERVE("off.hist", 1.0);
  { AUTOMC_SCOPED_TIMER("off.timer_ms"); }
  metrics::SetEnabled(true);
  // Nothing was recorded while disabled: the names exist only if someone
  // created them, and the export must not mention them.
  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_EQ(json.find("off.counter"), std::string::npos);
  EXPECT_EQ(json.find("off.gauge"), std::string::npos);
  EXPECT_EQ(json.find("off.hist"), std::string::npos);
  EXPECT_EQ(json.find("off.timer_ms"), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesInPlace) {
  AUTOMC_METRIC_COUNT("kept.counter", 3);
  AUTOMC_METRIC_GAUGE("kept.gauge", 2.5);
  MetricsRegistry::Global().GetHistogram("kept.hist", {1.0, 2.0}).Observe(1.5);
  MetricsRegistry::Global().Reset();
  // Every name survives with a zero value; a histogram keeps its bounds.
  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_DOUBLE_EQ(ExtractNumber(json, "kept.counter"), 0.0);
  EXPECT_DOUBLE_EQ(ExtractNumber(json, "kept.gauge"), 0.0);
  size_t hist_pos = json.find("\"kept.hist\"");
  ASSERT_NE(hist_pos, std::string::npos);
  EXPECT_DOUBLE_EQ(ExtractNumber(json.substr(hist_pos), "count"), 0.0);
  Histogram& h = MetricsRegistry::Global().GetHistogram("kept.hist");
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h.bucket_counts(), (std::vector<int64_t>{0, 0, 0}));
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST_F(MetricsTest, ReferenceTakenBeforeResetStaysValid) {
  metrics::Counter& c = MetricsRegistry::Global().GetCounter("ref.counter");
  Histogram& h = MetricsRegistry::Global().GetHistogram("ref.hist");
  c.Add(3);
  h.Observe(4.0);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  c.Add(2);
  h.Observe(1.0);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("ref.counter").value(), 2);
  EXPECT_EQ(MetricsRegistry::Global().GetHistogram("ref.hist").count(), 1);
}

// The hot paths record through macro sites too, so switching metrics off
// must keep GEMM dispatch and copy-on-write accounting from creating a
// single name. No earlier test in this binary touches tensors,
// so any simd.* or tensor.* name would come from this test.
TEST_F(MetricsTest, DisabledHotPathsCreateNoNames) {
  metrics::SetEnabled(false);
  tensor::Tensor a = tensor::Tensor::Full({4, 16}, 1.0f);
  tensor::Tensor b = tensor::Tensor::Full({16, 8}, 0.5f);  // n = 8: AVX2 path
  tensor::Tensor c = tensor::MatMul(a, b);
  tensor::Tensor copy = c;
  copy.MutableData()[0] = 0.0f;  // materializes the alias
  metrics::SetEnabled(true);
  EXPECT_FLOAT_EQ(c.data()[0], 8.0f);
  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_EQ(json.find("\"simd."), std::string::npos) << json;
  EXPECT_EQ(json.find("\"tensor."), std::string::npos) << json;
}

void RecordRace() {
  AUTOMC_METRIC_COUNT("race.counter");
  AUTOMC_METRIC_OBSERVE("race.hist", 1.0);
}

// Pool threads record through one pair of macro sites while the main
// thread keeps zeroing the registry; the sites' references never dangle.
TEST_F(MetricsTest, MacroSitesRecordAcrossConcurrentReset) {
  ThreadPool pool(4);
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    pool.ParallelFor(64, 1, [](int64_t, int64_t) {
      for (int i = 0; i < 2000; ++i) RecordRace();
    });
    done.store(true);
  });
  while (!done.load()) MetricsRegistry::Global().Reset();
  recorder.join();

  MetricsRegistry::Global().Reset();
  pool.ParallelFor(1000, 1, [](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) RecordRace();
  });
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("race.counter").value(),
            1000);
  EXPECT_EQ(MetricsRegistry::Global().GetHistogram("race.hist").count(), 1000);
}

}  // namespace
}  // namespace automc
