#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"

namespace dynaprox::metrics {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(LatencyHistogramTest, BoundsAreInclusiveUpperBounds) {
  LatencyHistogram h({1.0, 2.0});
  h.Observe(1.0);  // le="1" (inclusive, Prometheus semantics).
  h.Observe(1.5);  // le="2".
  h.Observe(9.0);  // +Inf.
  LatencyHistogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 11.5);
  EXPECT_DOUBLE_EQ(snap.mean(), 11.5 / 3);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram h({1.0});
  LatencyHistogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.0);
}

TEST(LatencyHistogramTest, PercentileInterpolatesInsideBucket) {
  LatencyHistogram h({10.0, 20.0});
  // 10 samples in (10, 20]: the median interpolates to the bucket middle,
  // the way Prometheus histogram_quantile() estimates it.
  for (int i = 0; i < 10; ++i) h.Observe(15.0);
  LatencyHistogram::Snapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 20.0);
}

TEST(LatencyHistogramTest, OverflowBucketAnswersHighestBound) {
  LatencyHistogram h({1.0, 2.0});
  h.Observe(100.0);
  EXPECT_DOUBLE_EQ(h.snapshot().Percentile(0.99), 2.0);
}

TEST(LatencyHistogramTest, DefaultBoundsAreSortedAndCoverLatencyRange) {
  const std::vector<double>& bounds =
      LatencyHistogram::DefaultLatencySecondsBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 0.0001);
  EXPECT_DOUBLE_EQ(bounds.back(), 10.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  Registry registry;
  Counter* a = registry.GetCounter("x_total", "first");
  Counter* b = registry.GetCounter("x_total", "second registration ignored");
  EXPECT_EQ(a, b);
  LatencyHistogram* h1 = registry.GetHistogram("h_seconds", "h", {1.0});
  LatencyHistogram* h2 = registry.GetHistogram("h_seconds", "h", {5.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 1u);  // First registration's layout wins.
}

TEST(RegistryTest, EmptyBoundsSelectDefaultLayout) {
  Registry registry;
  LatencyHistogram* h = registry.GetHistogram("h_seconds", "h");
  EXPECT_EQ(h->bounds(), LatencyHistogram::DefaultLatencySecondsBounds());
}

TEST(RegistryTest, ConcurrentIncrementsAndObservationsAllLand) {
  Registry registry;
  Counter* counter = registry.GetCounter("spins_total", "concurrent");
  LatencyHistogram* histogram =
      registry.GetHistogram("spin_seconds", "concurrent", {0.5, 1.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Observe(1.0);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  LatencyHistogram::Snapshot snap = histogram->snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.counts[1], static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads) * kPerThread);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafeAndStable) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> handles(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      handles[t] = registry.GetCounter("shared_total", "one entry");
      handles[t]->Increment();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[t], handles[0]);
  EXPECT_EQ(handles[0]->value(), static_cast<uint64_t>(kThreads));
}

// Golden test: the exact exposition text for one metric of each kind.
// Rendering is registration-ordered, so this output is deterministic.
// If it changes, docs/observability.md's examples need the same change.
TEST(RegistryTest, RenderPrometheusGolden) {
  Registry registry;
  Counter* requests =
      registry.GetCounter("demo_requests_total", "Requests handled.");
  LatencyHistogram* latency = registry.GetHistogram(
      "demo_request_duration_seconds", "Handling latency.",
      {0.0025, 0.01, 0.25});
  registry.RegisterCallbackCounter("demo_evictions_total",
                                   "Entries evicted.", [] { return 7u; });
  registry.RegisterCallbackGauge("demo_error_rate", "Rolling error rate.",
                                 [] { return 0.25; });

  requests->Increment(3);
  latency->Observe(0.001);   // le="0.0025".
  latency->Observe(0.0025);  // le="0.0025" (inclusive).
  latency->Observe(0.02);    // le="0.25".
  latency->Observe(1.0);     // +Inf.

  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP demo_requests_total Requests handled.\n"
            "# TYPE demo_requests_total counter\n"
            "demo_requests_total 3\n"
            "# HELP demo_request_duration_seconds Handling latency.\n"
            "# TYPE demo_request_duration_seconds histogram\n"
            "demo_request_duration_seconds_bucket{le=\"0.0025\"} 2\n"
            "demo_request_duration_seconds_bucket{le=\"0.01\"} 2\n"
            "demo_request_duration_seconds_bucket{le=\"0.25\"} 3\n"
            "demo_request_duration_seconds_bucket{le=\"+Inf\"} 4\n"
            "demo_request_duration_seconds_sum 1.0235\n"
            "demo_request_duration_seconds_count 4\n"
            "# HELP demo_evictions_total Entries evicted.\n"
            "# TYPE demo_evictions_total counter\n"
            "demo_evictions_total 7\n"
            "# HELP demo_error_rate Rolling error rate.\n"
            "# TYPE demo_error_rate gauge\n"
            "demo_error_rate 0.25\n");
}

// Golden test for the status document: one metric of each kind, whole
// and fractional samples. Keys are the exposition's metric names, in
// registration order. If it changes, docs/observability.md's status
// section needs the same change.
TEST(RegistryTest, RenderJsonGolden) {
  Registry registry;
  registry.GetCounter("demo_requests_total", "Requests handled.")
      ->Increment(3);
  LatencyHistogram* latency = registry.GetHistogram(
      "demo_request_duration_seconds", "Handling latency.",
      {0.0025, 0.01, 0.25});
  latency->Observe(0.001);  // le="0.0025".
  latency->Observe(0.02);   // le="0.25".
  registry.RegisterCallbackCounter("demo_evictions_total",
                                   "Entries evicted.", [] { return 7u; });
  registry.RegisterCallbackGauge("demo_error_rate", "Rolling error rate.",
                                 [] { return 0.25; });
  // 4 MiB: exact, where %.6g would print 4.1943e+06.
  registry.RegisterCallbackGauge("demo_content_bytes", "Bytes stored.",
                                 [] { return 4194304.0; });
  registry.RegisterCallbackGaugeVec(
      "demo_shard_bytes", "Bytes per shard.", "shard", 2,
      [](size_t shard) { return shard == 0 ? 1.5 : 2.0; });
  registry.RegisterCallbackCounterVec(
      "demo_faults_total", "Faults by point.", "point", [] {
        return std::vector<std::pair<std::string, uint64_t>>{
            {"net.read", 2}, {"dpc.upstream", 0}};
      });
  registry.RegisterCallbackHistogram("demo_wait_seconds", "Wait.", [] {
    LatencyHistogram wait({1.0, 2.0});
    wait.Observe(1.5);  // le="2".
    wait.Observe(3.0);  // +Inf.
    return wait.snapshot();
  });

  EXPECT_EQ(registry.RenderJson("demo",
                                [](JsonWriter& json) {
                                  json.Key("extra").Bool(true);
                                }),
            "{\"component\":\"demo\",\"demo_requests_total\":3,"
            "\"demo_request_duration_seconds\":{\"count\":2,"
            "\"sum\":0.021,\"p50\":0.0025,\"p99\":0.25},"
            "\"demo_evictions_total\":7,\"demo_error_rate\":0.25,"
            "\"demo_content_bytes\":4194304,"
            "\"demo_shard_bytes\":{\"0\":1.5,\"1\":2},"
            "\"demo_faults_total\":{\"net.read\":2,\"dpc.upstream\":0},"
            "\"demo_wait_seconds\":{\"count\":2,\"sum\":4.5,\"p50\":2,"
            "\"p99\":2},"
            "\"extra\":true}");
}

TEST(RegistryTest, CallbackHistogramRendersLikeAnOwnedOne) {
  Registry owned;
  LatencyHistogram* wait =
      owned.GetHistogram("wait_seconds", "Wait.", {1.0, 2.0});
  wait->Observe(0.5);
  wait->Observe(3.0);
  Registry bridged;
  bridged.RegisterCallbackHistogram("wait_seconds", "Wait.",
                                    [wait] { return wait->snapshot(); });
  EXPECT_EQ(bridged.RenderPrometheus(), owned.RenderPrometheus());
  EXPECT_EQ(bridged.RenderJson("x"), owned.RenderJson("x"));
}

TEST(RegistryTest, RenderWholeNumberSamplesHaveNoExponent) {
  Registry registry;
  LatencyHistogram* h = registry.GetHistogram("t_seconds", "t", {1.0});
  h->Observe(1.0);
  h->Observe(1.0);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("t_seconds_sum 2\n"), std::string::npos) << text;
}

}  // namespace
}  // namespace dynaprox::metrics
