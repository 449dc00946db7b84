#ifndef DYNAPROX_COMMON_METRICS_H_
#define DYNAPROX_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace dynaprox {
class JsonWriter;
}

namespace dynaprox::metrics {

// Process-local metric primitives behind a named registry, exported in
// the Prometheus text exposition format and as the JSON status document
// (docs/observability.md). The hot path is lock-free: counters and
// histogram buckets are relaxed atomics, and gauges are sampled from
// their owners at scrape time, so instrumented request paths never take
// a lock.
//
// This is deliberately distinct from common::Histogram, which keeps every
// sample (simulation-scale analysis, exact percentiles, not thread-safe).
// A LatencyHistogram keeps fixed bucket counts: O(1) memory, safe under
// concurrency, and directly scrapeable; quantiles are bucket-interpolated
// the way Prometheus' histogram_quantile() computes them.

// Monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Fixed-bucket histogram. `bounds` are inclusive upper bucket bounds
// (Prometheus `le` semantics), strictly increasing; one implicit +Inf
// bucket is appended. Observe() is lock-free.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> bounds);

  void Observe(double value);

  // Point-in-time copy of the bucket counts. Relaxed loads: counts, sum,
  // and count may be mutually inconsistent by a few in-flight samples.
  struct Snapshot {
    std::vector<double> bounds;    // Upper bounds, excluding +Inf.
    std::vector<uint64_t> counts;  // Per-bucket; size bounds.size() + 1.
    uint64_t count = 0;
    double sum = 0;

    double mean() const;
    // p in [0, 1]; linear interpolation inside the target bucket (the
    // +Inf bucket answers with the highest finite bound). 0 when empty.
    double Percentile(double p) const;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  // Default layout for request-latency metrics in seconds: 100 µs to
  // 10 s, roughly 2.5x apart. Documented in docs/observability.md; keep
  // in sync.
  static const std::vector<double>& DefaultLatencySecondsBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

// Named metric registry. Get* registers on first use and returns a
// stable handle (the same handle for the same name thereafter);
// registration takes a mutex, so grab handles once at setup, not per
// request. RegisterCallback* metrics are sampled at scrape time — the
// bridge for values another component already maintains (pool gauges,
// store occupancy, breaker state).
//
// Names must follow Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*);
// the registry does not validate. Both renderers list metrics in
// registration order, so their output is deterministic (the golden tests
// in tests/common/metrics_test.cc rely on this), and both read each
// metric the same way, so the two can never disagree.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help);
  // Empty `bounds` selects DefaultLatencySecondsBounds().
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& help,
                                 std::vector<double> bounds = {});

  void RegisterCallbackCounter(const std::string& name,
                               const std::string& help,
                               std::function<uint64_t()> fn);
  void RegisterCallbackGauge(const std::string& name, const std::string& help,
                             std::function<double()> fn);

  // A labeled gauge family sampled at scrape time: `series_count` samples
  // rendered as name{label_key="i"} under one HELP/TYPE block (e.g. the
  // fragment store's per-shard resident bytes). `fn(i)` supplies sample i.
  void RegisterCallbackGaugeVec(const std::string& name,
                                const std::string& help,
                                const std::string& label_key,
                                size_t series_count,
                                std::function<double(size_t)> fn);

  // A labeled counter family whose series set is dynamic: `fn` returns
  // (label_value, count) pairs at scrape time, rendered as
  // name{label_key="label_value"} under one HELP/TYPE block (e.g. the
  // chaos layer's per-fault-point injection counts, which register
  // lazily as seams are first exercised).
  void RegisterCallbackCounterVec(
      const std::string& name, const std::string& help,
      const std::string& label_key,
      std::function<std::vector<std::pair<std::string, uint64_t>>()> fn);

  // A histogram another component keeps, snapshotted at scrape time (e.g.
  // the upstream pool's blocked-checkout wait).
  void RegisterCallbackHistogram(
      const std::string& name, const std::string& help,
      std::function<LatencyHistogram::Snapshot()> fn);

  // Renders every registered metric in the Prometheus text exposition
  // format (version 0.0.4): # HELP / # TYPE lines, then samples;
  // histograms expand to cumulative _bucket{le=...}, _sum, _count.
  std::string RenderPrometheus() const;

  // Renders every registered metric as one JSON object, the status
  // document: {"component": component, then one key per metric, named
  // as in the exposition}. A counter or gauge is a number (whole numbers
  // exact), a labeled family an object keyed by label value, and a
  // histogram {"count","sum","p50","p99"}. `append`, when set, writes
  // further keys after the metrics.
  std::string RenderJson(
      const std::string& component,
      const std::function<void(JsonWriter&)>& append = nullptr) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  // A metric's state at scrape time: one sample per series (the label
  // value is empty on an unlabeled one), a count or a gauge value; a
  // histogram's snapshot instead.
  struct Reading {
    std::vector<std::pair<std::string, std::variant<uint64_t, double>>>
        samples;
    LatencyHistogram::Snapshot histogram;
  };

  struct Entry {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::string label_key;  // Labeled families only.
    // Reads the metric; every registration kind supplies one, so the
    // renderers only format.
    std::function<Reading()> read;
    std::unique_ptr<Counter> counter;             // GetCounter's handle.
    std::unique_ptr<LatencyHistogram> histogram;  // GetHistogram's handle.
  };

  Entry* Find(const std::string& name);
  // Appends a metric; requires mu_ and a name not yet registered.
  Entry* AddLocked(const std::string& name, const std::string& help,
                   Type type, std::string label_key,
                   std::function<Reading()> read);
  // Appends a metric unless its name is taken (the first registration
  // wins).
  void Add(const std::string& name, const std::string& help, Type type,
           std::string label_key, std::function<Reading()> read);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace dynaprox::metrics

#endif  // DYNAPROX_COMMON_METRICS_H_
