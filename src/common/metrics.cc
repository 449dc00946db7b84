#include "common/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace dynaprox::metrics {
namespace {

// %g keeps bucket bounds like 0.0025 readable and round-trippable for
// the layouts used here; sums get more digits so accumulated time isn't
// visibly truncated.
std::string FormatBound(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// Exact integers render without an exponent, in both renderers.
bool IsWhole(double value) {
  return std::abs(value) < 1e15 && value == std::trunc(value);
}

std::string FormatSample(double value) {
  if (IsWhole(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string FormatSample(const std::variant<uint64_t, double>& value) {
  if (const uint64_t* count = std::get_if<uint64_t>(&value)) {
    return std::to_string(*count);
  }
  return FormatSample(std::get<double>(value));
}

void WriteSample(JsonWriter& json, double value) {
  if (IsWhole(value)) {
    json.Int(static_cast<int64_t>(value));
  } else {
    json.Double(value);
  }
}

void WriteSample(JsonWriter& json,
                 const std::variant<uint64_t, double>& value) {
  if (const uint64_t* count = std::get_if<uint64_t>(&value)) {
    json.Uint(*count);
  } else {
    WriteSample(json, std::get<double>(value));
  }
}

}  // namespace

LatencyHistogram::LatencyHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void LatencyHistogram::Observe(double value) {
  // First bound >= value: `le` is an inclusive upper bound.
  size_t index = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    snap.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double LatencyHistogram::Snapshot::mean() const {
  return count == 0 ? 0 : sum / static_cast<double>(count);
}

double LatencyHistogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    uint64_t in_bucket = counts[i];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) {
      // +Inf bucket: no upper bound to interpolate toward.
      return bounds.empty() ? 0 : bounds.back();
    }
    double lower = i == 0 ? 0 : bounds[i - 1];
    double upper = bounds[i];
    double position = in_bucket == 0
                          ? 1.0
                          : static_cast<double>(rank - cumulative) /
                                static_cast<double>(in_bucket);
    return lower + (upper - lower) * position;
  }
  return bounds.empty() ? 0 : bounds.back();
}

const std::vector<double>& LatencyHistogram::DefaultLatencySecondsBounds() {
  static const std::vector<double> kBounds = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
      0.05,   0.1,     0.25,   0.5,  1.0,    2.5,   5.0,  10.0};
  return kBounds;
}

Registry::Entry* Registry::Find(const std::string& name) {
  for (std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Registry::Entry* Registry::AddLocked(const std::string& name,
                                     const std::string& help, Type type,
                                     std::string label_key,
                                     std::function<Reading()> read) {
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->type = type;
  entry->label_key = std::move(label_key);
  entry->read = std::move(read);
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

void Registry::Add(const std::string& name, const std::string& help,
                   Type type, std::string label_key,
                   std::function<Reading()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Find(name) != nullptr) return;
  AddLocked(name, help, type, std::move(label_key), std::move(read));
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* existing = Find(name)) return existing->counter.get();
  auto counter = std::make_unique<Counter>();
  Counter* handle = counter.get();
  AddLocked(name, help, Type::kCounter, "", [handle] {
    return Reading{{{"", handle->value()}}, {}};
  })->counter = std::move(counter);
  return handle;
}

LatencyHistogram* Registry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* existing = Find(name)) return existing->histogram.get();
  if (bounds.empty()) bounds = LatencyHistogram::DefaultLatencySecondsBounds();
  auto histogram = std::make_unique<LatencyHistogram>(std::move(bounds));
  LatencyHistogram* handle = histogram.get();
  AddLocked(name, help, Type::kHistogram, "", [handle] {
    return Reading{{}, handle->snapshot()};
  })->histogram = std::move(histogram);
  return handle;
}

void Registry::RegisterCallbackCounter(const std::string& name,
                                       const std::string& help,
                                       std::function<uint64_t()> fn) {
  Add(name, help, Type::kCounter, "",
      [fn = std::move(fn)] { return Reading{{{"", fn()}}, {}}; });
}

void Registry::RegisterCallbackGauge(const std::string& name,
                                     const std::string& help,
                                     std::function<double()> fn) {
  Add(name, help, Type::kGauge, "",
      [fn = std::move(fn)] { return Reading{{{"", fn()}}, {}}; });
}

void Registry::RegisterCallbackGaugeVec(const std::string& name,
                                        const std::string& help,
                                        const std::string& label_key,
                                        size_t series_count,
                                        std::function<double(size_t)> fn) {
  Add(name, help, Type::kGauge, label_key,
      [series_count, fn = std::move(fn)] {
        Reading reading;
        for (size_t i = 0; i < series_count; ++i) {
          reading.samples.emplace_back(std::to_string(i), fn(i));
        }
        return reading;
      });
}

void Registry::RegisterCallbackCounterVec(
    const std::string& name, const std::string& help,
    const std::string& label_key,
    std::function<std::vector<std::pair<std::string, uint64_t>>()> fn) {
  Add(name, help, Type::kCounter, label_key, [fn = std::move(fn)] {
    Reading reading;
    for (auto& [label, count] : fn()) {
      reading.samples.emplace_back(std::move(label), count);
    }
    return reading;
  });
}

void Registry::RegisterCallbackHistogram(
    const std::string& name, const std::string& help,
    std::function<LatencyHistogram::Snapshot()> fn) {
  Add(name, help, Type::kHistogram, "",
      [fn = std::move(fn)] { return Reading{{}, fn()}; });
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::unique_ptr<Entry>& entry : entries_) {
    const std::string& name = entry->name;
    out += "# HELP " + name + " " + entry->help + "\n";
    Reading reading = entry->read();
    if (entry->type == Type::kHistogram) {
      const LatencyHistogram::Snapshot& snap = reading.histogram;
      out += "# TYPE " + name + " histogram\n";
      uint64_t cumulative = 0;
      for (size_t i = 0; i < snap.bounds.size(); ++i) {
        cumulative += snap.counts[i];
        out += name + "_bucket{le=\"" + FormatBound(snap.bounds[i]) +
               "\"} " + std::to_string(cumulative) + "\n";
      }
      cumulative += snap.counts.back();
      out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
             "\n";
      out += name + "_sum " + FormatSample(snap.sum) + "\n";
      out += name + "_count " + std::to_string(snap.count) + "\n";
      continue;
    }
    out += "# TYPE " + name +
           (entry->type == Type::kCounter ? " counter\n" : " gauge\n");
    for (const auto& [label, value] : reading.samples) {
      std::string series = name;
      if (!entry->label_key.empty()) {
        series += "{" + entry->label_key + "=\"" + label + "\"}";
      }
      out += series + " " + FormatSample(value) + "\n";
    }
  }
  return out;
}

std::string Registry::RenderJson(
    const std::string& component,
    const std::function<void(JsonWriter&)>& append) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("component").String(component);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Entry>& entry : entries_) {
      json.Key(entry->name);
      Reading reading = entry->read();
      if (entry->type == Type::kHistogram) {
        const LatencyHistogram::Snapshot& snap = reading.histogram;
        json.BeginObject();
        json.Key("count").Uint(snap.count);
        WriteSample(json.Key("sum"), snap.sum);
        WriteSample(json.Key("p50"), snap.Percentile(0.5));
        WriteSample(json.Key("p99"), snap.Percentile(0.99));
        json.EndObject();
      } else if (entry->label_key.empty()) {
        WriteSample(json, reading.samples.front().second);
      } else {
        json.BeginObject();
        for (const auto& [label, value] : reading.samples) {
          WriteSample(json.Key(label), value);
        }
        json.EndObject();
      }
    }
  }
  if (append) append(json);
  json.EndObject();
  return json.TakeString();
}

}  // namespace dynaprox::metrics
