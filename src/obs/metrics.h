// Unified metrics registry (observability layer): monotonic counters,
// settable gauges, and fixed-bucket histograms, by name. Instruments are
// created once (create-or-get by name) and the returned handles stay valid
// for the registry's lifetime, so the hot-path cost of an update is a
// single pointer-chase and add -- no lookups, no allocation.
//
// Naming scheme: dotted lowercase paths, "<subsystem>.<metric>"
// (e.g. "scheduler.frames_sent", "stable_log.bytes_flushed"). Every
// toolkit node (RoverClientNode, RoverServerNode) owns one registry, and
// each of its components takes that registry as a constructor argument
// and binds its handles there, once, under its fixed subsystem prefix.
// Nodes never share a registry, so names carry no host prefix.
//
// Render() produces the whole registry as deterministic text (one
// "name value" line per instrument, sorted) or JSON, so benches and
// examples can dump a snapshot alongside their tables.

#ifndef ROVER_SRC_OBS_METRICS_H_
#define ROVER_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rover {
namespace obs {

class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  void Reset() { value_ = 0; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Fixed-bucket histogram. Bounds are inclusive upper edges; observations
// above the last bound land in an implicit overflow bucket, so
// bucket_counts().size() == bounds().size() + 1.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  void Reset();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& bucket_counts() const { return buckets_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

// Bucket edges suited to simulated RPC/flush latencies: 1ms .. ~17min,
// exponential base 2.
std::vector<double> DefaultLatencyBoundsSeconds();

enum class RenderFormat { kText, kJson };

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Create-or-get. Handles remain valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name, std::vector<double> bounds = {});

  // Lookup without creating; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // 0 when the counter does not exist (tests use the checked Count() in
  // tests/test_metrics.h instead).
  uint64_t CounterValue(const std::string& name) const;

  // Deterministic snapshot of every instrument (sorted by name).
  std::string Render(RenderFormat format = RenderFormat::kText) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace rover

#endif  // ROVER_SRC_OBS_METRICS_H_
