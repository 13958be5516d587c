#ifndef COLOSSAL_OBS_METRICS_H_
#define COLOSSAL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace colossal {

// The unified observability layer: every counter the serving stack
// keeps (transport connections, registry evictions, cache hits, arena
// peaks) lives in one MetricsRegistry, alongside the per-phase latency
// histograms the tracing layer (obs/trace.h) feeds, and is read back by
// its exposition name — by tests and tools as much as by operators.
// One renderer turns the whole registry into Prometheus-style text
// exposition — what the `metrics` control word returns over both the
// daemon and TCP framings, and what the HTTP front end serves at
// /metrics — and the legacy `stats` line is re-rendered from the same
// values, so the two views can never disagree.
//
// Cost model: metric updates are single relaxed atomic RMWs (a counter
// increment or one histogram-bucket increment), so they are safe to
// leave always-on in the hot serving path; the Metrics bench section
// tracks the per-op cost. Reads (by-name lookups, exposition) take only
// the name-map lock, never one a writer holds; values read while
// writers run are each atomic, not a cross-metric transaction.

// Monotonically increasing counter. Relaxed atomics: increments are
// never used to order other memory operations.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time value (resident bytes, active connections, peaks).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  // CAS-max: lock-free high-water marks (arena peaks, peak residency).
  void RaiseTo(int64_t v) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed log-linear bucket histogram over nonnegative int64 samples
// (latencies are recorded in nanoseconds). Layout, HdrHistogram-style:
// values 0..31 land in unit-width buckets (exact); every power-of-two
// range [2^e, 2^(e+1)) above that is split into 32 linear sub-buckets,
// so a bucket's width is 2^(e-5) and the worst-case relative error of a
// reported quantile is 1/32 (~3.1%) — and zero whenever samples sit on
// bucket lower bounds, which is what the bucket-math tests pin down.
// Record is one relaxed fetch_add on the sample's bucket plus one on
// the running sum; concurrent recording loses no samples.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 5;          // 32 sub-buckets
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // Buckets 0..31 (exact) + 58 power-of-two ranges (e = 5..62) of 32
  // sub-buckets each: covers every nonnegative int64.
  static constexpr int kNumBuckets = kSubBuckets + (62 - 5 + 1) * kSubBuckets;

  // Bucket index for `value` (negative values clamp to 0).
  static int BucketIndex(int64_t value);
  // Smallest value mapping to bucket `index` — the value quantile
  // extraction reports for samples in that bucket.
  static int64_t BucketLowerBound(int index);

  void Record(int64_t value);

  // Adds every bucket count (and the sum) of `other` into this
  // histogram; Merge(a, b) holds histogram-of-union == merge-of-
  // histograms exactly, because buckets are fixed.
  void MergeFrom(const Histogram& other);

  int64_t TotalCount() const;
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  // Lower bound of the bucket holding the ceil(p * count)-th smallest
  // sample, p in [0, 1]; 0 on an empty histogram. Exact when samples
  // are bucket lower bounds, otherwise within 1/32 below the sample.
  int64_t ValueAtPercentile(double p) const;

  int64_t bucket_count(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> sum_{0};
};

enum class MetricType {
  kCounter,
  kGauge,
  kHistogram,
  kInfo,
};

// Named metric registry + text exposition. Registration is idempotent:
// asking for an existing name with the same type returns the same
// object (so components composed under one registry share counters by
// name); a type mismatch aborts — that is a wiring bug, not input.
// Metric objects live as long as the registry and their pointers are
// stable, so components cache them at construction and update them
// lock-free ever after.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  // `scale` multiplies rendered values (quantiles and _sum) in the text
  // exposition: histograms record integer nanoseconds and render
  // seconds with scale = 1e-9. Counts are never scaled.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          double scale = 1.0);

  // Constant info metric, Prometheus *_info style: renders as a gauge
  // fixed at 1 whose labels carry the values — `name{labels} 1`.
  // `labels` is the preformatted label body, e.g. `simd="avx2",
  // compiler="gcc 12"`. Re-registering a name replaces its labels.
  void SetInfo(const std::string& name, const std::string& help,
               const std::string& labels);

  // Value lookups by name (0 / nullptr when absent or of another type);
  // what the stats line, colossal_serve's summaries and tests read.
  int64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  // Prometheus-style text exposition, metrics sorted by name. Counters
  // and gauges render as `# TYPE name counter|gauge` + one value line;
  // histograms render as summaries with p50/p95/p99 quantile lines plus
  // _sum and _count.
  std::string RenderText() const;

 private:
  struct Entry {
    MetricType type;
    std::string help;
    double scale = 1.0;
    std::string info_labels;  // kInfo only
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  const Entry* FindEntry(std::string_view name, MetricType type) const;

  mutable std::mutex mutex_;  // guards the map, never the metric values
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace colossal

#endif  // COLOSSAL_OBS_METRICS_H_
