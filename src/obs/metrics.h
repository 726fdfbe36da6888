// Metrics registry: counters, gauges, fixed-bucket histograms.
//
// The campaign is the product's hot loop, and until now its own health was
// invisible while it ran — counters lived in ad-hoc RunRecord fields and
// surfaced only after the last trial. This registry gives every layer a
// uniform, cheap place to publish operational numbers:
//
//   * Counter    monotonic u64, incremented from any thread
//   * Gauge      last-write-wins i64 (single logical writer)
//   * Histogram  fixed upper-bound buckets + count/sum, fed from any thread
//
// Write path: per-thread lock-free shards. Each thread is assigned a stable
// shard slot once (thread_local), and Inc()/Observe() is one relaxed
// fetch_add on a cache-line-padded atomic in that shard — no locks, no
// false sharing, TSan-clean. Aggregation happens only at scrape time
// (Value()/BucketCounts()/ToJson()), which sums the shards with relaxed
// loads; scrapes are monotone but deliberately not linearizable snapshots.
//
// Identity-safety rule (DESIGN.md §5.5): nothing in this registry may feed
// back into campaign results. Metrics are observation only — reports, CSVs
// and spools are byte-identical whether or not anyone ever scrapes.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chaser::obs {

/// Number of write shards per metric. Power of two; threads hash onto
/// shards, so contention only appears when > kMetricShards threads write
/// the same metric simultaneously (and even then it is one relaxed RMW).
inline constexpr std::size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards). Assigned round-robin
/// on first use per thread, so up to kMetricShards concurrent threads get
/// collision-free slots.
std::size_t ThreadShardSlot();

class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    shards_[ThreadShardSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum over shards (relaxed; monotone, not a linearizable snapshot).
  std::uint64_t Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  Shard shards_[kMetricShards];
};

class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one implicit overflow bucket catches everything past the last bound.
/// Bucket layout and edge rule: sample s lands in the first bucket with
/// s <= bounds[i], else in the overflow bucket.
class Histogram {
 public:
  void Observe(std::uint64_t sample);

  std::uint64_t Count() const;
  std::uint64_t Sum() const;
  /// Aggregated per-bucket counts; size() == bounds().size() + 1, the last
  /// entry being the overflow bucket.
  std::vector<std::uint64_t> BucketCounts() const;
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }

  /// Smallest bound b such that at least `q` (0..1) of samples are <= b,
  /// computed from aggregated bucket counts (upper bound of the selected
  /// bucket; the overflow bucket reports the max representable value).
  std::uint64_t ApproxQuantile(double q) const;

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<std::uint64_t> bounds);
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  // bounds+1 slots
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::string name_;
  std::vector<std::uint64_t> bounds_;
  Shard shards_[kMetricShards];
};

/// Exponential upper bounds for latency-in-nanoseconds histograms:
/// 1us, 4us, 16us, ... up to ~17s (12 buckets + overflow).
std::vector<std::uint64_t> LatencyBoundsNs();

/// Build a labeled series name: `base{key="value"}` with Prometheus
/// label-value escaping (backslash, double quote, newline). The result is a
/// plain registry key — the registry itself treats it as an opaque name;
/// only ToPrometheus() and dashboards care about the structure.
std::string LabeledName(const std::string& base, const std::string& key,
                        const std::string& value);

/// Owns its metrics; references returned by Get* stay valid for the
/// registry's lifetime. Registration takes a mutex (callers cache the
/// reference); the write path never does.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls with the same
  /// name return the existing histogram and ignore `bounds`. Throws
  /// ConfigError on empty or non-ascending bounds.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<std::uint64_t> bounds);

  /// Deterministically ordered (name-sorted) JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///    {"count": n, "sum": n, "buckets": [{"le": bound, "count": n}...,
  ///     {"le": "inf", "count": n}], "p50": n, "p99": n}}}
  std::string ToJson() const;

  /// Prometheus text exposition (format 0.0.4). Metric names may embed a
  /// label set ('hub_cmd_ns{cmd="poll"}', see LabeledName); series sharing a
  /// base name are grouped under one `# TYPE` line. Histograms render the
  /// conventional cumulative `_bucket{le=...}` series plus `_sum`/`_count`;
  /// the overflow bucket becomes `le="+Inf"`.
  std::string ToPrometheus() const;

  /// Zero every registered metric (handles stay valid). Tests and
  /// campaign-scoped scrapers use this; concurrent writers may interleave.
  void Reset();

  /// Process-wide registry. Deep layers (hub traffic, golden restores)
  /// publish here through function-local cached handles so no pointer has
  /// to be threaded through every constructor.
  static Registry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace chaser::obs
