// Live campaign status channel: machine-readable status.json + progress meter.
//
// A running campaign used to be silent until the last trial. StatusWriter
// gives operators (and orchestration around chaser_run) a continuously
// fresh, machine-readable view: every rewrite replaces `path` atomically
// (WriteFileAtomic), so a reader polling the file always sees one complete
// JSON object — never a torn write — and `done` only ever grows.
//
// `done` and the per-outcome counts (one key per entry of the outcome table,
// common/outcome.h) count *committed* trials — the ones the report counts.
// A trial that finished after an early stop latched is in neither.
//
//   {"app": "matvec", "running": true, "total": 1000, "done": 412,
//    "replayed": 0, "benign": 301, "terminated": 88, "sdc": 21, "infra": 2,
//    "crashed": 0, "taint_lost": 0, "trace_dropped": 0,
//    "elapsed_s": 12.341, "trials_per_s": 33.4, "eta_s": 17.6,
//    "tb_cache": {"translations": n, "reuses": n, "epoch_flushes": n,
//                 "evicted_tbs": n},
//    "estimates": {"trials": n, "effective_n": x, "stop_width": x,
//                  "converged": bool, "benign": {"rate": x, "lo": x, "hi": x},
//                  ... "terminated"/"sdc"/"hang" alike}}
//
// `eta_s` semantics: a number of seconds while the remaining time is
// computable (0.0 means "no trials left", i.e. the campaign is finishing);
// JSON `null` while it is unknown — trials remain but no trial has executed
// here yet, so there is no rate to extrapolate from. Readers must treat
// null as "unknown", never as zero.
//
// The optional `estimates` block appears only for sampled campaigns
// (--sample weighted/stratified or --stop-ci): live outcome-rate estimates
// with 95% Wilson intervals, polled from the campaign's estimator.
//
// The optional progress meter is a single overwritten stderr line (opt-in:
// it is chatty and assumes a terminal). Neither channel feeds back into
// campaign results — status output is observation only.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/outcome.h"

namespace chaser::obs {

/// Snapshot of a shared translation cache for the status report (a neutral
/// mirror of tcg::SharedTbCache::Stats — obs stays dependency-free).
struct CacheStatsSnapshot {
  std::uint64_t translations = 0;
  std::uint64_t reuses = 0;
  std::uint64_t epoch_flushes = 0;
  std::uint64_t evicted_tbs = 0;
};

/// Live outcome-rate estimates of a sampled campaign, polled at every status
/// rewrite.
struct EstimateSnapshot {
  std::uint64_t trials = 0;    // trials in the estimate (rate series only)
  double effective_n = 0.0;    // Kish effective sample size
  double stop_width = 0.0;     // --stop-ci target; 0 = early stop off
  bool converged = false;      // the stop rule has fired
  /// The estimator's series by name: the rate-series outcomes, then "hang",
  /// the deadlock subset of terminated.
  std::vector<std::pair<const char*, WilsonInterval>> series;
};

/// Progress-meter policy. kAuto (the default when a campaign asks for any
/// telemetry) shows the meter only when stderr is a terminal, so fleet
/// worker logs and CI captures stay clean; an explicit --progress forces
/// kOn even into a pipe.
enum class ProgressMode : std::uint8_t {
  kOff = 0,
  kAuto,  // isatty(stderr) decides
  kOn,
};

class StatusWriter {
 public:
  struct Options {
    /// status.json destination. Empty = render-only: no file is ever
    /// written (RenderSnapshot feeds a /status scrape endpoint instead),
    /// but trial accounting and the progress meter still work.
    std::string path;
    std::string app;           // campaign label
    std::uint64_t total = 0;   // trials expected
    /// Rewrite the file every N committed trials (the final write always
    /// happens). 0 = auto: ~100 rewrites over the campaign, at least 1.
    std::uint64_t every = 0;
    ProgressMode progress = ProgressMode::kOff;  // one-line stderr meter
    /// Shard-worker identity (chaser_run --shard i/N). When shard_count > 1
    /// the JSON gains a "shard": {"index", "count"} block so a fleet rollup
    /// can tell the per-worker files apart; the unsharded default emits
    /// nothing and the JSON bytes stay as they always were.
    std::uint64_t shard_index = 0;
    std::uint64_t shard_count = 1;
    /// Scrape endpoint ("host:port") this process serves, advertised as an
    /// "obs" field so a fleet coordinator reading the status file learns
    /// where to scrape live data. Empty = no field (bytes unchanged).
    std::string obs_endpoint;
    /// Optional cache-stats source polled at every rewrite.
    std::function<CacheStatsSnapshot()> cache_stats;
    /// Optional sampled-campaign estimates source polled at every rewrite
    /// (set by the drivers only when a sampling policy or early stop is
    /// active; absent = no "estimates" block in the JSON).
    std::function<EstimateSnapshot()> estimates;
  };

  explicit StatusWriter(Options options);
  /// Final write (running=false) if the campaign never called Finish.
  ~StatusWriter();

  StatusWriter(const StatusWriter&) = delete;
  StatusWriter& operator=(const StatusWriter&) = delete;

  /// Account one committed trial. Thread-safe; rewrites the file when the
  /// cadence says so. `replayed` marks trials a resumed campaign replayed
  /// from its store rather than executed.
  void OnTrialCommitted(Outcome outcome, std::uint64_t taint_lost,
                        std::uint64_t trace_dropped, bool replayed);

  /// Final rewrite with running=false. Idempotent. Ends the progress line.
  void Finish();

  /// The status JSON as of now, without touching the file — the /status
  /// scrape endpoint's source. Thread-safe.
  std::string RenderSnapshot() const;

  std::uint64_t writes() const;  // status.json rewrites so far

 private:
  std::string RenderLocked(bool running) const;
  void WriteLocked(bool running);

  Options options_;
  bool progress_on_ = false;  // options_.progress resolved against isatty
  mutable std::mutex mutex_;
  std::uint64_t done_ = 0;
  std::uint64_t replayed_ = 0;
  OutcomeArray<std::uint64_t> outcomes_;
  std::uint64_t taint_lost_ = 0;
  std::uint64_t trace_dropped_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t every_ = 1;
  std::uint64_t writes_ = 0;
  bool finished_ = false;
};

}  // namespace chaser::obs
