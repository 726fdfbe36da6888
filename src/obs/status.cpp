#include "obs/status.h"

#include <unistd.h>

#include <cstdio>

#include "common/error.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "obs/profiler.h"

namespace chaser::obs {

StatusWriter::StatusWriter(Options options) : options_(std::move(options)) {
  progress_on_ =
      options_.progress == ProgressMode::kOn ||
      (options_.progress == ProgressMode::kAuto && ::isatty(STDERR_FILENO) == 1);
  every_ = options_.every;
  if (every_ == 0) {
    // Auto cadence: ~100 rewrites over the campaign. Cheap either way — a
    // rewrite is one small atomic file replace.
    every_ = options_.total / 100;
    if (every_ == 0) every_ = 1;
  }
  start_ns_ = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  WriteLocked(/*running=*/true);  // status exists from trial 0 onward
}

StatusWriter::~StatusWriter() {
  try {
    Finish();
  } catch (...) {
    // Destructor path: a full disk must not turn campaign teardown into a
    // crash; the last successful rewrite stays in place.
  }
}

void StatusWriter::OnTrialCommitted(Outcome outcome, std::uint64_t taint_lost,
                                    std::uint64_t trace_dropped,
                                    bool replayed) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++done_;
  if (replayed) ++replayed_;
  ++outcomes_[outcome];
  taint_lost_ += taint_lost;
  trace_dropped_ += trace_dropped;
  if (done_ % every_ == 0 || done_ == options_.total) {
    WriteLocked(/*running=*/true);
  }
}

std::string StatusWriter::RenderLocked(bool running) const {
  const double elapsed_s =
      static_cast<double>(MonotonicNanos() - start_ns_) / 1e9;
  // Replayed trials were not executed here; excluding them keeps the rate
  // (and therefore the ETA) honest after a resume.
  const std::uint64_t executed = done_ - replayed_;
  const double rate =
      elapsed_s > 0.0 ? static_cast<double>(executed) / elapsed_s : 0.0;
  const std::uint64_t left = options_.total > done_ ? options_.total - done_ : 0;
  // eta_s: 0.0 only when nothing is left; while trials remain but no local
  // rate exists yet the remaining time is genuinely unknown — emit JSON null
  // so readers cannot mistake "unknown" for "about to finish" (see status.h).
  std::string eta;
  if (left == 0) {
    eta = "0.0";
  } else if (rate > 0.0) {
    eta = StrFormat("%.1f", static_cast<double>(left) / rate);
  } else {
    eta = "null";
  }

  std::string out = StrFormat(
      "{\"app\": \"%s\", \"running\": %s, \"total\": %llu, \"done\": %llu, "
      "\"replayed\": %llu, %s, \"taint_lost\": %llu, \"trace_dropped\": %llu, "
      "\"elapsed_s\": %.3f, \"trials_per_s\": %.2f, \"eta_s\": %s",
      options_.app.c_str(), running ? "true" : "false",
      static_cast<unsigned long long>(options_.total),
      static_cast<unsigned long long>(done_),
      static_cast<unsigned long long>(replayed_),
      FormatOutcomeCounts(outcomes_, /*json=*/true).c_str(),
      static_cast<unsigned long long>(taint_lost_),
      static_cast<unsigned long long>(trace_dropped_), elapsed_s, rate,
      eta.c_str());
  if (options_.shard_count > 1) {
    out += StrFormat(
        ", \"shard\": {\"index\": %llu, \"count\": %llu}",
        static_cast<unsigned long long>(options_.shard_index),
        static_cast<unsigned long long>(options_.shard_count));
  }
  if (!options_.obs_endpoint.empty()) {
    out += StrFormat(", \"obs\": \"%s\"", options_.obs_endpoint.c_str());
  }
  if (options_.cache_stats) {
    const CacheStatsSnapshot cs = options_.cache_stats();
    out += StrFormat(
        ", \"tb_cache\": {\"translations\": %llu, \"reuses\": %llu, "
        "\"epoch_flushes\": %llu, \"evicted_tbs\": %llu}",
        static_cast<unsigned long long>(cs.translations),
        static_cast<unsigned long long>(cs.reuses),
        static_cast<unsigned long long>(cs.epoch_flushes),
        static_cast<unsigned long long>(cs.evicted_tbs));
  }
  if (options_.estimates) {
    const EstimateSnapshot es = options_.estimates();
    out += StrFormat(
        ", \"estimates\": {\"trials\": %llu, \"effective_n\": %.1f, "
        "\"stop_width\": %.4f, \"converged\": %s",
        static_cast<unsigned long long>(es.trials), es.effective_n,
        es.stop_width, es.converged ? "true" : "false");
    for (const auto& [name, i] : es.series) {
      out += StrFormat(
          ", \"%s\": {\"rate\": %.6f, \"lo\": %.6f, \"hi\": %.6f}", name,
          i.rate, i.lo, i.hi);
    }
    out += "}";
  }
  out += "}\n";
  return out;
}

void StatusWriter::WriteLocked(bool running) {
  if (!options_.path.empty()) {
    WriteFileAtomic(options_.path, RenderLocked(running));
    ++writes_;
  }
  if (progress_on_) {
    const double pct = options_.total == 0
                           ? 100.0
                           : 100.0 * static_cast<double>(done_) /
                                 static_cast<double>(options_.total);
    std::fprintf(stderr, "\r%s: %llu/%llu (%5.1f%%)  %s %s",
                 options_.app.c_str(), static_cast<unsigned long long>(done_),
                 static_cast<unsigned long long>(options_.total), pct,
                 FormatOutcomeCounts(outcomes_, /*json=*/false).c_str(),
                 running ? "" : "\n");
    std::fflush(stderr);
  }
}

void StatusWriter::Finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  WriteLocked(/*running=*/false);
}

std::string StatusWriter::RenderSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return RenderLocked(/*running=*/!finished_);
}

std::uint64_t StatusWriter::writes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return writes_;
}

}  // namespace chaser::obs
