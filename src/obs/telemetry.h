// Telemetry: the campaign-facing facade over the obs subsystem.
//
// One Telemetry object represents "observability for this campaign run".
// chaser_run (or a test) builds it from the --trace-out/--status/--metrics
// flags and lends it to the campaign drivers through
// CampaignConfig::telemetry; a null pointer means telemetry is off and
// every instrumentation site degrades to a thread_local load + branch.
//
// The drivers call three things:
//   AttachThread / DetachThread   around each worker's (and the main
//                                 thread's) campaign work — this is what
//                                 arms ScopedPhase on that thread;
//   OnTrialDone                   once per trial as it finishes executing,
//                                 with a neutral TrialStats mirror of the
//                                 RunRecord: the work it did;
//   OnTrialCommitted              once per trial as it commits to the
//                                 result, in seed order: its outcome.
//
// The owner calls Finish() once the campaign is over: final status.json
// (running=false), the Chrome trace file, and metrics.json all land then,
// each via WriteFileAtomic.
//
// Identity-safety: Telemetry only observes. Reports, CSVs, and spools are
// byte-identical with telemetry on or off, serial or parallel — asserted by
// obs_test's identity suite and guarded by bench_ablation_obs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/status.h"
#include "obs/trace_writer.h"

namespace chaser::obs {

struct TelemetryOptions {
  std::string trace_path;    // non-empty: Chrome trace-event JSON
  std::string status_path;   // non-empty: live status.json
  std::string metrics_path;  // non-empty: final metrics registry dump
  /// Stderr progress meter (needs status channel). kAuto shows it only on
  /// a terminal so fleet worker logs stay clean.
  ProgressMode progress = ProgressMode::kOff;
  std::uint64_t status_every = 0;  // trials per status rewrite; 0 = auto
  /// Shard-worker identity forwarded into status.json (see
  /// StatusWriter::Options); the 0/1 default changes nothing.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// >= 0: serve /metrics, /status, /healthz on obs_host:obs_port for the
  /// campaign's lifetime (0 = ephemeral port; see Telemetry::obs_endpoint).
  /// -1 (default) = no scrape server.
  int obs_port = -1;
  std::string obs_host = "127.0.0.1";
  /// Trace identity for fleet merges: the pid and process name stamped on
  /// every trace event (chaser_run passes shard_index+1 / "shard-i/N").
  std::uint32_t trace_pid = 1;
  std::string trace_process_name = "chaser campaign";
};

/// Outcome-agnostic mirror of the RunRecord fields telemetry consumes
/// (obs cannot see campaign types; the driver maps them).
struct TrialStats {
  Outcome outcome = Outcome::kBenign;
  std::uint64_t run_seed = 0;
  std::uint64_t instructions = 0;
  std::uint64_t injections = 0;
  std::uint64_t taint_lost = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t tb_chain_hits = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  unsigned retries = 0;
  bool replayed = false;  // replayed from a resumed store, not executed
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options);
  ~Telemetry();  // Finish()es, swallowing errors

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Called by the driver before trials start. Creates the status channel
  /// (the total becomes its denominator). Safe to call once per campaign.
  void BeginCampaign(const std::string& app, std::uint64_t total_trials);

  /// Optional: a live source for shared-translation-cache stats, polled at
  /// every status rewrite and dumped into metrics.json gauges at Finish.
  void SetCacheStatsSource(std::function<CacheStatsSnapshot()> source);

  /// Optional: a live source for sampled-campaign outcome estimates, polled
  /// at every status rewrite ("estimates" block in status.json). Like
  /// SetCacheStatsSource, set it before BeginCampaign — the status channel
  /// captures the source at creation.
  void SetEstimatesSource(std::function<EstimateSnapshot()> source);

  /// Arm instrumentation on the calling thread: builds a PhaseProfiler,
  /// registers a trace tid named `name` (reused when a thread attaches
  /// under that name again), and publishes it thread-locally. No-op if this
  /// Telemetry is already attached to the thread.
  void AttachThread(const std::string& name);
  /// Flush and drop the calling thread's profiler (no-op when detached).
  void DetachThread();

  /// Account one trial as it finishes executing: campaign_trials_total, the
  /// work counters (instructions, injections, ...), the trial phase
  /// histogram and — when tracing — a "trial" span on the calling thread
  /// covering [t0_ns, t1_ns] with run_seed/outcome args. A replayed trial
  /// did not execute here: it counts in campaign_trials_total only.
  void OnTrialDone(const TrialStats& t, std::uint64_t t0_ns,
                   std::uint64_t t1_ns);

  /// Account one trial as it commits to the campaign result, in seed order:
  /// the status channel (done, replayed, per-outcome counts) and the
  /// campaign_outcome_<name> and campaign_trials_replayed counters.
  void OnTrialCommitted(const TrialStats& t);

  /// Hub-handshake clock correction for the trace anchor (see
  /// ProbeHubClock / TraceJsonWriter::SetClockOffsetUs). No-op when
  /// tracing is off.
  void SetClockOffsetUs(std::int64_t offset_us);

  /// Final outputs: status.json with running=false, the Chrome trace file,
  /// metrics.json. Idempotent. The scrape server (if any) keeps answering
  /// until destruction so a dashboard can read the final state.
  void Finish();

  /// The registry all telemetry metrics land in (the process-global one, so
  /// deep-layer counters — hub traffic, golden restores — are in scope).
  Registry& registry() { return Registry::Global(); }
  StatusWriter* status() { return status_.get(); }
  TraceJsonWriter* trace_writer() { return trace_.get(); }
  bool tracing() const { return trace_ != nullptr; }
  /// "host:port" of the scrape server, or "" when obs_port was -1.
  std::string obs_endpoint() const;

 private:
  /// /status body: the live StatusWriter snapshot once BeginCampaign ran,
  /// else a minimal not-started placeholder.
  std::string StatusBody();

  TelemetryOptions options_;
  std::unique_ptr<TraceJsonWriter> trace_;
  std::unique_ptr<StatusWriter> status_;
  std::unique_ptr<ExportServer> export_server_;
  std::function<CacheStatsSnapshot()> cache_stats_;
  std::function<EstimateSnapshot()> estimates_;
  std::string app_;

  // Guards profilers_, trace_tids_, finish, and status_ creation.
  std::mutex mutex_;
  std::vector<std::unique_ptr<PhaseProfiler>> profilers_;
  std::map<std::string, std::uint32_t> trace_tids_;  // thread name -> tid
  bool finished_ = false;
};

/// AttachThread for one scope, DetachThread on every exit path. A no-op for
/// a null telemetry and for a thread that is already attached: that
/// attachment belongs to an enclosing owner, which detaches it.
class ThreadAttachment {
 public:
  ThreadAttachment(Telemetry* telemetry, const std::string& name);
  ~ThreadAttachment();

  ThreadAttachment(const ThreadAttachment&) = delete;
  ThreadAttachment& operator=(const ThreadAttachment&) = delete;

 private:
  Telemetry* attached_ = nullptr;  // set when this scope did the attaching
};

}  // namespace chaser::obs
