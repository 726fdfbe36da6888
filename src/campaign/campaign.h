// Fault-injection campaign driver.
//
// Reproduces the paper's methodology (§IV-B): run the application once
// cleanly (the "golden" run) to capture reference output and profile how
// often the targeted instruction classes execute; then run N injection
// trials, each flipping x random bits in the operands of the targeted
// instruction after it executed a random number of times, and classify each
// trial as:
//
//   benign      output files bit-wise identical to the golden run
//   terminated  OS exception (SIGSEGV, ...), program-level assertion
//               (CLAMR's mass checker -> "detected"), or MPI-runtime error
//   SDC         ran to completion but output differs bit-wise
//
// Every application (single-process or MPI) runs under a Cluster; a
// 1-rank cluster is just a VM with the MPI syscalls available but unused.
//
// The campaign splits into two phases with very different sharing rules:
//
//   golden phase   runs once, produces the GoldenProfile that every
//                  subsequent trial reads — and whose slot table trials
//                  fill with golden-prefix checkpoints, under its lock;
//   trial phase    each trial mutates a Cluster + ChaserMpi + TaintHub. That
//                  mutable state is encapsulated in a TrialEngine, one per
//                  worker thread of the campaign's pool.
//
// Trials commit through one SeedOrderCommitter in seed order, whatever
// order the workers finish them in, so a campaign's result is the same at
// any worker count.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "campaign/sampling.h"
#include "common/outcome.h"
#include "common/rng.h"
#include "core/chaser_mpi.h"
#include "core/injectors/registry.h"
#include "hub/tainthub.h"
#include "mpi/cluster.h"
#include "tcg/shared_cache.h"

namespace chaser::obs {
class Counter;
class Telemetry;
struct TrialStats;
}

namespace chaser::campaign {

/// The outcome taxonomy lives in common/outcome.h.
using chaser::Outcome;
using chaser::OutcomeName;

/// The CTR store's columns (store/ctr.h), in their order inside a data
/// block; RunRecord::ForEachField gives each field's. Fixed: a new column
/// appends at the end under a store format-version bump. The three
/// propagation flags share kColFlags.
enum RecordColumn : unsigned {
  kColRunSeed = 0,
  kColOutcome,
  kColKind,
  kColSignal,
  kColInjectRank,
  kColFailureRank,
  kColFlags,
  kColInjections,
  kColTaintedReads,
  kColTaintedWrites,
  kColPeakTaintedBytes,
  kColTaintedOutputBytes,
  kColTriggerNth,
  kColFlipBits,
  kColInstructions,
  kColTraceDropped,
  kColTaintLost,
  kColRetries,
  kColInjectPc,
  kColInjectClass,
  kColSampleWeight,
  kColInjector,
  kColFaultClass,
  kColInfraError,
};

/// Where the records CSV and the CTR store hold one RunRecord field.
struct RecordField {
  const char* name;        // its records-CSV column
  RecordColumn column;     // its CTR store column
  unsigned since;          // the records-CSV layout that added it: 7, 8 or 9
  std::uint64_t flag = 0;  // a bool: its bit in its column
};

/// One injection trial.
struct RunRecord {
  Outcome outcome = Outcome::kBenign;
  vm::TerminationKind kind = vm::TerminationKind::kExited;
  vm::GuestSignal signal = vm::GuestSignal::kNone;
  Rank inject_rank = 0;
  Rank failure_rank = -1;
  bool deadlock = false;
  bool propagated_cross_rank = false;
  bool propagated_cross_node = false;
  std::uint64_t injections = 0;
  std::uint64_t tainted_reads = 0;
  std::uint64_t tainted_writes = 0;
  std::uint64_t peak_tainted_bytes = 0;
  /// Tainted bytes that reached any rank's output stream — a trace-only
  /// predictor of silent data corruption.
  std::uint64_t tainted_output_bytes = 0;
  std::uint64_t trigger_nth = 0;   // the chosen "after executed n times"
  unsigned flip_bits = 0;          // the chosen x
  /// Sampled campaigns only (zero/default on the uniform path): the drawn
  /// injection site — trigger_nth is then *pc-local* — and the importance
  /// weight mapping this trial back to the uniform-over-invocations
  /// estimand (1.0 for weighted draws, mass_c·K/M for stratified).
  std::uint64_t inject_pc = 0;
  guest::InstrClass inject_class = guest::InstrClass::kMov;
  double sample_weight = 1.0;
  std::uint64_t run_seed = 0;      // reproduce this exact trial
  std::uint64_t instructions = 0;  // total guest instructions this trial
  /// Host counters summed over ranks: TB-chain hits, TLB hits and misses.
  /// Telemetry, not results — they appear in no store, export or report,
  /// only in the vm_*_total metrics (ToTrialStats). They count the work
  /// this trial executed from its restore point, so they vary with the
  /// checkpoint the trial restored and, through it, with the worker count.
  /// They go once perfbench reads vm_*_total for its per-layer figures.
  std::uint64_t tb_chain_hits = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  /// Events the in-memory TraceLogs dropped at their capacity cap this
  /// trial (0 when everything fit; a spool still captured all of them).
  std::uint64_t trace_dropped = 0;
  /// Messages whose taint shadow the hub lost this trial (publish dropped,
  /// outage, or receiver poll deadline exhausted) — see hub::HubFaultModel.
  std::uint64_t taint_lost = 0;
  /// Attempts discarded before this record was produced (0 = first attempt
  /// succeeded). For a kInfra record: the full retry budget, all exhausted.
  unsigned retries = 0;
  /// kInfra only: what() of the last exception that escaped the engine.
  std::string infra_error;
  /// Non-default-injector campaigns only (empty strings on the legacy
  /// path): the registry name of the armed injector and its fault class.
  /// Their presence switches the records CSV to v9.
  std::string injector;
  std::string fault_class;

  /// The one list of a record's results, in records-CSV column order:
  /// f(field, member pointer). The CTR store's writer and scanner, the
  /// records CSV's header and rows, and the tests' record oracle visit it,
  /// each picking a field's encoding from its type, so a field added here
  /// is stored, scanned, exported and compared with no other edit. The host
  /// counters are not on it.
  template <typename F>
  static constexpr void ForEachField(F&& f) {
    f(RecordField{"run_seed", kColRunSeed, 7}, &RunRecord::run_seed);
    f(RecordField{"outcome", kColOutcome, 7}, &RunRecord::outcome);
    f(RecordField{"kind", kColKind, 7}, &RunRecord::kind);
    f(RecordField{"signal", kColSignal, 7}, &RunRecord::signal);
    f(RecordField{"inject_rank", kColInjectRank, 7}, &RunRecord::inject_rank);
    f(RecordField{"failure_rank", kColFailureRank, 7},
      &RunRecord::failure_rank);
    f(RecordField{"deadlock", kColFlags, 7, 1}, &RunRecord::deadlock);
    f(RecordField{"propagated_cross_rank", kColFlags, 7, 2},
      &RunRecord::propagated_cross_rank);
    f(RecordField{"propagated_cross_node", kColFlags, 7, 4},
      &RunRecord::propagated_cross_node);
    f(RecordField{"injections", kColInjections, 7}, &RunRecord::injections);
    f(RecordField{"tainted_reads", kColTaintedReads, 7},
      &RunRecord::tainted_reads);
    f(RecordField{"tainted_writes", kColTaintedWrites, 7},
      &RunRecord::tainted_writes);
    f(RecordField{"peak_tainted_bytes", kColPeakTaintedBytes, 7},
      &RunRecord::peak_tainted_bytes);
    f(RecordField{"tainted_output_bytes", kColTaintedOutputBytes, 7},
      &RunRecord::tainted_output_bytes);
    f(RecordField{"trigger_nth", kColTriggerNth, 7}, &RunRecord::trigger_nth);
    f(RecordField{"flip_bits", kColFlipBits, 7}, &RunRecord::flip_bits);
    f(RecordField{"instructions", kColInstructions, 7},
      &RunRecord::instructions);
    f(RecordField{"trace_dropped", kColTraceDropped, 7},
      &RunRecord::trace_dropped);
    f(RecordField{"taint_lost", kColTaintLost, 7}, &RunRecord::taint_lost);
    f(RecordField{"retries", kColRetries, 7}, &RunRecord::retries);
    f(RecordField{"infra_error", kColInfraError, 7}, &RunRecord::infra_error);
    f(RecordField{"inject_pc", kColInjectPc, 8}, &RunRecord::inject_pc);
    f(RecordField{"inject_class", kColInjectClass, 8},
      &RunRecord::inject_class);
    f(RecordField{"sample_weight", kColSampleWeight, 8},
      &RunRecord::sample_weight);
    f(RecordField{"injector", kColInjector, 9}, &RunRecord::injector);
    f(RecordField{"fault_class", kColFaultClass, 9}, &RunRecord::fault_class);
  }
};

/// Map a RunRecord onto the obs layer's neutral mirror (obs cannot see
/// campaign types, so the driver translates at the boundary).
obs::TrialStats ToTrialStats(const RunRecord& rec, bool replayed);

/// Records as a pull stream, in seed order: fills `*out` and returns true,
/// or returns false at the end. A resumed campaign's stored prefix and each
/// shard's records in a fleet merge both arrive this way.
using RecordStream = std::function<bool(RunRecord*)>;

struct CampaignConfig {
  std::uint64_t runs = 1000;
  std::uint64_t seed = 12345;
  unsigned flip_bits_min = 1;
  unsigned flip_bits_max = 2;
  bool trace = true;                 // fault-propagation tracing on/off
  std::set<Rank> inject_ranks;       // empty = rank 0 only
  core::Chaser::Options chaser_options;
  /// Watchdog: per-rank budget = multiplier * golden instret + slack.
  std::uint64_t watchdog_multiplier = 20;
  std::uint64_t watchdog_slack = 1'000'000;
  bool keep_records = true;          // retain per-run records (Fig. 8/9 need them)
  /// Non-empty: stream every trial's full trace (events, taint timeline,
  /// hub transfers, outcome metadata) to `<spool_dir>/trial-<run_seed>/` as
  /// an analysis::TraceSpool — no event cap, readable by chaser_analyze.
  std::string spool_dir;
  /// Extra attempts granted to a trial whose engine throws (fresh
  /// Cluster/TaintHub each attempt, exponential backoff between them).
  /// Past the budget the trial is quarantined as Outcome::kInfra instead of
  /// aborting the campaign. 0 = quarantine on the first throw.
  unsigned trial_retries = 0;
  /// Base of the exponential backoff between retry attempts (doubled per
  /// attempt, capped at ~1 s). 0 disables sleeping — tests use that.
  std::uint64_t retry_backoff_ms = 10;
  /// Trial-pruning policy (campaign/sampling.h). kUniform is the legacy
  /// path, byte-identical to pre-sampling builds; kWeighted/kStratified
  /// profile golden sites and draw injection points from equivalence
  /// classes.
  SamplePolicy sample_policy = SamplePolicy::kUniform;
  /// Early stop: halt once every outcome-rate Wilson interval (95%) is
  /// narrower than this full width, never before SampleController::
  /// kMinStopTrials trials. 0 = run all `runs` trials. Works with any
  /// policy and worker count; the stop point is a deterministic function of
  /// the seed-ordered trial prefix, so it is resume-safe.
  double stop_ci = 0.0;
  /// Degradation model installed into every trial's TaintHub (outages,
  /// publish drops, visibility lag, poll-retry deadline).
  hub::HubFaultModel hub_fault;
  /// Injector family for every trial (core/injectors/registry.h). The
  /// default (empty name) is the legacy probabilistic bit-flip path, byte-
  /// identical to pre-registry builds; any named spec is built fresh per
  /// trial from the registry after the trial's RNG draws.
  core::InjectorSpec injector;
  /// Per-trial hub fault arming (`--hub-fault-trigger`): when set, the model
  /// is installed only inside each trial window — the golden run and any
  /// non-trial execution stay clean, unlike the ambient `hub_fault` — with a
  /// per-trial seed forked from the trial RNG, making network-partition
  /// campaigns samplable and resume-safe like any other fault space.
  std::optional<hub::HubFaultModel> hub_fault_trigger;
  /// Shard-worker identity: this process runs only trial indices i with
  /// i % shard_count == shard_index (seed-order partition of the trial
  /// space). The default 0/1 is the unsharded single-process campaign and
  /// changes nothing. When shard_count > 1, --stop-ci is force-disabled in
  /// the worker (the stop prefix is defined in *global* seed order, which a
  /// single shard cannot observe) and re-applied at merge by
  /// campaign::MergeShardStreams.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// Non-empty: every trial's hub operations go to these chaser_hubd
  /// endpoints ("host:port", key-space-sharded when more than one) through a
  /// hub::remote::RemoteTaintHub instead of the in-process TaintHub.
  std::vector<std::string> hub_endpoints;
  /// Test/chaos hook: invoked as (run_seed, attempt) right before each trial
  /// attempt, *inside* the containment boundary — throwing from here
  /// exercises the retry/quarantine path deterministically.
  std::function<void(std::uint64_t, unsigned)> trial_chaos;
  /// Called once per committed trial, in campaign seed order, as the trial
  /// commits — replayed records included, which is what makes a resumed
  /// sink stream identical to an uninterrupted one. Calls are serialized
  /// under the driver's commit lock, possibly on a worker thread.
  /// The streaming hook the CTR trial store hangs off; an exception thrown
  /// from it ends the campaign.
  std::function<void(const RunRecord&)> record_sink;
  /// Borrowed observability facade (obs/telemetry.h); must outlive the
  /// campaign. Null = telemetry off — instrumentation sites degrade to a
  /// thread_local load + branch and the campaign's outputs are byte-identical
  /// either way (telemetry only observes).
  obs::Telemetry* telemetry = nullptr;

  // ---- Translation cache (bit-transparent: outputs are byte-identical
  // ---- whichever cache is used and whatever its cap, only speed changes) ----
  /// Externally owned cross-trial translation cache for every VM the
  /// campaign creates (lets several campaigns over the same app share
  /// translations). Must outlive the campaign. Null = the driver owns one.
  tcg::SharedTbCache* shared_tb_cache = nullptr;
  /// Per-VM local TB-index cap and shared-cache live-TB cap; overflow does a
  /// full flush (QEMU semantics), surfaced in eviction stats. 0 = unlimited.
  std::uint64_t tb_cache_cap = 0;
};

struct CampaignResult {
  std::uint64_t runs = 0;
  std::uint64_t benign = 0;
  std::uint64_t terminated = 0;
  std::uint64_t sdc = 0;

  // Termination sub-causes (Table III):
  std::uint64_t os_exception = 0;     // guest signals on the injected rank
  std::uint64_t mpi_error = 0;        // MPI-runtime-detected (incl. deadlock)
  std::uint64_t assert_detected = 0;  // program-level checker fired
  std::uint64_t other_rank_failed = 0;  // failure surfaced on a non-injected rank

  // Cross-rank propagation subset:
  std::uint64_t propagated_runs = 0;
  std::uint64_t propagated_terminated = 0;
  std::uint64_t propagated_os_exception = 0;
  std::uint64_t propagated_mpi_error = 0;

  /// Total trace events dropped across all trials by the in-memory
  /// TraceLog capacity cap (Render flags this so truncated traces are
  /// never mistaken for complete ones).
  std::uint64_t trace_dropped = 0;

  /// Trials whose injected fault killed the guest rank (Outcome::kCrashed;
  /// rank-crash injector). Zero on every default-injector campaign.
  std::uint64_t crashed = 0;
  /// Trials quarantined after exhausting the retry budget (Outcome::kInfra).
  std::uint64_t infra = 0;
  /// Messages whose taint shadow the degraded hub lost, summed over trials.
  std::uint64_t taint_lost = 0;

  std::vector<RunRecord> records;

  // ---- Sampled-campaign estimates (has_estimates gates everything below;
  // ---- a plain uniform campaign leaves them untouched so its Render stays
  // ---- byte-identical) -----------------------------------------------------
  bool has_estimates = false;
  SamplePolicy sample_policy = SamplePolicy::kUniform;
  double stop_ci = 0.0;          // requested interval width; 0 = no early stop
  bool stopped_early = false;    // the stop rule fired before planned_runs
  std::uint64_t planned_runs = 0;  // config.runs (runs = trials committed)
  std::uint64_t estimate_trials = 0;  // trials in the estimator (no infra)
  double effective_n = 0.0;      // Kish effective sample size
  WilsonInterval est_benign;
  WilsonInterval est_terminated;
  WilsonInterval est_sdc;
  WilsonInterval est_hang;       // deadlock subset of terminated

  /// Tally one trial into the counters (and into `records` if
  /// `keep_record`).
  void Accumulate(const RunRecord& rec, bool keep_record);

  /// The counter of outcome `o` (benign, terminated, sdc, infra or crashed).
  std::uint64_t& count(Outcome o);
  std::uint64_t count(Outcome o) const {
    return const_cast<CampaignResult*>(this)->count(o);
  }

  /// Fill the estimates block from a finished estimator (fed in seed order,
  /// so the floats agree bit for bit at any worker count).
  void FillEstimates(const OutcomeEstimator& est, SamplePolicy policy,
                     double stop_ci_width, std::uint64_t planned);

  double Pct(std::uint64_t n) const {
    return runs == 0 ? 0.0 : 100.0 * static_cast<double>(n) / static_cast<double>(runs);
  }
  /// Multi-line human-readable summary.
  std::string Render(const std::string& label) const;
};

/// Golden-prefix slots per inject rank: one per kCheckpointSpacing
/// instructions of the golden run, at least kMinCheckpoints and at most
/// kMaxCheckpoints.
inline constexpr std::uint64_t kCheckpointSpacing = 2048;
inline constexpr std::size_t kMinCheckpoints = 8;
inline constexpr std::size_t kMaxCheckpoints = 64;

/// One golden-prefix checkpoint: the whole job at a TB boundary of the
/// golden run, as a trial whose trigger has not fired yet has it — the
/// cluster (every rank VM, the MPI runtime, the round in progress), each
/// rank's Chaser, and the in-process TaintHub's clock and stats (zero at
/// checkpoint 0 and with a remote hub).
struct GoldenCheckpoint {
  mpi::ClusterCheckpoint cluster;
  std::vector<core::Chaser::Checkpoint> chasers;  // by rank
  hub::TaintHub::Checkpoint hub;
};

/// The golden-prefix checkpoints past checkpoint 0, which trials capture
/// from their own clean prefixes. Each inject rank r has size() slots at
/// equal steps of its golden targeted executions E_r, which is where
/// uniform and weighted trials inject: slot k holds a prefix in which r
/// has made c executions with k <= c * size() / E_r < k + 1. A slot is
/// written once — the first capture wins — and lives as long as the
/// table. A trial arms only its own rank to count, so a table serves the
/// trials of its rank alone. Shared by every engine of a campaign, behind
/// one mutex.
class CheckpointSlots {
 public:
  /// Empty slots for each rank of `execs` (rank -> E_r), as many per rank
  /// as a golden run of `instructions` earns.
  CheckpointSlots(const std::map<Rank, std::uint64_t>& execs,
                  std::uint64_t instructions);

  /// Slots per inject rank.
  std::size_t size() const { return size_; }
  /// The slot of a prefix in which inject rank `r` has made `execs`
  /// targeted executions; size() once past the last.
  std::size_t SlotOf(Rank r, std::uint64_t execs) const;
  /// Slot `k` of rank `r`: its checkpoint, or null while it is empty.
  std::shared_ptr<const GoldenCheckpoint> Get(Rank r, std::size_t k) const;
  /// Fill slot `k` of rank `r` with `ck` unless a capture got there first.
  /// True if `ck` went in.
  bool Publish(Rank r, std::size_t k, std::shared_ptr<const GoldenCheckpoint> ck);
  /// The latest filled slot of rank `r` that `usable` accepts, or null.
  /// `usable` must hold for every earlier slot once it holds for one, as
  /// "the trigger has not fired yet" does along a run.
  template <typename Usable>
  std::shared_ptr<const GoldenCheckpoint> Latest(Rank r,
                                                 const Usable& usable) const {
    const auto& slots = Table(r).slots;
    // Slots are write-once: those seen filled under the lock stay as they
    // are, so `usable` runs outside it.
    std::array<const GoldenCheckpoint*, kMaxCheckpoints> filled;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t k = 0; k < size_; ++k) filled[k] = slots[k].get();
    }
    for (std::size_t k = size_; k-- > 0;) {
      if (filled[k] != nullptr && usable(*filled[k])) return slots[k];
    }
    return nullptr;
  }

 private:
  struct RankSlots {
    std::uint64_t golden_execs = 0;  // E_r
    std::vector<std::shared_ptr<const GoldenCheckpoint>> slots;
  };
  /// Rank `r`'s slots; ConfigError if `r` is not an inject rank.
  const RankSlots& Table(Rank r) const;
  RankSlots& Table(Rank r) {
    return const_cast<RankSlots&>(std::as_const(*this).Table(r));
  }

  std::size_t size_ = 0;
  mutable std::mutex mutex_;
  /// Fixed at construction; only the slot pointers change, under mutex_.
  std::map<Rank, RankSlots> tables_;
};

/// The product of the one-time golden phase: reference outputs, per-rank
/// targeted-execution counts, the clean instruction count, checkpoint 0,
/// and the slots trials capture later checkpoints into.
/// After RunGolden only the slot table changes (under its own lock), so one
/// profile can be shared by any number of worker-private TrialEngines.
struct GoldenProfile {
  std::map<std::pair<Rank, int>, std::string> outputs;
  std::map<Rank, std::uint64_t> targeted_execs;
  /// Per-site execution histogram of the inject ranks (pc-ascending per
  /// rank). Captured only for sampled campaigns — empty on the uniform
  /// path, where nothing reads it.
  GoldenSiteMap sites;
  std::uint64_t instructions = 0;
  /// Checkpoint 0: the job right after it started, which every trial can
  /// start from.
  std::shared_ptr<const GoldenCheckpoint> start;
  /// Where trials capture the later checkpoints; copies of the profile
  /// share it. Null when no trial could restore one: a remote hub, or
  /// per-trial hub faults.
  std::shared_ptr<CheckpointSlots> slots;

  /// Reference output of rank `r` on guest fd `fd`; throws ConfigError
  /// naming the rank/fd if that stream was never captured.
  const std::string& output(Rank r, int fd) const;
  /// Golden targeted-execution count of inject rank `r`; throws ConfigError
  /// naming the rank if it was not profiled.
  std::uint64_t execs(Rank r) const;
};

/// One trial-execution engine: a private Cluster + ChaserMpi (and therefore
/// TaintHub) that runs injection trials against a shared GoldenProfile.
/// Engines own all per-trial mutable state; the one thing they write in
/// common is the profile's slot table, behind its lock.
class TrialEngine {
 public:
  using Checkpoint = GoldenCheckpoint;
  /// `spec`, `config` and `inject_ranks` are borrowed and must stay alive
  /// and unmodified for the engine's lifetime. Throws ConfigError if an
  /// inject rank is outside the spec's rank range.
  TrialEngine(const apps::AppSpec& spec, const CampaignConfig& config,
              const std::set<Rank>& inject_ranks);

  /// Execute the clean profiling run (never-firing trigger, otherwise armed
  /// like a trial) and return the profile: checkpoint 0 and empty slots.
  /// Throws ConfigError if the clean app fails or an inject rank never
  /// executes the targeted classes.
  GoldenProfile RunGolden();

  /// Adopt a profile — typically captured by a different engine — and
  /// tighten the watchdog from its instruction count. Required before
  /// RunTrial; the profile must outlive the engine.
  void AdoptGolden(const GoldenProfile& golden);

  /// Execute one injection trial. `run_seed` fully determines the trial.
  /// The trial starts from the latest golden checkpoint its trigger
  /// provably has not reached, checkpoint 0 when no later one qualifies;
  /// its record is the same from any of them. Until its trigger fires it
  /// captures the empty slots its clean prefix enters.
  RunRecord RunTrial(std::uint64_t run_seed);

  mpi::Cluster& cluster() { return *cluster_; }
  core::ChaserMpi& chaser() { return *chaser_; }

  /// The one list of a job's state as a trial has it (see Vm::ForEachPart):
  /// f(name, rank, checkpoint part, live part) for the cluster (rank -1),
  /// each rank's Chaser and the in-process hub (rank -1), each a layer.
  template <typename Ck, typename E, typename F>
  static void ForEachPart(Ck& ck, E& engine, F&& f) {
    if constexpr (!std::is_const_v<Ck>) ck.chasers.resize(engine.spec_.num_ranks);
    f("cluster", Rank{-1}, ck.cluster, *engine.cluster_);
    for (Rank r = 0; r < engine.spec_.num_ranks; ++r) {
      f("chaser", r, ck.chasers[r], engine.chaser_->rank_chaser(r));
    }
    if (hub::TaintHub* hub = engine.chaser_->local_hub()) f("hub", Rank{-1}, ck.hub, *hub);
  }

 private:
  void Classify(const mpi::JobResult& job, RunRecord* rec);
  /// Start the trial's job from the latest checkpoint a trial injecting on
  /// `inject_rank` through `trigger` can start from, and arm the capture
  /// of the slots after it.
  void RestoreGoldenPrefix(const core::Trigger& trigger, Rank inject_rank);
  /// The checkpoint hook of a trial: capture the job into the slot its
  /// inject rank's count has entered, if that slot is empty, the trigger
  /// has not fired and the job is inside the watchdog budgets. Returns
  /// the next poll, ~0 once no later capture can qualify.
  std::uint64_t PollCapture(std::uint64_t retired);
  /// The whole job at this point; `prev` (an earlier checkpoint of it, or
  /// null at checkpoint 0) shares what has not changed.
  std::shared_ptr<const GoldenCheckpoint> CaptureJob(const GoldenCheckpoint* prev);
  /// Start the job from `ck`: each layer's Restore.
  void RestoreJob(const GoldenCheckpoint& ck);
  /// Remove the trial spool's sink from every rank's trace log.
  void DetachSpool();

  const apps::AppSpec& spec_;
  const CampaignConfig& config_;
  const std::set<Rank>& inject_ranks_;
  std::unique_ptr<mpi::Cluster> cluster_;
  /// Remote hub client (config.hub_endpoints non-empty). Declared before
  /// chaser_: the ChaserMpi's hooks point into it, so it must be destroyed
  /// after them.
  std::unique_ptr<hub::HubService> remote_hub_;
  std::unique_ptr<core::ChaserMpi> chaser_;
  const GoldenProfile* golden_ = nullptr;
  /// Sampling frame built by AdoptGolden when the policy needs one. Every
  /// engine rebuilds it from the same profile deterministically, so worker
  /// engines agree without sharing.
  std::unique_ptr<SamplingPlan> plan_;
  /// Watchdog budgets AdoptGolden installed; a checkpoint past them would
  /// skip a kill a booted trial suffers, so such checkpoints are not used.
  std::uint64_t per_rank_budget_ = 0;
  std::uint64_t total_budget_ = 0;
  /// The running trial's captures: retired instructions between polls, its
  /// inject rank, the slot its count was last seen in, and the checkpoint
  /// it restored or last captured.
  std::uint64_t capture_interval_ = 1;
  Rank capture_rank_ = 0;
  std::size_t capture_slot_ = 0;
  std::shared_ptr<const GoldenCheckpoint> capture_prev_;
  /// Registered when the engine is built, so a campaign in which no trial
  /// restores or captures still reports them, as 0.
  obs::Counter& restored_trials_;
  obs::Counter& restored_instructions_;
  obs::Counter& captures_;
};

/// Containment boundary around every trial the driver runs: run one
/// trial, catching anything the engine throws. A throwing attempt discards
/// `*engine` (its Cluster/TaintHub may be in an arbitrary state) and retries
/// with a freshly built engine after exponential backoff, up to
/// config.trial_retries extra attempts. Exhausting the budget quarantines
/// the trial as an Outcome::kInfra record carrying the last exception text —
/// the campaign keeps going. `*engine` may be null on entry (it is built
/// lazily) and is left usable for the next trial whenever possible.
RunRecord RunTrialContained(std::unique_ptr<TrialEngine>* engine,
                            const apps::AppSpec& spec,
                            const CampaignConfig& config,
                            const std::set<Rank>& inject_ranks,
                            const GoldenProfile& golden,
                            std::uint64_t run_seed);

/// The seed-order reduction every campaign result goes through: the driver
/// offers each trial's record as a worker finishes it, the fleet merge each
/// record it pulls from a shard. Records commit in position order — a reorder
/// window holds only the ones that finished before an earlier position did —
/// and each commit runs CampaignResult::Accumulate, the record sink and the
/// SampleController stop rule. The commit at which the stop rule fires
/// latches the stop: no later position enters the result. Only PastStop() is
/// safe to call concurrently; the driver serializes Offer() under its commit
/// lock.
class SeedOrderCommitter {
 public:
  /// Commits positions 0..planned-1. `stop_ci` > 0 arms the early stop; the
  /// estimator runs whenever the stop is armed or `policy` samples.
  SeedOrderCommitter(SamplePolicy policy, double stop_ci, std::uint64_t planned,
                     bool keep_records,
                     std::function<void(const RunRecord&)> sink);

  /// The record of trial `position`; it commits once every earlier position
  /// has. A record past a latched stop is dropped.
  void Offer(std::uint64_t position, RunRecord rec);

  /// True when the stop latched before `position`: that trial would be
  /// dropped, and so would every later one.
  bool PastStop(std::uint64_t position) const {
    return position > stop_at_.load();
  }

  /// The estimator for the telemetry status channel; null on a plain
  /// uniform campaign, which runs none.
  std::shared_ptr<const SampleController> controller() const {
    return controller_;
  }

  /// The result over the committed trials, estimates filled in. Call once,
  /// after the last Offer().
  CampaignResult Finish();

 private:
  void Commit(RunRecord rec);

  const SamplePolicy policy_;
  const double stop_ci_;
  const std::uint64_t planned_;
  const bool keep_records_;
  const std::function<void(const RunRecord&)> sink_;
  std::shared_ptr<SampleController> controller_;
  CampaignResult result_;
  std::uint64_t next_ = 0;  // the position that commits next
  std::map<std::uint64_t, RunRecord> window_;
  std::atomic<std::uint64_t> stop_at_{UINT64_MAX};
};

/// The campaign driver: a golden run, then config.runs trials on a pool of
/// worker threads, committed in seed order through a SeedOrderCommitter.
class Campaign {
 public:
  /// `jobs` worker threads run the trials; 0 = one per hardware thread.
  /// Worker 0 is the calling thread, on the engine the golden run used.
  Campaign(apps::AppSpec spec, CampaignConfig config, unsigned jobs = 1);

  /// Execute the golden run (throws ConfigError if the clean app fails) and
  /// profile targeted-instruction execution counts per inject rank. With
  /// config.telemetry set, the golden phase is timed on this thread's "main"
  /// track even when called before Run().
  void RunGolden();

  /// Execute one injection trial (RunGolden must have happened; Run() calls
  /// it lazily). `run_seed` fully determines the trial.
  RunRecord RunOnce(std::uint64_t run_seed);

  /// Full campaign: golden + config.runs trials (this shard's slice of them
  /// when sharded). Trial failures are contained per RunTrialContained.
  /// `replay`, when set, yields a seed-order prefix of this campaign's
  /// records — what a killed run committed, read back from its CTR store.
  /// Each is checked against the seed of its position and committed as
  /// replayed; only the positions after the prefix execute, so the resumed
  /// result is byte-identical to an uninterrupted one. A record with another
  /// position's seed, or more records than positions, is a ConfigError.
  CampaignResult Run(const RecordStream& replay = nullptr);

  /// The campaign's trial seeds: the n successive Fork()s of Rng(seed).
  /// Trial i runs seed i at any worker count and in any shard.
  static std::vector<std::uint64_t> DeriveTrialSeeds(std::uint64_t seed,
                                                     std::uint64_t n);

  // ---- Introspection -------------------------------------------------------
  unsigned jobs() const { return jobs_; }
  bool golden_done() const { return golden_done_; }
  const GoldenProfile& golden() const { return golden_; }
  /// Golden output of (r, fd); throws ConfigError naming the rank/fd if the
  /// golden run has not happened or that stream was never captured.
  const std::string& golden_output(Rank r, int fd) const;
  std::uint64_t golden_targeted_execs(Rank r) const;
  std::uint64_t golden_instructions() const { return golden_.instructions; }
  const apps::AppSpec& spec() const { return spec_; }
  const std::set<Rank>& inject_ranks() const { return inject_ranks_; }
  mpi::Cluster& cluster() { return engine_->cluster(); }
  core::ChaserMpi& chaser() { return engine_->chaser(); }
  /// The shared translation cache in use (campaign-owned or external).
  const tcg::SharedTbCache* shared_tb_cache() const {
    return config_.shared_tb_cache;
  }

 private:
  apps::AppSpec spec_;
  CampaignConfig config_;
  std::set<Rank> inject_ranks_;
  unsigned jobs_;
  /// Campaign-owned shared cache (when no external cache was supplied).
  /// Declared before engine_: engines must be destroyed before the cache
  /// their VMs point into.
  std::unique_ptr<tcg::SharedTbCache> owned_tb_cache_;
  /// The golden run's engine, which worker 0 goes on with. Owned via
  /// pointer so containment can rebuild it after a trial throws (a
  /// half-destroyed Cluster must never serve another trial).
  std::unique_ptr<TrialEngine> engine_;  // borrows spec_/config_/inject_ranks_

  GoldenProfile golden_;
  bool golden_done_ = false;
};

}  // namespace chaser::campaign
