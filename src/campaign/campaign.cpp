#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "analysis/spool.h"
#include "campaign/fleet.h"
#include "hub/remote/client.h"
#include "common/bits.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/injectors/probabilistic_injector.h"
#include "core/trigger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace chaser::campaign {

namespace {

/// A trial polls for captures this many times over a golden run's length.
constexpr std::uint64_t kCapturePolls = 1024;
constexpr std::uint64_t kNoPoll = ~std::uint64_t{0};

}  // namespace

obs::TrialStats ToTrialStats(const RunRecord& rec, bool replayed) {
  obs::TrialStats t;
  t.outcome = rec.outcome;
  t.run_seed = rec.run_seed;
  t.instructions = rec.instructions;
  t.injections = rec.injections;
  t.taint_lost = rec.taint_lost;
  t.trace_dropped = rec.trace_dropped;
  t.tb_chain_hits = rec.tb_chain_hits;
  t.tlb_hits = rec.tlb_hits;
  t.tlb_misses = rec.tlb_misses;
  t.retries = rec.retries;
  t.replayed = replayed;
  return t;
}

std::string CampaignResult::Render(const std::string& label) const {
  std::string out = StrFormat(
      "%s: %llu runs\n"
      "  benign      %6llu (%5.2f%%)\n"
      "  terminated  %6llu (%5.2f%%)\n"
      "  sdc         %6llu (%5.2f%%)\n",
      label.c_str(), static_cast<unsigned long long>(runs),
      static_cast<unsigned long long>(benign), Pct(benign),
      static_cast<unsigned long long>(terminated), Pct(terminated),
      static_cast<unsigned long long>(sdc), Pct(sdc));
  if (crashed > 0) {
    out += StrFormat(
        "  crashed     %6llu (%5.2f%%) — injected rank killed outright "
        "(system-level fault, not a harness failure)\n",
        static_cast<unsigned long long>(crashed), Pct(crashed));
  }
  if (infra > 0) {
    out += StrFormat(
        "  infra       %6llu (%5.2f%%) — harness failures quarantined after "
        "the retry budget; not injection outcomes\n",
        static_cast<unsigned long long>(infra), Pct(infra));
  }
  if (terminated > 0) {
    const auto tp = [&](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) / static_cast<double>(terminated);
    };
    out += StrFormat(
        "  termination breakdown: os-exception %llu (%5.2f%%), "
        "mpi-error %llu (%5.2f%%), checker-detected %llu (%5.2f%%), "
        "other-rank-failed %llu (%5.2f%%)\n",
        static_cast<unsigned long long>(os_exception), tp(os_exception),
        static_cast<unsigned long long>(mpi_error), tp(mpi_error),
        static_cast<unsigned long long>(assert_detected), tp(assert_detected),
        static_cast<unsigned long long>(other_rank_failed), tp(other_rank_failed));
  }
  if (propagated_runs > 0) {
    out += StrFormat(
        "  cross-rank propagation: %llu runs (%llu terminated: "
        "%llu os-exception, %llu mpi-error)\n",
        static_cast<unsigned long long>(propagated_runs),
        static_cast<unsigned long long>(propagated_terminated),
        static_cast<unsigned long long>(propagated_os_exception),
        static_cast<unsigned long long>(propagated_mpi_error));
  }
  if (trace_dropped > 0) {
    out += StrFormat(
        "  trace: %llu events dropped at the in-memory capacity cap "
        "(attach a trace spool for the full trace)\n",
        static_cast<unsigned long long>(trace_dropped));
  }
  if (taint_lost > 0) {
    out += StrFormat(
        "  hub degradation: %llu messages lost their taint shadow in "
        "transit (propagation counts are a lower bound)\n",
        static_cast<unsigned long long>(taint_lost));
  }
  if (tb_chain_hits + tlb_hits + tlb_misses > 0) {
    out += StrFormat(
        "  hot path: %llu tb chain hits, %llu tlb hits, %llu tlb misses\n",
        static_cast<unsigned long long>(tb_chain_hits),
        static_cast<unsigned long long>(tlb_hits),
        static_cast<unsigned long long>(tlb_misses));
  }
  if (has_estimates) {
    out += StrFormat(
        "  sampling: policy %s, %llu/%llu trials%s (effective n %.1f)\n",
        SamplePolicyName(sample_policy), static_cast<unsigned long long>(runs),
        static_cast<unsigned long long>(planned_runs),
        stopped_early
            ? StrFormat(", stopped early at ci width %.4f", stop_ci).c_str()
            : "",
        effective_n);
    const auto line = [&](const char* name, const WilsonInterval& w) {
      return StrFormat("    %-10s %6.2f%%  [%5.2f%%, %5.2f%%] 95%% wilson\n",
                       name, 100.0 * w.rate, 100.0 * w.lo, 100.0 * w.hi);
    };
    out += "  outcome-rate estimates:\n";
    out += line("benign", est_benign);
    out += line("terminated", est_terminated);
    out += line("sdc", est_sdc);
    out += line("hang", est_hang);
  }
  return out;
}

void CampaignResult::FillEstimates(const OutcomeEstimator& est,
                                   SamplePolicy policy, double stop_ci_width,
                                   std::uint64_t planned) {
  has_estimates = true;
  sample_policy = policy;
  stop_ci = stop_ci_width;
  planned_runs = planned;
  estimate_trials = est.trials();
  effective_n = est.effective_n();
  est_benign = est.Interval(OutcomeEstimator::kBenign);
  est_terminated = est.Interval(OutcomeEstimator::kTerminated);
  est_sdc = est.Interval(OutcomeEstimator::kSdc);
  est_hang = est.Interval(OutcomeEstimator::kHang);
}

std::uint64_t& CampaignResult::count(Outcome o) {
  switch (o) {
    case Outcome::kBenign: return benign;
    case Outcome::kTerminated: return terminated;
    case Outcome::kSdc: return sdc;
    case Outcome::kInfra: return infra;
    case Outcome::kCrashed: break;
  }
  return crashed;
}

void CampaignResult::Accumulate(const RunRecord& rec, bool keep_record) {
  ++count(rec.outcome);
  if (rec.outcome == Outcome::kTerminated) {
    // A fired program-level checker is a *detection* no matter which rank
    // runs the check (CLAMR's conservation test runs on rank 0); otherwise
    // a failure surfacing on a non-injected rank means the fault crossed the
    // rank boundary before killing the job.
    if (rec.kind == vm::TerminationKind::kAssertFailed) {
      ++assert_detected;
    } else if (rec.deadlock) {
      // A deadlock is a job-wide MPI-runtime condition, not attributable to
      // whichever blocked rank the scheduler terminated first.
      ++mpi_error;
    } else if (rec.failure_rank >= 0 && rec.failure_rank != rec.inject_rank) {
      ++other_rank_failed;
    } else if (rec.kind == vm::TerminationKind::kSignaled) {
      ++os_exception;
    } else if (rec.kind == vm::TerminationKind::kMpiError) {
      ++mpi_error;
    }
  }
  if (rec.propagated_cross_rank) {
    ++propagated_runs;
    if (rec.outcome == Outcome::kTerminated) {
      ++propagated_terminated;
      if (rec.kind == vm::TerminationKind::kSignaled) {
        ++propagated_os_exception;
      } else if (rec.kind == vm::TerminationKind::kMpiError) {
        ++propagated_mpi_error;
      }
    }
  }
  trace_dropped += rec.trace_dropped;
  taint_lost += rec.taint_lost;
  tb_chain_hits += rec.tb_chain_hits;
  tlb_hits += rec.tlb_hits;
  tlb_misses += rec.tlb_misses;
  if (keep_record) records.push_back(rec);
}

// ---- GoldenProfile -----------------------------------------------------------

const std::string& GoldenProfile::output(Rank r, int fd) const {
  const auto it = outputs.find({r, fd});
  if (it == outputs.end()) {
    throw ConfigError(StrFormat(
        "GoldenProfile: no golden output captured for rank %d fd %d "
        "(golden run not executed, or rank/fd outside the captured set)", r, fd));
  }
  return it->second;
}

std::uint64_t GoldenProfile::execs(Rank r) const {
  const auto it = targeted_execs.find(r);
  if (it == targeted_execs.end()) {
    throw ConfigError(StrFormat(
        "GoldenProfile: rank %d was not profiled as an inject rank", r));
  }
  return it->second;
}

// ---- CheckpointSlots ---------------------------------------------------------

CheckpointSlots::CheckpointSlots(const std::map<Rank, std::uint64_t>& execs,
                                 std::uint64_t instructions)
    : size_(std::clamp<std::size_t>(
          static_cast<std::size_t>(instructions / kCheckpointSpacing),
          kMinCheckpoints, kMaxCheckpoints)) {
  for (const auto& [rank, n] : execs) {
    RankSlots& table = tables_[rank];
    table.golden_execs = n;
    table.slots.resize(size_);
  }
}

const CheckpointSlots::RankSlots& CheckpointSlots::Table(Rank r) const {
  const auto it = tables_.find(r);
  if (it == tables_.end()) {
    throw ConfigError(StrFormat("CheckpointSlots: rank %d has no slots", r));
  }
  return it->second;
}

std::size_t CheckpointSlots::SlotOf(Rank r, std::uint64_t execs) const {
  const std::uint64_t golden_execs = Table(r).golden_execs;
  return execs >= golden_execs
             ? size_
             : static_cast<std::size_t>(execs * size_ / golden_execs);
}

std::shared_ptr<const GoldenCheckpoint> CheckpointSlots::Get(
    Rank r, std::size_t k) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Table(r).slots.at(k);
}

bool CheckpointSlots::Publish(Rank r, std::size_t k,
                              std::shared_ptr<const GoldenCheckpoint> ck) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = Table(r).slots.at(k);
  if (slot != nullptr) return false;
  slot = std::move(ck);
  return true;
}

// ---- TrialEngine -------------------------------------------------------------

TrialEngine::TrialEngine(const apps::AppSpec& spec, const CampaignConfig& config,
                         const std::set<Rank>& inject_ranks)
    : spec_(spec),
      config_(config),
      inject_ranks_(inject_ranks),
      restored_trials_(obs::Registry::Global().GetCounter(
          "campaign_trials_restored_total")),
      restored_instructions_(obs::Registry::Global().GetCounter(
          "guest_instructions_restored_total")),
      captures_(obs::Registry::Global().GetCounter(
          "campaign_prefix_captures_total")) {
  for (const Rank r : inject_ranks_) {
    if (r < 0 || r >= spec_.num_ranks) {
      throw ConfigError(StrFormat("Campaign: inject rank %d outside 0..%d", r,
                                  spec_.num_ranks - 1));
    }
  }
  mpi::Cluster::Config cluster_config;
  cluster_config.num_ranks = spec_.num_ranks;
  // Every rank VM of every trial shares the campaign's translation cache.
  cluster_config.vm.shared_cache = config_.shared_tb_cache;
  cluster_config.vm.max_cached_tbs = config_.tb_cache_cap;
  // Every trial restarts the same image; hash it once per engine, not once
  // per process start.
  if (config_.shared_tb_cache != nullptr) {
    cluster_config.vm.program_hash =
        tcg::SharedTbCache::HashProgram(spec_.program);
  }
  cluster_ = std::make_unique<mpi::Cluster>(cluster_config);
  if (!config_.hub_endpoints.empty()) {
    remote_hub_ =
        std::make_unique<hub::remote::RemoteTaintHub>(config_.hub_endpoints);
  }
  chaser_ = std::make_unique<core::ChaserMpi>(*cluster_, config_.chaser_options,
                                              remote_hub_.get());
  // The fault model lives in config (not per trial): TaintHub::Clear() at
  // each trial's job start restarts its clock and drop tape, so every trial
  // — on any driver — sees the identical degradation schedule.
  chaser_->hub().SetFaultModel(config_.hub_fault);
}

GoldenProfile TrialEngine::RunGolden() {
  const obs::ScopedPhase obs_scope(obs::Phase::kGolden);
  // Profile with a never-firing trigger: instrumentation counts targeted
  // executions without perturbing anything. Everything else is armed as in
  // a trial — tracing included, since receivers poll the hub only while
  // tracing — so the run's state up to any point is what a trial that has
  // not injected yet has there.
  core::InjectionCommand cmd;
  cmd.target_program = spec_.program.name;
  cmd.target_classes = spec_.fault_classes;
  cmd.trigger = std::make_shared<core::NeverTrigger>();
  cmd.injector = core::ProbabilisticInjector::Create(1);
  cmd.trace = config_.trace;
  cmd.seed = config_.seed;
  // Sampled campaigns need the per-site histogram to build their sampling
  // frame; the uniform path skips the per-execution count.
  cmd.profile_sites = config_.sample_policy != SamplePolicy::kUniform;
  chaser_->Arm(cmd, inject_ranks_);

  GoldenProfile golden;
  cluster_->Start(spec_.program);
  // Checkpoint 0: the job as every trial starts it. Its hub is the clear
  // the job start performs, so every hub configuration can use it. Later
  // checkpoints are the trials' to capture.
  golden.start = CaptureJob(nullptr);
  const mpi::JobResult job = cluster_->Run();
  if (!job.completed) {
    throw ConfigError(StrFormat(
        "Campaign: golden run of '%s' failed on rank %d: %s (%s)",
        spec_.name.c_str(), job.first_failure_rank,
        vm::TerminationKindName(job.first_failure_kind),
        job.first_failure_message.c_str()));
  }

  golden.instructions = job.total_instructions;
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    golden.outputs[{r, 1}] = cluster_->rank_vm(r).output(1);
    golden.outputs[{r, 3}] = cluster_->rank_vm(r).output(3);
  }
  for (const Rank r : inject_ranks_) {
    const std::uint64_t execs = chaser_->rank_chaser(r).targeted_executions();
    if (execs == 0) {
      throw ConfigError(StrFormat(
          "Campaign: rank %d of '%s' never executes the targeted classes", r,
          spec_.name.c_str()));
    }
    golden.targeted_execs[r] = execs;
    if (cmd.profile_sites) {
      std::vector<GoldenSite>& sites = golden.sites[r];
      for (const auto& [pc, count] : chaser_->rank_chaser(r).site_execs()) {
        sites.push_back(
            {pc, guest::ClassOf(spec_.program.text[pc].op), count});
      }
    }
  }
  // Only an in-process hub with the campaign-wide fault model gives trials
  // the golden hub state, so other configurations capture nothing.
  if (chaser_->local_hub() != nullptr && !config_.hub_fault_trigger) {
    golden.slots = std::make_shared<CheckpointSlots>(golden.targeted_execs,
                                                     golden.instructions);
  }
  return golden;
}

std::shared_ptr<const GoldenCheckpoint> TrialEngine::CaptureJob(
    const GoldenCheckpoint* prev) {
  auto ck = std::make_shared<GoldenCheckpoint>();
  ck->cluster = cluster_->Capture(prev != nullptr ? &prev->cluster : nullptr);
  ck->chasers.reserve(static_cast<std::size_t>(spec_.num_ranks));
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    ck->chasers.push_back(chaser_->rank_chaser(r).Capture());
  }
  if (const hub::TaintHub* hub = chaser_->local_hub()) ck->hub = hub->Capture();
  return ck;
}

void TrialEngine::AdoptGolden(const GoldenProfile& golden) {
  if (golden.start == nullptr) {
    throw ConfigError("TrialEngine: the golden profile has no checkpoint 0");
  }
  golden_ = &golden;
  if (config_.sample_policy != SamplePolicy::kUniform) {
    if (golden.sites.empty()) {
      throw ConfigError(
          "TrialEngine: sampled policy but the golden profile has no site "
          "histogram (was the golden run executed with this policy?)");
    }
    plan_ = std::make_unique<SamplingPlan>(SamplingPlan::Build(golden.sites));
  }
  // Tighten the watchdog so corrupted loop bounds cannot hang a campaign.
  // Saturate instead of wrapping: an extreme multiplier times a long golden
  // run must clamp to "unlimited", never wrap to a tiny budget that would
  // kill every healthy trial as a spurious watchdog timeout.
  per_rank_budget_ = SaturatingAddU64(
      SaturatingMulU64(config_.watchdog_multiplier, golden.instructions),
      config_.watchdog_slack);
  total_budget_ = SaturatingMulU64(per_rank_budget_,
                                   static_cast<std::uint64_t>(spec_.num_ranks));
  cluster_->SetInstructionBudgets(per_rank_budget_, total_budget_);
  capture_interval_ =
      std::max<std::uint64_t>(1, golden.instructions / kCapturePolls);
}

RunRecord TrialEngine::RunTrial(std::uint64_t run_seed) {
  if (golden_ == nullptr) {
    throw ConfigError("TrialEngine: RunTrial before a golden profile was adopted");
  }
  RunRecord rec;
  rec.run_seed = run_seed;
  std::shared_ptr<const core::Trigger> trigger;
  // Trial-window hub faults: the degradation model is installed for this
  // trial only (below) and the campaign's is put back on every exit path.
  const bool hub_trigger = config_.hub_fault_trigger.has_value();
  // With a spool directory configured, tee every rank's trace into a
  // per-trial spool named by the run seed — the same seed produces the same
  // directory (and byte-identical contents) on the serial and parallel
  // drivers. Detach the sinks on every exit path: the spool dies with this
  // frame and a dangling sink would corrupt the next trial.
  std::unique_ptr<analysis::TraceSpool> spool;
  {
    const obs::ScopedPhase obs_scope(obs::Phase::kArm);
    Rng run_rng(run_seed);
    // Pick the injection point, then the bit-flip width x. The uniform path
    // keeps its historical draw sequence exactly (rank, then global nth);
    // the sampled path draws a site from the plan and injects at that pc's
    // nth *local* invocation.
    if (config_.sample_policy == SamplePolicy::kUniform) {
      const auto rank_it = std::next(inject_ranks_.begin(),
                                     static_cast<std::ptrdiff_t>(
                                         run_rng.Index(inject_ranks_.size())));
      rec.inject_rank = *rank_it;
      rec.trigger_nth = run_rng.UniformU64(1, golden_->execs(rec.inject_rank));
      trigger = std::make_shared<core::DeterministicTrigger>(rec.trigger_nth);
    } else {
      const SiteDraw draw = plan_->Draw(config_.sample_policy, run_rng);
      rec.inject_rank = draw.rank;
      rec.trigger_nth = draw.nth;
      rec.inject_pc = draw.pc;
      rec.inject_class = draw.cls;
      rec.sample_weight = draw.weight;
      trigger = std::make_shared<core::PcNthTrigger>(draw.pc, draw.nth);
    }
    rec.flip_bits = static_cast<unsigned>(
        run_rng.UniformU64(config_.flip_bits_min, config_.flip_bits_max));

    core::InjectionCommand cmd;
    cmd.target_program = spec_.program.name;
    cmd.target_classes = spec_.fault_classes;
    cmd.trigger = trigger;
    // The default spec constructs the probabilistic injector directly — not
    // through the registry — so the default path is provably unchanged; any
    // other spec resolves through the registry and stamps the record (which
    // upgrades the records CSV to v6 and adds spool meta keys).
    if (config_.injector.IsDefault()) {
      cmd.injector = core::ProbabilisticInjector::Create(rec.flip_bits);
    } else {
      const core::InjectorRegistry& registry = core::InjectorRegistry::Global();
      cmd.injector = registry.Create(config_.injector, rec.flip_bits);
      rec.injector = config_.injector.name;
      rec.fault_class = registry.Find(config_.injector.name)->fault_class;
    }
    cmd.trace = config_.trace;
    // Sampled trials count per site too, so their captures carry what the
    // pc-local triggers of the trials restoring them read.
    cmd.profile_sites = config_.sample_policy != SamplePolicy::kUniform;
    cmd.seed = run_rng.Fork();
    // The trial's hub fault model is seeded by a fork drawn *after*
    // cmd.seed — the default path never reaches this draw, so its
    // historical sequence is untouched.
    if (hub_trigger) {
      hub::HubFaultModel model = *config_.hub_fault_trigger;
      model.seed = run_rng.Fork();
      chaser_->hub().SetFaultModel(model);
    }
    chaser_->Arm(cmd, {rec.inject_rank});

    if (!config_.spool_dir.empty()) {
      spool = std::make_unique<analysis::TraceSpool>(
          config_.spool_dir + "/trial-" + std::to_string(run_seed));
      for (Rank r = 0; r < spec_.num_ranks; ++r) {
        chaser_->rank_chaser(r).trace_log().set_sink(spool.get());
      }
    }
  }
  try {
    {
      const obs::ScopedPhase obs_scope(obs::Phase::kStart);
      RestoreGoldenPrefix(*trigger, rec.inject_rank);
    }
    const mpi::JobResult job = [&] {
      const obs::ScopedPhase obs_scope(obs::Phase::kExecute);
      return cluster_->Run();
    }();
    cluster_->SetCheckpointHook(0, nullptr);
    capture_prev_.reset();
    const obs::ScopedPhase obs_scope(obs::Phase::kClassify);
    Classify(job, &rec);
  } catch (...) {
    cluster_->SetCheckpointHook(0, nullptr);
    capture_prev_.reset();
    if (hub_trigger) chaser_->hub().SetFaultModel(config_.hub_fault);
    if (spool != nullptr) DetachSpool();
    throw;
  }
  if (hub_trigger) chaser_->hub().SetFaultModel(config_.hub_fault);
  if (spool != nullptr) {
    for (Rank r = 0; r < spec_.num_ranks; ++r) {
      for (const core::TaintSample& s : chaser_->rank_chaser(r).taint_timeline()) {
        spool->AddSample(s);
      }
    }
    for (const hub::TransferLogEntry& t : chaser_->hub().DrainTransferLog()) {
      spool->AddTransfer(t);
    }
    spool->SetMeta("app", spec_.name);
    spool->SetMeta("ranks", std::to_string(spec_.num_ranks));
    spool->SetMeta("run_seed", std::to_string(run_seed));
    spool->SetMeta("outcome", OutcomeName(rec.outcome));
    spool->SetMeta("inject_rank", std::to_string(rec.inject_rank));
    spool->SetMeta("trigger_nth", std::to_string(rec.trigger_nth));
    spool->SetMeta("flip_bits", std::to_string(rec.flip_bits));
    // Injector keys only with a non-default injector: a default campaign's
    // spool stays byte-identical to pre-registry builds.
    if (!config_.injector.IsDefault()) {
      spool->SetMeta("injector", rec.injector);
      spool->SetMeta("fault_class", rec.fault_class);
    }
    // Sampling keys only on sampled campaigns: a uniform campaign's spool
    // stays byte-identical to pre-sampling builds.
    if (config_.sample_policy != SamplePolicy::kUniform) {
      spool->SetMeta("sample_policy", SamplePolicyName(config_.sample_policy));
      spool->SetMeta("inject_pc", std::to_string(rec.inject_pc));
      spool->SetMeta("inject_class", guest::ClassName(rec.inject_class));
      spool->SetMeta("sample_weight", StrFormat("%.17g", rec.sample_weight));
    }
    spool->SetMeta("trace_dropped", std::to_string(rec.trace_dropped));
    spool->SetMeta("taint_lost", std::to_string(rec.taint_lost));
    DetachSpool();
    spool->Finish();
  }
  return rec;
}

void TrialEngine::RestoreGoldenPrefix(const core::Trigger& trigger,
                                      Rank inject_rank) {
  CheckpointSlots* const slots = golden_->slots.get();
  // Usable = the trigger has provably not fired and no watchdog has killed
  // anything by the checkpoint. Both only fail later along the run, as the
  // slots go; checkpoint 0, where nothing has run, always qualifies.
  const auto usable = [&](const GoldenCheckpoint& ck) {
    if (ck.cluster.round.retired > total_budget_) return false;
    for (const auto& rank : ck.cluster.ranks) {
      // instret < budget, not <=: a syscall that blocks retires its
      // instruction, passing the watchdog's check, and then un-retires it.
      if (rank.vm->instret >= per_rank_budget_) return false;
    }
    const core::Chaser::Checkpoint& c =
        ck.chasers[static_cast<std::size_t>(inject_rank)];
    return trigger.SilentThrough(
        c.exec_count, c.sites_profiled ? &c.site_execs : nullptr);
  };
  std::shared_ptr<const GoldenCheckpoint> ck;
  if (slots != nullptr) ck = slots->Latest(inject_rank, usable);
  if (ck == nullptr) ck = golden_->start;
  cluster_->Restore(ck->cluster);
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    chaser_->rank_chaser(r).Restore(ck->chasers[static_cast<std::size_t>(r)]);
  }
  if (hub::TaintHub* hub = chaser_->local_hub()) hub->Restore(ck->hub);
  if (ck->cluster.round.retired > 0) {
    restored_trials_.Inc();
    restored_instructions_.Inc(ck->cluster.round.retired);
  }
  if (slots == nullptr) return;
  // Capture the later slots from this trial's own clean prefix. Checkpoint
  // 0 stands in for slot 0.
  capture_rank_ = inject_rank;
  capture_slot_ = slots->SlotOf(
      inject_rank, ck->chasers[static_cast<std::size_t>(inject_rank)].exec_count);
  capture_prev_ = std::move(ck);
  cluster_->SetCheckpointHook(
      capture_prev_->cluster.round.retired + capture_interval_,
      [this](std::uint64_t retired) { return PollCapture(retired); });
}

std::uint64_t TrialEngine::PollCapture(std::uint64_t retired) {
  const core::Chaser& chaser = chaser_->rank_chaser(capture_rank_);
  // Past the trigger the run has left the golden one.
  if (!chaser.trigger_pending()) return kNoPoll;
  CheckpointSlots& slots = *golden_->slots;
  const std::size_t slot =
      slots.SlotOf(capture_rank_, chaser.targeted_executions());
  if (slot != capture_slot_) {
    capture_slot_ = slot;
    if (slot == slots.size()) return kNoPoll;
    // The budgets only run out later along the run.
    if (retired > total_budget_) return kNoPoll;
    for (Rank r = 0; r < spec_.num_ranks; ++r) {
      if (cluster_->rank_vm(r).instret() >= per_rank_budget_) return kNoPoll;
    }
    if (slots.Get(capture_rank_, slot) == nullptr) {
      const obs::ScopedPhase obs_scope(obs::Phase::kCapture);
      std::shared_ptr<const GoldenCheckpoint> ck = CaptureJob(capture_prev_.get());
      if (slots.Publish(capture_rank_, slot, ck)) captures_.Inc();
      capture_prev_ = std::move(ck);
    }
  }
  return retired + capture_interval_;
}

void TrialEngine::DetachSpool() {
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    chaser_->rank_chaser(r).trace_log().set_sink(nullptr);
  }
}

void TrialEngine::Classify(const mpi::JobResult& job, RunRecord* rec) {
  rec->instructions = job.total_instructions;
  rec->injections = chaser_->total_injections();
  rec->tainted_reads = chaser_->total_tainted_reads();
  rec->tainted_writes = chaser_->total_tainted_writes();
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    rec->peak_tainted_bytes =
        std::max(rec->peak_tainted_bytes,
                 cluster_->rank_vm(r).taint().stats().peak_tainted_bytes);
    rec->tainted_output_bytes += cluster_->rank_vm(r).tainted_output_bytes();
  }
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    rec->trace_dropped += chaser_->rank_chaser(r).trace_log().dropped();
  }
  // Hot-path counters: per-trial deterministic (chain hits and TLB traffic
  // depend only on the executed instruction stream) and config-invariant, so
  // they are safe to place in the identity-checked record.
  for (Rank r = 0; r < spec_.num_ranks; ++r) {
    const vm::Vm& rank_vm = cluster_->rank_vm(r);
    rec->tb_chain_hits += rank_vm.tb_chain_hits();
    rec->tlb_hits += rank_vm.tlb_hits();
    rec->tlb_misses += rank_vm.tlb_misses();
  }
  rec->propagated_cross_rank = chaser_->FaultPropagatedFrom(rec->inject_rank);
  rec->propagated_cross_node = chaser_->FaultPropagatedAcrossNodes();
  rec->taint_lost = chaser_->hub().stats().taint_lost;
  rec->deadlock = job.deadlock;

  if (job.completed) {
    bool same = true;
    for (Rank r = 0; r < spec_.num_ranks && same; ++r) {
      same = cluster_->rank_vm(r).output(1) == golden_->output(r, 1) &&
             cluster_->rank_vm(r).output(3) == golden_->output(r, 3);
    }
    rec->outcome = same ? Outcome::kBenign : Outcome::kSdc;
    rec->kind = vm::TerminationKind::kExited;
    return;
  }
  // An injected rank crash (GuestSignal::kCrash) is its own outcome: the
  // process was killed outright by the fault model, not terminated by a
  // corrupted computation, and must not pollute the terminated series.
  rec->outcome = job.first_failure_kind == vm::TerminationKind::kSignaled &&
                         job.first_failure_signal == vm::GuestSignal::kCrash
                     ? Outcome::kCrashed
                     : Outcome::kTerminated;
  rec->kind = job.first_failure_kind;
  rec->signal = job.first_failure_signal;
  rec->failure_rank = job.first_failure_rank;
}

// ---- Contained trial execution -----------------------------------------------

RunRecord RunTrialContained(std::unique_ptr<TrialEngine>* engine,
                            const apps::AppSpec& spec,
                            const CampaignConfig& config,
                            const std::set<Rank>& inject_ranks,
                            const GoldenProfile& golden,
                            std::uint64_t run_seed) {
  const unsigned attempts = config.trial_retries + 1;
  std::string last_error;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    try {
      if (*engine == nullptr) {
        *engine = std::make_unique<TrialEngine>(spec, config, inject_ranks);
        (*engine)->AdoptGolden(golden);
      }
      if (config.trial_chaos) config.trial_chaos(run_seed, attempt);
      RunRecord rec = (*engine)->RunTrial(run_seed);
      rec.retries = attempt;
      return rec;
    } catch (const std::exception& e) {
      last_error = e.what();
    } catch (...) {
      last_error = "non-standard exception escaped the trial engine";
    }
    // The engine threw mid-trial: its Cluster/TaintHub are in an arbitrary
    // state and must never serve another trial. Rebuild from scratch.
    engine->reset();
    if (attempt + 1 < attempts && config.retry_backoff_ms > 0) {
      const std::uint64_t ms =
          std::min<std::uint64_t>(config.retry_backoff_ms << attempt, 1000);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
  // Retry budget exhausted: quarantine this seed instead of losing the whole
  // campaign. kInfra records carry no injection data — only the evidence.
  RunRecord rec;
  rec.outcome = Outcome::kInfra;
  rec.run_seed = run_seed;
  rec.retries = config.trial_retries;
  rec.infra_error = last_error;
  return rec;
}

// ---- Seed-order commit ---------------------------------------------------------

SeedOrderCommitter::SeedOrderCommitter(
    SamplePolicy policy, double stop_ci, std::uint64_t planned,
    bool keep_records, std::function<void(const RunRecord&)> sink)
    : policy_(policy),
      stop_ci_(stop_ci),
      planned_(planned),
      keep_records_(keep_records),
      sink_(std::move(sink)) {
  // A plain uniform campaign runs no estimator, keeping its report/CSV/spool
  // bytes identical to pre-sampling builds.
  if (policy != SamplePolicy::kUniform || stop_ci > 0.0) {
    controller_ = std::make_shared<SampleController>(stop_ci);
  }
}

void SeedOrderCommitter::Offer(std::uint64_t position, RunRecord rec) {
  if (PastStop(position)) return;  // was in flight when the stop latched
  if (position != next_) {
    window_.emplace(position, std::move(rec));
    return;
  }
  Commit(std::move(rec));
  while (!window_.empty() && window_.begin()->first == next_ &&
         !PastStop(next_)) {
    Commit(std::move(window_.extract(window_.begin()).mapped()));
  }
}

void SeedOrderCommitter::Commit(RunRecord rec) {
  result_.Accumulate(rec, /*keep_record=*/false);
  if (sink_) sink_(rec);
  // Replayed trials feed the estimator exactly like executed ones, so a
  // resumed campaign stops at the same seed-order prefix.
  if (controller_ != nullptr &&
      controller_->Commit(rec.outcome, rec.deadlock, rec.sample_weight) &&
      controller_->stop_enabled()) {
    stop_at_.store(next_);
  }
  if (keep_records_) result_.records.push_back(std::move(rec));
  ++next_;
}

CampaignResult SeedOrderCommitter::Finish() {
  result_.runs = next_;
  if (controller_ != nullptr) {
    result_.stopped_early = controller_->converged() && next_ < planned_;
    result_.FillEstimates(controller_->estimator(), policy_, stop_ci_,
                          planned_);
  }
  return std::move(result_);
}

// ---- Campaign ----------------------------------------------------------------

Campaign::Campaign(apps::AppSpec spec, CampaignConfig config, unsigned jobs)
    : spec_(std::move(spec)),
      config_(std::move(config)),
      inject_ranks_(config_.inject_ranks.empty() ? std::set<Rank>{0}
                                                 : config_.inject_ranks),
      jobs_(jobs != 0 ? jobs
                      : std::max(1u, std::thread::hardware_concurrency())) {
  // Resolve the shared translation cache before any engine exists: engines
  // copy the pointer into their cluster's Vm::Config at construction, so the
  // whole pool reads and writes one cache.
  if (config_.shared_tb_cache == nullptr) {
    owned_tb_cache_ = std::make_unique<tcg::SharedTbCache>(config_.tb_cache_cap);
    config_.shared_tb_cache = owned_tb_cache_.get();
  }
  engine_ = std::make_unique<TrialEngine>(spec_, config_, inject_ranks_);
}

void Campaign::RunGolden() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<TrialEngine>(spec_, config_, inject_ranks_);
  }
  const obs::ThreadAttachment attachment(config_.telemetry, "main");
  golden_ = engine_->RunGolden();
  engine_->AdoptGolden(golden_);
  golden_done_ = true;
}

const std::string& Campaign::golden_output(Rank r, int fd) const {
  if (!golden_done_) {
    throw ConfigError(StrFormat(
        "Campaign: golden_output(rank %d, fd %d) before the golden run", r, fd));
  }
  return golden_.output(r, fd);
}

std::uint64_t Campaign::golden_targeted_execs(Rank r) const {
  const auto it = golden_.targeted_execs.find(r);
  return it == golden_.targeted_execs.end() ? 0 : it->second;
}

RunRecord Campaign::RunOnce(std::uint64_t run_seed) {
  if (!golden_done_) RunGolden();
  return engine_->RunTrial(run_seed);
}

std::vector<std::uint64_t> Campaign::DeriveTrialSeeds(std::uint64_t seed,
                                                      std::uint64_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) seeds.push_back(rng.Fork());
  return seeds;
}

CampaignResult Campaign::Run(const RecordStream& replay) {
  obs::Telemetry* const telemetry = config_.telemetry;
  // A shard worker cannot evaluate the early-stop rule: the stop prefix is
  // defined in *global* seed order, which one shard never observes. The
  // merge step (MergeShardStreams) re-applies it over the combined records.
  const double stop_ci = config_.shard_count > 1 ? 0.0 : config_.stop_ci;
  // This worker's slice of the trial space in seed order: global indices i
  // with i % shard_count == shard_index (all of them when unsharded).
  // Everything below runs over slice positions 0..runs-1.
  const std::vector<std::uint64_t> all_seeds =
      DeriveTrialSeeds(config_.seed, config_.runs);
  std::vector<std::uint64_t> seeds;
  for (const std::uint64_t index : ShardTrialIndices(
           config_.runs, ShardSpec{config_.shard_index, config_.shard_count})) {
    seeds.push_back(all_seeds[static_cast<std::size_t>(index)]);
  }
  const std::uint64_t runs = seeds.size();
  // True while the replayed prefix commits (before any worker runs).
  bool replaying = false;
  // Telemetry counts a trial's outcome where the result does, as it
  // commits: a trial that finished past a latched stop is in neither.
  std::function<void(const RunRecord&)> sink = config_.record_sink;
  if (telemetry != nullptr) {
    sink = [&](const RunRecord& rec) {
      if (config_.record_sink) config_.record_sink(rec);
      telemetry->OnTrialCommitted(ToTrialStats(rec, replaying));
    };
  }
  SeedOrderCommitter committer(config_.sample_policy, stop_ci, runs,
                               config_.keep_records, std::move(sink));
  std::mutex commit_mutex;  // guards `committer` once workers run
  if (telemetry != nullptr) {
    if (const auto controller = committer.controller()) {
      // Shared, so the status channel can still poll it at Finish(), after
      // this frame returned.
      telemetry->SetEstimatesSource(
          [controller] { return controller->Snapshot(); });
    }
    telemetry->BeginCampaign(spec_.name, runs);
  }
  const obs::ThreadAttachment attachment(telemetry, "main");
  if (!golden_done_) RunGolden();

  // The replayed prefix commits before any worker starts, so a resumed
  // campaign that already stopped early runs no new trial.
  std::uint64_t first_pending = 0;
  if (replay) {
    replaying = true;
    RunRecord rec;
    while (replay(&rec)) {
      if (first_pending == runs) {
        throw ConfigError(StrFormat(
            "Campaign: the replayed records hold more than this campaign's "
            "%llu trials",
            static_cast<unsigned long long>(runs)));
      }
      const std::uint64_t want = seeds[static_cast<std::size_t>(first_pending)];
      if (rec.run_seed != want) {
        throw ConfigError(StrFormat(
            "Campaign: replayed record %llu has trial seed %llu where this "
            "campaign expects %llu — the records belong to another campaign",
            static_cast<unsigned long long>(first_pending + 1),
            static_cast<unsigned long long>(rec.run_seed),
            static_cast<unsigned long long>(want)));
      }
      const obs::ScopedPhase commit_scope(obs::Phase::kCommit);
      if (telemetry != nullptr) {
        telemetry->OnTrialDone(ToTrialStats(rec, /*replayed=*/true), 0, 0);
      }
      committer.Offer(first_pending++, std::move(rec));
    }
    replaying = false;
  }

  std::atomic<std::uint64_t> next{first_pending};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&](unsigned w) {
    // Worker 0 goes on with the golden run's engine; the others build
    // their own at their first trial.
    std::unique_ptr<TrialEngine> own_engine;
    std::unique_ptr<TrialEngine>* const engine =
        w == 0 ? &engine_ : &own_engine;
    const obs::ThreadAttachment worker_attachment(
        telemetry, "worker-" + std::to_string(w));
    try {
      for (std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < runs; i = next.fetch_add(1, std::memory_order_relaxed)) {
        // Positions are claimed in ascending order, so once one lies past a
        // latched stop, every later claim would too. Trials in flight when
        // the stop latched still finish, but never enter the result.
        if (committer.PastStop(i)) break;
        const std::uint64_t t0_ns =
            telemetry != nullptr ? obs::MonotonicNanos() : 0;
        // Containment boundary: a throwing trial retries on a rebuilt engine
        // and quarantines as kInfra — it cannot take down the pool.
        RunRecord rec = RunTrialContained(engine, spec_, config_, inject_ranks_,
                                          golden_,
                                          seeds[static_cast<std::size_t>(i)]);
        const obs::ScopedPhase commit_scope(obs::Phase::kCommit);
        if (telemetry != nullptr) {
          telemetry->OnTrialDone(ToTrialStats(rec, /*replayed=*/false), t0_ns,
                                 obs::MonotonicNanos());
        }
        const std::lock_guard<std::mutex> lock(commit_mutex);
        committer.Offer(i, std::move(rec));
      }
    } catch (...) {
      // Only failures outside trial containment land here (a throwing
      // record sink, say the store's device filling up) — they end the
      // campaign.
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      // The other workers stop at their next claim.
      next.store(runs, std::memory_order_relaxed);
    }
  };

  const auto n_workers = static_cast<unsigned>(
      std::clamp<std::uint64_t>(runs - first_pending, 1, jobs_));
  {
    std::vector<std::jthread> helpers;  // joined when this scope exits
    for (unsigned w = 1; w < n_workers; ++w) helpers.emplace_back(worker, w);
    worker(0);
  }
  if (error) std::rethrow_exception(error);
  return committer.Finish();
}

}  // namespace chaser::campaign
