#include "obs/telemetry.h"

#include "common/fileio.h"
#include "common/strings.h"

namespace chaser::obs {

const char* TrialOutcomeName(int outcome) {
  switch (outcome) {
    case 0: return "benign";
    case 1: return "terminated";
    case 2: return "sdc";
    case 3: return "infra";
    case 4: return "crashed";
  }
  return "?";
}

Telemetry::Telemetry(TelemetryOptions options) : options_(std::move(options)) {
  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<TraceJsonWriter>(options_.trace_path,
                                               options_.trace_pid,
                                               options_.trace_process_name);
  }
  if (options_.obs_port >= 0) {
    ExportServer::Options eo;
    eo.host = options_.obs_host;
    eo.port = static_cast<std::uint16_t>(options_.obs_port);
    eo.status_body = [this] { return StatusBody(); };
    export_server_ = std::make_unique<ExportServer>(std::move(eo));
  }
}

Telemetry::~Telemetry() {
  try {
    Finish();
  } catch (...) {
    // Teardown must not throw; the last successful artifacts stay in place.
  }
}

void Telemetry::BeginCampaign(const std::string& app,
                              std::uint64_t total_trials) {
  {
    // app_ is also read by the export thread's /status fallback.
    std::lock_guard<std::mutex> lock(mutex_);
    app_ = app;
  }
  // A scrape server implies a status channel even without --status: the
  // StatusWriter runs render-only (empty path) and feeds /status.
  const bool want_status =
      !options_.status_path.empty() || export_server_ != nullptr;
  if (want_status && status_ == nullptr) {
    StatusWriter::Options so;
    so.path = options_.status_path;
    so.app = app;
    so.total = total_trials;
    so.every = options_.status_every;
    so.progress = options_.progress;
    so.shard_index = options_.shard_index;
    so.shard_count = options_.shard_count;
    if (export_server_ != nullptr) so.obs_endpoint = export_server_->endpoint();
    so.cache_stats = cache_stats_;
    so.estimates = estimates_;
    auto status = std::make_unique<StatusWriter>(std::move(so));
    // The /status callback reads status_ from the export thread; publish
    // the fully-built writer under the lock it reads through.
    std::lock_guard<std::mutex> lock(mutex_);
    status_ = std::move(status);
  }
}

std::string Telemetry::StatusBody() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (status_ != nullptr) return status_->RenderSnapshot();
  return StrFormat("{\"app\": \"%s\", \"running\": false, \"started\": false}\n",
                   app_.c_str());
}

std::string Telemetry::obs_endpoint() const {
  return export_server_ != nullptr ? export_server_->endpoint() : std::string();
}

void Telemetry::SetClockOffsetUs(std::int64_t offset_us) {
  if (trace_ != nullptr) trace_->SetClockOffsetUs(offset_us);
}

void Telemetry::SetCacheStatsSource(
    std::function<CacheStatsSnapshot()> source) {
  cache_stats_ = std::move(source);
}

void Telemetry::SetEstimatesSource(std::function<EstimateSnapshot()> source) {
  estimates_ = std::move(source);
}

void Telemetry::AttachThread(const std::string& name) {
  if (ThreadProfiler() != nullptr) return;  // already armed (ours by contract)
  std::uint32_t tid = 0;
  if (trace_ != nullptr) {
    // One track per name: a thread that detaches and re-attaches (a driver's
    // RunGolden() before its Run()) keeps writing to the same track.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = trace_tids_.try_emplace(name, 0);
    if (fresh) it->second = trace_->RegisterThread(name);
    tid = it->second;
  }
  auto profiler = std::make_unique<PhaseProfiler>(&Registry::Global(),
                                                  trace_.get(), tid);
  SetThreadProfiler(profiler.get());
  std::lock_guard<std::mutex> lock(mutex_);
  profilers_.push_back(std::move(profiler));
}

void Telemetry::DetachThread() {
  PhaseProfiler* prof = ThreadProfiler();
  if (prof == nullptr) return;
  prof->Flush();
  SetThreadProfiler(nullptr);
  // The profiler object stays in profilers_ (its tid and histograms remain
  // valid); only the thread-local arming is dropped.
}

ThreadAttachment::ThreadAttachment(Telemetry* telemetry, const std::string& name) {
  if (telemetry == nullptr || ThreadProfiler() != nullptr) return;
  telemetry->AttachThread(name);
  attached_ = telemetry;
}

ThreadAttachment::~ThreadAttachment() {
  if (attached_ != nullptr) attached_->DetachThread();
}

void Telemetry::OnTrialDone(const TrialStats& t, std::uint64_t t0_ns,
                            std::uint64_t t1_ns) {
  Registry& reg = Registry::Global();
  // Handles resolve once per process — registration is mutexed, Inc is not.
  static Counter& trials = reg.GetCounter("campaign_trials_total");
  static Counter& replayed = reg.GetCounter("campaign_trials_replayed");
  static Counter* outcomes[kNumTrialOutcomes] = {
      &reg.GetCounter("campaign_outcome_benign"),
      &reg.GetCounter("campaign_outcome_terminated"),
      &reg.GetCounter("campaign_outcome_sdc"),
      &reg.GetCounter("campaign_outcome_infra"),
      &reg.GetCounter("campaign_outcome_crashed"),
  };
  static Counter& instructions = reg.GetCounter("guest_instructions_total");
  static Counter& injections = reg.GetCounter("injections_total");
  static Counter& taint_lost = reg.GetCounter("hub_taint_lost_total");
  static Counter& trace_dropped = reg.GetCounter("trace_events_dropped_total");
  static Counter& chain_hits = reg.GetCounter("vm_tb_chain_hits_total");
  static Counter& tlb_hits = reg.GetCounter("vm_tlb_hits_total");
  static Counter& tlb_misses = reg.GetCounter("vm_tlb_misses_total");
  static Counter& retries = reg.GetCounter("campaign_trial_retries_total");

  if (status_ != nullptr) {
    status_->OnTrialDone(t.outcome, t.taint_lost, t.trace_dropped, t.replayed);
  }
  trials.Inc();
  if (t.outcome >= 0 && t.outcome < kNumTrialOutcomes) outcomes[t.outcome]->Inc();
  if (t.replayed) {
    replayed.Inc();
    return;  // not executed here: no span, no hot-path counter traffic
  }
  instructions.Inc(t.instructions);
  injections.Inc(t.injections);
  taint_lost.Inc(t.taint_lost);
  trace_dropped.Inc(t.trace_dropped);
  chain_hits.Inc(t.tb_chain_hits);
  tlb_hits.Inc(t.tlb_hits);
  tlb_misses.Inc(t.tlb_misses);
  retries.Inc(t.retries);

  static Histogram& trial_ns =
      reg.GetHistogram("phase_trial_ns", LatencyBoundsNs());
  trial_ns.Observe(t1_ns - t0_ns);
  if (trace_ != nullptr) {
    PhaseProfiler* prof = ThreadProfiler();
    // Flush first so the trial's phase spans precede their enclosing trial
    // span only by buffer order, not by a whole campaign.
    if (prof != nullptr) prof->Flush();
    const std::uint32_t tid = prof != nullptr ? prof->tid() : 0;
    trace_->AddSpan(tid, PhaseName(Phase::kTrial), t0_ns, t1_ns,
                    {{"run_seed", std::to_string(t.run_seed)},
                     {"outcome", TrialOutcomeName(t.outcome)}});
  }
}

void Telemetry::Finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) return;
    finished_ = true;
    // Contract: Finish runs after every attached thread detached (workers
    // are joined by the drivers), so flushing their buffers is race-free.
    for (auto& prof : profilers_) prof->Flush();
  }
  if (cache_stats_) {
    const CacheStatsSnapshot cs = cache_stats_();
    Registry& reg = Registry::Global();
    reg.GetGauge("tb_cache_translations").Set(static_cast<std::int64_t>(cs.translations));
    reg.GetGauge("tb_cache_reuses").Set(static_cast<std::int64_t>(cs.reuses));
    reg.GetGauge("tb_cache_epoch_flushes").Set(static_cast<std::int64_t>(cs.epoch_flushes));
    reg.GetGauge("tb_cache_evicted_tbs").Set(static_cast<std::int64_t>(cs.evicted_tbs));
  }
  if (trace_ != nullptr) trace_->Finish();
  if (status_ != nullptr) status_->Finish();
  if (!options_.metrics_path.empty()) {
    WriteFileAtomic(options_.metrics_path, Registry::Global().ToJson());
  }
}

}  // namespace chaser::obs
