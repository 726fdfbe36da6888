// chaser_perfbench — the layered campaign benchmark.
//
//   chaser_perfbench --workload matvec-sink --seed 1 --seconds 20 --trace 0
//
// One run measures one workload for about --seconds of campaign time and
// prints every metric by name with its unit; the last stdout line is a JSON
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary from source and is the entry point users call.
//
// Workloads (all closed loops: a worker starts its next trial only after the
// previous one committed):
//
//   matvec-sink     matvec, 4 ranks, uniform, serial, fault tracing on, with
//                   the CTR store as record sink and the status channel.
//                   Per-trial fixed cost dominates. No resume journal: its
//                   per-trial fsync made the figures measure the disk; the
//                   traced pass times TrialJournal::Append as a probe.
//   lud-sampled-j4  lud, 1 rank, weighted sampling with a stop_ci early stop,
//                   ParallelCampaign with 4 workers. No MPI, no hub.
//
// A run executes whole campaigns back to back (campaign k of a run draws its
// campaign seed and app input seed from the benchmark seed and k) until
// --seconds have passed and at least the workload's minimum number of
// campaigns ran.
// End-to-end numbers come from the untraced pass (--trace 0), which runs the
// production drivers: Campaign::Run for the serial workload, ParallelCampaign
// for the parallel one. The traced pass (--trace 1) times the calls the
// drivers make into each layer from out here — spans with
// name/start/end/parent/run_seed, kept in memory and written to a Chrome trace
// file at the end — and reads the phase histograms the obs layer already
// keeps. For the serial workload it composes the trial loop from the public
// calls Campaign::Run makes, so each call gets its own span. It then reruns
// the workload untraced for the tracing overhead.
//
// Correctness gate, on every run: matvec-sink's CTR store must scan back to
// the committed records and outcome counts (and, traced, the probe journal
// must replay them); the first campaign of a parallel
// workload is rerun through the serial driver (Campaign::Run) and both must
// commit identical records (a digest over the records in seed order); the
// traced and untraced passes of a --trace 1 run must agree likewise; and at
// the pinned seed the digest must equal the one in pinned_digests.json. Any
// mismatch counts the affected trials as failed and makes the run exit 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "campaign/parallel.h"
#include "campaign/sampling.h"
#include "common/error.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "core/injectors/probabilistic_injector.h"
#include "core/trigger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "store/ctr.h"
#include "tcg/shared_cache.h"

namespace {

using namespace chaser;
using campaign::RunRecord;
namespace fs = std::filesystem;

// ---- Workloads -----------------------------------------------------------------

struct Workload {
  const char* name;
  const char* app;  // matvec | lud
  unsigned jobs;    // 0 = serial with the store sink and status channel,
                    // else ParallelCampaign workers
  campaign::SamplePolicy policy;
  double stop_ci;
  std::uint64_t runs;           // trial budget of one campaign
  std::uint64_t min_campaigns;  // per pass; more if --seconds allows
};

// Why these two: matvec-sink is where per-trial fixed cost (start, arm,
// classify, store append, status rewrite) dominates, with MPI and hub
// traffic; lud-sampled-j4 is execution-dominated and exercises the parallel
// driver, the sampler's ordered commit and the shared TB cache under 4
// readers, with no MPI or hub at all.
constexpr Workload kWorkloads[] = {
    {"matvec-sink", "matvec", 0, campaign::SamplePolicy::kUniform, 0.0, 1000, 5},
    {"lud-sampled-j4", "lud", 4, campaign::SamplePolicy::kWeighted, 0.02, 6000, 24},
};

/// trial_ms_tail percentile. p99 blocks measured the host rather than the
/// program: fsync hiccups on matvec and vCPU preemption of the lud workers
/// spread them 40-115% over ten seeds.
constexpr double kTailPct = 90.0;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- Seeds, time, statistics ---------------------------------------------------

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
// Campaign k of a run gets its own app input and campaign seed, so a run
// averages over as many inputs as it has campaigns.
std::uint64_t AppInputSeed(std::uint64_t seed, std::uint64_t k) {
  return SplitMix(SplitMix(seed ^ 0xa5a5ull) + k);
}
std::uint64_t CampaignSeed(std::uint64_t seed, std::uint64_t k) {
  return SplitMix(SplitMix(seed) + k);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Tail latency at percentile `pct`, robust to bursts of host noise: the
/// trials are cut, in commit order, into blocks just large enough that each
/// block's `pct` percentile has ten trials beyond it, and the result is the
/// median of the blocks' percentiles (the pooled percentile when there is
/// not one full block).
double BlockTail(const std::vector<double>& ms, double pct) {
  const auto block = static_cast<std::size_t>(std::lround(10.0 / (1.0 - pct / 100.0)));
  if (ms.size() < block) return Quantile(ms, pct / 100.0);
  std::vector<double> tails;
  for (std::size_t i = 0; i + block <= ms.size(); i += block) {
    tails.push_back(Quantile(
        std::vector<double>(ms.begin() + static_cast<std::ptrdiff_t>(i),
                            ms.begin() + static_cast<std::ptrdiff_t>(i + block)),
        pct / 100.0));
  }
  return Median(tails);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Return freed heap to the kernel and restart its resident high-water mark
/// (VmHWM), so each campaign's peak is its own, as if it ran in a fresh
/// process: a rare trial that balloons memory then moves one campaign's
/// figure, not every later one. Without /proc/self/clear_refs the mark keeps
/// the process-wide peak.
void ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM in MiB (0 if /proc is unavailable).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---- Record digest --------------------------------------------------------------

/// FNV-1a over the fields that define a trial's result. The hot-path
/// counters (tb_chain_hits, tlb_*) are left out: they describe how the
/// simulator dispatched, not what the trial computed.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) {
    Add(static_cast<std::uint64_t>(s.size()));
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(const RunRecord& r) {
    std::uint64_t weight_bits = 0;
    std::memcpy(&weight_bits, &r.sample_weight, sizeof(weight_bits));
    for (const std::uint64_t v :
         {r.run_seed, static_cast<std::uint64_t>(r.outcome),
          static_cast<std::uint64_t>(r.kind), static_cast<std::uint64_t>(r.signal),
          static_cast<std::uint64_t>(r.inject_rank),
          static_cast<std::uint64_t>(r.failure_rank),
          static_cast<std::uint64_t>(r.deadlock),
          static_cast<std::uint64_t>(r.propagated_cross_rank),
          static_cast<std::uint64_t>(r.propagated_cross_node), r.injections,
          r.tainted_reads, r.tainted_writes, r.peak_tainted_bytes,
          r.tainted_output_bytes, r.trigger_nth,
          static_cast<std::uint64_t>(r.flip_bits), r.inject_pc,
          static_cast<std::uint64_t>(r.inject_class), weight_bits,
          r.instructions, r.trace_dropped, r.taint_lost,
          static_cast<std::uint64_t>(r.retries)}) {
      Add(v);
    }
    Add(r.infra_error);
    Add(r.injector);
    Add(r.fault_class);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t DigestOf(const std::vector<RunRecord>& records) {
  Digest d;
  for (const RunRecord& r : records) d.Add(r);
  return d.value();
}

std::string Hex(std::uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

/// The campaign-0 digest pinned for `workload`, or "" when `seed` is not the
/// pinned seed. The file sits next to this source (PERFBENCH_PINNED_DIGESTS).
std::string PinnedDigest(const std::string& workload, std::uint64_t seed) {
  const std::string doc = ReadFileToString(PERFBENCH_PINNED_DIGESTS);
  double pinned_seed = 0.0;
  std::string hex;
  if (!JsonFindNumber(doc, "seed", &pinned_seed) ||
      !JsonFindString(doc, workload, &hex)) {
    throw ConfigError(std::string("perfbench: no seed or no digest for ") + workload +
                      " in " + PERFBENCH_PINNED_DIGESTS);
  }
  return static_cast<std::uint64_t>(pinned_seed) == seed ? hex : "";
}

// ---- Spans -----------------------------------------------------------------------

/// In-memory span log of the traced pass; written out once at the end.
class Tracer {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;
  struct Span {
    const char* name;
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
    std::size_t parent;
    std::uint64_t run_seed;
  };

  std::size_t Begin(const char* name, std::size_t parent, std::uint64_t run_seed) {
    spans_.push_back({name, NowNs(), 0, parent, run_seed});
    return spans_.size() - 1;
  }
  void End(std::size_t id) { spans_[id].t1_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (complete events), loadable in Perfetto.
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw ConfigError("perfbench: cannot write " + path);
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %lld, \"run_seed\": \"%llu\"}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.t0_ns - base) / 1e3,
                   static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, i,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.run_seed));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it free.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, std::size_t parent = Tracer::kNone,
            std::uint64_t run_seed = 0)
      : t_(t), id_(t != nullptr ? t->Begin(name, parent, run_seed) : 0) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::size_t id() const { return id_; }

 private:
  Tracer* t_;
  std::size_t id_;
};

// ---- Phase histograms (obs layer) -------------------------------------------------

/// Sum/count of one existing phase histogram at a point in time. Its buckets
/// are x4 wide, so only sums and counts (means) are meaningful.
struct PhaseTotals {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

obs::Histogram& PhaseHistogram(obs::Phase p) {
  return obs::Registry::Global().GetHistogram(
      std::string("phase_") + obs::PhaseName(p) + "_ns", obs::LatencyBoundsNs());
}

struct PhaseSnapshot {
  PhaseTotals at[obs::kNumPhases];
  std::uint64_t trials_total = 0;
  std::uint64_t instructions_total = 0;

  static PhaseSnapshot Take() {
    PhaseSnapshot s;
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      const obs::Histogram& h = PhaseHistogram(static_cast<obs::Phase>(i));
      s.at[i] = {h.Sum(), h.Count()};
    }
    obs::Registry& reg = obs::Registry::Global();
    s.trials_total = reg.GetCounter("campaign_trials_total").Value();
    s.instructions_total = reg.GetCounter("guest_instructions_total").Value();
    return s;
  }
  PhaseTotals Delta(const PhaseSnapshot& before, obs::Phase p) const {
    const auto i = static_cast<std::size_t>(p);
    return {at[i].sum - before.at[i].sum, at[i].count - before.at[i].count};
  }
};

double MeanNs(const PhaseTotals& t) {
  return Ratio(static_cast<double>(t.sum), static_cast<double>(t.count));
}

// ---- Inputs and configs -------------------------------------------------------------

apps::AppSpec BuildApp(const Workload& w, std::uint64_t seed, std::uint64_t k) {
  const std::string app = w.app;
  const std::uint64_t input = AppInputSeed(seed, k);
  if (app == "matvec") return apps::BuildMatvec({.seed = input});
  if (app == "lud") return apps::BuildLud({.seed = input});
  throw ConfigError("perfbench: unknown app " + app);
}

campaign::CampaignConfig MakeConfig(const Workload& w, std::uint64_t campaign_seed) {
  campaign::CampaignConfig config;
  config.runs = w.runs;
  config.seed = campaign_seed;
  config.sample_policy = w.policy;
  config.stop_ci = w.stop_ci;
  return config;
}

// ---- Results -------------------------------------------------------------------------

/// One campaign executed inside a pass.
struct CampaignRun {
  double setup_s = 0.0;
  double trial_s = 0.0;     // trial phase wall time
  double campaign_s = 0.0;  // setup + trial phase + finish
  std::uint64_t committed = 0;
  std::uint64_t executed = 0;  // traced lud: includes trials past the stop
  std::uint64_t infra = 0;
  std::uint64_t instructions = 0;
  std::uint64_t digest = 0;
  double peak_rss_mb = 0.0;  // resident high-water mark during this campaign
  bool ok = true;
  std::string error;  // first failed check, if any
};

/// One trial of a serial traced pass, for tail attribution.
struct TrialSample {
  double host_ms;
  std::uint64_t run_seed;
  campaign::Outcome outcome;
  vm::TerminationKind kind;
  std::uint64_t instructions;
};

/// Per-layer accumulators of a traced pass.
struct Layers {
  std::vector<double> build_ms, engine_new_ms, golden_ms, plan_ms;
  std::vector<double> start_us, arm_us, trial_self_us;
  std::vector<double> journal_us, store_us, on_done_us, store_finish_ms;
  std::vector<double> peak_bytes;
  double messages = 0, polls = 0, publishes = 0;
  double tainted_reads = 0, tainted_writes = 0;
  double chain_hits = 0, tlb_hits = 0, tlb_misses = 0;
  double store_bytes = 0, store_records = 0;
  double tb_translations = 0, tb_reuses = 0, tb_flushes = 0;
  double iteration_ns = 0, attributed_ns = 0;  // coverage
  double busy_ns = 0, busy_capacity_ns = 0;    // parallel busy fraction
  PhaseSnapshot phases_before, phases_after;
  std::vector<TrialSample> trials;
};

struct PassResult {
  std::vector<CampaignRun> campaigns;
  std::vector<double> trial_ms;  // per-trial closed-loop latency
  Layers layers;                 // traced pass only
  std::uint64_t first_digest = 0;
  double wall_s = 0.0;
  std::vector<double> calib_ms;  // host speed probe, one per campaign

  std::uint64_t committed() const {
    std::uint64_t n = 0;
    for (const CampaignRun& c : campaigns) n += c.committed;
    return n;
  }
  double trial_s() const {
    double s = 0;
    for (const CampaignRun& c : campaigns) s += c.trial_s;
    return s;
  }
  /// Median over the pass's campaigns of a per-campaign figure: a burst of
  /// host noise then moves one campaign, not the result.
  template <typename F>
  double MedianOver(F per_campaign) const {
    std::vector<double> v;
    for (const CampaignRun& c : campaigns) v.push_back(per_campaign(c));
    return Median(v);
  }
  double trials_per_s() const {
    return MedianOver([](const CampaignRun& c) {
      return Ratio(static_cast<double>(c.committed), c.trial_s);
    });
  }
};

// ---- Shared by the drivers' loops -----------------------------------------------

/// Closed-loop trial latency, start to start, from the trial_chaos hook that
/// both drivers call right before each trial: the gap between two calls on
/// one thread is one trial as that worker (or the serial loop) saw it,
/// commit included.
class TrialClock {
 public:
  /// Returns the time of the call.
  std::uint64_t OnTrialStart() {
    const std::uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t& last = last_[std::this_thread::get_id()];
    if (last != 0) ms_.push_back((now - last) / 1e6);
    last = now;
    return now;
  }
  /// Close the campaign: the last trial of each worker has no successor.
  void EndCampaign(std::vector<double>* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    out->insert(out->end(), ms_.begin(), ms_.end());
    ms_.clear();
    last_.clear();
  }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, std::uint64_t> last_;
  std::vector<double> ms_;
};

/// Per-campaign scratch paths of the record path (the journal is the traced
/// pass's probe).
struct WorkPaths {
  std::string dir, journal, store, status;
  explicit WorkPaths(const std::string& root)
      : dir(root + "/campaign"),
        journal(dir + "/journal.bin"),
        store(dir + "/store"),
        status(dir + "/status.json") {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
};

/// Status channel at chaser_run's `--status-every 500`: two rewrites per
/// campaign. The default cadence (100 fsync'd rewrites per campaign) made
/// matvec throughput track the disk's fsync latency, which moved it by up to
/// 2x between runs on a shared VM.
obs::TelemetryOptions StatusOptions(const WorkPaths& paths) {
  obs::TelemetryOptions options;
  options.status_path = paths.status;
  options.status_every = 500;
  return options;
}

store::CtrStoreInfo StoreIdentity(const campaign::CampaignConfig& config,
                                  const apps::AppSpec& spec) {
  store::CtrStoreInfo identity;
  identity.campaign_seed = config.seed;
  identity.app = spec.name;
  identity.sample_policy = config.sample_policy;
  return identity;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

/// Scan the CTR store back and compare it with the committed records.
std::string CheckStore(const std::string& dir, const std::vector<RunRecord>& committed) {
  store::CtrStoreScanner scanner(dir);
  std::vector<RunRecord> scanned;
  RunRecord rec;
  while (scanner.Next(&rec)) scanned.push_back(rec);
  if (scanner.truncated() || !scanner.sealed()) return "store scan: not sealed";
  if (scanned.size() != committed.size()) {
    return StrFormat("store scan: %zu records, committed %zu", scanned.size(),
                     committed.size());
  }
  campaign::CampaignResult a, b;
  for (const RunRecord& r : scanned) a.Accumulate(r, false);
  for (const RunRecord& r : committed) b.Accumulate(r, false);
  if (a.benign != b.benign || a.terminated != b.terminated || a.sdc != b.sdc ||
      a.crashed != b.crashed || a.infra != b.infra) {
    return "store scan: outcome counts differ";
  }
  if (DigestOf(scanned) != DigestOf(committed)) return "store scan: records differ";
  return "";
}

// ---- Serial workload: production driver ---------------------------------------------

/// One serial campaign through Campaign::Run with the CTR store as record
/// sink and a Telemetry writing the status channel. Set-up ends when the
/// first trial starts.
CampaignRun RunSerialCampaign(const Workload& w, std::uint64_t seed, std::uint64_t k,
                              const std::string& work_root,
                              std::vector<double>* trial_ms) {
  CampaignRun out;
  ResetPeakRss();
  const std::uint64_t t_start = NowNs();
  // Everything the driver's config borrows is declared before the driver.
  const WorkPaths paths(work_root);
  TrialClock clock;
  std::uint64_t t_trials = 0;
  obs::Telemetry telemetry(StatusOptions(paths));
  apps::AppSpec spec = BuildApp(w, seed, k);
  campaign::CampaignConfig config = MakeConfig(w, CampaignSeed(seed, k));
  store::CtrStoreWriter writer(paths.store, StoreIdentity(config, spec));
  config.record_sink = [&writer](const RunRecord& r) { writer.Add(r); };
  config.telemetry = &telemetry;
  config.trial_chaos = [&clock, &t_trials](std::uint64_t, unsigned) {
    const std::uint64_t now = clock.OnTrialStart();
    if (t_trials == 0) t_trials = now;
  };
  campaign::Campaign driver(std::move(spec), std::move(config));
  driver.RunGolden();
  const campaign::CampaignResult result = driver.Run();
  const std::uint64_t t_finish = NowNs();
  writer.Finish();
  telemetry.Finish();
  const std::uint64_t t_end = NowNs();
  out.peak_rss_mb = PeakRssMb();
  clock.EndCampaign(trial_ms);
  out.setup_s = (t_trials - t_start) / 1e9;
  out.trial_s = (t_finish - t_trials) / 1e9;
  out.campaign_s = (t_end - t_start) / 1e9;
  out.committed = result.records.size();
  out.executed = out.committed;
  out.infra = result.infra;
  for (const RunRecord& r : result.records) out.instructions += r.instructions;
  out.digest = DigestOf(result.records);
  // Verification, outside every timing above.
  out.error = CheckStore(paths.store, result.records);
  out.ok = out.error.empty();
  fs::remove_all(paths.dir);
  return out;
}

// ---- Serial workload: composed loop (traced pass) -------------------------------------

/// Detaches the calling thread from a Telemetry on every exit path, so no
/// phase scope is left pointing at a destroyed profiler.
class ThreadAttachment {
 public:
  explicit ThreadAttachment(obs::Telemetry* t) : t_(t) { t_->AttachThread("main"); }
  ~ThreadAttachment() { Detach(); }
  ThreadAttachment(const ThreadAttachment&) = delete;
  ThreadAttachment& operator=(const ThreadAttachment&) = delete;
  void Detach() {
    if (t_ != nullptr) t_->DetachThread();
    t_ = nullptr;
  }

 private:
  obs::Telemetry* t_;
};

/// One serial campaign composed from the same public calls Campaign::Run
/// makes: TrialEngine, RunTrialContained, the record sink
/// (CtrStoreWriter::Add) and Telemetry::OnTrialDone, with a span around each
/// call, Start/Arm/TrialJournal::Append probes around each trial (not counted
/// in its time), and per-layer accumulation into `layers`. The untraced pass
/// of the same run checks it against Campaign::Run through the record digest.
CampaignRun RunComposedCampaign(const Workload& w, std::uint64_t seed,
                                std::uint64_t k, const std::string& work_root,
                                Tracer* tracer, Layers* layers,
                                std::vector<double>* trial_ms) {
  CampaignRun out;
  ResetPeakRss();
  const std::uint64_t t_start = NowNs();
  const SpanScope campaign_span(tracer, "campaign", Tracer::kNone, k);

  // Declaration order is teardown order in reverse: the engine borrows the
  // spec, config, inject ranks, golden profile, TB cache and telemetry, so it
  // goes last.
  const WorkPaths paths(work_root);
  apps::AppSpec spec;
  campaign::CampaignConfig config;
  std::set<Rank> ranks;
  campaign::GoldenProfile golden;
  std::unique_ptr<tcg::SharedTbCache> cache;
  obs::Telemetry telemetry(StatusOptions(paths));
  std::unique_ptr<ThreadAttachment> attachment;
  std::unique_ptr<campaign::TrialJournal> journal;
  std::unique_ptr<store::CtrStoreWriter> writer;
  std::unique_ptr<campaign::TrialEngine> engine;
  {
    const SpanScope setup(tracer, "campaign.setup", campaign_span.id());
    std::uint64_t t = NowNs();
    spec = BuildApp(w, seed, k);
    layers->build_ms.push_back((NowNs() - t) / 1e6);
    config = MakeConfig(w, CampaignSeed(seed, k));
    ranks = {0};  // the drivers' default inject rank
    // Mirrors the Campaign constructor: one campaign-owned shared TB cache.
    cache = std::make_unique<tcg::SharedTbCache>(config.tb_cache_cap);
    config.shared_tb_cache = cache.get();
    config.telemetry = &telemetry;
    telemetry.BeginCampaign(spec.name, config.runs);
    attachment = std::make_unique<ThreadAttachment>(&telemetry);
    {
      const SpanScope s(tracer, "campaign.engine_new", setup.id());
      t = NowNs();
      engine = std::make_unique<campaign::TrialEngine>(spec, config, ranks);
      layers->engine_new_ms.push_back((NowNs() - t) / 1e6);
    }
    {
      const SpanScope s(tracer, "campaign.golden", setup.id());
      t = NowNs();
      golden = engine->RunGolden();
      engine->AdoptGolden(golden);
      layers->golden_ms.push_back((NowNs() - t) / 1e6);
    }
    {
      const SpanScope s(tracer, "store.open", setup.id());
      writer = std::make_unique<store::CtrStoreWriter>(paths.store,
                                                       StoreIdentity(config, spec));
    }
  }
  const std::uint64_t t_trials = NowNs();
  out.setup_s = (t_trials - t_start) / 1e9;

  // Probe inputs: a never-firing command like the golden run's, an image for
  // direct Cluster::Start calls, and a resume journal that every committed
  // record is appended to, as Campaign::Run does with config.journal_path.
  // RunTrial re-arms and restarts after every probe, which the record digest
  // checks; the journal must replay the committed records.
  std::uint64_t probe_ns = NowNs();
  std::vector<RunRecord> replayed;
  journal = std::make_unique<campaign::TrialJournal>(paths.journal, config.seed,
                                                     spec.name, &replayed);
  probe_ns = NowNs() - probe_ns;
  core::InjectionCommand probe_cmd;
  probe_cmd.target_program = spec.program.name;
  probe_cmd.target_classes = spec.fault_classes;
  probe_cmd.trigger = std::make_shared<core::NeverTrigger>();
  probe_cmd.injector = core::ProbabilisticInjector::Create(1);
  probe_cmd.trace = config.trace;
  probe_cmd.seed = config.seed;
  const auto probe_image = std::make_shared<const guest::Program>(spec.program);
  obs::Histogram& execute_hist = PhaseHistogram(obs::Phase::kExecute);

  const std::vector<std::uint64_t> seeds =
      campaign::Campaign::DeriveTrialSeeds(config.seed, config.runs);
  std::vector<RunRecord> records;
  records.reserve(seeds.size());
  for (const std::uint64_t run_seed : seeds) {
    if (engine != nullptr) {
      const std::uint64_t a0 = NowNs();
      {
        const SpanScope s(tracer, "core.arm", Tracer::kNone, run_seed);
        engine->chaser().Arm(probe_cmd, ranks);
      }
      const std::uint64_t a1 = NowNs();
      {
        const SpanScope s(tracer, "mpi.start", Tracer::kNone, run_seed);
        engine->cluster().Start(probe_image);
      }
      const std::uint64_t a2 = NowNs();
      layers->arm_us.push_back((a1 - a0) / 1e3);
      layers->start_us.push_back((a2 - a1) / 1e3);
      probe_ns += a2 - a0;
    }
    const std::uint64_t exec_before = execute_hist.Sum();
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    RunRecord rec;
    {
      const SpanScope iteration(tracer, "trial", Tracer::kNone, run_seed);
      t0 = NowNs();
      {
        const SpanScope s(tracer, "campaign.run_trial", iteration.id(), run_seed);
        rec = campaign::RunTrialContained(&engine, spec, config, ranks, golden,
                                          run_seed);
        t1 = NowNs();
      }
      {
        const SpanScope s(tracer, "store.append", iteration.id(), run_seed);
        writer->Add(rec);
        t2 = NowNs();
      }
      {
        const SpanScope s(tracer, "obs.on_trial_done", iteration.id(), run_seed);
        telemetry.OnTrialDone(campaign::ToTrialStats(rec, false), t0, t1);
        t3 = NowNs();
      }
    }
    {
      const std::uint64_t j0 = NowNs();
      {
        const SpanScope s(tracer, "campaign.journal.append", Tracer::kNone, run_seed);
        journal->Append(rec);
      }
      const std::uint64_t j1 = NowNs();
      layers->journal_us.push_back((j1 - j0) / 1e3);
      probe_ns += j1 - j0;
    }
    const double host_ms = (t3 - t0) / 1e6;
    trial_ms->push_back(host_ms);
    if (rec.outcome == campaign::Outcome::kInfra) ++out.infra;
    out.instructions += rec.instructions;
    const double exec_ns = static_cast<double>(execute_hist.Sum() - exec_before);
    layers->trial_self_us.push_back(((t1 - t0) - exec_ns) / 1e3);
    layers->store_us.push_back((t2 - t1) / 1e3);
    layers->on_done_us.push_back((t3 - t2) / 1e3);
    layers->iteration_ns += static_cast<double>(t3 - t0);
    layers->attributed_ns += exec_ns + static_cast<double>(t3 - t1);
    if (engine != nullptr) {
      const hub::HubStats hs = engine->chaser().hub().stats();
      layers->polls += static_cast<double>(hs.polls);
      layers->publishes += static_cast<double>(hs.publishes);
      layers->messages += static_cast<double>(engine->cluster().messages_delivered());
    }
    layers->tainted_reads += static_cast<double>(rec.tainted_reads);
    layers->tainted_writes += static_cast<double>(rec.tainted_writes);
    layers->peak_bytes.push_back(static_cast<double>(rec.peak_tainted_bytes));
    layers->chain_hits += static_cast<double>(rec.tb_chain_hits);
    layers->tlb_hits += static_cast<double>(rec.tlb_hits);
    layers->tlb_misses += static_cast<double>(rec.tlb_misses);
    layers->trials.push_back({host_ms, run_seed, rec.outcome, rec.kind, rec.instructions});
    records.push_back(std::move(rec));
  }
  const std::uint64_t t_finish = NowNs();
  {
    const SpanScope s(tracer, "store.finish", campaign_span.id());
    writer->Finish();
    layers->store_finish_ms.push_back((NowNs() - t_finish) / 1e6);
  }
  attachment->Detach();
  telemetry.Finish();
  const std::uint64_t t_end = NowNs();
  out.peak_rss_mb = PeakRssMb();
  out.trial_s = (t_finish - t_trials - probe_ns) / 1e9;
  out.campaign_s = (t_end - t_start - probe_ns) / 1e9;
  out.committed = records.size();
  out.executed = records.size();
  out.digest = DigestOf(records);
  const tcg::SharedTbCache::Stats cs = cache->stats();
  layers->tb_translations += static_cast<double>(cs.translations);
  layers->tb_reuses += static_cast<double>(cs.reuses);
  layers->tb_flushes += static_cast<double>(cs.epoch_flushes);
  // Verification, outside every timing above.
  layers->store_bytes += static_cast<double>(DirBytes(paths.store));
  layers->store_records += static_cast<double>(records.size());
  out.error = CheckStore(paths.store, records);
  journal.reset();
  replayed.clear();
  campaign::TrialJournal(paths.journal, config.seed, spec.name, &replayed);
  if (out.error.empty() && DigestOf(replayed) != out.digest) {
    out.error = "journal replay: records differ";
  }
  out.ok = out.error.empty();
  // Engines borrow spec/config/ranks and the cache: release them first.
  engine.reset();
  fs::remove_all(paths.dir);
  return out;
}

// ---- Parallel sampled campaign ------------------------------------------------------

CampaignRun RunParallelCampaign(const Workload& w, std::uint64_t seed,
                                std::uint64_t k, Tracer* tracer, Layers* layers,
                                std::vector<double>* trial_ms) {
  CampaignRun out;
  const bool traced = tracer != nullptr;
  ResetPeakRss();
  const std::uint64_t t_start = NowNs();
  const SpanScope campaign_span(tracer, "campaign", Tracer::kNone, k);
  TrialClock clock;
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<campaign::ParallelCampaign> driver;
  {
    const SpanScope setup(tracer, "campaign.setup", campaign_span.id());
    std::uint64_t t = NowNs();
    apps::AppSpec spec = BuildApp(w, seed, k);
    if (traced) layers->build_ms.push_back((NowNs() - t) / 1e6);
    campaign::CampaignConfig config = MakeConfig(w, CampaignSeed(seed, k));
    config.trial_chaos = [&clock](std::uint64_t, unsigned) { clock.OnTrialStart(); };
    if (traced) {
      telemetry = std::make_unique<obs::Telemetry>(obs::TelemetryOptions{});
      config.telemetry = telemetry.get();
    }
    {
      const SpanScope s(tracer, "campaign.engine_new", setup.id());
      t = NowNs();
      driver = std::make_unique<campaign::ParallelCampaign>(std::move(spec),
                                                            std::move(config), w.jobs);
      if (traced) layers->engine_new_ms.push_back((NowNs() - t) / 1e6);
    }
    {
      const SpanScope s(tracer, "campaign.golden", setup.id());
      t = NowNs();
      driver->RunGolden();
      if (traced) layers->golden_ms.push_back((NowNs() - t) / 1e6);
    }
    if (traced) {
      // The workers each rebuild this plan from the golden profile when their
      // engine adopts it; time one build directly.
      const SpanScope s(tracer, "campaign.sampling.plan", setup.id());
      t = NowNs();
      const campaign::SamplingPlan plan =
          campaign::SamplingPlan::Build(driver->golden().sites);
      layers->plan_ms.push_back((NowNs() - t) / 1e6);
    }
  }
  const std::uint64_t t_trials = NowNs();
  out.setup_s = (t_trials - t_start) / 1e9;
  const PhaseSnapshot before = traced ? PhaseSnapshot::Take() : PhaseSnapshot{};
  campaign::CampaignResult result;
  {
    const SpanScope s(tracer, "campaign.parallel.run", campaign_span.id());
    result = driver->Run();
  }
  const std::uint64_t t_end = NowNs();
  out.peak_rss_mb = PeakRssMb();
  if (telemetry != nullptr) telemetry->Finish();
  clock.EndCampaign(trial_ms);
  out.trial_s = (t_end - t_trials) / 1e9;
  out.campaign_s = (t_end - t_start) / 1e9;
  out.committed = result.runs;
  out.executed = result.runs;
  out.infra = result.infra;
  for (const RunRecord& r : result.records) out.instructions += r.instructions;
  out.digest = DigestOf(result.records);
  if (traced) {
    const PhaseSnapshot after = PhaseSnapshot::Take();
    out.executed = after.trials_total - before.trials_total;
    layers->busy_ns +=
        static_cast<double>(after.Delta(before, obs::Phase::kTrial).sum);
    layers->busy_capacity_ns +=
        static_cast<double>(w.jobs) * static_cast<double>(t_end - t_trials);
    const tcg::SharedTbCache::Stats cs = driver->shared_tb_cache()->stats();
    layers->tb_translations += static_cast<double>(cs.translations);
    layers->tb_reuses += static_cast<double>(cs.reuses);
    layers->tb_flushes += static_cast<double>(cs.epoch_flushes);
    for (const RunRecord& r : result.records) {
      layers->tainted_reads += static_cast<double>(r.tainted_reads);
      layers->tainted_writes += static_cast<double>(r.tainted_writes);
      layers->peak_bytes.push_back(static_cast<double>(r.peak_tainted_bytes));
      layers->chain_hits += static_cast<double>(r.tb_chain_hits);
      layers->tlb_hits += static_cast<double>(r.tlb_hits);
      layers->tlb_misses += static_cast<double>(r.tlb_misses);
    }
  }
  return out;
}

/// Campaign 0 of a parallel workload through the serial driver,
/// Campaign::Run: ParallelCampaign must commit the same records, stop point
/// included.
std::uint64_t SerialReferenceDigest(const Workload& w, std::uint64_t seed) {
  campaign::Campaign driver(BuildApp(w, seed, 0), MakeConfig(w, CampaignSeed(seed, 0)));
  return DigestOf(driver.Run().records);
}

// ---- Passes --------------------------------------------------------------------------

/// A fixed host workload (multiply-xorshift updates scattered over an 8 MiB
/// table, so shared-cache and memory contention show), timed between
/// campaigns. It moves only with the host's speed, so a reader comparing runs
/// can tell a slower machine from a slower program.
double CalibrationMs() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 20);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const std::uint64_t t0 = NowNs();
  for (int i = 0; i < (1 << 18); ++i) {
    x = SplitMix(x);
    table[x & (table.size() - 1)] += x;
  }
  const std::uint64_t t1 = NowNs();
  static volatile std::uint64_t sink = 0;
  sink = sink + table[x & (table.size() - 1)];
  return (t1 - t0) / 1e6;
}

PassResult RunPass(const Workload& w, std::uint64_t seed, double seconds,
                   std::uint64_t min_campaigns, const std::string& work_root,
                   Tracer* tracer) {
  PassResult pass;
  const std::uint64_t t0 = NowNs();
  if (tracer != nullptr) pass.layers.phases_before = PhaseSnapshot::Take();
  for (std::uint64_t k = 0;; ++k) {
    pass.calib_ms.push_back(CalibrationMs());
    if (w.jobs != 0) {
      pass.campaigns.push_back(RunParallelCampaign(
          w, seed, k, tracer, tracer != nullptr ? &pass.layers : nullptr,
          &pass.trial_ms));
    } else if (tracer != nullptr) {
      pass.campaigns.push_back(RunComposedCampaign(w, seed, k, work_root, tracer,
                                                   &pass.layers, &pass.trial_ms));
    } else {
      pass.campaigns.push_back(RunSerialCampaign(w, seed, k, work_root, &pass.trial_ms));
    }
    if (k + 1 >= min_campaigns && (NowNs() - t0) / 1e9 >= seconds) break;
  }
  if (tracer != nullptr) pass.layers.phases_after = PhaseSnapshot::Take();
  pass.first_digest = pass.campaigns.front().digest;
  pass.wall_s = (NowNs() - t0) / 1e9;
  return pass;
}

// ---- Reporting ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    s += StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  return s + "}";
}

/// Lower quartile over campaigns of the per-campaign resident high-water
/// mark: the footprint a campaign needs. A rare trial whose corrupted MPI
/// count makes the runtime allocate a huge payload lifts single campaigns by
/// 8 MiB to hundreds of MiB; taking the lower quartile keeps those excursions
/// from deciding the figure.
double LowerQuartileRss(const PassResult& p) {
  std::vector<double> v;
  for (const CampaignRun& c : p.campaigns) v.push_back(c.peak_rss_mb);
  return Quantile(v, 0.25);
}

/// `min_campaigns` is the fixed prefix of campaigns every run executes; the
/// committed-trial count is averaged over exactly those, so it is the same
/// on every run of a seed.
std::vector<Metric> EndToEndMetrics(const PassResult& p, std::uint64_t min_campaigns) {
  double committed = 0;
  for (std::uint64_t k = 0; k < min_campaigns; ++k) {
    committed += static_cast<double>(p.campaigns[k].committed);
  }
  const double tail_p = kTailPct;
  const double block = std::round(10.0 / (1.0 - tail_p / 100.0));
  std::printf("trial latency: %zu trials; tail = p%g per block of %.0f trials "
              "(10 beyond it), median over %.0f blocks\n",
              p.trial_ms.size(), tail_p, block,
              std::floor(static_cast<double>(p.trial_ms.size()) / block));
  return {
      {"trials_per_s", p.trials_per_s(), "1/s"},
      {"trial_ms_p50", Median(p.trial_ms), "ms"},
      {"trial_ms_tail", BlockTail(p.trial_ms, tail_p), "ms"},
      {"setup_s", p.MedianOver([](const CampaignRun& c) { return c.setup_s; }), "s"},
      {"campaign_s", p.MedianOver([](const CampaignRun& c) { return c.campaign_s; }), "s"},
      {"guest_minsn_per_s", p.MedianOver([](const CampaignRun& c) {
         return Ratio(static_cast<double>(c.instructions), c.trial_s * 1e6);
       }), "Minsn/s"},
      {"peak_rss_mb", LowerQuartileRss(p), "MB"},
      {"trials_committed", committed / static_cast<double>(min_campaigns), "count"},
  };
}

/// Share of trial time covered by no leaf benchmark span and no obs phase.
/// Serial: the RunTrialContained span minus its execute phase, over the whole
/// closed-loop trial. Parallel: the per-worker trial phase minus execute.
double UnattributedFrac(const Workload& w, const PassResult& p) {
  const Layers& L = p.layers;
  if (w.jobs == 0) return 1.0 - Ratio(L.attributed_ns, L.iteration_ns);
  const PhaseTotals trial = L.phases_after.Delta(L.phases_before, obs::Phase::kTrial);
  const PhaseTotals execute =
      L.phases_after.Delta(L.phases_before, obs::Phase::kExecute);
  return 1.0 - Ratio(static_cast<double>(execute.sum), static_cast<double>(trial.sum));
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const PassResult& p,
                                    double untraced_trials_per_s) {
  const Layers& L = p.layers;
  const PhaseSnapshot& a = L.phases_after;
  const PhaseSnapshot& b = L.phases_before;
  const PhaseTotals execute = a.Delta(b, obs::Phase::kExecute);
  const PhaseTotals translate = a.Delta(b, obs::Phase::kTranslate);
  const double trials = static_cast<double>(p.committed());
  double executed = 0;
  for (const CampaignRun& c : p.campaigns) executed += static_cast<double>(c.executed);
  // Every executed trial, including lud trials past the stop point.
  const double instructions =
      static_cast<double>(a.instructions_total - b.instructions_total);
  const double campaigns = static_cast<double>(p.campaigns.size());
  const bool serial = w.jobs == 0;
  constexpr double kLayerTail = 0.99;
  const double traced_tps = p.trials_per_s();
  return {
      {"apps.build_ms", Median(L.build_ms), "ms"},
      {"campaign.engine_new_ms", Median(L.engine_new_ms), "ms"},
      {"campaign.golden_ms", Median(L.golden_ms), "ms"},
      {"mpi.start_us_p50", Median(L.start_us), "us"},
      {"core.arm_us_p50", Median(L.arm_us), "us"},
      {"campaign.trial_self_us_p50", Median(L.trial_self_us), "us"},
      {"mpi.messages_per_trial", serial ? Ratio(L.messages, trials) : 0.0, "count"},
      {"vm.execute_ms", Ratio(static_cast<double>(execute.sum) / 1e6,
                              static_cast<double>(execute.count)), "ms"},
      {"vm.ns_per_insn", Ratio(static_cast<double>(execute.sum), instructions), "ns"},
      {"vm.tlb_hit_ratio", Ratio(L.tlb_hits, L.tlb_hits + L.tlb_misses), "ratio"},
      {"vm.chain_hits_per_kinsn", Ratio(L.chain_hits * 1e3, instructions), "count"},
      {"tcg.translations", Ratio(L.tb_translations, campaigns), "count"},
      {"tcg.reuse_ratio", Ratio(L.tb_reuses, L.tb_reuses + L.tb_translations), "ratio"},
      {"tcg.translate_ms", Ratio(static_cast<double>(translate.sum) / 1e6, campaigns), "ms"},
      {"tcg.epoch_flushes", Ratio(L.tb_flushes, campaigns), "count"},
      {"core.inject_ns_mean", MeanNs(a.Delta(b, obs::Phase::kInject)), "ns"},
      {"taint.reads_per_trial", Ratio(L.tainted_reads, trials), "count"},
      {"taint.writes_per_trial", Ratio(L.tainted_writes, trials), "count"},
      {"taint.peak_bytes_p50", Median(L.peak_bytes), "bytes"},
      {"taint.propagate_ns_mean", MeanNs(a.Delta(b, obs::Phase::kTaintPropagate)), "ns"},
      {"hub.polls_per_trial", Ratio(L.polls, trials), "count"},
      {"hub.publishes_per_trial", Ratio(L.publishes, trials), "count"},
      {"hub.poll_ns_mean", MeanNs(a.Delta(b, obs::Phase::kHubPoll)), "ns"},
      {"hub.publish_ns_mean", MeanNs(a.Delta(b, obs::Phase::kHubPublish)), "ns"},
      {"campaign.journal.append_us_p50", Median(L.journal_us), "us"},
      {"campaign.journal.append_us_tail", Quantile(L.journal_us, kLayerTail), "us"},
      {"store.append_us_p50", Median(L.store_us), "us"},
      {"store.finish_ms", Median(L.store_finish_ms), "ms"},
      {"store.bytes_per_record", Ratio(L.store_bytes, L.store_records), "bytes"},
      {"obs.on_trial_done_us_p50", Median(L.on_done_us), "us"},
      {"obs.on_trial_done_us_tail", Quantile(L.on_done_us, kLayerTail), "us"},
      {"campaign.parallel.busy_frac", Ratio(L.busy_ns, L.busy_capacity_ns), "ratio"},
      {"campaign.sampling.plan_ms", Median(L.plan_ms), "ms"},
      {"campaign.sampling.useful_ratio",
       w.policy == campaign::SamplePolicy::kUniform ? 0.0 : Ratio(trials, executed),
       "ratio"},
      {"coverage.unattributed_frac", UnattributedFrac(w, p), "ratio"},
      {"host.calib_ms", Median(p.calib_ms), "ms"},
      {"coverage.tracing_overhead_frac",
       Ratio(untraced_trials_per_s - traced_tps, untraced_trials_per_s), "ratio"},
  };
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintTails(const Layers& L) {
  std::vector<TrialSample> t = L.trials;
  const std::size_t n = std::min<std::size_t>(8, t.size());
  std::partial_sort(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(n), t.end(),
                    [](const TrialSample& a, const TrialSample& b) {
                      return a.host_ms > b.host_ms;
                    });
  std::printf("slowest trials (of %zu):\n", L.trials.size());
  std::printf("  %-20s %-10s %-14s %12s %10s %12s\n", "run_seed", "outcome",
              "termination", "guest_insn", "host_ms", "ns/insn");
  for (std::size_t i = 0; i < n; ++i) {
    const TrialSample& s = t[i];
    std::printf("  %-20llu %-10s %-14s %12llu %10.3f %12.1f\n",
                static_cast<unsigned long long>(s.run_seed),
                campaign::OutcomeName(s.outcome), vm::TerminationKindName(s.kind),
                static_cast<unsigned long long>(s.instructions), s.host_ms,
                Ratio(s.host_ms * 1e6, static_cast<double>(s.instructions)));
  }
}

void PrintPass(const char* label, const PassResult& p) {
  std::printf("%s pass: %zu campaigns, %llu trials, %.3f s trial phase, %.3f s "
              "wall, campaign-0 digest %s\n",
              label, p.campaigns.size(),
              static_cast<unsigned long long>(p.committed()), p.trial_s(),
              p.wall_s, Hex(p.first_digest).c_str());
  std::printf("  host speed probe: %.3f ms median (fixed calibration kernel; "
              "slower host, larger figure)\n",
              Median(p.calib_ms));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool quick = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "chaser_perfbench: %s\nusage: chaser_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--quick]\n"
               "       chaser_perfbench --list\n",
               msg);
  std::exit(2);
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const std::string pinned = PinnedDigest(w->name, args.seed);
  const std::string work_root = StrFormat("%s/%s-%d", PERFBENCH_WORK_DIR, w->name,
                                          static_cast<int>(getpid()));
  fs::create_directories(work_root);
  const std::uint64_t min_campaigns = args.quick ? 1 : w->min_campaigns;
  const double seconds = args.quick ? 0.0 : args.seconds;

  std::printf("workload %s: app %s, %s, campaign budget %llu trials\n", w->name,
              w->app, w->jobs == 0 ? "serial" : StrFormat("%u workers", w->jobs).c_str(),
              static_cast<unsigned long long>(w->runs));
  std::printf("context: seed %llu, nproc %u, compiler %s, build %s\n",
              static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const PassResult& p) {
    for (const CampaignRun& c : p.campaigns) {
      attempted += c.committed;
      failed += c.ok ? c.infra : c.committed;
      if (!c.ok) failures.push_back(c.error);
    }
  };

  std::vector<Metric> metrics;
  PassResult main_pass;
  if (args.trace == 0) {
    main_pass = RunPass(*w, args.seed, seconds, min_campaigns, work_root, nullptr);
    account(main_pass);
    PrintPass("untraced", main_pass);
    metrics = EndToEndMetrics(main_pass, min_campaigns);
    PrintMetrics("end-to-end metrics", metrics);
  } else {
    Tracer tracer;
    main_pass = RunPass(*w, args.seed, seconds, min_campaigns, work_root, &tracer);
    account(main_pass);
    PrintPass("traced", main_pass);
    const PassResult untraced =
        RunPass(*w, args.seed, seconds / 2, min_campaigns, work_root, nullptr);
    account(untraced);
    PrintPass("untraced", untraced);
    if (untraced.first_digest != main_pass.first_digest) {
      failures.push_back("traced and untraced passes committed different records");
      failed += main_pass.campaigns.front().committed;
    }
    metrics = PerLayerMetrics(*w, main_pass, untraced.trials_per_s());
    PrintMetrics("per-layer metrics", metrics);
    const double traced_tps = main_pass.trials_per_s();
    const double untraced_tps = untraced.trials_per_s();
    const Layers& L = main_pass.layers;
    std::printf("coverage: %.1f%% of trial time in no leaf span or phase",
                100.0 * UnattributedFrac(*w, main_pass));
    if (w->jobs == 0) {
      std::printf(" (the Start + Arm probes, %.1f us at p50, match %.0f%% of its "
                  "%.1f us p50)",
                  Median(L.start_us) + Median(L.arm_us),
                  100.0 * Ratio(Median(L.start_us) + Median(L.arm_us),
                                Median(L.trial_self_us)),
                  Median(L.trial_self_us));
    }
    std::printf("\ntracing overhead: %+.2f trials/s (traced %.2f - untraced %.2f)\n",
                traced_tps - untraced_tps, traced_tps, untraced_tps);
    if (w->jobs == 0) {
      const PhaseTotals execute = L.phases_after.Delta(L.phases_before, obs::Phase::kExecute);
      const double explained_us =
          Median(L.start_us) + Median(L.arm_us) + MeanNs(execute) / 1e3;
      const double p50_us = Median(untraced.trial_ms) * 1e3;
      std::printf("accounting: Start p50 + Arm p50 + mean execute = %.1f us = %.0f%% "
                  "of the untraced trial p50 (%.1f us)\n",
                  explained_us, 100.0 * Ratio(explained_us, p50_us), p50_us);
      PrintTails(L);
    }
    const std::string trace_path =
        StrFormat("%s/%s-seed%llu.trace.json", PERFBENCH_WORK_DIR, w->name,
                  static_cast<unsigned long long>(args.seed));
    tracer.Write(trace_path);
    std::printf("spans: %zu written to %s\n", tracer.spans().size(), trace_path.c_str());
  }

  if (w->jobs != 0) {
    const std::uint64_t ref = SerialReferenceDigest(*w, args.seed);
    std::printf("serial reference (Campaign::Run) campaign-0 digest %s\n",
                Hex(ref).c_str());
    if (ref != main_pass.first_digest) {
      failures.push_back("ParallelCampaign and Campaign::Run committed different records");
      failed += main_pass.campaigns.front().committed;
    }
  }
  if (!pinned.empty() && pinned != Hex(main_pass.first_digest)) {
    failures.push_back("campaign-0 digest " + Hex(main_pass.first_digest) +
                       " differs from the pinned " + pinned);
    failed += main_pass.campaigns.front().committed;
  }
  fs::remove_all(work_root);
  failed = std::min(failed, attempted);
  std::printf("failed_trial_frac %.6g (%llu of %llu attempted)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--list") {
      for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
      return 0;
    } else if (a == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      if (!ParseU64(value(), &args.seed)) Usage("bad --seed");
    } else if (a == "--seconds") {
      std::uint64_t s = 0;
      if (!ParseU64(value(), &s) || s == 0 || s > 120) Usage("bad --seconds");
      args.seconds = static_cast<double>(s);
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace expects 0 or 1");
      args.trace = v == "1" ? 1 : 0;
    } else if (a == "--quick") {
      args.quick = true;
    } else {
      Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaser_perfbench: %s\n", e.what());
    return 2;
  }
}
