// Ablation — what observability costs, channel by channel.
//
// Times an end-to-end serial injection campaign (golden + trials, tracing on)
// with the telemetry layer in each of its states:
//
//   off       CampaignConfig::telemetry == nullptr — every ScopedPhase is a
//             thread_local load + branch; this is the product's default
//   quiet     Telemetry attached, but no trace/status/metrics outputs: phase
//             histograms and registry counters are live, spans are not
//   +export   quiet + a live HTTP scrape server (--obs-port 0) with an
//             in-process scraper hitting /metrics every ~100ms — the
//             observability-plane configuration a watched fleet worker runs
//   +status   quiet + live status.json rewrites (auto cadence)
//   +trace    +status + Chrome trace-event spans buffered and written
//
// Every configuration produces bit-identical campaign results — telemetry
// only observes. The headline numbers are the off-vs-quiet and the
// off-vs-export overheads: both median paired ratios must stay under 2%
// (the guard DESIGN.md §5.5 and §5.10 cite), or the "near-free when
// disabled... cheap when enabled/watched" claim is broken.
// Campaigns are sized by time, not trial count: each workload's run count
// grows until a telemetry-off campaign takes kTargetCampaignMs of CPU, so
// faster trials never push the guarded ratios below the host's noise floor.
// `--json` emits the summary for tools/bench_to_json.sh.
#include <ctime>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "obs/export.h"
#include "obs/telemetry.h"

namespace chaser {
namespace {

enum class ObsMode { kOff, kQuiet, kExport, kStatus, kTrace };

struct ObsConfig {
  const char* name;
  ObsMode mode;
};

constexpr ObsConfig kLadder[] = {
    {"off", ObsMode::kOff},
    {"quiet", ObsMode::kQuiet},
    {"+export", ObsMode::kExport},
    {"+status", ObsMode::kStatus},
    {"+trace", ObsMode::kTrace},
};
constexpr int kConfigs = static_cast<int>(sizeof(kLadder) / sizeof(kLadder[0]));

struct Workload {
  const char* app;
  std::uint64_t runs;  // starting point; SizeByTime scales it up
};

constexpr Workload kWorkloads[] = {{"matvec", 480}, {"lud", 120}};
constexpr int kNumWorkloads =
    static_cast<int>(sizeof(kWorkloads) / sizeof(kWorkloads[0]));

/// CPU milliseconds every telemetry-off campaign must reach: the length at
/// which the <2% guards were first shown to hold (matvec, 480 runs).
constexpr double kTargetCampaignMs = 120.0;

apps::AppSpec BuildApp(const char* name) {
  if (std::strcmp(name, "lud") == 0) return apps::BuildLud({});
  return apps::BuildMatvec({});
}

std::string ScratchDir() {
  static const std::string dir = [] {
    const std::string d =
        (std::filesystem::temp_directory_path() / "chaser_bench_obs").string();
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// One full serial campaign under `mode`; returns process-CPU milliseconds.
/// CPU time, not wall time: a serial campaign is pure compute and quiet-mode
/// telemetry cost is pure compute, so CPU time measures the overhead while
/// staying immune to the scheduler preemption that makes sub-2% wall-clock
/// deltas unresolvable on a shared host. Telemetry construction and Finish()
/// are inside the timed region — a real run pays for both.
double TimeCampaignOnce(const Workload& w, ObsMode mode) {
  campaign::CampaignConfig config;
  config.runs = w.runs;
  config.seed = 42;
  const double start = CpuMs();
  {
    std::unique_ptr<obs::Telemetry> telemetry;
    if (mode != ObsMode::kOff) {
      obs::TelemetryOptions opts;
      if (mode == ObsMode::kExport) opts.obs_port = 0;  // ephemeral
      if (mode == ObsMode::kStatus || mode == ObsMode::kTrace) {
        opts.status_path = ScratchDir() + "/status.json";
      }
      if (mode == ObsMode::kTrace) {
        opts.trace_path = ScratchDir() + "/trace.json";
      }
      telemetry = std::make_unique<obs::Telemetry>(opts);
      config.telemetry = telemetry.get();
    }
    // The +export row pays for being WATCHED, not just for listening: an
    // in-process scraper hammers /metrics at a dashboard-like ~100ms
    // cadence for the campaign's whole duration. CLOCK_PROCESS_CPUTIME_ID
    // charges the scraper thread and the serving thread to the same total.
    std::atomic<bool> stop{false};
    std::thread scraper;
    if (mode == ObsMode::kExport) {
      const std::string endpoint = telemetry->obs_endpoint();
      const std::uint16_t port = static_cast<std::uint16_t>(
          std::stoi(endpoint.substr(endpoint.rfind(':') + 1)));
      scraper = std::thread([port, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
          try {
            (void)obs::HttpGet("127.0.0.1", port, "/metrics");
          } catch (const ChaserError&) {
            // Scrape racing teardown; the campaign result is unaffected.
          }
          usleep(100 * 1000);
        }
      });
    }
    campaign::Campaign c(BuildApp(w.app), config);
    c.Run();
    if (scraper.joinable()) {
      stop.store(true);
      scraper.join();
    }
    if (telemetry != nullptr) telemetry->Finish();
  }
  return CpuMs() - start;
}

/// `w` with its run count scaled until an off campaign takes at least
/// kTargetCampaignMs, judged by the min of three like the ladder below.
/// Iterated because the golden run does not scale with the run count.
Workload SizeByTime(Workload w) {
  (void)TimeCampaignOnce(w, ObsMode::kOff);  // warm-up: cold runs read long
  for (int i = 0; i < 5; ++i) {
    double ms = TimeCampaignOnce(w, ObsMode::kOff);
    for (int rep = 1; rep < 3; ++rep) {
      ms = std::min(ms, TimeCampaignOnce(w, ObsMode::kOff));
    }
    if (ms >= kTargetCampaignMs) break;
    w.runs = static_cast<std::uint64_t>(
        static_cast<double>(w.runs) * 1.1 * kTargetCampaignMs / ms) + 1;
  }
  return w;
}

/// Median paired overhead (%) of `mode` vs off over `pairs` blocks: each
/// block interleaves off/mode runs and takes min-of-5 per side (noise is
/// one-sided), so slow frequency drift cancels in the ratio.
double PairedOverheadPct(const Workload& w, ObsMode mode, int pairs) {
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double off = 0.0, on = 0.0;
    for (int i = 0; i < 5; ++i) {
      const bool off_first = (p + i) % 2 == 0;
      const double a = TimeCampaignOnce(w, off_first ? ObsMode::kOff : mode);
      const double b = TimeCampaignOnce(w, off_first ? mode : ObsMode::kOff);
      const double o = off_first ? a : b;
      const double q = off_first ? b : a;
      off = i == 0 ? o : std::min(off, o);
      on = i == 0 ? q : std::min(on, q);
    }
    ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  return (ratios[ratios.size() / 2] - 1.0) * 100.0;
}

}  // namespace
}  // namespace chaser

int main(int argc, char** argv) {
  using namespace chaser;
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const int reps = 5;
  const int pairs = 5;  // blocks of 5 interleaved off/quiet run-pairs each

  // Drift-hardened methodology (a <2% guard needs more resolution than a
  // speedup headline): untimed warm-ups, round-robin min-of-N ladder times,
  // and a paired min-of-block median for the off-vs-quiet headline.
  Workload workloads[kNumWorkloads];
  double times[kNumWorkloads][kConfigs] = {};
  double overhead_pct[kNumWorkloads] = {};
  double export_pct[kNumWorkloads] = {};
  for (int w = 0; w < kNumWorkloads; ++w) {
    workloads[w] = SizeByTime(kWorkloads[w]);               // warms up off
    (void)TimeCampaignOnce(workloads[w], ObsMode::kTrace);  // warm-up
    for (int r = 0; r < reps; ++r) {
      for (int c = 0; c < kConfigs; ++c) {
        const double ms = TimeCampaignOnce(workloads[w], kLadder[c].mode);
        if (r == 0 || ms < times[w][c]) times[w][c] = ms;
      }
    }
    // Resolving a sub-2% delta needs noise well under 1%; see
    // PairedOverheadPct for the block methodology. Two guarded ratios: the
    // pure instrumentation cost (quiet) and the watched-worker cost
    // (+export, scrapes included).
    overhead_pct[w] = PairedOverheadPct(workloads[w], ObsMode::kQuiet, pairs);
    export_pct[w] = PairedOverheadPct(workloads[w], ObsMode::kExport, pairs);
  }

  double max_overhead = 0.0;
  for (int w = 0; w < kNumWorkloads; ++w) {
    max_overhead = std::max(max_overhead,
                            std::max(overhead_pct[w], export_pct[w]));
  }

  if (json) {
    std::printf("{\n  \"bench\": \"ablation_obs\",\n");
    std::printf("  \"campaign_target_ms\": %.1f,\n", kTargetCampaignMs);
    std::printf("  \"workloads\": [\n");
    for (int w = 0; w < kNumWorkloads; ++w) {
      std::printf("    {\"app\": \"%s\", \"runs\": %llu, \"jobs\": 1, "
                  "\"configs\": [",
                  workloads[w].app,
                  static_cast<unsigned long long>(workloads[w].runs));
      for (int c = 0; c < kConfigs; ++c) {
        std::printf("%s{\"name\": \"%s\", \"ms\": %.2f}", c == 0 ? "" : ", ",
                    kLadder[c].name, times[w][c]);
      }
      std::printf("], \"overhead_quiet_vs_off_pct\": %.2f, "
                  "\"overhead_export_vs_off_pct\": %.2f}%s\n",
                  overhead_pct[w], export_pct[w],
                  w + 1 < kNumWorkloads ? "," : "");
    }
    std::printf("  ],\n  \"max_overhead_pct\": %.2f,\n", max_overhead);
    std::printf("  \"guard_under_pct\": 2.0,\n");
    std::printf("  \"guard_passed\": %s\n}\n",
                max_overhead < 2.0 ? "true" : "false");
    return 0;
  }

  std::printf(
      "=== Ablation: telemetry channels (serial campaign, tracing on) ===\n\n");
  for (int w = 0; w < kNumWorkloads; ++w) {
    std::printf("%s, %llu runs:\n", workloads[w].app,
                static_cast<unsigned long long>(workloads[w].runs));
    for (int c = 0; c < kConfigs; ++c) {
      std::printf("  %-8s %8.2f ms   %+.2f%% vs off\n", kLadder[c].name,
                  times[w][c], (times[w][c] / times[w][0] - 1.0) * 100.0);
    }
    std::printf(
        "  paired overhead, quiet vs off (median of %d blocks): %+.2f%%\n",
        pairs, overhead_pct[w]);
    std::printf(
        "  paired overhead, +export vs off (median of %d blocks): %+.2f%%\n\n",
        pairs, export_pct[w]);
  }
  std::printf("max paired overhead: %+.2f%% (guard: < 2%%) — %s\n",
              max_overhead, max_overhead < 2.0 ? "PASS" : "FAIL");
  return max_overhead < 2.0 ? 0 : 1;
}
