// chaser_run — command-line fault-injection campaign driver.
//
// The productised entry point a user reaches for first:
//
//   chaser_run --app clamr --runs 500 --seed 7 --out /tmp/clamr.csv
//   chaser_run --app matvec --runs 1000 --inject-ranks 0 --no-trace
//   chaser_run --app lud --runs 200 --bits 1-3 --jobs 4
//
// Runs the campaign (golden run + N injection trials), prints the outcome
// distribution and termination breakdown, and optionally writes the per-run
// records to CSV for offline analysis (see campaign/report.h).
//
// Trials are seed-independent, so they fan out across a worker pool and
// commit in seed order; the result for a seed is the same bytes at every
// --jobs value.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/fleet.h"
#include "campaign/report.h"
#include "common/error.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "hub/remote/client.h"
#include "hub/remote/protocol.h"
#include "obs/telemetry.h"
#include "store/ctr.h"
#include "tcg/shared_cache.h"

namespace {

using namespace chaser;

void Usage() {
  std::printf(
      "usage: chaser_run --app <bfs|kmeans|lud|matvec|clamr> [options]\n"
      "\n"
      "options:\n"
      "  --runs N            injection trials (default 200)\n"
      "  --seed N            campaign seed (default 1)\n"
      "  --bits LO-HI        random bit-flip width range (default 1-2)\n"
      "  --inject-ranks A,B  ranks to inject into (default: 0, or all for clamr)\n"
      "  --jobs N            worker threads (default 0 = all hardware\n"
      "                      threads); results are the same at any N\n"
      "  --sample POLICY     trial sampling policy (default uniform):\n"
      "                        uniform     rank uniform, invocation uniform —\n"
      "                                    today's behavior, byte-identical\n"
      "                        weighted    injection sites drawn by golden-run\n"
      "                                    execution mass (uniform over all\n"
      "                                    dynamic invocations)\n"
      "                        stratified  site equivalence classes drawn\n"
      "                                    uniformly, importance-weighted back\n"
      "                                    to the invocation estimand\n"
      "  --stop-ci W         stop early once every outcome rate's 95%% Wilson\n"
      "                      interval is narrower than W (e.g. 0.02); the stop\n"
      "                      point is deterministic in the seed and identical\n"
      "                      at any --jobs value (default 0 = run all trials)\n"
      "  --injector SPEC     fault injector, as name[:key=val,...] from the\n"
      "                      injector registry (default probabilistic):\n"
      "                        probabilistic[:bits=N,width=N]  random source-\n"
      "                                    operand bit flips — the default\n"
      "                        deterministic[:operand=I,mask=M] exact mask on\n"
      "                                    an exact operand\n"
      "                        group[:bits=N]    corrupt every FP source\n"
      "                        multibit[:bits=N] contiguous bit burst at a\n"
      "                                    random position\n"
      "                        burst[:span=N,bits=N] corrupt N adjacent\n"
      "                                    registers in one strike\n"
      "                        stuckat[:value=0|1,bits=N] pin bits for the\n"
      "                                    rest of the trial\n"
      "                        iskip       squash the targeted instruction\n"
      "                        rank-crash  kill the injected rank mid-run\n"
      "                      non-default injectors stamp the records CSV (v6)\n"
      "                      with injector and fault-class columns\n"
      "  --hub-fault-trigger SPEC\n"
      "                      like --hub-fault, but armed per trial: the model\n"
      "                      runs only inside each trial window (seeded from\n"
      "                      the trial RNG), never during the golden run\n"
      "  --no-trace          disable fault-propagation tracing\n"
      "  --spool DIR         stream each trial's full trace to DIR/trial-<seed>/\n"
      "                      (no event cap; inspect with chaser_analyze)\n"
      "  --out FILE          write per-run records as CSV (atomic: written to\n"
      "                      FILE.tmp and renamed into place)\n"
      "  --records-format F  how --out stores the records (default csv):\n"
      "                        csv  one records CSV, as before\n"
      "                        ctr  columnar CTR store (a directory of\n"
      "                             seg-*.ctr segments, ~10x smaller, written\n"
      "                             as trials commit); inspect with\n"
      "                             chaser_analyze query / export-csv\n"
      "  --resume            reopen the --records-format ctr --out store of a\n"
      "                      killed run of this same campaign, replay the\n"
      "                      trials its sealed blocks hold and execute only\n"
      "                      the rest (a CSV cannot resume: write a store and\n"
      "                      export it with chaser_analyze export-csv)\n"
      "  --trial-retries N   rebuild the engine and retry a trial whose harness\n"
      "                      throws, up to N times, then quarantine it as\n"
      "                      outcome 'infra' instead of aborting (default 0)\n"
      "  --tb-cache-cap N    cap cached translation blocks at N, in the\n"
      "                      campaign-wide translation cache and in each VM's\n"
      "                      index; on overflow the cache is flushed whole,\n"
      "                      QEMU-style (default 0 = unbounded; the results are\n"
      "                      bit-identical at any cap)\n"
      "  --hub-fault SPEC   degrade TaintHub; SPEC is comma-separated k=v of\n"
      "                      drop=P (publish drop probability), delay=N (polls\n"
      "                      before a publish is visible), outage=A-B (hub down\n"
      "                      for operation clocks A..B), retries=N (receiver\n"
      "                      poll deadline), seed=N (drop-tape seed)\n"
      "\n"
      "fleet (see tools/chaser_fleet and chaser_hubd):\n"
      "  --shard I/N         run only global trials i with i %% N == I (seed\n"
      "                      order is preserved, so the N shards partition the\n"
      "                      campaign exactly); --stop-ci is deferred to the\n"
      "                      merge step, since the stop prefix is defined in\n"
      "                      global seed order. A --resume store records the\n"
      "                      shard spec and refuses to resume a different one\n"
      "  --hub H:P[,H:P...]  publish/poll message taint through remote\n"
      "                      chaser_hubd server(s) instead of the in-process\n"
      "                      hub; >1 endpoint shards the key space\n"
      "  --report FILE       atomically write the rendered campaign report to\n"
      "                      FILE (the same text printed to stdout)\n"
      "\n"
      "observability (reports/CSVs/spools are byte-identical with these on or\n"
      "off — telemetry only observes):\n"
      "  --trace-out FILE    write a Chrome trace-event JSON (one tid per\n"
      "                      worker, spans per trial and per phase); open in\n"
      "                      chrome://tracing or https://ui.perfetto.dev\n"
      "  --status FILE       atomically rewrite FILE as live status.json every\n"
      "                      few trials (done/total, outcome tallies, rate, ETA)\n"
      "  --status-every N    rewrite the status file every N trials\n"
      "                      (default 0 = auto, about 1%% of the campaign)\n"
      "  --progress          force the one-line stderr progress meter even\n"
      "                      when stderr is not a terminal (with any other\n"
      "                      obs flag the meter is automatic on a TTY only)\n"
      "  --metrics FILE      write the full metrics registry as JSON at exit\n"
      "                      (with --out and any obs flag, defaults to\n"
      "                      <out>.metrics.json)\n"
      "  --obs-port P        serve live /metrics (Prometheus), /status and\n"
      "                      /healthz over HTTP on 127.0.0.1:P for scrapers\n"
      "                      and chaser_analyze top; 0 picks an ephemeral\n"
      "                      port, echoed as 'chaser_run: obs listening on'\n"
      "  --help              this text\n");
}

apps::AppSpec BuildApp(const std::string& name) {
  if (name == "bfs") return apps::BuildBfs({});
  if (name == "kmeans") return apps::BuildKmeans({});
  if (name == "lud") return apps::BuildLud({});
  if (name == "matvec") return apps::BuildMatvec({});
  if (name == "clamr") return apps::BuildClamr({});
  throw ConfigError("unknown app '" + name + "' (bfs|kmeans|lud|matvec|clamr)");
}

std::uint64_t ArgNum(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) throw ConfigError(std::string("missing value for ") + flag);
  std::uint64_t v = 0;
  if (!ParseU64(argv[++i], &v)) {
    throw ConfigError(std::string("bad number for ") + flag);
  }
  return v;
}

/// Aggregate cache effectiveness across the whole campaign; printed while
/// the owning driver is still alive (the cache dies with it).
void PrintSharedCacheStats(const tcg::SharedTbCache* cache) {
  const tcg::SharedTbCache::Stats s = cache->stats();
  std::printf(
      "shared tb cache: %llu translations, %llu reuses, %llu epoch flushes, "
      "%llu evicted\n",
      static_cast<unsigned long long>(s.translations),
      static_cast<unsigned long long>(s.reuses),
      static_cast<unsigned long long>(s.epoch_flushes),
      static_cast<unsigned long long>(s.evicted_tbs));
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name;
  campaign::CampaignConfig config;
  config.runs = 200;
  config.seed = 1;
  std::string out_path;
  std::string records_format = "csv";
  bool resume = false;
  std::string report_path;
  bool inject_ranks_given = false;
  std::uint64_t jobs = 0;  // 0 = hardware concurrency
  obs::TelemetryOptions obs_options;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--app") {
        if (i + 1 >= argc) throw ConfigError("missing value for --app");
        app_name = argv[++i];
      } else if (a == "--runs") {
        config.runs = ArgNum(argc, argv, i, "--runs");
      } else if (a == "--seed") {
        config.seed = ArgNum(argc, argv, i, "--seed");
      } else if (a == "--bits") {
        if (i + 1 >= argc) throw ConfigError("missing value for --bits");
        const std::vector<std::string> parts = Split(argv[++i], '-');
        std::uint64_t lo = 0, hi = 0;
        if (parts.size() != 2 || !ParseU64(parts[0], &lo) || !ParseU64(parts[1], &hi) ||
            lo == 0 || hi < lo || hi > 64) {
          throw ConfigError("--bits expects LO-HI with 1 <= LO <= HI <= 64");
        }
        config.flip_bits_min = static_cast<unsigned>(lo);
        config.flip_bits_max = static_cast<unsigned>(hi);
      } else if (a == "--inject-ranks") {
        if (i + 1 >= argc) throw ConfigError("missing value for --inject-ranks");
        for (const std::string& r : Split(argv[++i], ',')) {
          std::uint64_t v = 0;
          if (!ParseU64(r, &v)) throw ConfigError("bad rank in --inject-ranks");
          config.inject_ranks.insert(static_cast<Rank>(v));
        }
        inject_ranks_given = true;
      } else if (a == "--jobs") {
        jobs = ArgNum(argc, argv, i, "--jobs");
      } else if (a == "--sample") {
        if (i + 1 >= argc) throw ConfigError("missing value for --sample");
        const std::string policy = argv[++i];
        if (!campaign::ParseSamplePolicy(policy, &config.sample_policy)) {
          throw ConfigError("bad --sample policy '" + policy +
                            "' (uniform|weighted|stratified)");
        }
      } else if (a == "--stop-ci") {
        if (i + 1 >= argc) throw ConfigError("missing value for --stop-ci");
        char* end = nullptr;
        const std::string val = argv[++i];
        config.stop_ci = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0' || config.stop_ci <= 0.0 ||
            config.stop_ci >= 1.0) {
          throw ConfigError("--stop-ci expects an interval width in (0,1)");
        }
      } else if (a == "--no-trace") {
        config.trace = false;
      } else if (a == "--resume") {
        resume = true;
      } else if (a == "--tb-cache-cap") {
        config.tb_cache_cap = ArgNum(argc, argv, i, "--tb-cache-cap");
      } else if (a == "--trial-retries") {
        config.trial_retries =
            static_cast<unsigned>(ArgNum(argc, argv, i, "--trial-retries"));
      } else if (a == "--hub-fault") {
        if (i + 1 >= argc) throw ConfigError("missing value for --hub-fault");
        config.hub_fault = hub::remote::ParseHubFaultSpec(argv[++i]);
      } else if (a == "--hub-fault-trigger") {
        if (i + 1 >= argc) {
          throw ConfigError("missing value for --hub-fault-trigger");
        }
        config.hub_fault_trigger =
            hub::remote::ParseHubFaultSpec(argv[++i], "--hub-fault-trigger");
      } else if (a == "--injector") {
        if (i + 1 >= argc) throw ConfigError("missing value for --injector");
        config.injector = core::ParseInjectorSpec(argv[++i]);
      } else if (a == "--shard") {
        if (i + 1 >= argc) throw ConfigError("missing value for --shard");
        const campaign::ShardSpec shard = campaign::ParseShardSpec(argv[++i]);
        config.shard_index = shard.index;
        config.shard_count = shard.count;
      } else if (a == "--hub") {
        if (i + 1 >= argc) throw ConfigError("missing value for --hub");
        for (const std::string& ep : Split(argv[++i], ',')) {
          if (!ep.empty()) config.hub_endpoints.push_back(ep);
        }
        if (config.hub_endpoints.empty()) {
          throw ConfigError("--hub: expected HOST:PORT[,HOST:PORT...]");
        }
      } else if (a == "--report") {
        if (i + 1 >= argc) throw ConfigError("missing value for --report");
        report_path = argv[++i];
      } else if (a == "--spool") {
        if (i + 1 >= argc) throw ConfigError("missing value for --spool");
        config.spool_dir = argv[++i];
      } else if (a == "--out") {
        if (i + 1 >= argc) throw ConfigError("missing value for --out");
        out_path = argv[++i];
      } else if (a == "--records-format") {
        if (i + 1 >= argc) {
          throw ConfigError("missing value for --records-format");
        }
        records_format = argv[++i];
        if (records_format != "csv" && records_format != "ctr") {
          throw ConfigError("bad --records-format '" + records_format +
                            "' (csv|ctr)");
        }
      } else if (a == "--trace-out") {
        if (i + 1 >= argc) throw ConfigError("missing value for --trace-out");
        obs_options.trace_path = argv[++i];
      } else if (a == "--status") {
        if (i + 1 >= argc) throw ConfigError("missing value for --status");
        obs_options.status_path = argv[++i];
      } else if (a == "--status-every") {
        obs_options.status_every = ArgNum(argc, argv, i, "--status-every");
      } else if (a == "--progress") {
        obs_options.progress = obs::ProgressMode::kOn;
      } else if (a == "--metrics") {
        if (i + 1 >= argc) throw ConfigError("missing value for --metrics");
        obs_options.metrics_path = argv[++i];
      } else if (a == "--obs-port") {
        const std::uint64_t port = ArgNum(argc, argv, i, "--obs-port");
        if (port > 65535) throw ConfigError("--obs-port out of range");
        obs_options.obs_port = static_cast<int>(port);
      } else if (a == "--help" || a == "-h") {
        Usage();
        return 0;
      } else {
        throw ConfigError("unknown flag '" + a + "'");
      }
    }
    if (app_name.empty()) {
      Usage();
      return 2;
    }
    if (resume && (out_path.empty() || records_format != "ctr")) {
      throw ConfigError(
          "--resume reopens a --records-format ctr --out DIR store; a records "
          "CSV cannot resume (write the store, then chaser_analyze export-csv "
          "it)");
    }

    apps::AppSpec spec = BuildApp(app_name);
    if (!inject_ranks_given && app_name == "clamr") {
      for (Rank r = 0; r < spec.num_ranks; ++r) config.inject_ranks.insert(r);
    }
    obs_options.shard_index = config.shard_index;
    obs_options.shard_count = config.shard_count;
    if (config.shard_count > 1 && config.stop_ci > 0.0) {
      std::fprintf(stderr,
                   "chaser_run: note: --stop-ci is deferred in shard workers; "
                   "the stop rule is applied at merge time (chaser_fleet)\n");
    }

    // Telemetry is armed only when an obs flag asked for it; with none, the
    // campaign runs with config.telemetry == nullptr and the instrumentation
    // sites stay on their no-profiler fast path.
    const bool obs_requested = !obs_options.trace_path.empty() ||
                               !obs_options.status_path.empty() ||
                               !obs_options.metrics_path.empty() ||
                               obs_options.progress != obs::ProgressMode::kOff ||
                               obs_options.obs_port >= 0;
    if (obs_requested && obs_options.metrics_path.empty() && !out_path.empty()) {
      obs_options.metrics_path = out_path + ".metrics.json";
    }
    // Any obs flag turns the meter on for interactive runs only; an
    // explicit --progress (kOn) still forces it into pipes and logs.
    if (obs_requested && obs_options.progress == obs::ProgressMode::kOff) {
      obs_options.progress = obs::ProgressMode::kAuto;
    }
    if (config.shard_count > 1) {
      // Fleet identity: one Perfetto process row per shard after the merge.
      obs_options.trace_pid =
          static_cast<std::uint32_t>(config.shard_index + 1);
      obs_options.trace_process_name =
          StrFormat("chaser shard-%llu/%llu",
                    static_cast<unsigned long long>(config.shard_index),
                    static_cast<unsigned long long>(config.shard_count));
    }
    std::unique_ptr<obs::Telemetry> telemetry;
    if (obs_requested) {
      telemetry = std::make_unique<obs::Telemetry>(obs_options);
      config.telemetry = telemetry.get();
      if (obs_options.obs_port >= 0) {
        // Machine-readable (cf. chaser_hubd's listening line): scripts that
        // pass --obs-port 0 learn the ephemeral port from this line.
        std::printf("chaser_run: obs listening on %s\n",
                    telemetry->obs_endpoint().c_str());
        std::fflush(stdout);
      }
      if (!obs_options.trace_path.empty() && !config.hub_endpoints.empty()) {
        // Trace anchors on the hub's clock: one handshake-derived offset per
        // worker, so merged fleet timelines align across hosts.
        try {
          const hub::remote::HubClockProbe probe =
              hub::remote::ProbeHubClock(config.hub_endpoints.front());
          telemetry->SetClockOffsetUs(probe.offset_us);
        } catch (const ConfigError& e) {
          std::fprintf(stderr,
                       "chaser_run: hub clock probe failed (%s); trace anchor "
                       "stays on the local clock\n",
                       e.what());
        }
      }
    }

    // The CTR store is written as trials commit (record_sink fires from the
    // driver's seed-order commit, replayed trials included), so a killed run
    // leaves a valid store prefix to resume from. Resuming reopens it (torn
    // tail cut, identity pinned) and replays what it holds: the writer
    // skip-verifies those records against its seed-hash chain as the driver
    // commits them again.
    std::unique_ptr<store::CtrStoreWriter> store_writer;
    if (!out_path.empty() && records_format == "ctr") {
      store::CtrStoreInfo identity;
      identity.campaign_seed = config.seed;
      identity.app = app_name;
      identity.sample_policy = config.sample_policy;
      identity.shard_index = config.shard_index;
      identity.shard_count = config.shard_count;
      store::CtrWriterOptions store_options;
      store_options.resume = resume;
      store_writer = std::make_unique<store::CtrStoreWriter>(
          out_path, identity, store_options);
      config.record_sink = [w = store_writer.get()](
                               const campaign::RunRecord& rec) { w->Add(rec); };
    }

    std::printf("chaser_run: %s, %llu runs, seed %llu, bits %u-%u, ranks %d, "
                "tracing %s\n",
                app_name.c_str(), static_cast<unsigned long long>(config.runs),
                static_cast<unsigned long long>(config.seed), config.flip_bits_min,
                config.flip_bits_max, spec.num_ranks, config.trace ? "on" : "off");
    if (config.shard_count > 1) {
      std::printf("shard: %llu/%llu (%zu of %llu trials)\n",
                  static_cast<unsigned long long>(config.shard_index),
                  static_cast<unsigned long long>(config.shard_count),
                  campaign::ShardTrialIndices(
                      config.runs, {config.shard_index, config.shard_count})
                      .size(),
                  static_cast<unsigned long long>(config.runs));
    }
    if (!config.hub_endpoints.empty()) {
      std::printf("hub: remote (%zu endpoint%s)\n", config.hub_endpoints.size(),
                  config.hub_endpoints.size() == 1 ? "" : "s");
    }
    if (!config.injector.IsDefault()) {
      std::printf("injector: %s (%s)\n", config.injector.name.c_str(),
                  core::InjectorRegistry::Global()
                      .Find(config.injector.name)
                      ->fault_class.c_str());
    }

    campaign::Campaign c(std::move(spec), config, static_cast<unsigned>(jobs));
    c.RunGolden();
    std::printf("golden run: %llu instructions, targeted executions per rank:",
                static_cast<unsigned long long>(c.golden_instructions()));
    for (const Rank r : c.inject_ranks()) {
      std::printf(" r%d=%llu", r,
                  static_cast<unsigned long long>(c.golden_targeted_execs(r)));
    }
    std::printf("\n\n");
    std::printf("engine: %u worker%s\n", c.jobs(), c.jobs() == 1 ? "" : "s");
    if (telemetry != nullptr) {
      // The cache-stats source and Finish() both read the campaign-owned
      // shared cache, which lives as long as `c`.
      telemetry->SetCacheStatsSource([cache = c.shared_tb_cache()] {
        const tcg::SharedTbCache::Stats s = cache->stats();
        return obs::CacheStatsSnapshot{.translations = s.translations,
                                       .reuses = s.reuses,
                                       .epoch_flushes = s.epoch_flushes,
                                       .evicted_tbs = s.evicted_tbs};
      });
    }
    const campaign::CampaignResult result =
        c.Run(store_writer != nullptr ? store_writer->Replay() : nullptr);
    if (telemetry != nullptr) telemetry->Finish();
    std::printf("%s", result.Render(app_name).c_str());
    PrintSharedCacheStats(c.shared_tb_cache());

    if (config.trace) {
      const campaign::PropagationStats stats =
          campaign::AnalyzePropagation(result.records);
      std::printf(
          "propagation: %llu total tainted reads, %llu writes; "
          "%.1f%% of runs read more than they write\n",
          static_cast<unsigned long long>(stats.total_tainted_reads),
          static_cast<unsigned long long>(stats.total_tainted_writes),
          stats.pct_more_reads_than_writes);
    }

    if (!report_path.empty()) {
      WriteFileAtomic(report_path, result.Render(app_name));
      std::printf("wrote report to %s\n", report_path.c_str());
    }
    if (store_writer != nullptr) {
      store_writer->Finish();
      std::printf("wrote %llu records to %s (ctr store, %llu segment%s, "
                  "%llu resumed)\n",
                  static_cast<unsigned long long>(store_writer->added()),
                  out_path.c_str(),
                  static_cast<unsigned long long>(store_writer->segments()),
                  store_writer->segments() == 1 ? "" : "s",
                  static_cast<unsigned long long>(store_writer->stored()));
    } else if (!out_path.empty()) {
      // Atomic: a crash mid-write must never leave a half-written CSV where
      // a previous complete report used to be.
      std::ostringstream csv;
      campaign::WriteRecordsCsv(result.records, csv, config.sample_policy);
      WriteFileAtomic(out_path, csv.str());
      std::printf("wrote %zu records to %s\n", result.records.size(),
                  out_path.c_str());
    }
    if (!obs_options.trace_path.empty()) {
      std::printf("wrote Chrome trace to %s (chrome://tracing, Perfetto)\n",
                  obs_options.trace_path.c_str());
    }
    if (!obs_options.status_path.empty()) {
      std::printf("final status in %s\n", obs_options.status_path.c_str());
    }
    if (!obs_options.metrics_path.empty()) {
      std::printf("wrote metrics to %s\n", obs_options.metrics_path.c_str());
    }
    return 0;
  } catch (const ChaserError& e) {
    std::fprintf(stderr, "chaser_run: %s\n", e.what());
    return 2;
  }
}
