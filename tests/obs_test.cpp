// Tests for src/obs: metrics registry aggregation (incl. across threads —
// the `tsan` label vets the lock-free shard write path), histogram bucket
// edges, scoped-timer nesting, the live status channel's monotonic progress,
// and the identity guarantee — campaign outputs are byte-identical with
// telemetry on or off, serial and parallel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "common/error.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "core/injectors/registry.h"
#include "guest/builder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/status.h"
#include "obs/telemetry.h"
#include "obs/trace_merge.h"
#include "obs/trace_writer.h"

namespace chaser::obs {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("chaser_obs_test_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- Registry ----------------------------------------------------------------

TEST(Metrics, CounterAggregatesAcrossThreads) {
  Registry reg;
  Counter& c = reg.GetCounter("test_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIncsPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kIncsPerThread);
  // Same name returns the same metric; the handle survives re-registration.
  reg.GetCounter("test_total").Inc(5);
  EXPECT_EQ(c.Value(), kThreads * kIncsPerThread + 5);
}

TEST(Metrics, HistogramObserveAcrossThreads) {
  Registry reg;
  Histogram& h = reg.GetHistogram("lat_ns", LatencyBoundsNs());
  constexpr int kThreads = 6;
  constexpr std::uint64_t kObsPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kObsPerThread; ++i) {
        h.Observe(static_cast<std::uint64_t>(t) * 1000 + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kObsPerThread);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t n : h.BucketCounts()) bucket_sum += n;
  EXPECT_EQ(bucket_sum, h.Count()) << "every sample must land in some bucket";
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Registry reg;
  Histogram& h = reg.GetHistogram("edges", {10, 100});
  h.Observe(0);
  h.Observe(10);   // == bound: first bucket (inclusive upper bound)
  h.Observe(11);   // one past: second bucket
  h.Observe(100);  // == last bound: second bucket
  h.Observe(101);  // past every bound: overflow
  const std::vector<std::uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);  // 2 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 0u + 10 + 11 + 100 + 101);
  // Cumulative: 2/5 at bound 10, 4/5 at bound 100.
  EXPECT_EQ(h.ApproxQuantile(0.4), 10u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 100u);
  EXPECT_EQ(h.ApproxQuantile(0.8), 100u);
}

TEST(Metrics, RegistryJsonIsDeterministicAndNameSorted) {
  Registry reg;
  reg.GetCounter("zeta").Inc(3);
  reg.GetCounter("alpha").Inc(1);
  reg.GetGauge("gauge_a").Set(-7);
  reg.GetHistogram("h", {10}).Observe(4);
  const std::string a = reg.ToJson();
  const std::string b = reg.ToJson();
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
  EXPECT_NE(a.find("\"gauge_a\": -7"), std::string::npos) << a;
  reg.Reset();
  EXPECT_EQ(reg.GetCounter("zeta").Value(), 0u);
  EXPECT_EQ(reg.GetHistogram("h", {10}).Count(), 0u);
}

// ---- Phase profiler ----------------------------------------------------------

TEST(Profiler, ScopedPhaseIsInertWithoutAProfiler) {
  ASSERT_EQ(ThreadProfiler(), nullptr);
  // Must not crash, allocate into any registry, or require any setup.
  const ScopedPhase a(Phase::kTranslate);
  const ScopedPhase b(Phase::kExecute);
}

TEST(Profiler, ScopedTimerNestingTracksDepthAndFeedsHistograms) {
  Registry reg;
  PhaseProfiler prof(&reg, nullptr, 1);
  SetThreadProfiler(&prof);
  {
    const ScopedPhase trial(Phase::kTrial);
    EXPECT_EQ(prof.depth(), 1u);
    {
      const ScopedPhase exec(Phase::kExecute);
      EXPECT_EQ(prof.depth(), 2u);
      const ScopedPhase translate(Phase::kTranslate);
      EXPECT_EQ(prof.depth(), 3u);
    }
    const ScopedPhase inject(Phase::kInject);
    EXPECT_EQ(prof.depth(), 2u);
  }
  EXPECT_EQ(prof.depth(), 0u);
  SetThreadProfiler(nullptr);

  EXPECT_EQ(reg.GetHistogram("phase_trial_ns", LatencyBoundsNs()).Count(), 1u);
  EXPECT_EQ(reg.GetHistogram("phase_execute_ns", LatencyBoundsNs()).Count(), 1u);
  EXPECT_EQ(reg.GetHistogram("phase_translate_ns", LatencyBoundsNs()).Count(),
            1u);
  EXPECT_EQ(reg.GetHistogram("phase_inject_ns", LatencyBoundsNs()).Count(), 1u);
}

TEST(Profiler, SpansReachTheTraceWriterWithPhaseNames) {
  const std::string dir = TempDir("spans");
  Registry reg;
  TraceJsonWriter writer(dir + "/t.json");
  const std::uint32_t tid = writer.RegisterThread("main");
  PhaseProfiler prof(&reg, &writer, tid);
  SetThreadProfiler(&prof);
  {
    const ScopedPhase outer(Phase::kExecute);
    const ScopedPhase inner(Phase::kTranslate);
  }
  SetThreadProfiler(nullptr);
  prof.Flush();
  writer.Finish();
  const std::string trace = Slurp(dir + "/t.json");
  EXPECT_NE(trace.find("\"name\":\"execute\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"name\":\"translate\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"name\":\"main\""), std::string::npos)
      << "thread-name metadata event missing: " << trace;
  fs::remove_all(dir);
}

// ---- Status channel ----------------------------------------------------------

std::uint64_t ParseDone(const std::string& json) {
  const auto pos = json.find("\"done\": ");
  EXPECT_NE(pos, std::string::npos) << json;
  return std::strtoull(json.c_str() + pos + 8, nullptr, 10);
}

TEST(Status, DoneIsMonotonicAcrossRewrites) {
  const std::string dir = TempDir("status");
  const std::string path = dir + "/status.json";
  StatusWriter writer({.path = path, .app = "t", .total = 10, .every = 1});
  std::uint64_t last_done = 0;
  for (int i = 0; i < 10; ++i) {
    writer.OnTrialCommitted(Outcome::kBenign, 0, 0, /*replayed=*/false);
    const std::string json = Slurp(path);
    const std::uint64_t done = ParseDone(json);
    EXPECT_GE(done, last_done) << "done must never go backwards";
    EXPECT_LE(done, 10u);
    EXPECT_NE(json.find("\"running\": true"), std::string::npos) << json;
    last_done = done;
  }
  writer.Finish();
  const std::string final_json = Slurp(path);
  EXPECT_EQ(ParseDone(final_json), 10u);
  EXPECT_NE(final_json.find("\"running\": false"), std::string::npos)
      << final_json;
  fs::remove_all(dir);
}

TEST(Status, ReplayedTrialsCountTowardDoneButNotTheRate) {
  const std::string dir = TempDir("status_replay");
  const std::string path = dir + "/status.json";
  StatusWriter writer({.path = path, .app = "t", .total = 4, .every = 1});
  writer.OnTrialCommitted(Outcome::kBenign, 0, 0, /*replayed=*/true);
  writer.OnTrialCommitted(Outcome::kTerminated, 0, 0, /*replayed=*/true);
  writer.OnTrialCommitted(Outcome::kSdc, 0, 0, /*replayed=*/false);
  writer.OnTrialCommitted(Outcome::kBenign, 0, 0, /*replayed=*/false);
  writer.Finish();
  const std::string json = Slurp(path);
  EXPECT_EQ(ParseDone(json), 4u);
  EXPECT_NE(json.find("\"replayed\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"benign\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"terminated\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sdc\": 1"), std::string::npos) << json;
  fs::remove_all(dir);
}

TEST(Status, EtaIsNullWhileUnknownAndZeroWhenNothingRemains) {
  const std::string dir = TempDir("status_eta");
  const std::string path = dir + "/status.json";
  StatusWriter writer({.path = path, .app = "t", .total = 3, .every = 1});
  // Replayed trials are excluded from the rate: trials remain but nothing
  // has executed here, so the ETA is genuinely unknown — null, never 0.
  writer.OnTrialCommitted(Outcome::kBenign, 0, 0, /*replayed=*/true);
  EXPECT_NE(Slurp(path).find("\"eta_s\": null"), std::string::npos)
      << Slurp(path);
  writer.OnTrialCommitted(Outcome::kBenign, 0, 0, /*replayed=*/false);
  writer.OnTrialCommitted(Outcome::kBenign, 0, 0, /*replayed=*/false);
  // No trials left: 0.0 ("finishing"), not null.
  EXPECT_NE(Slurp(path).find("\"eta_s\": 0.0"), std::string::npos)
      << Slurp(path);
  writer.Finish();
  fs::remove_all(dir);
}

TEST(Status, EstimatesBlockAppearsOnlyWhenASourceIsSet) {
  const std::string dir = TempDir("status_estimates");
  const std::string without = dir + "/plain.json";
  {
    StatusWriter writer({.path = without, .app = "t", .total = 1, .every = 1});
    writer.OnTrialCommitted(Outcome::kBenign, 0, 0, false);
    writer.Finish();
  }
  EXPECT_EQ(Slurp(without).find("\"estimates\""), std::string::npos);

  const std::string with = dir + "/sampled.json";
  {
    StatusWriter::Options options{
        .path = with, .app = "t", .total = 1, .every = 1};
    options.estimates = [] {
      EstimateSnapshot es;
      es.trials = 40;
      es.effective_n = 38.5;
      es.stop_width = 0.02;
      es.converged = true;
      es.series = {{"sdc", {.rate = 0.25, .lo = 0.15, .hi = 0.35}}};
      return es;
    };
    StatusWriter writer(std::move(options));
    writer.OnTrialCommitted(Outcome::kSdc, 0, 0, false);
    writer.Finish();
  }
  const std::string json = Slurp(with);
  EXPECT_NE(json.find("\"estimates\": {\"trials\": 40"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"converged\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sdc\": {\"rate\": 0.250000"), std::string::npos)
      << json;
  fs::remove_all(dir);
}

// ---- Prometheus exposition and the scrape server -----------------------------

TEST(Prometheus, RendersCountersGaugesAndCumulativeHistograms) {
  Registry reg;
  reg.GetCounter("b_total").Inc(3);
  reg.GetCounter("a_total").Inc(1);  // registered later, renders first
  reg.GetGauge("a_gauge").Set(-5);
  Histogram& h = reg.GetHistogram("lat_ns", {10, 100});
  h.Observe(5);    // bucket le=10
  h.Observe(50);   // bucket le=100
  h.Observe(500);  // overflow: only le=+Inf
  const std::string text = reg.ToPrometheus();

  EXPECT_NE(text.find("# TYPE b_total counter\nb_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE a_gauge gauge\na_gauge -5\n"), std::string::npos)
      << text;
  // Buckets are cumulative and the +Inf bucket equals _count.
  EXPECT_NE(text.find("lat_ns_bucket{le=\"10\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ns_bucket{le=\"100\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ns_count 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ns_sum 555\n"), std::string::npos) << text;
  // Families render name-sorted within each kind, whatever the
  // registration order.
  EXPECT_LT(text.find("# TYPE a_total"), text.find("# TYPE b_total"));
}

TEST(Prometheus, LabeledSeriesShareOneTypeLine) {
  Registry reg;
  reg.GetCounter(LabeledName("cmds_total", "cmd", "poll")).Inc(2);
  reg.GetCounter(LabeledName("cmds_total", "cmd", "publish")).Inc(7);
  // A longer unlabeled name that sorts BETWEEN the base and its labeled
  // series in raw key order — the renderer must still group the family.
  reg.GetCounter("cmds_total_other").Inc(1);
  const std::string text = reg.ToPrometheus();

  const std::size_t type_pos = text.find("# TYPE cmds_total counter");
  ASSERT_NE(type_pos, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE cmds_total counter", type_pos + 1),
            std::string::npos)
      << "one TYPE line per family:\n" << text;
  EXPECT_NE(text.find("cmds_total{cmd=\"poll\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("cmds_total{cmd=\"publish\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cmds_total_other counter"), std::string::npos);
}

TEST(Prometheus, LabelValuesAreEscaped) {
  EXPECT_EQ(LabeledName("m", "k", "a\"b\\c\nd"),
            "m{k=\"a\\\"b\\\\c\\nd\"}");
  Registry reg;
  reg.GetCounter(LabeledName("m", "k", "a\"b")).Inc();
  EXPECT_NE(reg.ToPrometheus().find("m{k=\"a\\\"b\"} 1\n"), std::string::npos);
}

TEST(Prometheus, PrometheusValueFindsASeries) {
  const std::string text =
      "# TYPE x counter\nx 4\nx_more 9\n# TYPE y gauge\ny -2\n";
  double v = 0.0;
  ASSERT_TRUE(PrometheusValue(text, "x", &v));
  EXPECT_DOUBLE_EQ(v, 4.0);
  ASSERT_TRUE(PrometheusValue(text, "y", &v));
  EXPECT_DOUBLE_EQ(v, -2.0);
  EXPECT_FALSE(PrometheusValue(text, "z", &v));
}

TEST(ExportServer, ServesMetricsStatusAndHealth) {
  Registry reg;
  reg.GetCounter("served_total").Inc(11);
  ExportServer::Options options;
  options.registry = &reg;
  options.status_body = [] { return std::string("{\"live\": true}\n"); };
  ExportServer server(std::move(options));
  ASSERT_GT(server.port(), 0) << "port 0 must bind an ephemeral port";

  const HttpResponse metrics = HttpGet("127.0.0.1", server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("served_total 11\n"), std::string::npos);

  const HttpResponse status = HttpGet("127.0.0.1", server.port(), "/status");
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(status.body, "{\"live\": true}\n");

  const HttpResponse health = HttpGet("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse missing = HttpGet("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  server.Stop();
}

TEST(ExportServer, StatusWithoutASourceIs404) {
  Registry reg;
  ExportServer::Options options;
  options.registry = &reg;
  ExportServer server(std::move(options));
  EXPECT_EQ(HttpGet("127.0.0.1", server.port(), "/status").status, 404);
}

TEST(ExportServer, ScrapesWhileRecordersHammerTheRegistry) {
  // The tsan-vetted contract behind the <2% overhead claim: scrapes hold
  // the registry mutex briefly while writers stay lock-free; neither side
  // torn-reads the other. 4 writer threads + live HTTP scrapes.
  Registry reg;
  ExportServer::Options options;
  options.registry = &reg;
  ExportServer server(std::move(options));

  Counter& c = reg.GetCounter("hammer_total");
  Histogram& h = reg.GetHistogram("hammer_ns", {100, 1000});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&c, &h, &stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.Inc();
        h.Observe(i++ % 2000);
      }
    });
  }
  for (int scrape = 0; scrape < 20; ++scrape) {
    const HttpResponse r = HttpGet("127.0.0.1", server.port(), "/metrics");
    ASSERT_EQ(r.status, 200);
    double total = 0.0, count = 0.0, inf = 0.0;
    ASSERT_TRUE(PrometheusValue(r.body, "hammer_total", &total));
    ASSERT_TRUE(PrometheusValue(r.body, "hammer_ns_count", &count));
    ASSERT_TRUE(
        PrometheusValue(r.body, "hammer_ns_bucket{le=\"+Inf\"}", &inf));
    EXPECT_EQ(count, inf) << "_count must equal the +Inf bucket mid-storm";
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  server.Stop();
  const std::string text = reg.ToPrometheus();
  double total = 0.0;
  ASSERT_TRUE(PrometheusValue(text, "hammer_total", &total));
  EXPECT_EQ(static_cast<std::uint64_t>(total), c.Value());
}

// ---- Trace merge -------------------------------------------------------------

TEST(TraceMerge, StitchesProcessesAndAlignsClocks) {
  const std::string dir = TempDir("trace_merge");
  const std::string path_a = dir + "/a.json";
  const std::string path_b = dir + "/b.json";
  {
    TraceJsonWriter w(path_a, /*pid=*/1, "shard-0");
    const std::uint32_t tid = w.RegisterThread("main");
    w.AddSpan(tid, "trial", 1'000'000, 2'000'000, {});
    w.Finish();
  }
  {
    TraceJsonWriter w(path_b, /*pid=*/1, "shard-1");
    // Pretend this process's clock runs 5ms behind the hub's.
    w.SetClockOffsetUs(5000);
    const std::uint32_t tid = w.RegisterThread("main");
    w.AddSpan(tid, "trial", 1'000'000, 2'000'000, {});
    w.Finish();
  }
  TraceMergeStats stats;
  const std::string merged = MergeChromeTraces(
      {ReadFileToString(path_a), ReadFileToString(path_b)}, &stats);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.max_skew_us, 5000);
  // File order fixes process identity: a=1, b=2.
  EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(merged.find("shard-0"), std::string::npos);
  EXPECT_NE(merged.find("shard-1"), std::string::npos);
  // Both files share one RealtimeAnchorUs (same process); b's +5000us offset
  // makes it the later anchor, so its events shift +5000us while a's stay.
  EXPECT_NE(merged.find("\"ts\":1000.000"), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"ts\":6000.000"), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"chaserClockAnchorUs\": "), std::string::npos);
  fs::remove_all(dir);
}

TEST(TraceMerge, RejectsADocumentWithoutAnAnchor) {
  EXPECT_THROW(MergeChromeTraces({"{\"traceEvents\": [\n]\n}"}),
               ConfigError);
}

// ---- Render-only status (the /status feed) -----------------------------------

TEST(Status, RenderSnapshotWorksWithoutAFile) {
  StatusWriter::Options options{.path = "", .app = "t", .total = 4, .every = 1};
  options.obs_endpoint = "127.0.0.1:9100";
  StatusWriter writer(std::move(options));
  writer.OnTrialCommitted(Outcome::kBenign, 0, 0, false);
  const std::string live = writer.RenderSnapshot();
  EXPECT_NE(live.find("\"running\": true"), std::string::npos) << live;
  EXPECT_NE(live.find("\"done\": 1"), std::string::npos);
  EXPECT_NE(live.find("\"obs\": \"127.0.0.1:9100\""), std::string::npos);
  EXPECT_EQ(writer.writes(), 0u) << "no path, no file writes";
  writer.Finish();
  EXPECT_NE(writer.RenderSnapshot().find("\"running\": false"),
            std::string::npos);
}

TEST(Telemetry, ExportServerServesTheCampaignStatus) {
  Registry::Global().Reset();
  TelemetryOptions options;
  options.obs_port = 0;  // ephemeral
  Telemetry telemetry(std::move(options));
  const std::string endpoint = telemetry.obs_endpoint();
  ASSERT_NE(endpoint, "");
  const auto colon = endpoint.rfind(':');
  const std::uint16_t port =
      static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1)));

  // Before BeginCampaign: a placeholder, not an error.
  EXPECT_NE(HttpGet("127.0.0.1", port, "/status")
                .body.find("\"started\": false"),
            std::string::npos);

  telemetry.BeginCampaign("probe", 2);
  TrialStats t;
  telemetry.OnTrialDone(t, 0, 100);
  telemetry.OnTrialCommitted(t);
  const HttpResponse status = HttpGet("127.0.0.1", port, "/status");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"app\": \"probe\""), std::string::npos);
  EXPECT_NE(status.body.find("\"done\": 1"), std::string::npos);
  EXPECT_NE(status.body.find("\"obs\": \"" + endpoint + "\""),
            std::string::npos)
      << "the status document advertises its own scrape endpoint";

  const HttpResponse metrics = HttpGet("127.0.0.1", port, "/metrics");
  double trials = 0.0;
  ASSERT_TRUE(PrometheusValue(metrics.body, "campaign_trials_total", &trials));
  EXPECT_DOUBLE_EQ(trials, 1.0);
  telemetry.Finish();
  // The endpoint keeps answering after Finish (dashboards read final state).
  EXPECT_NE(HttpGet("127.0.0.1", port, "/status")
                .body.find("\"running\": false"),
            std::string::npos);
  Registry::Global().Reset();
}

// ---- Campaign integration: identity on/off, one worker and many --------------

using campaign::Campaign;
using campaign::CampaignConfig;
using campaign::CampaignResult;
using campaign::WriteRecordsCsv;
using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

/// Same single-process accumulator campaign_test drives — cheap and steers
/// through benign/sdc/terminated outcomes.
apps::AppSpec AccumulatorApp(std::uint64_t iters = 40) {
  ProgramBuilder b("accum");
  const GuestAddr out = b.Bss("out", 8);
  b.FmovI(F(0), 0.0);
  b.FmovI(F(1), 1.0);
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.Fadd(F(0), F(0), F(1));
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), static_cast<std::int64_t>(iters));
  b.Br(Cond::kLt, loop);
  b.MovI(R(9), static_cast<std::int64_t>(out));
  b.Fst(R(9), 0, F(0));
  b.MovI(R(4), static_cast<std::int64_t>(out));
  b.MovI(R(5), 8);
  b.Write(3, R(4), R(5));
  b.Exit(0);
  apps::AppSpec spec;
  spec.name = "accum";
  spec.program = b.Finalize();
  spec.num_ranks = 1;
  spec.fault_classes = {guest::InstrClass::kFadd};
  return spec;
}

std::string ResultCsv(const CampaignResult& result) {
  std::ostringstream csv;
  WriteRecordsCsv(result.records, csv);
  return csv.str();
}

// The restore counters are registered when a trial engine is built, so a
// campaign in which no trial can restore (per-trial hub faults take no
// checkpoints) reports them as 0 instead of leaving them out. Registrations
// outlive Registry::Reset(), so this test comes before every other test in
// this file that builds an engine.
TEST(Telemetry, RestoreCountersReadZeroWhenNoTrialRestores) {
  Registry::Global().Reset();
  const std::string dir = TempDir("restore_zero");
  Telemetry telemetry({.metrics_path = dir + "/m.json"});
  CampaignConfig config;
  config.runs = 6;
  config.seed = 3;
  config.hub_fault_trigger = hub::HubFaultModel{};
  config.telemetry = &telemetry;
  Campaign(AccumulatorApp(5'000), config).Run();
  telemetry.Finish();
  const std::string metrics = Slurp(dir + "/m.json");
  for (const char* name :
       {"campaign_trials_restored_total", "guest_instructions_restored_total"}) {
    double value = -1;
    EXPECT_TRUE(JsonFindNumber(metrics, name, &value)) << name << " missing";
    EXPECT_EQ(value, 0.0) << name;
  }
  EXPECT_EQ(Registry::Global().GetCounter("campaign_trials_total").Value(),
            config.runs);
  fs::remove_all(dir);
  Registry::Global().Reset();
}

TEST(TelemetryIdentity, SerialReportIsByteIdenticalWithTelemetryOnOrOff) {
  const std::string dir = TempDir("identity_serial");
  CampaignConfig config;
  config.runs = 12;
  config.seed = 21;

  Campaign plain(AccumulatorApp(), config);
  const std::string csv_off = ResultCsv(plain.Run());

  Telemetry telemetry({.trace_path = dir + "/t.json",
                       .status_path = dir + "/s.json",
                       .metrics_path = dir + "/m.json"});
  config.telemetry = &telemetry;
  Campaign instrumented(AccumulatorApp(), config);
  const std::string csv_on = ResultCsv(instrumented.Run());
  telemetry.Finish();

  EXPECT_EQ(csv_off, csv_on)
      << "telemetry observed its way into the campaign results";
  const std::string status = Slurp(dir + "/s.json");
  EXPECT_EQ(ParseDone(status), 12u);
  EXPECT_NE(status.find("\"running\": false"), std::string::npos);
  EXPECT_NE(Slurp(dir + "/m.json").find("campaign_trials_total"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(TelemetryIdentity, ParallelMatchesSerialWithTelemetryAttached) {
  const std::string dir = TempDir("identity_parallel");
  CampaignConfig config;
  config.runs = 12;
  config.seed = 21;

  Campaign serial(AccumulatorApp(), config);
  const std::string csv_serial = ResultCsv(serial.Run());

  Telemetry telemetry({.status_path = dir + "/s.json"});
  config.telemetry = &telemetry;
  Campaign parallel(AccumulatorApp(), config, /*jobs=*/4);
  const std::string csv_parallel = ResultCsv(parallel.Run());
  telemetry.Finish();

  EXPECT_EQ(csv_serial, csv_parallel);
  EXPECT_EQ(ParseDone(Slurp(dir + "/s.json")), 12u);
  fs::remove_all(dir);
}

TEST(TelemetryIdentity, MpiCampaignTraceCoversTheInstrumentedPhases) {
  const std::string dir = TempDir("trace_phases");
  CampaignConfig config;
  config.runs = 8;
  config.seed = 3;

  Campaign plain(apps::BuildMatvec({}), config);
  const std::string csv_off = ResultCsv(plain.Run());

  Telemetry telemetry({.trace_path = dir + "/t.json"});
  config.telemetry = &telemetry;
  Campaign instrumented(apps::BuildMatvec({}), config);
  const std::string csv_on = ResultCsv(instrumented.Run());
  telemetry.Finish();

  EXPECT_EQ(csv_off, csv_on);
  const std::string trace = Slurp(dir + "/t.json");
  int phases = 0;
  for (const char* name : {"golden", "trial", "translate", "execute", "inject",
                           "taint-propagate", "hub-publish", "hub-poll",
                           "start", "restore", "classify"}) {
    if (trace.find("\"name\":\"" + std::string(name) + "\"") !=
        std::string::npos) {
      ++phases;
    }
  }
  EXPECT_GE(phases, 5) << "expected at least 5 distinct phases in the trace";
  EXPECT_NE(trace.find("\"name\":\"start\""), std::string::npos)
      << "trial starts are not timed";
  EXPECT_NE(trace.find("\"name\":\"classify\""), std::string::npos)
      << "trial classification is not timed";
  EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  fs::remove_all(dir);
}

/// Thread tracks called `name` in a Chrome trace document.
int TracksNamed(const std::string& trace, const std::string& name) {
  const std::string needle = "\"args\":{\"name\":\"" + name + "\"}";
  int n = 0;
  for (std::size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// chaser_run calls RunGolden() before Run(): the golden phase must still be
/// timed, exactly once, with no profiler left armed on the thread between
/// the calls and a single "main" track shared with the trials.
void ExpectGoldenTimedOnceBeforeRun(const std::string& name, unsigned jobs) {
  Registry::Global().Reset();
  const std::string dir = TempDir(name);
  Telemetry telemetry({.trace_path = dir + "/t.json"});
  CampaignConfig config;
  config.runs = 4;
  config.seed = 5;
  config.telemetry = &telemetry;
  Campaign driver(AccumulatorApp(), config, jobs);
  driver.RunGolden();
  EXPECT_EQ(ThreadProfiler(), nullptr) << "RunGolden left a profiler armed";
  driver.Run();
  telemetry.Finish();
  EXPECT_EQ(Registry::Global()
                .GetHistogram("phase_golden_ns", LatencyBoundsNs())
                .Count(),
            1u);
  EXPECT_EQ(TracksNamed(Slurp(dir + "/t.json"), "main"), 1);
  fs::remove_all(dir);
  Registry::Global().Reset();
}

TEST(Telemetry, SerialGoldenRunIsTimedWhenCalledBeforeRun) {
  ExpectGoldenTimedOnceBeforeRun("golden_serial", 1);
}

TEST(Telemetry, ParallelGoldenRunIsTimedWhenCalledBeforeRun) {
  ExpectGoldenTimedOnceBeforeRun("golden_parallel", 2);
}

/// Every executed trial starts its job exactly once, inside the trial and
/// outside the golden run, whichever worker runs it.
void ExpectOneStartPerTrial(unsigned jobs) {
  Registry::Global().Reset();
  Telemetry telemetry({});
  CampaignConfig config;
  config.runs = 9;
  config.seed = 13;
  config.telemetry = &telemetry;
  Campaign(AccumulatorApp(), config, jobs).Run();
  telemetry.Finish();
  Registry& reg = Registry::Global();
  EXPECT_EQ(reg.GetHistogram("phase_start_ns", LatencyBoundsNs()).Count(), 9u);
  EXPECT_EQ(reg.GetHistogram("phase_trial_ns", LatencyBoundsNs()).Count(), 9u);
  Registry::Global().Reset();
}

TEST(Telemetry, StartPhaseCountsOncePerSerialTrial) {
  ExpectOneStartPerTrial(1);
}

TEST(Telemetry, StartPhaseCountsOncePerParallelTrial) {
  ExpectOneStartPerTrial(3);
}

/// A trial that starts from a golden-prefix checkpoint records one restore
/// phase and one restored-trial count, whichever worker runs it; a trial
/// that boots records neither. A 5000-fadd accumulator retires ~20k
/// instructions — four checkpoints — so most trials restore and a few
/// inject before the first checkpoint. Every trial is classified once.
void ExpectOneRestorePerRestoredTrial(unsigned jobs) {
  Registry::Global().Reset();
  Telemetry telemetry({});
  CampaignConfig config;
  config.runs = 24;
  config.seed = 13;
  config.telemetry = &telemetry;
  Campaign(AccumulatorApp(5'000), config, jobs).Run();
  telemetry.Finish();
  Registry& reg = Registry::Global();
  const std::uint64_t restored =
      reg.GetCounter("campaign_trials_restored_total").Value();
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, config.runs);
  EXPECT_EQ(reg.GetHistogram("phase_restore_ns", LatencyBoundsNs()).Count(),
            restored);
  EXPECT_EQ(reg.GetHistogram("phase_classify_ns", LatencyBoundsNs()).Count(),
            config.runs);
  const std::uint64_t skipped =
      reg.GetCounter("guest_instructions_restored_total").Value();
  EXPECT_GT(skipped, 0u);
  EXPECT_LT(skipped, reg.GetCounter("guest_instructions_total").Value());
  Registry::Global().Reset();
}

TEST(Telemetry, RestoreCountsOncePerRestoredSerialTrial) {
  ExpectOneRestorePerRestoredTrial(1);
}

TEST(Telemetry, RestoreCountsOncePerRestoredParallelTrial) {
  ExpectOneRestorePerRestoredTrial(3);
}

/// Occurrences of `needle` in `text`.
std::size_t Count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// Crashed trials (rank-crash injector) used to vanish from telemetry: the
// report counted them while status.json, /metrics and trace spans did not.
TEST(Telemetry, CrashedTrialsReachStatusMetricsAndSpans) {
  Registry::Global().Reset();
  const std::string dir = TempDir("crashed");
  Telemetry telemetry(
      {.trace_path = dir + "/t.json", .status_path = dir + "/s.json"});
  CampaignConfig config;
  config.runs = 20;
  config.seed = 5;
  config.injector = core::ParseInjectorSpec("rank-crash");
  config.telemetry = &telemetry;
  const CampaignResult result = Campaign(apps::BuildLud({}), config).Run();
  telemetry.Finish();
  ASSERT_EQ(result.crashed, config.runs);
  EXPECT_NE(result.Render("lud").find(StrFormat(
                "crashed     %6llu",
                static_cast<unsigned long long>(result.crashed))),
            std::string::npos);
  double status_crashed = -1;
  ASSERT_TRUE(JsonFindNumber(Slurp(dir + "/s.json"), "crashed", &status_crashed));
  EXPECT_EQ(status_crashed, static_cast<double>(result.crashed));
  EXPECT_EQ(Registry::Global().GetCounter("campaign_outcome_crashed").Value(),
            result.crashed);
  const std::string trace = Slurp(dir + "/t.json");
  EXPECT_EQ(Count(trace, "\"outcome\":\"crashed\""), result.crashed);
  EXPECT_EQ(Count(trace, "\"outcome\":\"?\""), 0u);
  fs::remove_all(dir);
  Registry::Global().Reset();
}

// Trials still in flight when an early stop latches finish executing but
// never commit, so status.json and campaign_outcome_* must not count them:
// they count what the result counts. The last committed trial (found from a
// one-worker run) is held until a later position has started, so some trial
// always runs past the stop.
TEST(Telemetry, StatusAndOutcomeCountersMatchTheResultPastAnEarlyStop) {
  CampaignConfig config;
  config.runs = 400;
  config.seed = 11;
  config.sample_policy = campaign::SamplePolicy::kWeighted;
  config.stop_ci = 0.1;
  const CampaignResult serial = Campaign(apps::BuildLud({}), config).Run();
  ASSERT_TRUE(serial.stopped_early);
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(config.seed, config.runs);
  const std::uint64_t last_committed = seeds[serial.runs - 1];
  const std::set<std::uint64_t> past_stop(seeds.begin() + serial.runs,
                                          seeds.end());

  std::mutex mutex;
  std::condition_variable later_started;
  bool started = false;
  bool timed_out = false;
  config.trial_chaos = [&](std::uint64_t run_seed, unsigned) {
    std::unique_lock<std::mutex> lock(mutex);
    if (past_stop.contains(run_seed)) {
      started = true;
      later_started.notify_all();
    } else if (run_seed == last_committed &&
               !later_started.wait_for(lock, std::chrono::seconds(60),
                                       [&] { return started; })) {
      timed_out = true;
    }
  };
  Registry::Global().Reset();
  const std::string dir = TempDir("past_stop");
  Telemetry telemetry(
      {.status_path = dir + "/s.json", .metrics_path = dir + "/m.json"});
  config.telemetry = &telemetry;
  const CampaignResult result =
      Campaign(apps::BuildLud({}), config, /*jobs=*/3).Run();
  telemetry.Finish();
  ASSERT_FALSE(timed_out)
      << "no later trial started while the last committed one was held";
  ASSERT_EQ(result.runs, serial.runs);
  Registry& reg = Registry::Global();
  EXPECT_GT(reg.GetCounter("campaign_trials_total").Value(), result.runs)
      << "campaign_trials_total counts executed trials, past the stop too";
  const std::string status = Slurp(dir + "/s.json");
  EXPECT_EQ(ParseDone(status), result.runs) << status;
  for (const OutcomeInfo& o : kOutcomes) {
    double count = -1;
    ASSERT_TRUE(JsonFindNumber(status, o.name, &count)) << o.name;
    EXPECT_EQ(count, static_cast<double>(result.count(o.outcome))) << o.name;
    EXPECT_EQ(reg.GetCounter(std::string("campaign_outcome_") + o.name).Value(),
              result.count(o.outcome))
        << o.name;
  }
  fs::remove_all(dir);
  Registry::Global().Reset();
}

TEST(Telemetry, TrialCountersLandInTheGlobalRegistry) {
  Registry::Global().Reset();
  Telemetry telemetry({});
  telemetry.BeginCampaign("t", 3);
  telemetry.AttachThread("main");
  TrialStats t;
  t.outcome = Outcome::kSdc;
  t.instructions = 1000;
  t.injections = 3;
  telemetry.OnTrialDone(t, 0, 500);
  telemetry.OnTrialCommitted(t);
  // Executed, then dropped by the commit (it finished past a latched stop).
  telemetry.OnTrialDone(t, 0, 500);
  t.outcome = Outcome::kBenign;
  t.replayed = true;
  telemetry.OnTrialDone(t, 0, 0);
  telemetry.OnTrialCommitted(t);
  telemetry.DetachThread();
  telemetry.Finish();
  Registry& reg = Registry::Global();
  EXPECT_EQ(reg.GetCounter("campaign_trials_total").Value(), 3u);
  EXPECT_EQ(reg.GetCounter("campaign_trials_replayed").Value(), 1u);
  EXPECT_EQ(reg.GetCounter("campaign_outcome_sdc").Value(), 1u)
      << "outcomes count committed trials only";
  EXPECT_EQ(reg.GetCounter("campaign_outcome_benign").Value(), 1u);
  // Replayed trials did not execute here: no per-trial hot-path traffic.
  EXPECT_EQ(reg.GetCounter("guest_instructions_total").Value(), 2000u);
  EXPECT_EQ(reg.GetCounter("injections_total").Value(), 6u);
  Registry::Global().Reset();
}

}  // namespace
}  // namespace chaser::obs
