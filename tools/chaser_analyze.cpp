// chaser_analyze — offline propagation analysis over trial trace spools.
//
//   chaser_analyze summarize  <spool>            # counts, spread order, transfers
//   chaser_analyze summarize  <store>            # outcome rates + Wilson CIs
//   chaser_analyze export-csv <store> [--out F]  # the records CSV
//   chaser_analyze timeline   <spool> [--csv]    # Fig. 7 tainted-bytes curve
//   chaser_analyze graph-dot  <spool>            # Graphviz DOT of the graph
//   chaser_analyze root-cause <spool> [--rank R --fd F --offset N]
//                                                # SDC output byte -> injection
//
// <spool> is a trial directory written by a TraceSpool (chaser_run --spool,
// CampaignConfig::spool_dir, or examples/post_analysis) — or a campaign
// spool directory holding trial-<seed>/ subdirectories, selected with
// --trial SEED (defaulting to the only trial if there is exactly one).
// <store> is a CTR trial store (chaser_run --out, chaser_fleet merge --out);
// `summarize` over one reports the weighted outcome-rate estimates with
// their 95% Wilson intervals (sample_weight-aware, so sampled campaigns are
// unbiased).
// --json switches summarize/timeline/root-cause to JSON; --out FILE writes
// to a file instead of stdout.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/propagation.h"
#include "analysis/spool.h"
#include "campaign/fleet.h"
#include "campaign/sampling.h"
#include "common/error.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "guest/isa.h"
#include "net/socket.h"
#include "obs/export.h"
#include "store/ctr.h"
#include "store/query.h"

namespace {

using namespace chaser;
namespace fs = std::filesystem;

void Usage() {
  std::printf(
      "usage: chaser_analyze <subcommand> <spool-dir> [options]\n"
      "\n"
      "subcommands:\n"
      "  summarize    graph/transfer summary, first contamination, spread order;\n"
      "               given a CTR store (chaser_run --out) instead of a spool\n"
      "               dir: outcome rates with 95%% Wilson intervals\n"
      "               (weight-aware), streamed column-wise; merge shard\n"
      "               stores with chaser_fleet merge first\n"
      "  query        filter/aggregate a CTR trial store in one streaming pass:\n"
      "               --where outcome=sdc,injector=stuckat equality filters,\n"
      "               --group-by outcome|injector|fault_class|inject_class|rank,\n"
      "               --top-k N hottest injection sites (pc x instr class)\n"
      "  export-csv   stream a CTR store back out as a records CSV,\n"
      "               byte-identical to chaser_run --out for the same trials\n"
      "  timeline     tainted-bytes-over-time curve (Fig. 7)\n"
      "  graph-dot    propagation graph as Graphviz DOT\n"
      "  root-cause   walk a corrupted output byte back to the injection\n"
      "  top          live fleet dashboard over scrape endpoints:\n"
      "               chaser_analyze top --dir FLEET_DIR (endpoints discovered\n"
      "               from fleet-status.json) or --endpoints H:P[,...];\n"
      "               --interval MS refresh (default 1000), --once prints a\n"
      "               single frame and exits\n"
      "  scrape       print one endpoint body and exit:\n"
      "               chaser_analyze scrape H:P [/metrics|/status|/healthz]\n"
      "\n"
      "options:\n"
      "  --where SPEC   query: comma-separated key=value filters (keys: outcome,\n"
      "                 kind, signal, inject_class, rank, injector, fault_class)\n"
      "  --group-by G   query: outcome|injector|fault_class|inject_class|rank\n"
      "  --top-k N      query: also rank the N hottest injection sites\n"
      "  --trial SEED   pick trial-<SEED>/ inside a campaign spool dir\n"
      "  --rank R       root-cause: rank of the output byte (default: first)\n"
      "  --fd F         root-cause: output stream fd (default: first)\n"
      "  --offset N     root-cause: byte offset in that stream (default: first)\n"
      "  --csv          timeline: emit instret,tainted_bytes CSV\n"
      "  --json         summarize/query/timeline/root-cause: emit JSON\n"
      "  --out FILE     write to FILE instead of stdout\n"
      "  --help         this text\n");
}

/// Resolve a spool path: a trial dir itself, or a campaign dir holding
/// trial-<seed>/ children (picked by --trial, or alone-child default).
std::string ResolveTrialDir(const std::string& dir, const std::string& trial) {
  if (!trial.empty()) {
    const std::string candidate = dir + "/trial-" + trial;
    if (analysis::IsTrialSpoolDir(candidate)) return candidate;
    throw ConfigError("no trial spool at '" + candidate + "'");
  }
  if (analysis::IsTrialSpoolDir(dir)) return dir;
  std::vector<std::string> trials;
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_directory() &&
          analysis::IsTrialSpoolDir(entry.path().string())) {
        trials.push_back(entry.path().string());
      }
    }
  }
  std::sort(trials.begin(), trials.end());
  if (trials.size() == 1) return trials[0];
  if (trials.empty()) {
    throw ConfigError("'" + dir + "' is neither a trial spool (no .seg files) "
                      "nor a campaign spool directory");
  }
  std::string msg = "'" + dir + "' holds " + std::to_string(trials.size()) +
                    " trials; pick one with --trial SEED:";
  for (const std::string& t : trials) msg += "\n  " + t;
  throw ConfigError(msg);
}

/// The spool's in-memory-TraceLog drop count, recorded by the campaign in
/// meta.txt. 0 when absent (pre-drop-accounting spools) or unparsable.
std::uint64_t MetaTraceDropped(const std::map<std::string, std::string>& meta) {
  const auto it = meta.find("trace_dropped");
  std::uint64_t n = 0;
  if (it != meta.end()) ParseU64(it->second, &n);
  return n;
}

std::string SummarizeJson(const analysis::PropagationGraph& g,
                          const std::map<std::string, std::string>& meta) {
  std::string out = "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out += StrFormat("%s\n    \"%s\": \"%s\"", first ? "" : ",",
                     JsonEscape(k).c_str(), JsonEscape(v).c_str());
    first = false;
  }
  out += "\n  },\n  \"first_contamination\": {";
  first = true;
  for (const auto& [rank, instret] : g.FirstContamination()) {
    out += StrFormat("%s\"%d\": %llu", first ? "" : ", ", rank,
                     static_cast<unsigned long long>(instret));
    first = false;
  }
  out += "},\n  \"spread_order\": [";
  first = true;
  for (const Rank r : g.SpreadOrder()) {
    out += StrFormat("%s%d", first ? "" : ", ", r);
    first = false;
  }
  out += "],\n  \"transfers\": [";
  first = true;
  for (const hub::TransferLogEntry& t : g.dataset().transfers) {
    out += StrFormat(
        "%s\n    {\"hub_seq\": %llu, \"src\": %d, \"dest\": %d, \"tag\": %lld, "
        "\"tainted_bytes\": %llu, \"payload_bytes\": %llu}",
        first ? "" : ",", static_cast<unsigned long long>(t.hub_seq), t.id.src,
        t.id.dest, static_cast<long long>(t.id.tag),
        static_cast<unsigned long long>(t.tainted_bytes),
        static_cast<unsigned long long>(t.payload_bytes));
    first = false;
  }
  out += StrFormat(
      "\n  ],\n  \"nodes\": %zu,\n  \"edges\": %zu,\n"
      "  \"trace_dropped\": %llu\n}\n",
      g.nodes().size(), g.edges().size(),
      static_cast<unsigned long long>(MetaTraceDropped(meta)));
  return out;
}

std::string TimelineText(const analysis::PropagationGraph& g, bool csv,
                         bool json) {
  const auto timeline = g.TaintTimeline();
  std::string out;
  if (json) {
    out = "[";
    bool first = true;
    for (const auto& [instret, bytes] : timeline) {
      out += StrFormat("%s\n  {\"instret\": %llu, \"tainted_bytes\": %llu}",
                       first ? "" : ",",
                       static_cast<unsigned long long>(instret),
                       static_cast<unsigned long long>(bytes));
      first = false;
    }
    out += "\n]\n";
    return out;
  }
  if (csv) {
    out = "instret,tainted_bytes\n";
    for (const auto& [instret, bytes] : timeline) {
      out += StrFormat("%llu,%llu\n", static_cast<unsigned long long>(instret),
                       static_cast<unsigned long long>(bytes));
    }
    return out;
  }
  std::uint64_t peak = 0;
  for (const auto& [instret, bytes] : timeline) peak = std::max(peak, bytes);
  out = StrFormat("tainted-bytes timeline: %zu samples, peak %llu bytes\n",
                  timeline.size(), static_cast<unsigned long long>(peak));
  for (const auto& [instret, bytes] : timeline) {
    const int bar = peak == 0 ? 0 : static_cast<int>(50 * bytes / peak);
    out += StrFormat("  %12llu %8llu %s\n",
                     static_cast<unsigned long long>(instret),
                     static_cast<unsigned long long>(bytes),
                     std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  return out;
}

/// Per-injector outcome tallies, keyed by the v6 injector column. Only
/// custom-injector campaigns populate it; default records leave the map
/// empty and the breakdown is omitted entirely.
struct InjectorTally {
  std::string fault_class;
  OutcomeArray<std::uint64_t> outcomes;
};

/// Streaming outcome tallies over a store's records, one at a time. The
/// estimator is sample_weight-aware, so records from a stratified campaign
/// report the same unbiased rates the campaign itself printed; uniform and
/// weighted records degenerate to plain proportions.
struct OutcomeTallies {
  campaign::OutcomeEstimator est;  // the rate-series outcomes
  OutcomeArray<std::uint64_t> outcomes;
  std::size_t records = 0;
  std::map<std::string, InjectorTally> by_injector;

  void Add(const campaign::RunRecord& r) {
    ++records;
    ++outcomes[r.outcome];
    if (!r.injector.empty()) {
      InjectorTally& t = by_injector[r.injector];
      t.fault_class = r.fault_class;
      ++t.outcomes[r.outcome];
    }
    est.Add(r.outcome, r.deadlock, r.sample_weight);
  }
};

/// Render the estimates behind `head`: the caller supplies the leading
/// source-description lines (JSON key lines or text header lines), this adds
/// the record counts, Wilson-interval rows and per-injector breakdown.
std::string RenderOutcomeSummary(const OutcomeTallies& tallies, bool json,
                                 const std::string& head) {
  using Estimator = campaign::OutcomeEstimator;
  const Estimator& est = tallies.est;
  const auto& by_injector = tallies.by_injector;
  std::vector<Estimator::Series> series;
  for (int i = 0; i < Estimator::kNumSeries; ++i) {
    series.push_back(static_cast<Estimator::Series>(i));
  }
  const auto count = [&](const OutcomeInfo& o) {
    return static_cast<unsigned long long>(tallies.outcomes[o.outcome]);
  };
  if (json) {
    std::string out = StrFormat("{\n%s  \"records\": %zu,\n", head.c_str(),
                                tallies.records);
    for (const OutcomeInfo& o : kOutcomes) {
      if (o.rate_series) continue;
      out += StrFormat("  \"%s\": %llu,\n", o.name, count(o));
    }
    out += StrFormat("  \"effective_n\": %.1f,\n  \"estimates\": {",
                     est.effective_n());
    bool first = true;
    for (const Estimator::Series s : series) {
      const WilsonInterval w = est.Interval(s);
      out += StrFormat(
          "%s\n    \"%s\": {\"rate\": %.6f, \"lo\": %.6f, \"hi\": %.6f}",
          first ? "" : ",", Estimator::SeriesName(s), w.rate, w.lo, w.hi);
      first = false;
    }
    out += "\n  }";
    if (!by_injector.empty()) {
      out += ",\n  \"by_injector\": {";
      first = true;
      for (const auto& [name, t] : by_injector) {
        out += StrFormat(
            "%s\n    \"%s\": {\"fault_class\": \"%s\", %s}", first ? "" : ",",
            JsonEscape(name).c_str(), JsonEscape(t.fault_class).c_str(),
            FormatOutcomeCounts(t.outcomes, /*json=*/true).c_str());
        first = false;
      }
      out += "\n  }";
    }
    out += "\n}\n";
    return out;
  }
  std::string out = head;
  out += StrFormat(
      "  %zu records, effective n %.1f\n"
      "  outcome-rate estimates (95%% wilson):\n",
      tallies.records, est.effective_n());
  for (const Estimator::Series s : series) {
    const WilsonInterval w = est.Interval(s);
    out += StrFormat("    %-10s %6.2f%%  [%5.2f%%, %5.2f%%]\n",
                     Estimator::SeriesName(s), 100.0 * w.rate, 100.0 * w.lo,
                     100.0 * w.hi);
  }
  for (const OutcomeInfo& o : kOutcomes) {
    if (o.rate_series || count(o) == 0) continue;
    out += StrFormat("    %-10s %6llu trials (excluded from rates)\n", o.name,
                     count(o));
  }
  if (!by_injector.empty()) {
    out += "  per-injector outcomes:\n";
    for (const auto& [name, t] : by_injector) {
      out += StrFormat("    %-14s %-18s %s\n", name.c_str(),
                       ("(" + t.fault_class + ")").c_str(),
                       FormatOutcomeCounts(t.outcomes, /*json=*/false).c_str());
    }
  }
  return out;
}

/// Summarize a CTR trial store: the scan decodes only the six columns the
/// tallies read and skips the rest by their length prefixes.
std::string SummarizeCtrStore(const std::string& path, bool json) {
  const store::ColumnMask mask =
      store::MaskOf(store::kColRunSeed) | store::MaskOf(store::kColOutcome) |
      store::MaskOf(store::kColFlags) |
      store::MaskOf(store::kColSampleWeight) |
      store::MaskOf(store::kColInjector) |
      store::MaskOf(store::kColFaultClass);
  store::CtrStoreScanner scanner(path, mask);
  OutcomeTallies tallies;
  campaign::RunRecord r;
  while (scanner.Next(&r)) tallies.Add(r);
  if (scanner.truncated()) {
    std::fprintf(stderr,
                 "chaser_analyze: warning: store '%s' has a torn tail (its "
                 "writer died); summarizing the intact prefix\n",
                 path.c_str());
  }
  const store::CtrStoreInfo& info = scanner.info();
  std::string head;
  if (json) {
    head = StrFormat(
        "  \"store\": \"%s\",\n  \"app\": \"%s\",\n"
        "  \"campaign_seed\": %llu,\n  \"sealed\": %s,\n"
        "  \"truncated\": %s,\n",
        JsonEscape(path).c_str(), JsonEscape(info.app).c_str(),
        static_cast<unsigned long long>(info.campaign_seed),
        scanner.sealed() ? "true" : "false",
        scanner.truncated() ? "true" : "false");
  } else {
    head = StrFormat(
        "ctr store: %s\n  app %s, campaign seed %llu, sample %s, "
        "shard %llu/%llu\n",
        path.c_str(), info.app.c_str(),
        static_cast<unsigned long long>(info.campaign_seed),
        campaign::SamplePolicyName(info.sample_policy),
        static_cast<unsigned long long>(info.shard_index),
        static_cast<unsigned long long>(info.shard_count));
  }
  return RenderOutcomeSummary(tallies, json, head);
}

std::string AggJson(const store::GroupAgg& a) {
  return StrFormat(
      "{\"trials\": %llu, %s, \"weight\": %.17g, \"sdc_weight\": %.17g}",
      static_cast<unsigned long long>(a.trials),
      FormatOutcomeCounts(a.outcomes, /*json=*/true).c_str(), a.weight,
      a.sdc_weight);
}

std::string QueryJson(const store::QueryResult& res) {
  std::string out = StrFormat(
      "{\n  \"scanned\": %llu,\n  \"matched\": %llu,\n  \"sealed\": %s,\n"
      "  \"truncated\": %s,\n  \"total\": %s",
      static_cast<unsigned long long>(res.scanned),
      static_cast<unsigned long long>(res.matched),
      res.sealed ? "true" : "false", res.truncated ? "true" : "false",
      AggJson(res.total).c_str());
  if (!res.groups.empty()) {
    out += ",\n  \"groups\": {";
    bool first = true;
    for (const auto& [label, agg] : res.groups) {
      out += StrFormat("%s\n    \"%s\": %s", first ? "" : ",",
                       JsonEscape(label).c_str(), AggJson(agg).c_str());
      first = false;
    }
    out += "\n  }";
  }
  if (!res.top_sites.empty()) {
    out += ",\n  \"top_sites\": [";
    bool first = true;
    for (const store::SiteAgg& s : res.top_sites) {
      out += StrFormat(
          "%s\n    {\"pc\": \"%s\", \"class\": \"%s\", \"trials\": %llu, "
          "\"sdc\": %llu}",
          first ? "" : ",", Hex64(s.pc).c_str(), guest::ClassName(s.cls),
          static_cast<unsigned long long>(s.trials),
          static_cast<unsigned long long>(s.sdc));
      first = false;
    }
    out += "\n  ]";
  }
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Live fleet dashboard (`top`) and raw endpoint scrapes (`scrape`).
// ---------------------------------------------------------------------------

/// Every `"obs": "H:P"` value in a fleet-status.json document — the shard
/// and hub scrape endpoints the coordinator discovered, deduplicated in
/// document order.
std::vector<std::string> DiscoverObsEndpoints(const std::string& body) {
  std::vector<std::string> out;
  const std::string needle = "\"obs\": \"";
  std::size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const std::size_t end = body.find('"', pos);
    if (end == std::string::npos) break;
    const std::string ep = body.substr(pos, end - pos);
    if (std::find(out.begin(), out.end(), ep) == out.end()) out.push_back(ep);
    pos = end;
  }
  return out;
}

/// One dashboard row: endpoint, state, progress, rate, ETA, outcome counts.
std::string TopRow(const std::string& label, const char* state,
                   std::uint64_t done, std::uint64_t total, double rate,
                   const std::string& eta,
                   const OutcomeArray<std::uint64_t>& outcomes) {
  return StrFormat("%-22s %-8s %6llu/%-6llu %9.2f %9s  %s\n", label.c_str(),
                   state, static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total), rate, eta.c_str(),
                   FormatOutcomeCounts(outcomes, /*json=*/false).c_str());
}

/// One rendered frame of the dashboard.
std::string RenderTopFrame(const std::vector<std::string>& endpoints) {
  std::string out = StrFormat("%-22s %-8s %13s %9s %9s  %s\n", "ENDPOINT",
                              "STATE", "DONE/TOTAL", "RATE/s", "ETA_s",
                              "OUTCOMES");
  std::vector<campaign::ShardStatus> workers;
  std::string hub_lines;
  std::size_t silent = 0;
  for (const std::string& ep : endpoints) {
    const std::string body =
        obs::TryScrape(ep, "/status", /*timeout_ms=*/500);
    if (body.empty()) {
      ++silent;
      out += StrFormat("%-22s %-8s\n", ep.c_str(), "silent");
      continue;
    }
    std::string role;
    if (JsonFindString(body, "role", &role) && role == "hubd") {
      // A hub daemon: wire totals from /status, live bytes from /metrics.
      double cmds = 0.0, records = 0.0, conns = 0.0;
      JsonFindNumber(body, "commands", &cmds);
      JsonFindNumber(body, "records_published", &records);
      JsonFindNumber(body, "connections_accepted", &conns);
      const std::string metrics =
          obs::TryScrape(ep, "/metrics", /*timeout_ms=*/500);
      double bytes_in = 0.0, bytes_out = 0.0;
      obs::PrometheusValue(metrics, "hub_bytes_in_total", &bytes_in);
      obs::PrometheusValue(metrics, "hub_bytes_out_total", &bytes_out);
      hub_lines += StrFormat(
          "%-22s hub      %.0f cmds, %.0f records, %.0f conns, "
          "%.1f MB in / %.1f MB out\n",
          ep.c_str(), cmds, records, conns, bytes_in / 1e6, bytes_out / 1e6);
      continue;
    }
    const campaign::ShardStatus s = campaign::ParseShardStatus(body);
    if (!s.ok) {
      ++silent;
      out += StrFormat("%-22s %-8s\n", ep.c_str(), "garbled");
      continue;
    }
    workers.push_back(s);
    const std::string eta =
        !s.running ? "-" : s.eta_known ? StrFormat("%.1f", s.eta_s) : "?";
    out += TopRow(ep, s.running ? "running" : "done", s.done, s.total,
                  s.trials_per_s, eta, s.outcomes);
  }
  if (workers.size() > 1) {
    const campaign::FleetRollup r = campaign::RollUpShards(workers);
    const std::string eta =
        r.eta_known ? StrFormat("%.1f", r.eta_s) : std::string("?");
    out += TopRow("FLEET", "", r.done, r.total, r.trials_per_s, eta,
                  r.outcomes);
    out += "  outcome mix:";
    const char* sep = " ";
    for (const OutcomeInfo& o : kOutcomes) {
      out += StrFormat("%s%s %.1f%%", sep, o.name, 100.0 * r.rates[o.outcome]);
      sep = ", ";
    }
    out += "\n";
  }
  out += hub_lines;
  if (silent == endpoints.size()) {
    out += "(no endpoint answered — fleet finished or not started yet)\n";
  }
  return out;
}

int RunTop(int argc, char** argv) {
  std::vector<std::string> endpoints;
  std::string dir;
  std::uint64_t interval_ms = 1000;
  bool once = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw ConfigError(std::string("missing value for ") + flag);
      }
      return argv[++i];
    };
    if (a == "--endpoints") {
      for (const std::string& ep : Split(value("--endpoints"), ',')) {
        if (!ep.empty()) endpoints.push_back(ep);
      }
    } else if (a == "--dir") {
      dir = value("--dir");
    } else if (a == "--interval") {
      if (!ParseU64(value("--interval"), &interval_ms) || interval_ms == 0) {
        throw ConfigError("--interval expects milliseconds > 0");
      }
    } else if (a == "--once") {
      once = true;
    } else if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else {
      throw ConfigError("unknown flag '" + a + "'");
    }
  }
  if (endpoints.empty() && dir.empty()) {
    throw ConfigError("top: pass --endpoints H:P[,...] or --dir FLEET_DIR");
  }
  for (;;) {
    std::vector<std::string> eps = endpoints;
    if (!dir.empty()) {
      // Re-discover every frame: restarted workers move to new ports.
      std::ifstream in(dir + "/fleet-status.json");
      if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        for (const std::string& ep : DiscoverObsEndpoints(ss.str())) {
          if (std::find(eps.begin(), eps.end(), ep) == eps.end()) {
            eps.push_back(ep);
          }
        }
      }
    }
    const std::string frame = RenderTopFrame(eps);
    if (once) {
      std::fputs(frame.c_str(), stdout);
      return 0;
    }
    // Home + clear-to-end keeps the frame flicker-free on ANSI terminals.
    std::printf("\033[H\033[J%s\n(refresh %llums, ctrl-c to quit)\n",
                frame.c_str(), static_cast<unsigned long long>(interval_ms));
    std::fflush(stdout);
    usleep(static_cast<useconds_t>(interval_ms * 1000));
  }
}

int RunScrape(int argc, char** argv) {
  if (argc < 3) {
    throw ConfigError("scrape: usage: chaser_analyze scrape H:P [/metrics]");
  }
  const std::string endpoint = argv[2];
  const std::string path = argc >= 4 ? argv[3] : "/metrics";
  const net::Endpoint ep = net::ParseEndpoint(endpoint);
  const obs::HttpResponse r = obs::HttpGet(ep.host, ep.port, path);
  std::fputs(r.body.c_str(), stdout);
  return r.status == 200 ? 0 : 1;
}

std::string RootCauseJson(const analysis::RootCauseChain& chain) {
  std::string out = StrFormat(
      "{\n  \"complete\": %s,\n  \"transfers_crossed\": %zu,\n  \"steps\": [",
      chain.complete ? "true" : "false", chain.transfers_crossed);
  bool first = true;
  for (const analysis::ChainStep& s : chain.steps) {
    out += StrFormat("%s\n    \"%s\"", first ? "" : ",",
                     JsonEscape(s.Describe()).c_str());
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // `top` and `scrape` talk to live scrape endpoints, not spool dirs —
    // dispatch them before the spool-oriented argument shape below.
    if (argc >= 2 && std::string(argv[1]) == "top") return RunTop(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "scrape") {
      return RunScrape(argc, argv);
    }
    if (argc < 3) {
      Usage();
      return argc >= 2 && std::string(argv[1]) == "--help" ? 0 : 2;
    }
    const std::string cmd = argv[1];
    const std::string dir = argv[2];
    std::string trial, out_path;
    std::string where_spec, group_by;
    std::uint64_t top_k = 0;
    bool csv = false, json = false;
    bool rank_given = false, fd_given = false, offset_given = false;
    std::uint64_t rank = 0, fd = 0, offset = 0;
    for (int i = 3; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&](const char* flag) -> std::string {
        if (i + 1 >= argc) {
          throw ConfigError(std::string("missing value for ") + flag);
        }
        return argv[++i];
      };
      const auto num = [&](const char* flag) {
        std::uint64_t v = 0;
        if (!ParseU64(value(flag), &v)) {
          throw ConfigError(std::string("bad number for ") + flag);
        }
        return v;
      };
      if (a == "--trial") trial = value("--trial");
      else if (a == "--where") where_spec = value("--where");
      else if (a == "--group-by") group_by = value("--group-by");
      else if (a == "--top-k") top_k = num("--top-k");
      else if (a == "--rank") { rank = num("--rank"); rank_given = true; }
      else if (a == "--fd") { fd = num("--fd"); fd_given = true; }
      else if (a == "--offset") { offset = num("--offset"); offset_given = true; }
      else if (a == "--csv") csv = true;
      else if (a == "--json") json = true;
      else if (a == "--out") out_path = value("--out");
      else if (a == "--help" || a == "-h") { Usage(); return 0; }
      else throw ConfigError("unknown argument '" + a + "'");
    }

    if (cmd == "query") {
      store::QueryOptions query;
      if (!where_spec.empty()) {
        query.filter = store::ParseTrialFilter(where_spec);
      }
      if (!group_by.empty() && !store::ParseGroupBy(group_by, &query.group_by)) {
        throw ConfigError("bad --group-by '" + group_by +
                          "' (outcome|injector|fault_class|inject_class|rank)");
      }
      if (top_k > UINT32_MAX) {
        throw ConfigError("--top-k must be at most 4294967295");
      }
      query.top_k = static_cast<unsigned>(top_k);
      const store::QueryResult result = store::RunQuery(dir, query);
      const std::string output =
          json ? QueryJson(result) : store::RenderQueryResult(result, query);
      if (out_path.empty()) {
        std::fputs(output.c_str(), stdout);
      } else {
        WriteFileAtomic(out_path, output);
        std::printf("wrote %zu bytes to %s\n", output.size(), out_path.c_str());
      }
      return 0;
    }

    if (cmd == "export-csv") {
      store::ExportStats stats;
      if (out_path.empty()) {
        stats = store::ExportCsv(dir, std::cout);
        std::cout.flush();
      } else {
        // Streamed, never held in memory, and crash-safe: a failed export
        // never clobbers a previous complete file.
        WriteFileAtomic(out_path, [&](std::ostream& out) {
          stats = store::ExportCsv(dir, out);
        });
        std::printf("exported %llu records (records csv v%u) to %s\n",
                    static_cast<unsigned long long>(stats.rows),
                    stats.csv_version, out_path.c_str());
      }
      if (stats.truncated) {
        std::fprintf(stderr,
                     "chaser_analyze: warning: store '%s' has a torn tail "
                     "(its writer died); exported the intact prefix\n",
                     dir.c_str());
      }
      return 0;
    }

    if (cmd == "summarize" && store::IsCtrStorePath(dir)) {
      const std::string output = SummarizeCtrStore(dir, json);
      if (out_path.empty()) {
        std::fputs(output.c_str(), stdout);
      } else {
        WriteFileAtomic(out_path, output);
        std::printf("wrote %zu bytes to %s\n", output.size(), out_path.c_str());
      }
      return 0;
    }

    if (cmd == "summarize" && fs::is_regular_file(dir)) {
      throw ConfigError("summarize: '" + dir +
                        "' is neither a CTR store nor a trial spool (a "
                        "records CSV is an export only)");
    }

    const std::string trial_dir = ResolveTrialDir(dir, trial);
    const analysis::TrialSpool spool = analysis::ReadTrialSpool(trial_dir);
    if (spool.truncated) {
      std::fprintf(stderr,
                   "chaser_analyze: warning: spool '%s' is truncated (writer "
                   "died mid-trial); analyzing the intact prefix\n",
                   trial_dir.c_str());
    }
    const analysis::PropagationGraph graph =
        analysis::PropagationGraph::Build(analysis::DatasetFromSpool(spool));

    std::string output;
    if (cmd == "summarize") {
      if (json) {
        output = SummarizeJson(graph, spool.meta);
      } else {
        output = StrFormat("trial spool: %s\n", trial_dir.c_str());
        for (const auto& [k, v] : spool.meta) {
          output += StrFormat("  %s=%s\n", k.c_str(), v.c_str());
        }
        // The spool itself is capless, but the campaign's in-memory TraceLogs
        // are not: surface their drop count so a summary over a partial
        // in-memory view is never mistaken for one over a complete trace.
        const std::uint64_t dropped = MetaTraceDropped(spool.meta);
        if (dropped > 0) {
          output += StrFormat(
              "  note: the in-memory trace dropped %llu events at its "
              "capacity cap during this trial (this spool still holds the "
              "full trace)\n",
              static_cast<unsigned long long>(dropped));
        }
        output += graph.Summarize();
      }
    } else if (cmd == "timeline") {
      output = TimelineText(graph, csv, json);
    } else if (cmd == "graph-dot") {
      output = graph.ToDot();
    } else if (cmd == "root-cause") {
      if (!rank_given || !fd_given || !offset_given) {
        const auto outputs = graph.OutputEvents();
        if (outputs.empty()) {
          throw ConfigError(
              "no tainted output bytes in this trial (nothing to root-cause); "
              "was the trial an SDC with tracing enabled?");
        }
        if (!rank_given) rank = static_cast<std::uint64_t>(outputs[0].rank);
        if (!fd_given) fd = static_cast<std::uint64_t>(outputs[0].fd);
        if (!offset_given) offset = outputs[0].stream_off;
      }
      const analysis::RootCauseChain chain = graph.RootCause(
          static_cast<Rank>(rank), static_cast<int>(fd), offset);
      output = json ? RootCauseJson(chain) : chain.Render();
    } else {
      Usage();
      throw ConfigError("unknown subcommand '" + cmd + "'");
    }

    if (out_path.empty()) {
      std::fputs(output.c_str(), stdout);
    } else {
      // Atomic tmp+rename: never clobber a previous report with a torn file.
      WriteFileAtomic(out_path, output);
      std::printf("wrote %zu bytes to %s\n", output.size(), out_path.c_str());
    }
    return 0;
  } catch (const ChaserError& e) {
    std::fprintf(stderr, "chaser_analyze: %s\n", e.what());
    return 2;
  }
}
