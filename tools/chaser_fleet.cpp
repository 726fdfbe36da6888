// chaser_fleet — sharded-campaign coordinator.
//
// `chaser_fleet run` splits one campaign across N `chaser_run --shard i/N`
// worker processes (optionally publishing message taint through spawned
// chaser_hubd servers), supervises them — each writes its records to a CTR
// store, DIR/shard-<i>.ctr, and a crashed shard is restarted and resumes
// from that store — rolls their status files up into DIR/fleet-status.json,
// and finally merges the shard stores into DIR/merged.ctr and one report
// byte-identical to an unsharded run of the same plan (see campaign/fleet.h
// for the determinism argument).
//
//   chaser_fleet run --app matvec --runs 400 --seed 7 --shards 2
//       --dir /tmp/fleet --spawn-hub 1
//
// `chaser_fleet merge` is the offline half: given the per-shard CTR stores
// and the campaign plan, it re-derives the merged report without running
// anything.
//
//   chaser_fleet merge --app matvec --runs 400 --seed 7
//       --report /tmp/report.txt shard-0.ctr shard-1.ctr
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.h"
#include "campaign/fleet.h"
#include "common/error.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "net/socket.h"
#include "obs/export.h"
#include "obs/trace_merge.h"
#include "store/ctr.h"

namespace {

using namespace chaser;

void Usage() {
  std::printf(
      "usage: chaser_fleet run   --app APP --dir DIR [options]\n"
      "       chaser_fleet merge --app APP --runs N --seed S [opts] STORE...\n"
      "       chaser_fleet trace-merge --out FILE TRACE.json...\n"
      "\n"
      "run options:\n"
      "  --app NAME          campaign app (as chaser_run --app)\n"
      "  --dir DIR           working directory for the per-shard CTR stores\n"
      "                      (shard-<i>.ctr), logs, status files, and the\n"
      "                      merged outputs (merged.ctr, report.txt)\n"
      "  --runs N            total trials across all shards (default 200)\n"
      "  --seed N            campaign seed (default 1)\n"
      "  --shards K          worker count (default 2)\n"
      "  --jobs N            worker threads per shard (default 1 = serial)\n"
      "  --sample POLICY     sampling policy, forwarded to every worker\n"
      "  --stop-ci W         early-stop interval width, applied at merge time\n"
      "                      in global seed order (workers run their full\n"
      "                      shard; see campaign/fleet.h)\n"
      "  --worker BIN        chaser_run binary (default: sibling of this one)\n"
      "  --hub H:P[,...]     existing chaser_hubd endpoint(s) for the workers\n"
      "  --spawn-hub N       spawn N chaser_hubd processes on ephemeral ports\n"
      "                      and point the workers at them (N>1 shards the\n"
      "                      hub key space; use 1 when byte-identity with an\n"
      "                      in-process run matters)\n"
      "  --hubd BIN          chaser_hubd binary (default: sibling)\n"
      "  --restarts N        max restarts per crashed shard (default 2); a\n"
      "                      restarted shard resumes from its store\n"
      "  --obs 0|1           observability plane (default 0): every worker and\n"
      "                      spawned hubd serves /metrics + /status + /healthz\n"
      "                      on an ephemeral port, fleet-status.json gains the\n"
      "                      live fleet rollup (scraped when possible, status\n"
      "                      files as fallback), workers write Chrome traces,\n"
      "                      and the traces merge into DIR/fleet-trace.json\n"
      "\n"
      "merge options (inputs: one CTR store per shard, in any order):\n"
      "  --runs/--seed/--sample/--stop-ci   the plan every shard ran\n"
      "  --out DIR           write the merged records as one CTR store\n"
      "                      (export a CSV with chaser_analyze export-csv)\n"
      "  --report FILE       write the merged report (also printed)\n"
      "\n"
      "trace-merge: stitch per-process Chrome traces (chaser_run --trace-out)\n"
      "into one fleet timeline — per-file pids become distinct process rows\n"
      "and timestamps are aligned via each file's wall-clock anchor\n"
      "(hub-handshake corrected when the run had a hub; see DESIGN.md 5.10).\n");
}

std::string ArgStr(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) throw ConfigError(std::string("missing value for ") + flag);
  return argv[++i];
}

std::uint64_t ArgNum(int argc, char** argv, int& i, const char* flag) {
  std::uint64_t v = 0;
  if (!ParseU64(ArgStr(argc, argv, i, flag), &v)) {
    throw ConfigError(std::string("bad number for ") + flag);
  }
  return v;
}

/// Resolve a tool that ships next to this one: "<dir of argv0>/<name>", or
/// bare `name` (PATH lookup in execvp) when argv0 has no directory part.
std::string SiblingBinary(const char* argv0, const std::string& name) {
  const std::string self = argv0;
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return name;
  return self.substr(0, slash + 1) + name;
}

/// fork+execvp with stdout/stderr appended to `log_path`. Returns the pid.
pid_t SpawnLogged(const std::vector<std::string>& args,
                  const std::string& log_path) {
  const pid_t pid = fork();
  if (pid < 0) throw ConfigError(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    const int fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) close(fd);
    }
    std::vector<char*> cargs;
    cargs.reserve(args.size() + 1);
    for (const std::string& a : args) cargs.push_back(const_cast<char*>(a.c_str()));
    cargs.push_back(nullptr);
    execvp(cargs[0], cargs.data());
    std::fprintf(stderr, "chaser_fleet: exec %s: %s\n", cargs[0],
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

struct HubProc {
  pid_t pid = -1;
  std::string endpoint;
  std::string obs_endpoint;  // "" when the hub runs without a scrape server
};

/// Spawn a chaser_hubd on an ephemeral port and read the bound endpoint
/// from its first stdout line ("chaser_hubd: listening on H:P"); with
/// `obs` the daemon also gets --obs-port 0 and its scrape endpoint is read
/// from the second banner line.
HubProc SpawnHub(const std::string& hubd_bin, bool obs) {
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    throw ConfigError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = fork();
  if (pid < 0) throw ConfigError(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    close(pipefd[0]);
    dup2(pipefd[1], STDOUT_FILENO);
    if (pipefd[1] > STDERR_FILENO) close(pipefd[1]);
    if (obs) {
      execlp(hubd_bin.c_str(), hubd_bin.c_str(), "--port", "0", "--obs-port",
             "0", static_cast<char*>(nullptr));
    } else {
      execlp(hubd_bin.c_str(), hubd_bin.c_str(), "--port", "0",
             static_cast<char*>(nullptr));
    }
    std::fprintf(stderr, "chaser_fleet: exec %s: %s\n", hubd_bin.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(pipefd[1]);
  // Read one banner line per call; the daemon flushes each after binding.
  const auto read_line = [&pipefd] {
    std::string line;
    char c;
    while (read(pipefd[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    return line;
  };
  HubProc hub;
  hub.pid = pid;
  const std::string line = read_line();
  const std::string prefix = "chaser_hubd: listening on ";
  if (line.rfind(prefix, 0) != 0) {
    close(pipefd[0]);
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    throw ConfigError("chaser_fleet: unexpected chaser_hubd banner: '" + line +
                      "'");
  }
  hub.endpoint = line.substr(prefix.size());
  if (obs) {
    const std::string obs_line = read_line();
    const std::string obs_prefix = "chaser_hubd: obs listening on ";
    if (obs_line.rfind(obs_prefix, 0) == 0) {
      hub.obs_endpoint = obs_line.substr(obs_prefix.size());
    }
  }
  close(pipefd[0]);
  return hub;
}

void RenderAndWriteReport(const campaign::CampaignResult& result,
                          const campaign::MergePlan& plan,
                          const std::string& report_path) {
  const std::string report = result.Render(plan.app);
  if (!report_path.empty()) {
    WriteFileAtomic(report_path, report);
    std::printf("wrote report to %s\n", report_path.c_str());
  }
  std::printf("%s", report.c_str());
}

/// Streaming merge over per-shard CTR stores: each store is scanned
/// record-by-record (one segment in memory per shard, never the record set),
/// pulled round-robin through MergeShardStreams, and optionally re-emitted
/// as one merged CTR store. The merged result is byte-identical to the
/// unsharded run's — same reduction loop, same seed order.
void MergeStoresAndWrite(const campaign::MergePlan& plan,
                         const std::vector<std::string>& paths,
                         const std::string& out_path,
                         const std::string& report_path) {
  // Order the streams by each store's self-declared shard index —
  // MergeShardStreams expects stream i to be the shard owning trials
  // t % N == i, whatever order the paths were given in.
  std::vector<std::unique_ptr<store::CtrStoreScanner>> scanners(paths.size());
  for (const std::string& path : paths) {
    if (!store::IsCtrStorePath(path)) {
      throw ConfigError("merge: '" + path +
                        "' is not a CTR store (records CSVs are an export "
                        "only; merge the shard stores)");
    }
    auto scanner = std::make_unique<store::CtrStoreScanner>(path);
    const store::CtrStoreInfo& info = scanner->info();
    if (info.campaign_seed != plan.seed || info.app != plan.app ||
        info.sample_policy != plan.sample_policy) {
      throw ConfigError(StrFormat(
          "merge: store '%s' was written by campaign %s/seed %llu/%s, not "
          "the plan's %s/seed %llu/%s",
          path.c_str(), info.app.c_str(),
          static_cast<unsigned long long>(info.campaign_seed),
          campaign::SamplePolicyName(info.sample_policy), plan.app.c_str(),
          static_cast<unsigned long long>(plan.seed),
          campaign::SamplePolicyName(plan.sample_policy)));
    }
    if (info.shard_count != paths.size()) {
      throw ConfigError(StrFormat(
          "merge: store '%s' is shard %llu of %llu but %zu stores were given",
          path.c_str(), static_cast<unsigned long long>(info.shard_index),
          static_cast<unsigned long long>(info.shard_count), paths.size()));
    }
    if (scanners[static_cast<std::size_t>(info.shard_index)] != nullptr) {
      throw ConfigError(StrFormat(
          "merge: two stores claim shard %llu — a store was passed twice",
          static_cast<unsigned long long>(info.shard_index)));
    }
    if (scanner->truncated()) {
      std::fprintf(stderr,
                   "chaser_fleet: warning: store '%s' has a torn tail (its "
                   "writer died); merging its intact prefix\n",
                   path.c_str());
    }
    scanners[static_cast<std::size_t>(info.shard_index)] = std::move(scanner);
  }
  std::vector<campaign::RecordStream> streams;
  streams.reserve(scanners.size());
  for (const auto& scanner : scanners) {
    streams.push_back([s = scanner.get()](campaign::RunRecord* out) {
      return s->Next(out);
    });
  }

  std::unique_ptr<store::CtrStoreWriter> merged;
  std::function<void(const campaign::RunRecord&)> sink;
  if (!out_path.empty()) {
    store::CtrStoreInfo identity;
    identity.campaign_seed = plan.seed;
    identity.app = plan.app;
    identity.sample_policy = plan.sample_policy;
    merged = std::make_unique<store::CtrStoreWriter>(out_path, identity);
    sink = [w = merged.get()](const campaign::RunRecord& rec) { w->Add(rec); };
  }
  const campaign::CampaignResult result =
      campaign::MergeShardStreams(plan, std::move(streams), sink);
  if (merged != nullptr) {
    merged->Finish();
    std::printf("wrote %llu merged records to %s (ctr store)\n",
                static_cast<unsigned long long>(merged->added()),
                out_path.c_str());
  }
  RenderAndWriteReport(result, plan, report_path);
}

/// `s` without its trailing newlines and spaces.
std::string TrimTrailing(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

/// Roll every shard's status up into one fleet-status.json. Each shard
/// document is one complete JSON object (StatusWriter writes the file
/// atomically and /status serves the same rendering), so embedding it
/// verbatim keeps the rollup valid JSON. With the obs plane on, live
/// /status scrapes take precedence over the (possibly staler) status files.
void WriteFleetStatus(const std::string& dir, std::uint64_t shards,
                      const std::vector<int>& states,
                      const std::vector<unsigned>& restarts,
                      const std::vector<HubProc>& hubs, bool obs) {
  std::vector<campaign::ShardStatus> parsed(shards);
  std::vector<std::string> bodies(shards);
  for (std::uint64_t i = 0; i < shards; ++i) {
    std::string body;
    std::ifstream in(dir + "/shard-" + std::to_string(i) + ".status.json");
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      body = ss.str();
    }
    if (obs) {
      // The worker advertises its scrape endpoint inside its own status
      // file ("obs": "H:P") — no extra banner plumbing needed.
      const campaign::ShardStatus from_file = campaign::ParseShardStatus(body);
      const std::string live = obs::TryScrape(from_file.obs_endpoint,
                                              "/status", /*timeout_ms=*/250);
      if (!live.empty()) body = live;
    }
    bodies[i] = TrimTrailing(body);
    parsed[i] = campaign::ParseShardStatus(bodies[i]);
  }
  const campaign::FleetRollup r = campaign::RollUpShards(parsed);

  // eta_s keeps the null-for-unknown contract fleet-wide: one shard that
  // cannot estimate yet (or is not reporting) makes the fleet ETA null.
  std::string out = StrFormat(
      "{\"fleet\": {\"shards\": %llu, \"reporting\": %llu, \"total\": %llu, "
      "\"done\": %llu, \"replayed\": %llu, %s, \"taint_lost\": %llu, "
      "\"trace_dropped\": %llu, \"trials_per_s\": %.2f, \"eta_s\": %s, "
      "\"estimates\": {",
      static_cast<unsigned long long>(r.shards),
      static_cast<unsigned long long>(r.shards_reporting),
      static_cast<unsigned long long>(r.total),
      static_cast<unsigned long long>(r.done),
      static_cast<unsigned long long>(r.replayed),
      FormatOutcomeCounts(r.outcomes, /*json=*/true).c_str(),
      static_cast<unsigned long long>(r.taint_lost),
      static_cast<unsigned long long>(r.trace_dropped), r.trials_per_s,
      r.eta_known ? StrFormat("%.1f", r.eta_s).c_str() : "null");
  const char* sep = "";
  for (const OutcomeInfo& o : kOutcomes) {
    out += StrFormat("%s\"%s\": %.6f", sep, o.name, r.rates[o.outcome]);
    sep = ", ";
  }
  out += "}}";

  if (!hubs.empty()) {
    out += ", \"hubs\": [";
    for (std::size_t h = 0; h < hubs.size(); ++h) {
      if (h > 0) out += ", ";
      out += StrFormat("{\"endpoint\": \"%s\"", hubs[h].endpoint.c_str());
      if (!hubs[h].obs_endpoint.empty()) {
        out += StrFormat(", \"obs\": \"%s\"", hubs[h].obs_endpoint.c_str());
        const std::string stats = TrimTrailing(obs::TryScrape(
            hubs[h].obs_endpoint, "/status", /*timeout_ms=*/250));
        if (!stats.empty()) out += ", \"stats\": " + stats;
      }
      out += "}";
    }
    out += "]";
  }

  out += ", \"shards\": [";
  for (std::uint64_t i = 0; i < shards; ++i) {
    if (i > 0) out += ", ";
    const char* state = states[i] == 0   ? "running"
                        : states[i] == 1 ? "done"
                                         : "failed";
    out += StrFormat("{\"shard\": %llu, \"state\": \"%s\", \"restarts\": %u",
                     static_cast<unsigned long long>(i), state, restarts[i]);
    if (!bodies[i].empty()) out += ", \"status\": " + bodies[i];
    out += "}";
  }
  out += "]}\n";
  WriteFileAtomic(dir + "/fleet-status.json", out);
}

/// Merge whatever per-shard traces exist into DIR/fleet-trace.json. Missing
/// traces (a shard that never started, an obs-off worker) are skipped — the
/// merged timeline covers what was actually recorded.
void MergeFleetTraces(const std::string& dir, std::uint64_t shards) {
  std::vector<std::string> paths;
  for (std::uint64_t i = 0; i < shards; ++i) {
    const std::string path =
        dir + "/shard-" + std::to_string(i) + ".trace.json";
    std::ifstream probe(path);
    if (probe) paths.push_back(path);
  }
  if (paths.empty()) return;
  const std::string out = dir + "/fleet-trace.json";
  const obs::TraceMergeStats stats = obs::MergeChromeTraceFiles(paths, out);
  std::printf(
      "chaser_fleet: merged %zu traces (%llu events, clock skew up to "
      "%lld us) into %s\n",
      stats.files, static_cast<unsigned long long>(stats.events),
      static_cast<long long>(stats.max_skew_us), out.c_str());
}

int RunFleet(int argc, char** argv) {
  std::string app, dir, worker_bin, hubd_bin;
  std::vector<std::string> hub_endpoints;
  campaign::MergePlan plan;
  plan.runs = 200;
  plan.seed = 1;
  std::uint64_t shards = 2;
  std::uint64_t jobs = 1;
  std::uint64_t spawn_hubs = 0;
  std::uint64_t max_restarts = 2;
  bool obs = false;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--app") {
      app = ArgStr(argc, argv, i, "--app");
    } else if (a == "--dir") {
      dir = ArgStr(argc, argv, i, "--dir");
    } else if (a == "--runs") {
      plan.runs = ArgNum(argc, argv, i, "--runs");
    } else if (a == "--seed") {
      plan.seed = ArgNum(argc, argv, i, "--seed");
    } else if (a == "--shards") {
      shards = ArgNum(argc, argv, i, "--shards");
    } else if (a == "--jobs") {
      jobs = ArgNum(argc, argv, i, "--jobs");
    } else if (a == "--sample") {
      const std::string policy = ArgStr(argc, argv, i, "--sample");
      if (!campaign::ParseSamplePolicy(policy, &plan.sample_policy)) {
        throw ConfigError("bad --sample policy '" + policy + "'");
      }
    } else if (a == "--stop-ci") {
      char* end = nullptr;
      const std::string val = ArgStr(argc, argv, i, "--stop-ci");
      plan.stop_ci = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || plan.stop_ci <= 0.0 ||
          plan.stop_ci >= 1.0) {
        throw ConfigError("--stop-ci expects an interval width in (0,1)");
      }
    } else if (a == "--worker") {
      worker_bin = ArgStr(argc, argv, i, "--worker");
    } else if (a == "--hubd") {
      hubd_bin = ArgStr(argc, argv, i, "--hubd");
    } else if (a == "--hub") {
      for (const std::string& ep : Split(ArgStr(argc, argv, i, "--hub"), ',')) {
        if (!ep.empty()) hub_endpoints.push_back(ep);
      }
    } else if (a == "--spawn-hub") {
      spawn_hubs = ArgNum(argc, argv, i, "--spawn-hub");
    } else if (a == "--restarts") {
      max_restarts = ArgNum(argc, argv, i, "--restarts");
    } else if (a == "--obs") {
      obs = ArgNum(argc, argv, i, "--obs") != 0;
    } else if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else {
      throw ConfigError("unknown flag '" + a + "'");
    }
  }
  if (app.empty() || dir.empty()) {
    Usage();
    return 2;
  }
  if (shards == 0) throw ConfigError("--shards must be > 0");
  if (!hub_endpoints.empty() && spawn_hubs > 0) {
    throw ConfigError("--hub and --spawn-hub are mutually exclusive");
  }
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw ConfigError("cannot create --dir '" + dir + "': " +
                      std::strerror(errno));
  }
  if (worker_bin.empty()) worker_bin = SiblingBinary(argv[0], "chaser_run");
  if (hubd_bin.empty()) hubd_bin = SiblingBinary(argv[0], "chaser_hubd");

  std::vector<HubProc> hubs;
  for (std::uint64_t h = 0; h < spawn_hubs; ++h) {
    hubs.push_back(SpawnHub(hubd_bin, obs));
    hub_endpoints.push_back(hubs.back().endpoint);
    std::printf("chaser_fleet: hub %llu at %s%s%s\n",
                static_cast<unsigned long long>(h),
                hubs.back().endpoint.c_str(),
                hubs.back().obs_endpoint.empty() ? "" : ", obs ",
                hubs.back().obs_endpoint.c_str());
  }
  const auto stop_hubs = [&hubs] {
    for (HubProc& h : hubs) {
      if (h.pid > 0) {
        kill(h.pid, SIGTERM);
        waitpid(h.pid, nullptr, 0);
        h.pid = -1;
      }
    }
  };

  std::string hub_arg;
  for (const std::string& ep : hub_endpoints) {
    if (!hub_arg.empty()) hub_arg += ',';
    hub_arg += ep;
  }

  const auto worker_args = [&](std::uint64_t i) {
    const std::string base = dir + "/shard-" + std::to_string(i);
    std::vector<std::string> args = {
        worker_bin,
        "--app", app,
        "--runs", std::to_string(plan.runs),
        "--seed", std::to_string(plan.seed),
        "--shard", std::to_string(i) + "/" + std::to_string(shards),
        "--jobs", std::to_string(jobs),
        "--resume",
        "--out", base + ".ctr",
        "--status", base + ".status.json",
        "--report", base + ".report",
    };
    if (plan.sample_policy != campaign::SamplePolicy::kUniform) {
      args.push_back("--sample");
      args.push_back(campaign::SamplePolicyName(plan.sample_policy));
    }
    if (!hub_arg.empty()) {
      args.push_back("--hub");
      args.push_back(hub_arg);
    }
    if (obs) {
      // Ephemeral scrape port per worker (advertised in its status.json)
      // plus a per-shard Chrome trace for the post-run fleet merge.
      args.push_back("--obs-port");
      args.push_back("0");
      args.push_back("--trace-out");
      args.push_back(base + ".trace.json");
    }
    return args;
  };

  std::printf("chaser_fleet: %s, %llu runs, seed %llu, %llu shards%s\n",
              app.c_str(), static_cast<unsigned long long>(plan.runs),
              static_cast<unsigned long long>(plan.seed),
              static_cast<unsigned long long>(shards),
              hub_arg.empty() ? "" : (", hub " + hub_arg).c_str());

  // states: 0 running, 1 done, 2 failed.
  std::vector<int> states(shards, 0);
  std::vector<unsigned> restarts(shards, 0);
  std::map<pid_t, std::uint64_t> shard_of;
  for (std::uint64_t i = 0; i < shards; ++i) {
    const pid_t pid = SpawnLogged(worker_args(i),
                                  dir + "/shard-" + std::to_string(i) + ".log");
    shard_of[pid] = i;
  }
  WriteFleetStatus(dir, shards, states, restarts, hubs, obs);

  bool failed = false;
  while (!shard_of.empty()) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid == 0) {
      WriteFleetStatus(dir, shards, states, restarts, hubs, obs);
      usleep(200 * 1000);
      continue;
    }
    if (pid < 0) {
      if (errno == EINTR) continue;
      throw ConfigError(std::string("waitpid: ") + std::strerror(errno));
    }
    const auto it = shard_of.find(pid);
    if (it == shard_of.end()) continue;  // a hub or unrelated child
    const std::uint64_t i = it->second;
    shard_of.erase(it);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      states[i] = 1;
      std::printf("chaser_fleet: shard %llu done\n",
                  static_cast<unsigned long long>(i));
    } else if (restarts[i] < max_restarts) {
      ++restarts[i];
      std::printf("chaser_fleet: shard %llu exited abnormally (status %d), "
                  "restart %u/%llu — resuming from its store\n",
                  static_cast<unsigned long long>(i), status, restarts[i],
                  static_cast<unsigned long long>(max_restarts));
      const pid_t npid = SpawnLogged(
          worker_args(i), dir + "/shard-" + std::to_string(i) + ".log");
      shard_of[npid] = i;
    } else {
      states[i] = 2;
      failed = true;
      std::fprintf(stderr,
                   "chaser_fleet: shard %llu failed after %u restarts (see "
                   "%s/shard-%llu.log)\n",
                   static_cast<unsigned long long>(i), restarts[i], dir.c_str(),
                   static_cast<unsigned long long>(i));
    }
    WriteFleetStatus(dir, shards, states, restarts, hubs, obs);
  }
  stop_hubs();
  if (failed) return 1;

  if (obs) MergeFleetTraces(dir, shards);

  plan.app = app;
  std::vector<std::string> inputs;
  for (std::uint64_t i = 0; i < shards; ++i) {
    inputs.push_back(dir + "/shard-" + std::to_string(i) + ".ctr");
  }
  MergeStoresAndWrite(plan, inputs, dir + "/merged.ctr", dir + "/report.txt");
  return 0;
}

int RunTraceMerge(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> traces;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out") {
      out_path = ArgStr(argc, argv, i, "--out");
    } else if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      throw ConfigError("unknown flag '" + a + "'");
    } else {
      traces.push_back(a);
    }
  }
  if (out_path.empty() || traces.empty()) {
    Usage();
    return 2;
  }
  const obs::TraceMergeStats stats =
      obs::MergeChromeTraceFiles(traces, out_path);
  std::printf(
      "merged %zu traces (%llu events, clock skew up to %lld us) into %s\n",
      stats.files, static_cast<unsigned long long>(stats.events),
      static_cast<long long>(stats.max_skew_us), out_path.c_str());
  return 0;
}

int RunMerge(int argc, char** argv) {
  campaign::MergePlan plan;
  plan.runs = 200;
  plan.seed = 1;
  std::string out_path, report_path;
  std::vector<std::string> stores;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--app") {
      plan.app = ArgStr(argc, argv, i, "--app");
    } else if (a == "--runs") {
      plan.runs = ArgNum(argc, argv, i, "--runs");
    } else if (a == "--seed") {
      plan.seed = ArgNum(argc, argv, i, "--seed");
    } else if (a == "--sample") {
      const std::string policy = ArgStr(argc, argv, i, "--sample");
      if (!campaign::ParseSamplePolicy(policy, &plan.sample_policy)) {
        throw ConfigError("bad --sample policy '" + policy + "'");
      }
    } else if (a == "--stop-ci") {
      char* end = nullptr;
      const std::string val = ArgStr(argc, argv, i, "--stop-ci");
      plan.stop_ci = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || plan.stop_ci <= 0.0 ||
          plan.stop_ci >= 1.0) {
        throw ConfigError("--stop-ci expects an interval width in (0,1)");
      }
    } else if (a == "--out") {
      out_path = ArgStr(argc, argv, i, "--out");
    } else if (a == "--report") {
      report_path = ArgStr(argc, argv, i, "--report");
    } else if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      throw ConfigError("unknown flag '" + a + "'");
    } else {
      stores.push_back(a);
    }
  }
  if (plan.app.empty() || stores.empty()) {
    Usage();
    return 2;
  }
  MergeStoresAndWrite(plan, stores, out_path, report_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      Usage();
      return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "run") return RunFleet(argc, argv);
    if (cmd == "merge") return RunMerge(argc, argv);
    if (cmd == "trace-merge") return RunTraceMerge(argc, argv);
    if (cmd == "--help" || cmd == "-h") {
      Usage();
      return 0;
    }
    throw ConfigError("unknown subcommand '" + cmd +
                      "' (run|merge|trace-merge)");
  } catch (const ChaserError& e) {
    std::fprintf(stderr, "chaser_fleet: %s\n", e.what());
    return 2;
  }
}
