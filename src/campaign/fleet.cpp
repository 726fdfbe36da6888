#include "campaign/fleet.h"

#include "common/error.h"
#include "common/strings.h"

namespace chaser::campaign {

ShardSpec ParseShardSpec(const std::string& spec) {
  const std::vector<std::string> parts = Split(spec, '/');
  ShardSpec s;
  if (parts.size() != 2 || !ParseU64(parts[0], &s.index) ||
      !ParseU64(parts[1], &s.count)) {
    throw ConfigError("--shard: expected I/N (e.g. 0/4), got '" + spec + "'");
  }
  if (s.count == 0) throw ConfigError("--shard: shard count must be > 0");
  if (s.index >= s.count) {
    throw ConfigError(StrFormat(
        "--shard: index %llu out of range for %llu shards (valid: 0..%llu)",
        static_cast<unsigned long long>(s.index),
        static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.count - 1)));
  }
  return s;
}

std::vector<std::uint64_t> ShardTrialIndices(std::uint64_t runs,
                                             const ShardSpec& spec) {
  if (spec.count == 0 || spec.index >= spec.count) {
    throw ConfigError("ShardTrialIndices: invalid shard spec");
  }
  std::vector<std::uint64_t> indices;
  indices.reserve(static_cast<std::size_t>(runs / spec.count + 1));
  for (std::uint64_t i = spec.index; i < runs; i += spec.count) {
    indices.push_back(i);
  }
  return indices;
}

CampaignResult MergeShardStreams(
    const MergePlan& plan, std::vector<RecordStream> streams,
    const std::function<void(const RunRecord&)>& sink) {
  if (streams.empty()) {
    throw ConfigError("MergeShardStreams: no shard streams");
  }
  const std::uint64_t n_shards = streams.size();
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(plan.seed, plan.runs);
  SeedOrderCommitter committer(plan.sample_policy, plan.stop_ci, plan.runs,
                               plan.keep_records, sink);
  // Global trial t's record is the next unread record of stream t % N: the
  // shard partition *is* the round-robin, so pulling in lockstep walks the
  // global seed order with one in-flight record per shard.
  RunRecord rec;
  for (std::uint64_t t = 0; t < plan.runs && !committer.PastStop(t); ++t) {
    RecordStream& stream = streams[static_cast<std::size_t>(t % n_shards)];
    if (!stream(&rec)) {
      throw ConfigError(StrFormat(
          "MergeShardStreams: shard %llu ran out of records at trial %llu of "
          "%llu — its records are incomplete",
          static_cast<unsigned long long>(t % n_shards),
          static_cast<unsigned long long>(t + 1),
          static_cast<unsigned long long>(plan.runs)));
    }
    if (rec.run_seed != seeds[static_cast<std::size_t>(t)]) {
      throw ConfigError(StrFormat(
          "MergeShardStreams: shard %llu yielded trial seed %llu where the "
          "plan expects %llu (trial %llu of %llu) — duplicate, missing, or "
          "out-of-order trial",
          static_cast<unsigned long long>(t % n_shards),
          static_cast<unsigned long long>(rec.run_seed),
          static_cast<unsigned long long>(seeds[static_cast<std::size_t>(t)]),
          static_cast<unsigned long long>(t + 1),
          static_cast<unsigned long long>(plan.runs)));
    }
    committer.Offer(t, std::move(rec));
  }
  return committer.Finish();
}

namespace {

std::uint64_t JsonU64(const std::string& json, const std::string& key) {
  double v = 0.0;
  if (!JsonFindNumber(json, key, &v) || v < 0.0) return 0;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

ShardStatus ParseShardStatus(const std::string& json) {
  ShardStatus s;
  // The two fields every status document has; their absence means this is
  // not (yet) a status.json — e.g. an empty or half-missing file.
  std::string running;
  double total = 0.0;
  if (!JsonFindRaw(json, "running", &running) ||
      !JsonFindNumber(json, "total", &total)) {
    return s;
  }
  s.ok = true;
  s.running = running == "true";
  s.total = static_cast<std::uint64_t>(total);
  s.done = JsonU64(json, "done");
  s.replayed = JsonU64(json, "replayed");
  for (const OutcomeInfo& o : kOutcomes) {
    s.outcomes[o.outcome] = JsonU64(json, o.name);
  }
  s.taint_lost = JsonU64(json, "taint_lost");
  s.trace_dropped = JsonU64(json, "trace_dropped");
  JsonFindNumber(json, "elapsed_s", &s.elapsed_s);
  JsonFindNumber(json, "trials_per_s", &s.trials_per_s);
  // eta_s is null while the shard has work left but no rate sample yet;
  // JsonFindNumber's false return IS the null signal (see strings.h).
  s.eta_known = JsonFindNumber(json, "eta_s", &s.eta_s);
  JsonFindString(json, "obs", &s.obs_endpoint);
  return s;
}

FleetRollup RollUpShards(const std::vector<ShardStatus>& statuses) {
  FleetRollup r;
  r.shards = statuses.size();
  r.eta_known = true;  // until a silent or eta-null shard proves otherwise
  for (const ShardStatus& s : statuses) {
    if (!s.ok) {
      r.eta_known = false;
      continue;
    }
    ++r.shards_reporting;
    r.total += s.total;
    r.done += s.done;
    r.replayed += s.replayed;
    for (const OutcomeInfo& o : kOutcomes) {
      r.outcomes[o.outcome] += s.outcomes[o.outcome];
    }
    r.taint_lost += s.taint_lost;
    r.trace_dropped += s.trace_dropped;
    r.trials_per_s += s.trials_per_s;
    if (!s.eta_known) {
      r.eta_known = false;
    } else if (s.eta_s > r.eta_s) {
      r.eta_s = s.eta_s;  // the fleet finishes when its slowest shard does
    }
  }
  if (!r.eta_known) r.eta_s = 0.0;
  if (r.done > 0) {
    for (const OutcomeInfo& o : kOutcomes) {
      r.rates[o.outcome] = static_cast<double>(r.outcomes[o.outcome]) /
                           static_cast<double>(r.done);
    }
  }
  return r;
}

}  // namespace chaser::campaign
