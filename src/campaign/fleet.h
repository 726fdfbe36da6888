// Shard-space partitioning and the fleet merge.
//
// A sharded campaign splits one trial plan (app, runs, seed, policy) across
// N workers: worker i runs exactly the global trial indices with
// index % N == i, in seed order. Because every worker derives the identical
// seed sequence (Campaign::DeriveTrialSeeds) and trials are pure functions
// of their run_seed, the partition is deterministic, disjoint, and complete
// — and merging the per-shard records in global seed order through the
// SeedOrderCommitter the campaign driver commits through reproduces the
// unsharded report byte for byte, early stop included (the stop prefix is
// re-evaluated here, in global order, which is why shard workers themselves
// never stop early).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace chaser::campaign {

struct ShardSpec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
};

/// Parse "i/N" (e.g. "0/4"). Throws ConfigError unless N > 0 and i < N.
ShardSpec ParseShardSpec(const std::string& spec);

/// The global trial indices shard `spec` owns, ascending. The unsharded 0/1
/// spec yields the identity sequence 0..runs-1.
std::vector<std::uint64_t> ShardTrialIndices(std::uint64_t runs,
                                             const ShardSpec& spec);

/// The campaign plan a merge reconstructs results against. Must match what
/// every shard worker ran (same app label, runs, seed, policy, stop rule).
struct MergePlan {
  std::string app;
  std::uint64_t runs = 0;
  std::uint64_t seed = 0;
  SamplePolicy sample_policy = SamplePolicy::kUniform;
  double stop_ci = 0.0;
  bool keep_records = true;
};

/// Merge per-shard records into the result an unsharded run of `plan` would
/// have produced, with bounded memory. `streams[i]` must yield shard i's
/// records in the shard's own (seed-order) sequence — because shard i owns
/// exactly the global trial indices with index % N == i, the global seed
/// order is a round-robin over the streams, so the merge pulls one record
/// at a time into the SeedOrderCommitter and never materializes a shard's
/// record set. Each pulled record's run_seed is verified against the plan's
/// derived seed sequence; a stream that runs dry before the stop point (an
/// incomplete shard) or yields the wrong seed (duplicate, missing, or
/// mis-ordered trial) is a ConfigError. `sink`, when set, sees every
/// committed record in global seed order — the hook a merged CTR store
/// hangs off.
CampaignResult MergeShardStreams(
    const MergePlan& plan, std::vector<RecordStream> streams,
    const std::function<void(const RunRecord&)>& sink = nullptr);

// ---------------------------------------------------------------------------
// Fleet observability: shard status parsing and the live rollup.
// ---------------------------------------------------------------------------

/// One shard worker's status as parsed from its status.json file or its
/// /status scrape body (the same document either way — see obs/status.h).
struct ShardStatus {
  bool ok = false;       // parsed; every other field is garbage when false
  bool running = false;  // worker still mid-campaign
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t replayed = 0;
  OutcomeArray<std::uint64_t> outcomes;  // committed trials per outcome
  std::uint64_t taint_lost = 0;
  std::uint64_t trace_dropped = 0;
  double elapsed_s = 0.0;
  double trials_per_s = 0.0;
  /// eta_known=false mirrors a JSON-null eta_s: the shard has trials left
  /// but no throughput sample yet, so its remaining time is unknown (not 0).
  bool eta_known = false;
  double eta_s = 0.0;
  /// "host:port" of the worker's scrape server ("" when it runs without
  /// one) — how the coordinator upgrades from file polling to live scrapes.
  std::string obs_endpoint;
};

/// Parse a status.json document. Unparseable input yields ok=false rather
/// than a throw: a shard that has not written its first status yet is a
/// normal, transient condition for the rollup, not an error.
ShardStatus ParseShardStatus(const std::string& json);

/// The fleet-wide aggregate of whatever shards are reporting.
struct FleetRollup {
  std::uint64_t shards = 0;            // statuses passed in
  std::uint64_t shards_reporting = 0;  // of those, ok == true
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t replayed = 0;
  OutcomeArray<std::uint64_t> outcomes;
  std::uint64_t taint_lost = 0;
  std::uint64_t trace_dropped = 0;
  double trials_per_s = 0.0;  // sum of per-shard rates
  /// Fleet ETA is the slowest shard's ETA — but only when every shard is
  /// reporting AND has a known ETA. One unknown shard makes the fleet ETA
  /// unknown (JSON null), never an optimistic partial max: folding unknown
  /// in as 0 is exactly the lie the null-for-unknown contract forbids.
  bool eta_known = false;
  double eta_s = 0.0;
  /// Outcome mix over committed trials (0.0 when done == 0).
  OutcomeArray<double> rates;
};

/// Aggregate shard statuses (one entry per shard, ok=false for shards with
/// nothing to report yet) into the fleet view described above.
FleetRollup RollUpShards(const std::vector<ShardStatus>& statuses);

}  // namespace chaser::campaign
