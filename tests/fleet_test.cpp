// Tests for src/campaign/fleet and the sharded-campaign machinery: the
// shard partition must be disjoint and complete, the merge must reproduce an
// unsharded run byte for byte (uniform, sampled, and early-stopped plans,
// straight from memory or streamed from per-shard CTR stores), a campaign
// over a loopback RemoteTaintHub must match the in-process hub exactly, and
// the fleet rollup must count every outcome. (A shard's store refusing
// another shard spec is store_test's CtrStore.IdentityMismatchRefusesResume.)
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/fleet.h"
#include "campaign/report.h"
#include "common/error.h"
#include "guest/builder.h"
#include "hub/remote/server.h"
#include "scratch_path.h"
#include "store/ctr.h"

namespace chaser::campaign {
namespace {

using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

// ---- ParseShardSpec ---------------------------------------------------------

TEST(ShardSpecTest, ParsesValidSpecs) {
  const ShardSpec a = ParseShardSpec("0/1");
  EXPECT_EQ(a.index, 0u);
  EXPECT_EQ(a.count, 1u);
  const ShardSpec b = ParseShardSpec("3/8");
  EXPECT_EQ(b.index, 3u);
  EXPECT_EQ(b.count, 8u);
}

TEST(ShardSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(ParseShardSpec("2"), ConfigError);
  EXPECT_THROW(ParseShardSpec("a/b"), ConfigError);
  EXPECT_THROW(ParseShardSpec("1/2/3"), ConfigError);
  EXPECT_THROW(ParseShardSpec("0/0"), ConfigError);   // count must be > 0
  EXPECT_THROW(ParseShardSpec("2/2"), ConfigError);   // index < count
  EXPECT_THROW(ParseShardSpec("9/4"), ConfigError);
}

// ---- ShardTrialIndices ------------------------------------------------------

TEST(ShardTrialIndicesTest, UnshardedSpecIsTheIdentity) {
  const auto indices = ShardTrialIndices(5, ShardSpec{0, 1});
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ShardTrialIndicesTest, ShardsPartitionTheTrialSpace) {
  constexpr std::uint64_t kRuns = 23;
  constexpr std::uint64_t kShards = 4;
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < kShards; ++s) {
    for (const std::uint64_t i : ShardTrialIndices(kRuns, {s, kShards})) {
      EXPECT_EQ(i % kShards, s);
      EXPECT_LT(i, kRuns);
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " seen twice";
    }
  }
  EXPECT_EQ(seen.size(), kRuns) << "the shards must cover every trial";
}

// ---- merge == unsharded -----------------------------------------------------

/// Steerable single-rank app (same shape as sampling_test's): a loop of
/// fadds plus an integer tail, so sampled campaigns see two site classes.
apps::AppSpec AccumulatorApp(std::uint64_t iters = 50) {
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
  spec.fault_classes = {guest::InstrClass::kFadd, guest::InstrClass::kAdd};
  return spec;
}

std::string RenderPlusCsv(const CampaignResult& result, SamplePolicy policy) {
  std::ostringstream out;
  out << result.Render("accum");
  WriteRecordsCsv(result.records, out, policy);
  return out.str();
}

/// Merge per-shard record sets held in memory: `sets[i]` is shard i's.
CampaignResult MergeRecordSets(const MergePlan& plan,
                               std::vector<std::vector<RunRecord>> sets) {
  std::vector<RecordStream> streams;
  for (std::vector<RunRecord>& set : sets) {
    streams.push_back([records = std::move(set),
                       next = std::size_t{0}](RunRecord* out) mutable {
      if (next == records.size()) return false;
      *out = records[next++];
      return true;
    });
  }
  return MergeShardStreams(plan, std::move(streams));
}

/// Run the plan unsharded, then as `shards` shard workers, merge, and
/// compare every byte of report + CSV.
void ExpectMergeMatchesUnsharded(CampaignConfig config, std::uint64_t shards) {
  Campaign reference(AccumulatorApp(), config);
  const CampaignResult expected = reference.Run();

  std::vector<std::vector<RunRecord>> shard_records;
  for (std::uint64_t s = 0; s < shards; ++s) {
    CampaignConfig shard_config = config;
    shard_config.shard_index = s;
    shard_config.shard_count = shards;
    Campaign worker(AccumulatorApp(), shard_config);
    shard_records.push_back(worker.Run().records);
  }

  MergePlan plan;
  plan.app = "accum";
  plan.runs = config.runs;
  plan.seed = config.seed;
  plan.sample_policy = config.sample_policy;
  plan.stop_ci = config.stop_ci;
  const CampaignResult merged = MergeRecordSets(plan, std::move(shard_records));

  EXPECT_EQ(RenderPlusCsv(merged, config.sample_policy),
            RenderPlusCsv(expected, config.sample_policy));
  EXPECT_EQ(merged.runs, expected.runs);
  EXPECT_EQ(merged.stopped_early, expected.stopped_early);
}

TEST(FleetMergeTest, TwoShardUniformMergeIsByteIdentical) {
  CampaignConfig config;
  config.runs = 40;
  config.seed = 5;
  ExpectMergeMatchesUnsharded(config, 2);
}

TEST(FleetMergeTest, ThreeShardWeightedStopCiMergeIsByteIdentical) {
  CampaignConfig config;
  config.runs = 120;
  config.seed = 21;
  config.sample_policy = SamplePolicy::kWeighted;
  config.stop_ci = 0.3;  // wide enough to fire before 120 trials
  ExpectMergeMatchesUnsharded(config, 3);
}

TEST(FleetMergeTest, ShardWorkersNeverStopEarlyThemselves) {
  CampaignConfig config;
  config.runs = 120;
  config.seed = 21;
  config.sample_policy = SamplePolicy::kWeighted;
  config.stop_ci = 0.3;
  config.shard_index = 0;
  config.shard_count = 2;
  Campaign worker(AccumulatorApp(), config);
  const CampaignResult partial = worker.Run();
  EXPECT_EQ(partial.records.size(), 60u)
      << "a shard worker must run its whole slice; the stop rule is applied "
         "at merge time in global seed order";
  EXPECT_FALSE(partial.stopped_early);
}

TEST(FleetMergeTest, MergeSurvivesPerShardStores) {
  // Each shard worker writes its records into its own CTR store as they
  // commit, and the merge streams them back out, as chaser_fleet does.
  CampaignConfig config;
  config.runs = 60;
  config.seed = 9;
  config.sample_policy = SamplePolicy::kStratified;
  Campaign reference(AccumulatorApp(), config);
  const CampaignResult expected = reference.Run();

  const std::string root = testutil::ScratchPath("stores");
  std::vector<std::unique_ptr<store::CtrStoreScanner>> scanners;
  std::vector<RecordStream> streams;
  for (std::uint64_t s = 0; s < 2; ++s) {
    const std::string dir = root + "/shard-" + std::to_string(s) + ".ctr";
    store::CtrStoreInfo identity;
    identity.campaign_seed = config.seed;
    identity.app = "accum";
    identity.sample_policy = config.sample_policy;
    identity.shard_index = s;
    identity.shard_count = 2;
    {
      store::CtrStoreWriter writer(dir, identity);
      CampaignConfig shard_config = config;
      shard_config.shard_index = s;
      shard_config.shard_count = 2;
      shard_config.record_sink = [&](const RunRecord& r) { writer.Add(r); };
      Campaign(AccumulatorApp(), shard_config).Run();
      writer.Finish();
    }
    scanners.push_back(std::make_unique<store::CtrStoreScanner>(dir));
    streams.push_back([scanner = scanners.back().get()](RunRecord* out) {
      return scanner->Next(out);
    });
  }
  MergePlan plan;
  plan.app = "accum";
  plan.runs = config.runs;
  plan.seed = config.seed;
  plan.sample_policy = config.sample_policy;
  const CampaignResult merged = MergeShardStreams(plan, std::move(streams));
  EXPECT_EQ(RenderPlusCsv(merged, config.sample_policy),
            RenderPlusCsv(expected, config.sample_policy))
      << "the stored sample_weight must keep estimator floats exact";
  scanners.clear();
  std::filesystem::remove_all(root);
}

TEST(FleetMergeTest, ShardsWithoutTrialsMergeFromEmptyStreams) {
  // Three shards over two trials: shard 2 owns none, so its stream is empty.
  CampaignConfig config;
  config.runs = 2;
  config.seed = 4;
  const CampaignResult expected = Campaign(AccumulatorApp(), config).Run();
  std::vector<std::vector<RunRecord>> sets;
  for (std::uint64_t s = 0; s < 3; ++s) {
    CampaignConfig shard_config = config;
    shard_config.shard_index = s;
    shard_config.shard_count = 3;
    sets.push_back(Campaign(AccumulatorApp(), shard_config).Run().records);
  }
  ASSERT_TRUE(sets[2].empty());
  MergePlan plan;
  plan.app = "accum";
  plan.runs = config.runs;
  plan.seed = config.seed;
  EXPECT_EQ(RenderPlusCsv(MergeRecordSets(plan, std::move(sets)),
                          config.sample_policy),
            RenderPlusCsv(expected, config.sample_policy));
}

TEST(FleetMergeTest, ForeignAndTruncatedShardsAreConfigErrors) {
  CampaignConfig config;
  config.runs = 10;
  config.seed = 3;
  Campaign c(AccumulatorApp(), config);
  const CampaignResult result = c.Run();
  MergePlan plan;
  plan.app = "accum";
  plan.runs = config.runs;
  plan.seed = config.seed;

  // A truncated shard: its stream runs dry before the plan's last trial.
  std::vector<RunRecord> partial(result.records.begin(),
                                 result.records.end() - 1);
  EXPECT_THROW(MergeRecordSets(plan, {partial}), ConfigError);

  // A seed that is not the plan's trial at that position.
  std::vector<RunRecord> foreign = result.records;
  foreign.front().run_seed ^= 1;
  EXPECT_THROW(MergeRecordSets(plan, {foreign}), ConfigError);

  // Two shards handed over in the wrong order.
  CampaignConfig shard_config = config;
  shard_config.shard_count = 2;
  std::vector<std::vector<RunRecord>> swapped(2);
  for (std::uint64_t s = 0; s < 2; ++s) {
    shard_config.shard_index = s;
    swapped[1 - s] = Campaign(AccumulatorApp(), shard_config).Run().records;
  }
  EXPECT_THROW(MergeRecordSets(plan, std::move(swapped)), ConfigError);
}

// ---- campaign over a loopback remote hub ------------------------------------

/// Two-rank ping app: rank 0 computes and sends, rank 1 receives and writes,
/// so taint actually crosses the hub. Mirrors mpi-style apps used elsewhere;
/// matvec from apps/ would also do but is slower.
TEST(RemoteHubCampaignTest, LoopbackRemoteHubMatchesInProcess) {
  apps::AppSpec spec = apps::BuildMatvec({});
  CampaignConfig config;
  config.runs = 12;
  config.seed = 7;
  config.inject_ranks.insert(0);

  Campaign local(apps::BuildMatvec({}), config);
  const CampaignResult expected = local.Run();

  hub::remote::HubServer server({});
  config.hub_endpoints = {"127.0.0.1:" + std::to_string(server.port())};
  Campaign remote(apps::BuildMatvec({}), config);
  const CampaignResult got = remote.Run();

  std::ostringstream a, b;
  a << expected.Render("matvec");
  WriteRecordsCsv(expected.records, a);
  b << got.Render("matvec");
  WriteRecordsCsv(got.records, b);
  EXPECT_EQ(a.str(), b.str())
      << "a campaign over a loopback RemoteTaintHub must be byte-identical "
         "to the in-process hub";
}

// ---- fleet observability: shard status parsing and the rollup ---------------

TEST(ShardStatusTest, ParsesAFullStatusDocument) {
  const std::string doc =
      "{\"app\": \"matvec\", \"running\": true, \"total\": 200, "
      "\"done\": 60, \"replayed\": 5, \"benign\": 40, \"terminated\": 12, "
      "\"sdc\": 6, \"infra\": 2, \"taint_lost\": 1, \"trace_dropped\": 3, "
      "\"elapsed_s\": 2.500, \"trials_per_s\": 22.00, \"eta_s\": 6.4, "
      "\"shard\": {\"index\": 1, \"count\": 4}, \"obs\": \"127.0.0.1:9100\"}\n";
  const ShardStatus s = ParseShardStatus(doc);
  ASSERT_TRUE(s.ok);
  EXPECT_TRUE(s.running);
  EXPECT_EQ(s.total, 200u);
  EXPECT_EQ(s.done, 60u);
  EXPECT_EQ(s.replayed, 5u);
  EXPECT_EQ(s.outcomes[Outcome::kBenign], 40u);
  EXPECT_EQ(s.outcomes[Outcome::kTerminated], 12u);
  EXPECT_EQ(s.outcomes[Outcome::kSdc], 6u);
  EXPECT_EQ(s.outcomes[Outcome::kInfra], 2u);
  EXPECT_EQ(s.outcomes[Outcome::kCrashed], 0u);
  EXPECT_EQ(s.taint_lost, 1u);
  EXPECT_EQ(s.trace_dropped, 3u);
  EXPECT_DOUBLE_EQ(s.trials_per_s, 22.0);
  ASSERT_TRUE(s.eta_known);
  EXPECT_DOUBLE_EQ(s.eta_s, 6.4);
  EXPECT_EQ(s.obs_endpoint, "127.0.0.1:9100");
}

TEST(ShardStatusTest, NullEtaReadsAsUnknownNotZero) {
  const ShardStatus s = ParseShardStatus(
      "{\"running\": true, \"total\": 100, \"done\": 0, "
      "\"trials_per_s\": 0.00, \"eta_s\": null}");
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.eta_known);
}

TEST(ShardStatusTest, GarbageYieldsNotOkInsteadOfThrowing) {
  EXPECT_FALSE(ParseShardStatus("").ok);
  EXPECT_FALSE(ParseShardStatus("{\"partial\": tru").ok);
  EXPECT_FALSE(ParseShardStatus("not json at all").ok);
}

namespace {
ShardStatus ReportingShard(std::uint64_t done, std::uint64_t total,
                           double rate, bool eta_known, double eta_s) {
  ShardStatus s;
  s.ok = true;
  s.running = done < total;
  s.done = done;
  s.total = total;
  s.outcomes[Outcome::kBenign] = done;  // keep the outcome sums simple
  s.trials_per_s = rate;
  s.eta_known = eta_known;
  s.eta_s = eta_s;
  return s;
}
}  // namespace

TEST(FleetRollupTest, SumsCountsAndTakesTheSlowestKnownEta) {
  const FleetRollup r = RollUpShards({
      ReportingShard(50, 100, 10.0, true, 5.0),
      ReportingShard(40, 100, 8.0, true, 7.5),
  });
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.shards_reporting, 2u);
  EXPECT_EQ(r.total, 200u);
  EXPECT_EQ(r.done, 90u);
  EXPECT_DOUBLE_EQ(r.trials_per_s, 18.0);
  ASSERT_TRUE(r.eta_known);
  EXPECT_DOUBLE_EQ(r.eta_s, 7.5) << "the fleet finishes with its slowest shard";
  EXPECT_DOUBLE_EQ(r.rates[Outcome::kBenign], 1.0);
  EXPECT_DOUBLE_EQ(r.rates[Outcome::kSdc], 0.0);
}

TEST(FleetRollupTest, CrashedTrialsRollUpWithEveryOtherOutcome) {
  const FleetRollup r = RollUpShards({
      ParseShardStatus("{\"running\": false, \"total\": 20, \"done\": 20, "
                       "\"benign\": 5, \"terminated\": 4, \"sdc\": 3, "
                       "\"infra\": 1, \"crashed\": 7, \"eta_s\": 0.0}"),
      ParseShardStatus("{\"running\": false, \"total\": 20, \"done\": 20, "
                       "\"benign\": 2, \"terminated\": 0, \"sdc\": 0, "
                       "\"infra\": 0, \"crashed\": 18, \"eta_s\": 0.0}"),
  });
  EXPECT_EQ(r.outcomes[Outcome::kCrashed], 25u);
  EXPECT_DOUBLE_EQ(r.rates[Outcome::kCrashed], 25.0 / 40.0);
  std::uint64_t sum = 0;
  double rate_sum = 0.0;
  for (const OutcomeInfo& o : kOutcomes) {
    sum += r.outcomes[o.outcome];
    rate_sum += r.rates[o.outcome];
  }
  EXPECT_EQ(r.done, sum);
  EXPECT_DOUBLE_EQ(rate_sum, 1.0);
}

TEST(FleetRollupTest, OneEtaNullShardMakesTheFleetEtaUnknown) {
  // The satellite contract under test: a shard that cannot estimate yet
  // must surface as fleet-wide unknown, not be folded in as 0 (which would
  // leave the max untouched and report the optimistic partial answer).
  const FleetRollup r = RollUpShards({
      ReportingShard(50, 100, 10.0, true, 5.0),
      ReportingShard(0, 100, 0.0, false, 0.0),
  });
  EXPECT_EQ(r.shards_reporting, 2u);
  EXPECT_FALSE(r.eta_known);
  EXPECT_DOUBLE_EQ(r.eta_s, 0.0);
}

TEST(FleetRollupTest, SilentShardAlsoMakesTheFleetEtaUnknown) {
  ShardStatus silent;  // ok = false: no status file yet
  const FleetRollup r =
      RollUpShards({ReportingShard(100, 100, 25.0, true, 0.0), silent});
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.shards_reporting, 1u);
  EXPECT_FALSE(r.eta_known);
  EXPECT_EQ(r.done, 100u) << "counts still roll up from reporting shards";
}

}  // namespace
}  // namespace chaser::campaign
