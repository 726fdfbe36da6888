// Tests for the campaign driver's worker pool and its seed-order commit:
// a campaign must be bit-identical for the same seed at any worker count,
// trials must commit (and reach the record sink) as they finish, in seed
// order, and consecutive trials on one engine must be fully isolated (no
// hub/stat bleed between trials).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "common/error.h"
#include "guest/builder.h"

namespace chaser::campaign {
namespace {

using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

/// Same steerable single-process app the serial campaign tests use: `iters`
/// fadds accumulating into memory, result written to fd 3.
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
  spec.fault_classes = {guest::InstrClass::kFadd};
  return spec;
}

void ExpectRecordEq(const RunRecord& a, const RunRecord& b, std::size_t i) {
  EXPECT_EQ(a.outcome, b.outcome) << "record " << i;
  EXPECT_EQ(a.kind, b.kind) << "record " << i;
  EXPECT_EQ(a.signal, b.signal) << "record " << i;
  EXPECT_EQ(a.inject_rank, b.inject_rank) << "record " << i;
  EXPECT_EQ(a.failure_rank, b.failure_rank) << "record " << i;
  EXPECT_EQ(a.deadlock, b.deadlock) << "record " << i;
  EXPECT_EQ(a.propagated_cross_rank, b.propagated_cross_rank) << "record " << i;
  EXPECT_EQ(a.propagated_cross_node, b.propagated_cross_node) << "record " << i;
  EXPECT_EQ(a.injections, b.injections) << "record " << i;
  EXPECT_EQ(a.tainted_reads, b.tainted_reads) << "record " << i;
  EXPECT_EQ(a.tainted_writes, b.tainted_writes) << "record " << i;
  EXPECT_EQ(a.peak_tainted_bytes, b.peak_tainted_bytes) << "record " << i;
  EXPECT_EQ(a.tainted_output_bytes, b.tainted_output_bytes) << "record " << i;
  EXPECT_EQ(a.trigger_nth, b.trigger_nth) << "record " << i;
  EXPECT_EQ(a.flip_bits, b.flip_bits) << "record " << i;
  EXPECT_EQ(a.run_seed, b.run_seed) << "record " << i;
  EXPECT_EQ(a.instructions, b.instructions) << "record " << i;
  EXPECT_EQ(a.trace_dropped, b.trace_dropped) << "record " << i;
  EXPECT_EQ(a.taint_lost, b.taint_lost) << "record " << i;
  EXPECT_EQ(a.retries, b.retries) << "record " << i;
  EXPECT_EQ(a.infra_error, b.infra_error) << "record " << i;
}

void ExpectResultEq(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.os_exception, b.os_exception);
  EXPECT_EQ(a.mpi_error, b.mpi_error);
  EXPECT_EQ(a.assert_detected, b.assert_detected);
  EXPECT_EQ(a.other_rank_failed, b.other_rank_failed);
  EXPECT_EQ(a.propagated_runs, b.propagated_runs);
  EXPECT_EQ(a.propagated_terminated, b.propagated_terminated);
  EXPECT_EQ(a.propagated_os_exception, b.propagated_os_exception);
  EXPECT_EQ(a.propagated_mpi_error, b.propagated_mpi_error);
  EXPECT_EQ(a.infra, b.infra);
  EXPECT_EQ(a.taint_lost, b.taint_lost);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ExpectRecordEq(a.records[i], b.records[i], i);
  }
}

TEST(WorkerPool, BitIdenticalToSerialAtAnyWorkerCount) {
  CampaignConfig config;
  config.runs = 48;
  config.seed = 2026;
  Campaign serial(AccumulatorApp(50), config);
  const CampaignResult reference = serial.Run();

  for (const unsigned jobs : {1u, 2u, 8u}) {
    Campaign parallel(AccumulatorApp(50), config, jobs);
    const CampaignResult result = parallel.Run();
    SCOPED_TRACE(jobs);
    ExpectResultEq(reference, result);
  }
}

TEST(WorkerPool, BitIdenticalToSerialForMpiApp) {
  // Matvec exercises the whole stack per trial: MPI collectives, the taint
  // hub, cross-rank propagation, and every termination class.
  CampaignConfig config;
  config.runs = 24;
  config.seed = 123;
  config.inject_ranks = {0};
  Campaign serial(apps::BuildMatvec({}), config);
  const CampaignResult reference = serial.Run();

  for (const unsigned jobs : {2u, 8u}) {
    Campaign parallel(apps::BuildMatvec({}), config, jobs);
    const CampaignResult result = parallel.Run();
    SCOPED_TRACE(jobs);
    ExpectResultEq(reference, result);
  }
}

TEST(WorkerPool, SeedDerivationMatchesSerialForkSequence) {
  Rng rng(777);
  const std::vector<std::uint64_t> expected{rng.Fork(), rng.Fork(), rng.Fork()};
  EXPECT_EQ(Campaign::DeriveTrialSeeds(777, 3), expected);
}

TEST(WorkerPool, JobsZeroPicksAtLeastOneWorker) {
  Campaign c(AccumulatorApp(30), {.runs = 0}, 0);
  EXPECT_GE(c.jobs(), 1u);
}

TEST(WorkerPool, InvalidInjectRankThrowsInConstructor) {
  CampaignConfig config;
  config.inject_ranks = {9};
  EXPECT_THROW(Campaign(AccumulatorApp(30), config, 2), ConfigError);
}

TEST(WorkerPool, GoldenFailurePropagatesOutOfRun) {
  // No targeted instructions -> the golden phase must throw, even though
  // Run() would otherwise fan out to workers.
  guest::ProgramBuilder b("nofp");
  b.Exit(0);
  apps::AppSpec spec;
  spec.name = "nofp";
  spec.program = b.Finalize();
  spec.num_ranks = 1;
  spec.fault_classes = {guest::InstrClass::kFadd};
  Campaign c(std::move(spec), {.runs = 4}, 2);
  EXPECT_THROW(c.Run(), ConfigError);
}

// ---- Seed-order commit ----------------------------------------------------------

TEST(SeedOrderCommitter, CommitsInPositionOrderWhateverTheOfferOrder) {
  std::vector<std::uint64_t> sunk;
  SeedOrderCommitter committer(
      SamplePolicy::kUniform, 0.0, 5, /*keep_records=*/true,
      [&sunk](const RunRecord& rec) { sunk.push_back(rec.run_seed); });
  const auto offer = [&committer](std::uint64_t position) {
    RunRecord rec;
    rec.run_seed = 100 + position;
    committer.Offer(position, rec);
  };
  offer(3);
  offer(1);
  EXPECT_TRUE(sunk.empty()) << "nothing commits before position 0";
  offer(0);
  EXPECT_EQ(sunk, (std::vector<std::uint64_t>{100, 101}));
  offer(4);
  offer(2);
  EXPECT_EQ(sunk, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
  const CampaignResult result = committer.Finish();
  EXPECT_EQ(result.runs, 5u);
  ASSERT_EQ(result.records.size(), 5u);
  EXPECT_EQ(result.records[2].run_seed, 102u);
  EXPECT_FALSE(result.has_estimates);
}

TEST(SeedOrderCommitter, StopLatchDropsEveryLaterPosition) {
  // All-benign trials converge at the first position the stop rule may
  // fire at, kMinStopTrials - 1; records that finished later positions
  // first are dropped, and so is anything offered after the latch.
  const std::uint64_t stop = SampleController::kMinStopTrials - 1;
  std::uint64_t sunk = 0;
  SeedOrderCommitter committer(SamplePolicy::kUniform, 0.5, 100,
                               /*keep_records=*/true,
                               [&sunk](const RunRecord&) { ++sunk; });
  for (std::uint64_t p = stop + 1; p < stop + 8; ++p) committer.Offer(p, {});
  for (std::uint64_t p = 0; p <= stop; ++p) {
    EXPECT_FALSE(committer.PastStop(p));
    committer.Offer(p, {});
  }
  EXPECT_FALSE(committer.PastStop(stop));
  EXPECT_TRUE(committer.PastStop(stop + 1));
  committer.Offer(stop + 9, {});
  const CampaignResult result = committer.Finish();
  EXPECT_EQ(sunk, stop + 1);
  EXPECT_EQ(result.runs, stop + 1);
  EXPECT_EQ(result.records.size(), stop + 1);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(result.planned_runs, 100u);
}

TEST(WorkerPool, RecordSinkRunsAsTrialsCommit) {
  // A worker that claims trial 30 or later waits until the sink has seen
  // trial 0. Trial 0 commits as soon as it finishes, so the wait ends at
  // once; a driver that fed the sink only after its pool joined would keep
  // every such worker waiting until the timeout.
  CampaignConfig config;
  config.runs = 40;
  config.seed = 17;
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(config.seed, config.runs);
  std::mutex mutex;
  std::condition_variable sunk_cv;
  std::vector<std::uint64_t> sunk;
  bool timed_out = false;
  config.record_sink = [&](const RunRecord& rec) {
    const std::lock_guard<std::mutex> lock(mutex);
    sunk.push_back(rec.run_seed);
    sunk_cv.notify_all();
  };
  config.trial_chaos = [&](std::uint64_t run_seed, unsigned) {
    if (std::find(seeds.begin(), seeds.end(), run_seed) - seeds.begin() < 30) {
      return;
    }
    std::unique_lock<std::mutex> lock(mutex);
    if (!sunk_cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return !sunk.empty() || timed_out; })) {
      timed_out = true;
      sunk_cv.notify_all();
    }
  };
  const CampaignResult result = Campaign(AccumulatorApp(40), config, 3).Run();
  EXPECT_FALSE(timed_out) << "the record sink saw no trial while trials ran";
  EXPECT_EQ(sunk, seeds) << "the sink must see every trial once, in seed order";
  EXPECT_EQ(result.runs, config.runs);
}

TEST(WorkerPool, ShardReportIsTheSameAtAnyWorkerCount) {
  // A shard plans its own slice of the trials, whatever the worker count.
  CampaignConfig config;
  config.runs = 60;
  config.seed = 11;
  config.sample_policy = SamplePolicy::kWeighted;
  config.shard_index = 0;
  config.shard_count = 4;
  const std::string one =
      Campaign(AccumulatorApp(40), config, 1).Run().Render("accum");
  const std::string three =
      Campaign(AccumulatorApp(40), config, 3).Run().Render("accum");
  EXPECT_EQ(one, three);
  EXPECT_NE(one.find("15/15 trials"), std::string::npos) << one;
}

TEST(WorkerPool, KeepRecordsOffStillCountsDeterministically) {
  CampaignConfig config;
  config.runs = 16;
  config.seed = 31;
  config.keep_records = false;
  Campaign serial(AccumulatorApp(40), config);
  const CampaignResult reference = serial.Run();
  Campaign parallel(AccumulatorApp(40), config, 4);
  const CampaignResult result = parallel.Run();
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(reference.benign, result.benign);
  EXPECT_EQ(reference.terminated, result.terminated);
  EXPECT_EQ(reference.sdc, result.sdc);
}

// ---- Contained trial failures -------------------------------------------------

TEST(TrialContainment, ThrowingTrialRetriesThenSucceeds) {
  // A chaos hook that throws on the first attempt of one specific trial:
  // with one retry granted the campaign must complete with a normal record
  // for that seed, marked as having cost one retry.
  CampaignConfig config;
  config.runs = 8;
  config.seed = 61;
  config.trial_retries = 1;
  config.retry_backoff_ms = 0;
  const std::uint64_t victim = Campaign::DeriveTrialSeeds(config.seed, 8)[3];
  config.trial_chaos = [victim](std::uint64_t run_seed, unsigned attempt) {
    if (run_seed == victim && attempt == 0) {
      throw ConfigError("chaos: simulated harness failure");
    }
  };
  Campaign campaign(AccumulatorApp(40), config);
  const CampaignResult result = campaign.Run();
  EXPECT_EQ(result.infra, 0u);
  ASSERT_EQ(result.records.size(), 8u);
  EXPECT_EQ(result.records[3].run_seed, victim);
  EXPECT_EQ(result.records[3].retries, 1u);
  EXPECT_NE(result.records[3].outcome, Outcome::kInfra);

  // Apart from the retry count, the retried record must match a clean run:
  // the rebuilt engine re-derives everything from the trial seed.
  CampaignConfig clean_config = config;
  clean_config.trial_chaos = nullptr;
  Campaign clean(AccumulatorApp(40), clean_config);
  const CampaignResult reference = clean.Run();
  RunRecord retried = result.records[3];
  retried.retries = reference.records[3].retries;
  ExpectRecordEq(reference.records[3], retried, 3);
}

TEST(TrialContainment, ExhaustedRetriesQuarantineInsteadOfAborting) {
  CampaignConfig config;
  config.runs = 6;
  config.seed = 62;
  config.trial_retries = 2;
  config.retry_backoff_ms = 0;
  const std::uint64_t victim = Campaign::DeriveTrialSeeds(config.seed, 6)[2];
  std::atomic<unsigned> attempts{0};
  config.trial_chaos = [&](std::uint64_t run_seed, unsigned) {
    if (run_seed == victim) {
      ++attempts;
      throw ConfigError("chaos: persistent harness failure");
    }
  };
  Campaign campaign(AccumulatorApp(40), config);
  const CampaignResult result = campaign.Run();  // must NOT throw
  EXPECT_EQ(attempts.load(), 3u);  // 1 initial + 2 retries
  EXPECT_EQ(result.infra, 1u);
  ASSERT_EQ(result.records.size(), 6u);
  const RunRecord& quarantined = result.records[2];
  EXPECT_EQ(quarantined.outcome, Outcome::kInfra);
  EXPECT_EQ(quarantined.run_seed, victim);
  EXPECT_EQ(quarantined.retries, 2u);
  EXPECT_NE(quarantined.infra_error.find("persistent harness failure"),
            std::string::npos);
  // The other five trials are real outcomes, unaffected by the quarantine.
  EXPECT_EQ(result.benign + result.terminated + result.sdc, 5u);
  // And the report names the quarantine bucket.
  EXPECT_NE(result.Render("accum").find("infra"), std::string::npos);
}

TEST(TrialContainment, ParallelPoolSurvivesThrowingTrials) {
  CampaignConfig config;
  config.runs = 16;
  config.seed = 63;
  config.trial_retries = 0;  // quarantine on first throw
  config.retry_backoff_ms = 0;
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(config.seed, 16);
  config.trial_chaos = [&seeds](std::uint64_t run_seed, unsigned) {
    // Poison every fourth trial.
    for (std::size_t i = 0; i < seeds.size(); i += 4) {
      if (seeds[i] == run_seed) throw ConfigError("chaos: poisoned trial");
    }
  };
  Campaign serial(AccumulatorApp(40), config);
  const CampaignResult reference = serial.Run();
  EXPECT_EQ(reference.infra, 4u);

  for (const unsigned jobs : {2u, 8u}) {
    Campaign parallel(AccumulatorApp(40), config, jobs);
    const CampaignResult result = parallel.Run();
    SCOPED_TRACE(jobs);
    ExpectResultEq(reference, result);
  }
}

// ---- Hub degradation ----------------------------------------------------------

TEST(HubDegradation, DegradedCampaignStaysBitIdenticalSerialVsParallel) {
  // The degradation schedule is driven by the hub's deterministic operation
  // clock and a per-trial reseeded drop tape, so a faulty hub must not break
  // the serial == parallel bit-identity guarantee.
  CampaignConfig config;
  config.runs = 24;
  config.seed = 123;
  config.inject_ranks = {0};
  config.hub_fault.publish_drop_prob = 0.5;
  config.hub_fault.visibility_delay = 1;
  config.hub_fault.poll_retries = 1;
  Campaign serial(apps::BuildMatvec({}), config);
  const CampaignResult reference = serial.Run();

  for (const unsigned jobs : {2u, 8u}) {
    Campaign parallel(apps::BuildMatvec({}), config, jobs);
    const CampaignResult result = parallel.Run();
    SCOPED_TRACE(jobs);
    ExpectResultEq(reference, result);
  }
}

TEST(HubDegradation, OutagePlusThrowingTrialCompletesWithInfraAndTaintLost) {
  // The full acceptance scenario: a campaign hit by BOTH a hub outage (taint
  // shadows lost in transit) and a persistently throwing trial must run to
  // completion, quarantine the bad trial as infra, and report nonzero
  // taint_lost — never abort.
  CampaignConfig config;
  config.runs = 24;
  config.seed = 321;
  config.inject_ranks = {0};
  config.trial_retries = 1;
  config.retry_backoff_ms = 0;
  config.hub_fault.outage_start = 0;
  config.hub_fault.outage_end = 1'000'000;  // hub down for the whole trial
  const std::uint64_t victim = Campaign::DeriveTrialSeeds(config.seed, 24)[5];
  config.trial_chaos = [victim](std::uint64_t run_seed, unsigned) {
    if (run_seed == victim) throw ConfigError("chaos: trial host lost");
  };
  Campaign campaign(apps::BuildMatvec({}), config, 4);
  const CampaignResult result = campaign.Run();  // must NOT throw
  EXPECT_EQ(result.runs, 24u);
  EXPECT_EQ(result.infra, 1u);
  EXPECT_GT(result.taint_lost, 0u);
  EXPECT_EQ(result.benign + result.terminated + result.sdc, 23u);
  const std::string report = result.Render("matvec");
  EXPECT_NE(report.find("infra"), std::string::npos);
  EXPECT_NE(report.find("lost their taint shadow"), std::string::npos);
}

// ---- Trial isolation ----------------------------------------------------------

TEST(TrialIsolation, RunOnceUnaffectedByInterveningTrials) {
  // A trial's record — including the hub-derived propagation flags and the
  // taint counters — must depend only on its seed, not on what earlier
  // trials left behind in the hub, the trace logs, or the VMs.
  CampaignConfig config;
  config.runs = 0;
  config.seed = 9;
  config.inject_ranks = {0};
  Campaign c(apps::BuildMatvec({}), config);
  c.RunGolden();

  const RunRecord first = c.RunOnce(4242);
  for (std::uint64_t s = 100; s < 112; ++s) c.RunOnce(s);  // pollute
  const RunRecord replay = c.RunOnce(4242);
  ExpectRecordEq(first, replay, 0);
}

TEST(TrialIsolation, NoStatBleedAcrossConsecutiveTrials) {
  // Run trials until one shows cross-rank propagation, then check that the
  // very next trial does not inherit the hub transfers/stats that produced
  // the flag (a benign trial after a propagating one must report clean).
  CampaignConfig config;
  config.runs = 0;
  config.seed = 55;
  config.inject_ranks = {1};
  Campaign c(apps::BuildClamr(
                 {.global_rows = 12, .cols = 12, .steps = 8, .ranks = 4}),
             config);
  c.RunGolden();

  std::uint64_t propagating_seed = 0;
  for (std::uint64_t s = 1; s <= 30 && propagating_seed == 0; ++s) {
    if (c.RunOnce(s).propagated_cross_rank) propagating_seed = s;
  }
  ASSERT_NE(propagating_seed, 0u) << "no propagating trial in 30 seeds";

  // Snapshot the hub stats the propagating trial produced, pollute the
  // engine with other trials, replay: identical stats prove nothing
  // accumulated across the intervening jobs.
  (void)c.RunOnce(propagating_seed);
  const hub::HubStats snapshot = c.chaser().hub().stats();
  const std::size_t transfers = c.chaser().hub().transfer_log().size();
  EXPECT_GT(snapshot.publishes, 0u);
  for (std::uint64_t s = 200; s < 210; ++s) c.RunOnce(s);  // pollute
  (void)c.RunOnce(propagating_seed);
  EXPECT_EQ(c.chaser().hub().stats().publishes, snapshot.publishes);
  EXPECT_EQ(c.chaser().hub().stats().polls, snapshot.polls);
  EXPECT_EQ(c.chaser().hub().stats().hits, snapshot.hits);
  EXPECT_EQ(c.chaser().hub().stats().applied_bytes, snapshot.applied_bytes);
  EXPECT_EQ(c.chaser().hub().transfer_log().size(), transfers);
}

}  // namespace
}  // namespace chaser::campaign
