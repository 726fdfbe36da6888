// Tests for src/campaign/sampling and its integration into both campaign
// drivers: golden-site equivalence classes, the weighted/stratified draw,
// Wilson intervals, the --stop-ci early-stop rule, the uniform byte-identity
// guarantee, and resume-safety of an early-stopped campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "campaign/sampling.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/trigger.h"
#include "guest/builder.h"
#include "scratch_path.h"
#include "store/ctr.h"

namespace chaser::campaign {
namespace {

using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

// ---- SamplingPlan -------------------------------------------------------------

GoldenSiteMap TwoRankSites() {
  GoldenSiteMap sites;
  sites[0] = {{/*pc=*/10, guest::InstrClass::kFadd, /*execs=*/30},
              {/*pc=*/20, guest::InstrClass::kFmul, /*execs=*/10}};
  sites[1] = {{/*pc=*/10, guest::InstrClass::kFadd, /*execs=*/50},
              {/*pc=*/20, guest::InstrClass::kFmul, /*execs=*/10}};
  return sites;
}

TEST(SamplingPlan, CollapsesSameSiteAcrossRanks) {
  const SamplingPlan plan = SamplingPlan::Build(TwoRankSites());
  ASSERT_EQ(plan.classes().size(), 2u);
  EXPECT_EQ(plan.total_mass(), 100u);
  const SiteClass& fadd = plan.classes()[0];  // classes are pc-ordered
  EXPECT_EQ(fadd.pc, 10u);
  EXPECT_EQ(fadd.mass, 80u);
  ASSERT_EQ(fadd.members.size(), 2u);
  EXPECT_EQ(fadd.members[0].first, 0);
  EXPECT_EQ(fadd.members[0].second, 30u);
  EXPECT_EQ(fadd.members[1].first, 1);
  EXPECT_EQ(fadd.members[1].second, 50u);
}

TEST(SamplingPlan, SkipsZeroExecSitesAndRejectsEmptyMass) {
  GoldenSiteMap sites;
  sites[0] = {{10, guest::InstrClass::kFadd, 0}};
  EXPECT_THROW(SamplingPlan::Build(sites), ConfigError);
  sites[0].push_back({20, guest::InstrClass::kAdd, 5});
  const SamplingPlan plan = SamplingPlan::Build(sites);
  EXPECT_EQ(plan.classes().size(), 1u);
  EXPECT_EQ(plan.total_mass(), 5u);
}

TEST(SamplingPlan, WeightedDrawIsUniformOverInvocations) {
  const SamplingPlan plan = SamplingPlan::Build(TwoRankSites());
  Rng rng(7);
  std::uint64_t fadd_draws = 0, rank1_fadd = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const SiteDraw d = plan.Draw(SamplePolicy::kWeighted, rng);
    EXPECT_EQ(d.weight, 1.0);
    ASSERT_GE(d.nth, 1u);
    if (d.pc == 10) {
      ++fadd_draws;
      if (d.rank == 1) ++rank1_fadd;
      EXPECT_LE(d.nth, d.rank == 0 ? 30u : 50u);
    } else {
      EXPECT_EQ(d.pc, 20u);
      EXPECT_LE(d.nth, 10u);
    }
  }
  // The fadd class holds 80% of the mass, and rank 1 holds 50/80 of the
  // class; a fixed seed makes these checks deterministic.
  EXPECT_NEAR(static_cast<double>(fadd_draws) / kDraws, 0.80, 0.02);
  EXPECT_NEAR(static_cast<double>(rank1_fadd) / (fadd_draws ? fadd_draws : 1),
              50.0 / 80.0, 0.02);
}

TEST(SamplingPlan, StratifiedDrawWeightsMapBackToInvocations) {
  const SamplingPlan plan = SamplingPlan::Build(TwoRankSites());
  Rng rng(11);
  double fadd_weighted = 0.0, total_weighted = 0.0;
  std::uint64_t fmul_draws = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const SiteDraw d = plan.Draw(SamplePolicy::kStratified, rng);
    // weight = mass_c * K / M for K=2 classes, masses 80/20, M=100.
    EXPECT_DOUBLE_EQ(d.weight, d.pc == 10 ? 80.0 * 2 / 100 : 20.0 * 2 / 100);
    total_weighted += d.weight;
    if (d.pc == 10) fadd_weighted += d.weight;
    if (d.pc == 20) ++fmul_draws;
  }
  // Classes are drawn uniformly, so the rare fmul class gets ~half the
  // draws — far more than its 10% mass share (why stratification exists) —
  // while the importance weights still recover the mass proportions.
  EXPECT_NEAR(static_cast<double>(fmul_draws) / kDraws, 0.5, 0.02);
  EXPECT_NEAR(fadd_weighted / total_weighted, 0.80, 0.02);
}

TEST(SamplingPlan, UniformPolicyIsNotAPlanPolicy) {
  const SamplingPlan plan = SamplingPlan::Build(TwoRankSites());
  Rng rng(1);
  EXPECT_THROW(plan.Draw(SamplePolicy::kUniform, rng), ConfigError);
}

TEST(SamplePolicy, NamesRoundTrip) {
  for (const SamplePolicy p : {SamplePolicy::kUniform, SamplePolicy::kWeighted,
                               SamplePolicy::kStratified}) {
    SamplePolicy back = SamplePolicy::kUniform;
    ASSERT_TRUE(ParseSamplePolicy(SamplePolicyName(p), &back));
    EXPECT_EQ(back, p);
  }
  SamplePolicy out;
  EXPECT_FALSE(ParseSamplePolicy("adaptive", &out));
}

// ---- Wilson intervals ---------------------------------------------------------

TEST(Wilson, MatchesKnownValue) {
  // p=0.5, n=100, z=1.96: the Wilson 95% interval is [0.4038, 0.5962].
  const WilsonInterval w = WilsonScore(0.5, 100.0);
  EXPECT_NEAR(w.lo, 0.4038, 0.001);
  EXPECT_NEAR(w.hi, 0.5962, 0.001);
  EXPECT_EQ(w.rate, 0.5);
}

TEST(Wilson, StaysInsideUnitIntervalAtExtremes) {
  const WilsonInterval zero = WilsonScore(0.0, 50.0);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LT(zero.hi, 0.15);
  const WilsonInterval one = WilsonScore(1.0, 50.0);
  EXPECT_EQ(one.hi, 1.0);
  EXPECT_LT(one.lo, 1.0);
  EXPECT_GT(one.lo, 0.85);
}

TEST(Wilson, NoDataIsVacuous) {
  const WilsonInterval w = WilsonScore(0.5, 0.0);
  EXPECT_EQ(w.lo, 0.0);
  EXPECT_EQ(w.hi, 1.0);
}

// ---- OutcomeEstimator ---------------------------------------------------------

TEST(OutcomeEstimator, UnweightedRatesAreProportions) {
  OutcomeEstimator est;
  for (int i = 0; i < 60; ++i) est.Add(Outcome::kBenign, false, 1.0);
  for (int i = 0; i < 30; ++i) est.Add(Outcome::kTerminated, i < 10, 1.0);
  for (int i = 0; i < 10; ++i) est.Add(Outcome::kSdc, false, 1.0);
  EXPECT_EQ(est.trials(), 100u);
  EXPECT_DOUBLE_EQ(est.effective_n(), 100.0);
  EXPECT_DOUBLE_EQ(est.Interval(OutcomeEstimator::kBenign).rate, 0.60);
  EXPECT_DOUBLE_EQ(est.Interval(OutcomeEstimator::kTerminated).rate, 0.30);
  EXPECT_DOUBLE_EQ(est.Interval(OutcomeEstimator::kSdc).rate, 0.10);
  EXPECT_DOUBLE_EQ(est.Interval(OutcomeEstimator::kHang).rate, 0.10);
}

TEST(OutcomeEstimator, IgnoresInfraAndNonPositiveWeights) {
  OutcomeEstimator est;
  est.Add(Outcome::kBenign, false, 1.0);
  est.Add(Outcome::kInfra, false, 1.0);
  est.Add(Outcome::kCrashed, false, 1.0);
  est.Add(Outcome::kSdc, false, 0.0);   // degenerate weight
  est.Add(Outcome::kSdc, false, -1.0);  // degenerate weight
  EXPECT_EQ(est.trials(), 1u);
  EXPECT_DOUBLE_EQ(est.Interval(OutcomeEstimator::kBenign).rate, 1.0);
}

TEST(OutcomeEstimator, UnequalWeightsShrinkEffectiveN) {
  OutcomeEstimator est;
  est.Add(Outcome::kBenign, false, 9.0);
  est.Add(Outcome::kSdc, false, 1.0);
  // Kish: (9+1)^2 / (81+1) = 100/82.
  EXPECT_NEAR(est.effective_n(), 100.0 / 82.0, 1e-12);
  EXPECT_DOUBLE_EQ(est.Interval(OutcomeEstimator::kBenign).rate, 0.9);
}

TEST(OutcomeEstimator, ConvergedNeedsEverySeriesNarrow) {
  OutcomeEstimator est;
  EXPECT_FALSE(est.Converged(0.5));
  const auto benign_or_terminated = [](int i) {
    return i % 2 == 0 ? Outcome::kBenign : Outcome::kTerminated;
  };
  for (int i = 0; i < 10; ++i) est.Add(benign_or_terminated(i), false, 1.0);
  EXPECT_FALSE(est.Converged(0.1));
  for (int i = 0; i < 5000; ++i) est.Add(benign_or_terminated(i), false, 1.0);
  EXPECT_TRUE(est.Converged(0.06));
}

TEST(SampleController, StopIsStickyAndGuardedByMinTrials) {
  SampleController c(/*stop_ci=*/0.9);
  EXPECT_TRUE(c.stop_enabled());
  // Even a trivially-converged estimate may not stop before kMinStopTrials.
  for (std::uint64_t i = 0; i + 1 < SampleController::kMinStopTrials; ++i) {
    EXPECT_FALSE(c.Commit(Outcome::kBenign, false, 1.0)) << "commit " << i;
  }
  EXPECT_TRUE(c.Commit(Outcome::kBenign, false, 1.0));
  EXPECT_TRUE(c.converged());
  const std::uint64_t committed = c.committed();
  // Sticky: later commits keep reporting the stop and change nothing.
  EXPECT_TRUE(c.Commit(Outcome::kSdc, false, 1.0));
  EXPECT_EQ(c.committed(), committed);
}

TEST(SampleController, DisabledStopStillEstimates) {
  SampleController c(/*stop_ci=*/0.0);
  EXPECT_FALSE(c.stop_enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(c.Commit(Outcome::kBenign, false, 1.0));
  }
  EXPECT_FALSE(c.converged());
  EXPECT_EQ(c.estimator().trials(), 100u);
}

// ---- PcNthTrigger -------------------------------------------------------------

TEST(PcNthTrigger, FiresAtNthLocalInvocationOfItsPcOnly) {
  core::PcNthTrigger trig(/*pc=*/40, /*nth=*/3);
  Rng rng(1);
  std::uint64_t exec = 0;
  EXPECT_FALSE(trig.ShouldFireAt(++exec, 40, rng));  // 1st at pc
  EXPECT_FALSE(trig.ShouldFireAt(++exec, 41, rng));  // other pc: not counted
  EXPECT_FALSE(trig.ShouldFireAt(++exec, 40, rng));  // 2nd at pc
  EXPECT_TRUE(trig.ShouldFireAt(++exec, 40, rng));   // 3rd: fire
  EXPECT_TRUE(trig.Expired());
  EXPECT_FALSE(trig.ShouldFireAt(++exec, 40, rng));  // one-shot
}

TEST(PcNthTrigger, CloneRestartsCounting) {
  core::PcNthTrigger trig(40, 1);
  Rng rng(1);
  EXPECT_TRUE(trig.ShouldFireAt(1, 40, rng));
  const auto fresh = trig.Clone();
  EXPECT_FALSE(fresh->Expired());
}

// ---- Campaign integration -----------------------------------------------------

/// Steerable single-rank app: `iters` fadds plus a tail of integer adds, so
/// a sampled campaign sees two site classes with very different masses.
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

CampaignConfig BaseConfig(std::uint64_t runs, std::uint64_t seed) {
  CampaignConfig config;
  config.runs = runs;
  config.seed = seed;
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string RenderPlusCsv(const CampaignResult& result, SamplePolicy policy) {
  std::ostringstream out;
  out << result.Render("accum");
  WriteRecordsCsv(result.records, out, policy);
  return out.str();
}

TEST(SampledCampaign, UniformRenderAndCsvCarryNoSamplingArtifacts) {
  Campaign c(AccumulatorApp(), BaseConfig(40, 5));
  const CampaignResult result = c.Run();
  EXPECT_FALSE(result.has_estimates);
  const std::string text = RenderPlusCsv(result, SamplePolicy::kUniform);
  EXPECT_EQ(text.find("sampling:"), std::string::npos);
  EXPECT_EQ(text.find("wilson"), std::string::npos);
  EXPECT_NE(text.find("#chaser-records-csv v7\n"), std::string::npos)
      << "uniform campaigns write the layout without sampling columns";
}

TEST(SampledCampaign, WeightedSerialAndParallelAreBitIdentical) {
  for (const SamplePolicy policy :
       {SamplePolicy::kWeighted, SamplePolicy::kStratified}) {
    CampaignConfig config = BaseConfig(60, 9);
    config.sample_policy = policy;
    Campaign serial(AccumulatorApp(), config);
    const CampaignResult a = serial.Run();
    Campaign parallel(AccumulatorApp(), config, /*jobs=*/4);
    const CampaignResult b = parallel.Run();
    ASSERT_TRUE(a.has_estimates);
    ASSERT_TRUE(b.has_estimates);
    EXPECT_EQ(RenderPlusCsv(a, policy), RenderPlusCsv(b, policy))
        << SamplePolicyName(policy);
    EXPECT_EQ(a.est_sdc.lo, b.est_sdc.lo) << SamplePolicyName(policy);
    EXPECT_EQ(a.est_sdc.hi, b.est_sdc.hi) << SamplePolicyName(policy);
    EXPECT_EQ(a.effective_n, b.effective_n) << SamplePolicyName(policy);
  }
}

TEST(SampledCampaign, SampledRecordsCarrySiteAndWeight) {
  CampaignConfig config = BaseConfig(30, 13);
  config.sample_policy = SamplePolicy::kStratified;
  Campaign c(AccumulatorApp(), config);
  const CampaignResult result = c.Run();
  ASSERT_EQ(result.records.size(), 30u);
  for (const RunRecord& rec : result.records) {
    EXPECT_GT(rec.sample_weight, 0.0);
    EXPECT_GE(rec.trigger_nth, 1u);
  }
}

TEST(SampledCampaign, StopCiStopsEarlyIdenticallyOnBothDrivers) {
  CampaignConfig config = BaseConfig(400, 21);
  config.sample_policy = SamplePolicy::kWeighted;
  config.stop_ci = 0.45;  // generous: converges soon after the 32-trial guard
  Campaign serial(AccumulatorApp(), config);
  const CampaignResult a = serial.Run();
  ASSERT_TRUE(a.stopped_early);
  EXPECT_GE(a.runs, SampleController::kMinStopTrials);
  EXPECT_LT(a.runs, 400u);
  for (unsigned jobs : {2u, 4u}) {
    Campaign parallel(AccumulatorApp(), config, jobs);
    const CampaignResult b = parallel.Run();
    EXPECT_EQ(a.runs, b.runs) << "jobs=" << jobs;
    EXPECT_EQ(RenderPlusCsv(a, config.sample_policy),
              RenderPlusCsv(b, config.sample_policy))
        << "jobs=" << jobs;
  }
}

/// Resuming a --stop-ci-stopped campaign from its CTR store must replay to
/// the same stop point without running a single new trial or moving any
/// estimate.
TEST(SampledCampaign, ResumeAfterEarlyStopRunsNothingAndMatchesByteForByte) {
  namespace fs = std::filesystem;
  const std::string dir = testutil::ScratchPath("stopci_resume.ctr");
  CampaignConfig config = BaseConfig(400, 21);
  config.sample_policy = SamplePolicy::kWeighted;
  config.stop_ci = 0.45;
  store::CtrStoreInfo identity;
  identity.campaign_seed = config.seed;
  identity.app = "accum";
  identity.sample_policy = config.sample_policy;
  // The campaign on `jobs` workers with its records streaming into the store
  // at `dir`, replaying what the store already holds (chaser_run --resume).
  std::atomic<std::uint64_t> executed{0};
  const auto run = [&](unsigned jobs) {
    store::CtrWriterOptions options;
    options.resume = true;
    store::CtrStoreWriter writer(dir, identity, options);
    CampaignConfig resumable = config;
    resumable.record_sink = [&](const RunRecord& r) { writer.Add(r); };
    resumable.trial_chaos = [&](std::uint64_t, unsigned) { ++executed; };
    Campaign campaign(AccumulatorApp(), resumable, jobs);
    CampaignResult result = campaign.Run(writer.Replay());
    writer.Finish();
    return result;
  };

  const CampaignResult a = run(1);
  ASSERT_TRUE(a.stopped_early);
  const std::string store_bytes = ReadFileBytes(dir + "/seg-000000.ctr");

  // Serial resume, then a parallel one: the replayed commits hit the same
  // stop prefix, and nothing new runs or lands in the store.
  for (const unsigned jobs : {1u, 4u}) {
    executed = 0;
    const CampaignResult b = run(jobs);
    EXPECT_EQ(executed.load(), 0u)
        << "a resumed early-stopped campaign must not execute any new trial";
    EXPECT_EQ(ReadFileBytes(dir + "/seg-000000.ctr"), store_bytes);
    EXPECT_EQ(RenderPlusCsv(a, config.sample_policy),
              RenderPlusCsv(b, config.sample_policy))
        << "jobs=" << jobs;
  }
  fs::remove_all(dir);
}

TEST(SampledCampaign, WeightedEstimateCoversExhaustiveUniformRate) {
  // Ground truth: the uniform policy's outcome tally over many trials.
  CampaignConfig exhaustive = BaseConfig(300, 3);
  Campaign truth(AccumulatorApp(), exhaustive);
  const CampaignResult t = truth.Run();
  const double sdc_rate =
      static_cast<double>(t.sdc) / static_cast<double>(t.runs);

  CampaignConfig sampled = BaseConfig(300, 4);
  sampled.sample_policy = SamplePolicy::kWeighted;
  Campaign c(AccumulatorApp(), sampled);
  const CampaignResult s = c.Run();
  ASSERT_TRUE(s.has_estimates);
  // Two independent 300-trial estimates of the same rate: the sampled CI
  // must cover the exhaustive point estimate.
  EXPECT_GE(sdc_rate, s.est_sdc.lo - 0.02);
  EXPECT_LE(sdc_rate, s.est_sdc.hi + 0.02);
}

}  // namespace
}  // namespace chaser::campaign
