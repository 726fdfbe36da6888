// Sampling validation — exhaustive-vs-sampled outcome-rate cross-check.
//
// An importance-sampled campaign is only useful if its estimates are right.
// This bench runs, for two guest apps (matvec, lud):
//
//   exhaustive  a large invocation-uniform campaign standing in for the
//               full fault space (one trial per golden invocation x 64 bit
//               positions is the paper-style single-bit model). The weighted
//               draw IS the invocation-uniform distribution (weight = 1), so
//               the truth run uses it with no stop rule and takes its rates
//               from the raw outcome counters — independent of the estimator
//               under test. The legacy uniform policy would NOT do: it picks
//               a rank first, over-representing low-mass ranks.
//   sampled     the same campaign under `--sample weighted --stop-ci 0.02`,
//               capped at the exhaustive space size
//
// and then asserts the tentpole acceptance criteria:
//   1. every exhaustive outcome rate lies inside the sampled campaign's
//      reported 95% Wilson interval, and
//   2. the sampled campaign committed at most 25% of the exhaustive trial
//      count before its intervals converged.
//
// `--json` emits the table for tools/bench_to_json.sh
// (BENCH_sampling_validation.json). Fixed seeds make every number here
// reproducible bit for bit.
#include <cstdio>
#include <cstring>

#include "apps/app.h"
#include "bench_util.h"
#include "campaign/campaign.h"
#include "campaign/sampling.h"

namespace chaser {
namespace {

constexpr double kStopCi = 0.02;
constexpr double kMaxTrialFraction = 0.25;

struct SeriesRow {
  const char* name;
  double exhaustive;           // rate measured by the uniform campaign
  campaign::WilsonInterval ci; // the sampled campaign's interval
  bool contained;
};

struct AppRow {
  const char* app;
  std::uint64_t exhaustive_space;  // invocations x 64 bit positions
  std::uint64_t exhaustive_runs;   // uniform trials actually run
  std::uint64_t sampled_trials;    // trials the stop rule committed
  bool stopped_early;
  double trial_fraction;           // sampled_trials / exhaustive_space
  SeriesRow series[4];
  bool pass;
};

AppRow ValidateApp(const char* name, apps::AppSpec spec,
                   std::uint64_t exhaustive_runs, unsigned jobs) {
  AppRow row{};
  row.app = name;

  // Exhaustive ground truth: invocation-uniform draws (weighted policy,
  // weight = 1, no stop rule), rates computed from the raw outcome counters
  // over the non-infra trials (the estimator excludes infra the same way).
  campaign::CampaignConfig config;
  config.seed = 4242;
  config.runs = exhaustive_runs;
  config.trace = false;
  config.sample_policy = campaign::SamplePolicy::kWeighted;
  campaign::Campaign exhaustive(spec, config, jobs);
  exhaustive.RunGolden();
  row.exhaustive_space = 0;
  for (const Rank r : exhaustive.inject_ranks()) {
    row.exhaustive_space += exhaustive.golden_targeted_execs(r) * 64;
  }
  const campaign::CampaignResult truth = exhaustive.Run();
  row.exhaustive_runs = truth.runs;
  std::uint64_t hangs = 0;
  for (const campaign::RunRecord& rec : truth.records) {
    if (rec.deadlock) ++hangs;
  }
  const double n = static_cast<double>(truth.runs - truth.infra);
  const double ex_benign = static_cast<double>(truth.benign) / n;
  const double ex_terminated = static_cast<double>(truth.terminated) / n;
  const double ex_sdc = static_cast<double>(truth.sdc) / n;
  const double ex_hang = static_cast<double>(hangs) / n;

  // Sampled: weighted policy with the CI-width stop, capped at the
  // exhaustive space size — the budget a truly exhaustive sweep would need.
  campaign::CampaignConfig sampled_config;
  sampled_config.seed = 77;
  sampled_config.runs = row.exhaustive_space;
  sampled_config.trace = false;
  sampled_config.keep_records = false;
  sampled_config.sample_policy = campaign::SamplePolicy::kWeighted;
  sampled_config.stop_ci = kStopCi;
  campaign::Campaign sampled(std::move(spec), sampled_config, jobs);
  const campaign::CampaignResult est = sampled.Run();
  row.sampled_trials = est.runs;
  row.stopped_early = est.stopped_early;
  row.trial_fraction = static_cast<double>(est.runs) /
                       static_cast<double>(row.exhaustive_space);

  row.series[0] = {"benign", ex_benign, est.est_benign, false};
  row.series[1] = {"terminated", ex_terminated, est.est_terminated, false};
  row.series[2] = {"sdc", ex_sdc, est.est_sdc, false};
  row.series[3] = {"hang", ex_hang, est.est_hang, false};
  row.pass = row.trial_fraction <= kMaxTrialFraction && row.stopped_early;
  for (SeriesRow& s : row.series) {
    s.contained = s.exhaustive >= s.ci.lo && s.exhaustive <= s.ci.hi;
    row.pass = row.pass && s.contained;
  }
  return row;
}

}  // namespace
}  // namespace chaser

int main(int argc, char** argv) {
  using namespace chaser;
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const unsigned jobs = bench::JobsFromEnv();

  if (!json) {
    bench::PrintHeader(
        "Sampling validation: exhaustive vs --sample weighted --stop-ci 0.02",
        "importance-sampling correctness (unbiased rates, early stop)");
    std::printf("workers: %u\n\n", jobs);
  }

  // Exhaustive-rate budgets sized so the ground truth's own noise is well
  // under the sampled CI half-width (see sd = sqrt(pq/n)); scalable via
  // CHASER_BENCH_RUNS for quick smoke passes.
  AppRow rows[] = {
      ValidateApp("matvec", apps::BuildMatvec({}), bench::RunsFromEnv(20000),
                  jobs),
      ValidateApp("lud", apps::BuildLud({}), bench::RunsFromEnv(8000), jobs),
  };

  bool pass = true;
  for (const AppRow& row : rows) pass = pass && row.pass;

  if (json) {
    std::printf("{\n  \"bench\": \"sampling_validation\",\n");
    std::printf("  \"policy\": \"weighted\",\n  \"stop_ci\": %.4f,\n", kStopCi);
    std::printf("  \"max_trial_fraction\": %.2f,\n  \"apps\": [\n",
                kMaxTrialFraction);
    for (std::size_t i = 0; i < 2; ++i) {
      const AppRow& row = rows[i];
      std::printf(
          "    {\"app\": \"%s\", \"exhaustive_space\": %llu, "
          "\"exhaustive_runs\": %llu, \"sampled_trials\": %llu, "
          "\"stopped_early\": %s, \"trial_fraction\": %.4f, \"rates\": {",
          row.app, static_cast<unsigned long long>(row.exhaustive_space),
          static_cast<unsigned long long>(row.exhaustive_runs),
          static_cast<unsigned long long>(row.sampled_trials),
          row.stopped_early ? "true" : "false", row.trial_fraction);
      for (std::size_t s = 0; s < 4; ++s) {
        std::printf(
            "%s\"%s\": {\"exhaustive\": %.6f, \"lo\": %.6f, \"hi\": %.6f, "
            "\"contained\": %s}",
            s == 0 ? "" : ", ", row.series[s].name, row.series[s].exhaustive,
            row.series[s].ci.lo, row.series[s].ci.hi,
            row.series[s].contained ? "true" : "false");
      }
      std::printf("}, \"pass\": %s}%s\n", row.pass ? "true" : "false",
                  i == 0 ? "," : "");
    }
    std::printf("  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
    return pass ? 0 : 1;
  }

  for (const AppRow& row : rows) {
    std::printf(
        "%s: exhaustive space %llu trials (uniform sample of %llu), "
        "sampled stopped at %llu (%.1f%%, early stop: %s)\n",
        row.app, static_cast<unsigned long long>(row.exhaustive_space),
        static_cast<unsigned long long>(row.exhaustive_runs),
        static_cast<unsigned long long>(row.sampled_trials),
        100.0 * row.trial_fraction, row.stopped_early ? "yes" : "NO");
    std::printf("  %-10s %12s %24s\n", "outcome", "exhaustive",
                "sampled 95% wilson");
    for (const SeriesRow& s : row.series) {
      std::printf("  %-10s %11.2f%%   [%6.2f%%, %6.2f%%]   %s\n", s.name,
                  100.0 * s.exhaustive, 100.0 * s.ci.lo, 100.0 * s.ci.hi,
                  s.contained ? "contained" : "OUTSIDE (BUG)");
    }
    std::printf("  => %s\n\n", row.pass ? "PASS" : "FAIL");
  }
  std::printf("overall: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
