// Importance sampling and confidence-interval early stop for campaigns.
//
// An exhaustive-style campaign spends most of its trials on injection points
// that cannot change the outcome estimate any further. Following the
// ZOFI/fi-gdb line of work, a sampled campaign instead (a) profiles the
// golden run per *site* (static pc × rank, with its dynamic invocation
// count), (b) collapses sites into equivalence classes (same pc, same
// instruction class — the members only differ in which rank executes them),
// (c) draws injection points from those classes under a policy, and
// (d) maintains Wilson-score interval estimates of the outcome rates so the
// campaign can stop as soon as every interval is narrower than a requested
// width instead of running a fixed trial count.
//
// Policies:
//   uniform     today's behavior (rank uniform, nth uniform in the rank's
//               total targeted executions) — this module is bypassed
//   weighted    classes drawn proportionally to execution mass, members
//               proportionally to their share, invocation uniform within the
//               member: exactly uniform over all golden invocations, so the
//               plain trial tally is an unbiased estimate (weight 1)
//   stratified  classes drawn uniformly (rare sites surface early), each
//               trial carrying the importance weight mass_c·K/M that maps it
//               back to the uniform-over-invocations estimand
//
// Everything here is deterministic: classes are built in pc order from the
// (ordered) golden site map, and a draw consumes a fixed number of Rng
// values, so a trial remains fully determined by its run_seed on either
// driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/outcome.h"
#include "common/rng.h"
#include "common/types.h"
#include "guest/isa.h"
#include "obs/status.h"

namespace chaser::campaign {

enum class SamplePolicy : std::uint8_t { kUniform, kWeighted, kStratified };

const char* SamplePolicyName(SamplePolicy p);
/// Parse "uniform"/"weighted"/"stratified"; returns false on anything else.
bool ParseSamplePolicy(const std::string& name, SamplePolicy* out);

/// One injection site observed during the golden run: a static targeted
/// instruction (pc) with its class and dynamic invocation count on one rank.
struct GoldenSite {
  std::uint64_t pc = 0;
  guest::InstrClass cls = guest::InstrClass::kMov;
  std::uint64_t execs = 0;
};
/// Per-rank golden site histograms, pc-ascending within each rank.
using GoldenSiteMap = std::map<Rank, std::vector<GoldenSite>>;

/// Equivalence class of sites: same pc and instruction class across ranks.
struct SiteClass {
  std::uint64_t pc = 0;
  guest::InstrClass cls = guest::InstrClass::kMov;
  std::uint64_t mass = 0;  // total dynamic executions over all members
  std::vector<std::pair<Rank, std::uint64_t>> members;  // rank asc, execs
};

/// A single sampled injection point.
struct SiteDraw {
  Rank rank = 0;
  std::uint64_t pc = 0;
  guest::InstrClass cls = guest::InstrClass::kMov;
  std::uint64_t nth = 1;  // pc-local invocation index on `rank`, 1-based
  double weight = 1.0;    // importance weight vs uniform-over-invocations
};

/// The immutable sampling frame built from a golden profile. Like the
/// profile itself it is only read after construction, so one plan may be
/// shared (or identically rebuilt) by any number of worker engines.
class SamplingPlan {
 public:
  /// Build the class list from per-rank golden site histograms. Classes are
  /// ordered by (pc, cls) and members by rank, so the same profile always
  /// yields the same plan. Throws ConfigError if no site has any execution.
  static SamplingPlan Build(const GoldenSiteMap& sites);

  /// Draw one injection point. Consumes exactly one Rng value for kWeighted
  /// and two for kStratified. kUniform is not a plan policy (the legacy path
  /// never builds a plan) and throws ConfigError.
  SiteDraw Draw(SamplePolicy policy, Rng& rng) const;

  const std::vector<SiteClass>& classes() const { return classes_; }
  std::uint64_t total_mass() const { return total_mass_; }

 private:
  SiteDraw DrawInClass(std::size_t c, std::uint64_t offset) const;

  std::vector<SiteClass> classes_;
  std::vector<std::uint64_t> cum_;  // cum_[i] = mass of classes [0..i]
  std::uint64_t total_mass_ = 0;
};

/// Wilson score interval (common/outcome.h) for estimated rate `p_hat` at
/// effective sample size `n_eff` (the z=1.96 default is the 95% two-sided
/// interval). Unlike the normal approximation it stays inside [0, 1] and
/// behaves at p near 0/1 — exactly where SDC rates live.
WilsonInterval WilsonScore(double p_hat, double n_eff, double z = 1.96);

/// Weighted outcome-rate estimator. Feeds on committed trials *in seed
/// order* (floating-point accumulation order matters for results that are
/// bit-identical at any worker count) and tracks the benign / terminated / sdc /
/// hang rates, where hang is the deadlock subset of terminated. Weighted
/// trials use the self-normalised (Hájek) estimator with Kish's effective
/// sample size standing in for n in the Wilson interval. Outcomes the
/// outcome table does not mark as rate series (infra, crashed) are ignored.
class OutcomeEstimator {
 public:
  /// A rate series' index is its outcome's; hang comes after them.
  enum Series { kBenign = 0, kTerminated = 1, kSdc = 2, kHang = 3 };
  static constexpr int kNumSeries = 4;
  /// The outcome's name, or "hang".
  static const char* SeriesName(Series s);

  /// `deadlock` marks the hang subset of terminated.
  void Add(Outcome outcome, bool deadlock, double weight);

  std::uint64_t trials() const { return n_; }
  /// Kish effective sample size (sum w)^2 / sum w^2; equals trials() when
  /// every weight is 1.
  double effective_n() const;
  WilsonInterval Interval(Series s, double z = 1.96) const;
  /// True once every series' interval is narrower than `max_width`
  /// (full width hi - lo).
  bool Converged(double max_width, double z = 1.96) const;

 private:
  double wsum_[kNumSeries] = {0.0, 0.0, 0.0, 0.0};
  double w_total_ = 0.0;
  double w2_total_ = 0.0;
  std::uint64_t n_ = 0;
};
static_assert(std::ranges::all_of(kOutcomes, [](const OutcomeInfo& o) {
  return o.rate_series ==
         (static_cast<int>(o.outcome) < OutcomeEstimator::kHang);
}), "the series before kHang are the rate-series outcomes, by index");

/// Stop-rule glue behind the SeedOrderCommitter: committed trials stream in
/// (seed order, whatever order the workers finished them in), the estimator
/// updates, and the first commit whose estimate has converged latches the
/// stop. Snapshot() is safe to call
/// from the telemetry status thread while workers commit.
class SampleController {
 public:
  /// `stop_ci` is the full interval width that counts as converged;
  /// 0 disables the early stop (the estimator still runs for reporting).
  explicit SampleController(double stop_ci) : stop_ci_(stop_ci) {}

  bool stop_enabled() const { return stop_ci_ > 0.0; }

  /// Commit one trial (seed order). Returns true once the stop rule has
  /// fired — sticky, so every commit after the trigger also returns true.
  bool Commit(Outcome outcome, bool deadlock, double weight);

  std::uint64_t committed() const;
  /// True once the stop rule has fired.
  bool converged() const;
  /// Copy of the estimator state (for the final result, after commits end).
  OutcomeEstimator estimator() const;
  obs::EstimateSnapshot Snapshot() const;

  /// Trials required before the stop rule may fire, whatever the interval
  /// widths say — a guard against degenerate early convergence when the
  /// first few draws happen to agree.
  static constexpr std::uint64_t kMinStopTrials = 32;

 private:
  const double stop_ci_;
  mutable std::mutex mutex_;
  OutcomeEstimator estimator_;
  std::uint64_t committed_ = 0;
  bool converged_ = false;
};

}  // namespace chaser::campaign
