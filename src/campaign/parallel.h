// Parallel campaign execution engine (worker pool).
//
// The paper's methodology is thousands of *independent* injection trials per
// application; Campaign::RunOnce is fully determined by its seed, so trials
// share nothing once the golden profile exists. ParallelCampaign exploits
// that: the golden phase runs once, then N worker threads each own a private
// TrialEngine (Cluster + ChaserMpi + TaintHub) and pull trial indices from
// one atomic work counter.
//
// Determinism: trial seeds are pre-derived with Campaign::DeriveTrialSeeds —
// the exact sequence a fresh serial Campaign::Run() would draw — and the
// per-run records are merged in trial order through the same
// CampaignResult::Accumulate used by the serial path. The result is
// bit-identical to serial for the same CampaignConfig::seed, regardless of
// the worker count or how the scheduler interleaved the workers.
#pragma once

#include <set>

#include "campaign/campaign.h"

namespace chaser::campaign {

class ParallelCampaign {
 public:
  /// `jobs == 0` picks one worker per hardware thread; `jobs == 1` degrades
  /// to a single in-thread worker (still bit-identical to serial Campaign).
  ParallelCampaign(apps::AppSpec spec, CampaignConfig config, unsigned jobs = 0);

  /// Execute the golden run once on a temporary engine (throws ConfigError
  /// if the clean app fails). Run() calls it lazily. With config.telemetry
  /// set, the golden phase is timed on this thread's "main" track.
  void RunGolden();

  /// Full campaign: golden + config.runs trials across the worker pool.
  /// Trial failures are contained per RunTrialContained (retry, then
  /// quarantine as Outcome::kInfra). With config.journal_path set, workers
  /// append every completed trial to the shared crash-safe journal and
  /// trials already journalled are replayed, not re-run — a killed `--jobs N`
  /// campaign resumes to the same bytes as an uninterrupted one.
  CampaignResult Run();

  // ---- Introspection -------------------------------------------------------
  unsigned jobs() const { return jobs_; }
  bool golden_done() const { return golden_done_; }
  const GoldenProfile& golden() const { return golden_; }
  std::uint64_t golden_instructions() const { return golden_.instructions; }
  std::uint64_t golden_targeted_execs(Rank r) const;
  const apps::AppSpec& spec() const { return spec_; }
  const std::set<Rank>& inject_ranks() const { return inject_ranks_; }
  /// The shared translation cache in use (driver-owned or external).
  const tcg::SharedTbCache* shared_tb_cache() const {
    return config_.shared_tb_cache;
  }

 private:
  apps::AppSpec spec_;
  CampaignConfig config_;
  std::set<Rank> inject_ranks_;
  /// Pool-owned shared cache (when no external cache was supplied).
  /// Outlives every worker's TrialEngine: workers join before Run() returns,
  /// and nothing else holds TB pointers after that.
  std::unique_ptr<tcg::SharedTbCache> owned_tb_cache_;
  unsigned jobs_ = 1;

  GoldenProfile golden_;
  bool golden_done_ = false;
};

}  // namespace chaser::campaign
