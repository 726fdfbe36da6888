#include "campaign/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/fleet.h"
#include "campaign/journal.h"
#include "common/error.h"
#include "common/strings.h"
#include "obs/telemetry.h"

namespace chaser::campaign {

ParallelCampaign::ParallelCampaign(apps::AppSpec spec, CampaignConfig config,
                                   unsigned jobs)
    : spec_(std::move(spec)),
      config_(std::move(config)),
      inject_ranks_(config_.inject_ranks.empty() ? std::set<Rank>{0}
                                                 : config_.inject_ranks),
      jobs_(jobs) {
  if (jobs_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw == 0 ? 1 : hw;
  }
  // Resolve the shared translation cache once; every worker's engines copy
  // the pointer, so the whole pool reads/writes one cache. Its read path is
  // lock-free and its insert path re-checks for racing winners, which is
  // what `ctest -L tsan` exercises.
  if (config_.shared_tb_cache == nullptr) {
    owned_tb_cache_ = std::make_unique<tcg::SharedTbCache>(config_.tb_cache_cap);
    config_.shared_tb_cache = owned_tb_cache_.get();
  }
  // Fail on a bad inject-rank set here, like the serial Campaign constructor
  // does, instead of from inside a worker thread mid-run.
  for (const Rank r : inject_ranks_) {
    if (r < 0 || r >= spec_.num_ranks) {
      throw ConfigError(StrFormat("ParallelCampaign: inject rank %d outside 0..%d",
                                  r, spec_.num_ranks - 1));
    }
  }
}

void ParallelCampaign::RunGolden() {
  TrialEngine engine(spec_, config_, inject_ranks_);
  const obs::ThreadAttachment attachment(config_.telemetry, "main");
  golden_ = engine.RunGolden();
  golden_done_ = true;
}

std::uint64_t ParallelCampaign::golden_targeted_execs(Rank r) const {
  const auto it = golden_.targeted_execs.find(r);
  return it == golden_.targeted_execs.end() ? 0 : it->second;
}

CampaignResult ParallelCampaign::Run() {
  obs::Telemetry* const telemetry = config_.telemetry;
  const bool sharded = config_.shard_count > 1;
  // Shard workers never early-stop: the stop prefix is defined in global
  // seed order, which the merge step re-applies (see the serial driver).
  const double stop_ci = sharded ? 0.0 : config_.stop_ci;
  // Sampling/early-stop plumbing mirrors the serial driver; shared so the
  // telemetry status channel can poll estimates after Run() returns.
  const bool sampling_active =
      config_.sample_policy != SamplePolicy::kUniform || stop_ci > 0.0;
  std::shared_ptr<SampleController> controller;
  if (sampling_active) {
    controller = std::make_shared<SampleController>(config_.sample_policy,
                                                    stop_ci);
  }
  // This worker's slice of the trial space in seed order. Everything below
  // runs over shard-local positions 0..runs; unsharded campaigns get the
  // identity mapping and stay bit-identical to earlier builds.
  const std::vector<std::uint64_t> all_seeds =
      Campaign::DeriveTrialSeeds(config_.seed, config_.runs);
  const std::vector<std::uint64_t> indices = ShardTrialIndices(
      config_.runs, ShardSpec{config_.shard_index, config_.shard_count});
  const std::uint64_t runs = indices.size();
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(runs));
  for (const std::uint64_t index : indices) {
    seeds.push_back(all_seeds[static_cast<std::size_t>(index)]);
  }
  if (telemetry != nullptr) {
    if (controller != nullptr) {
      telemetry->SetEstimatesSource(
          [controller] { return controller->Snapshot(); });
    }
    telemetry->BeginCampaign(spec_.name, runs);
    telemetry->AttachThread("main");
  }
  if (!golden_done_) RunGolden();

  // Trial i writes only records[i]; the atomic counter hands every index to
  // exactly one worker, so the records vector needs no lock.
  std::vector<RunRecord> records(static_cast<std::size_t>(runs));

  // Early-stop determinism: the stop point must be the same seed-order
  // prefix the serial driver would pick, whatever order workers finish in.
  // Completed trials are therefore committed to the estimator through a
  // reorder buffer — `completed` flags + a cursor that only ever advances
  // over a contiguous prefix, all under `commit_mutex`. The first committed
  // trial whose estimate has converged latches `stop_at`; workers skip any
  // index beyond it (in-flight later trials still finish and are journaled,
  // but never enter the result).
  std::vector<char> completed(static_cast<std::size_t>(runs), 0);
  std::mutex commit_mutex;
  std::uint64_t commit_cursor = 0;
  std::atomic<std::uint64_t> stop_at{UINT64_MAX};
  const auto advance_commits_locked = [&] {
    while (commit_cursor < runs &&
           completed[static_cast<std::size_t>(commit_cursor)] != 0) {
      const RunRecord& rec = records[static_cast<std::size_t>(commit_cursor)];
      const bool converged = controller->Commit(
          static_cast<int>(rec.outcome), rec.deadlock, rec.sample_weight);
      if (converged && controller->stop_enabled() &&
          stop_at.load() == UINT64_MAX) {
        stop_at.store(commit_cursor);
      }
      ++commit_cursor;
      if (stop_at.load() != UINT64_MAX) break;  // nothing commits past the stop
    }
  };

  // Journal replay: trials an earlier (possibly killed) process already
  // completed are slotted into their records[] position by run_seed and
  // withheld from the work queue. Workers share the journal handle —
  // TrialJournal::Append is internally locked and fsync-framed, so records
  // from concurrent workers interleave whole, never torn.
  std::unique_ptr<TrialJournal> journal;
  std::vector<std::uint64_t> pending;  // indices still to execute
  pending.reserve(static_cast<std::size_t>(runs));
  if (!config_.journal_path.empty()) {
    std::vector<RunRecord> replayed;
    journal = std::make_unique<TrialJournal>(config_.journal_path, config_.seed,
                                             spec_.name, &replayed,
                                             config_.shard_index,
                                             config_.shard_count);
    std::map<std::uint64_t, RunRecord> done;
    for (RunRecord& rec : replayed) done[rec.run_seed] = std::move(rec);
    for (std::uint64_t i = 0; i < runs; ++i) {
      const auto it = done.find(seeds[i]);
      if (it != done.end()) {
        records[static_cast<std::size_t>(i)] = it->second;
        completed[static_cast<std::size_t>(i)] = 1;
        if (telemetry != nullptr) {
          telemetry->OnTrialDone(ToTrialStats(it->second, /*replayed=*/true),
                                 0, 0);
        }
      } else {
        pending.push_back(i);
      }
    }
  } else {
    for (std::uint64_t i = 0; i < runs; ++i) pending.push_back(i);
  }
  if (controller != nullptr) {
    // Commit the replayed prefix before any worker starts: a resumed
    // campaign that already converged stops here, running zero new trials.
    std::lock_guard<std::mutex> lock(commit_mutex);
    advance_commits_locked();
  }

  std::atomic<std::uint64_t> next{0};
  const std::uint64_t n_pending = pending.size();
  std::mutex error_mutex;
  std::exception_ptr error;

  std::atomic<unsigned> worker_seq{0};
  const auto worker = [&]() {
    if (telemetry != nullptr) {
      telemetry->AttachThread(
          "worker-" + std::to_string(worker_seq.fetch_add(1)));
    }
    try {
      std::unique_ptr<TrialEngine> engine;
      while (true) {
        const std::uint64_t p = next.fetch_add(1, std::memory_order_relaxed);
        if (p >= n_pending) break;
        const std::uint64_t i = pending[static_cast<std::size_t>(p)];
        // Pending indices are claimed in ascending order, so the first index
        // past a latched stop point means every later claim would be too.
        if (stop_at.load() != UINT64_MAX && i > stop_at.load()) break;
        const std::uint64_t t0_ns =
            telemetry != nullptr ? obs::MonotonicNanos() : 0;
        // Containment boundary: a throwing trial retries on a rebuilt engine
        // and quarantines as kInfra — it cannot take down the worker pool.
        const RunRecord rec = RunTrialContained(
            &engine, spec_, config_, inject_ranks_, golden_, seeds[i]);
        if (journal != nullptr) journal->Append(rec);
        records[static_cast<std::size_t>(i)] = rec;
        if (telemetry != nullptr) {
          telemetry->OnTrialDone(ToTrialStats(rec, /*replayed=*/false), t0_ns,
                                 obs::MonotonicNanos());
        }
        if (controller != nullptr) {
          std::lock_guard<std::mutex> lock(commit_mutex);
          completed[static_cast<std::size_t>(i)] = 1;
          advance_commits_locked();
        }
      }
    } catch (...) {
      // Only infrastructure outside trial containment lands here (e.g. the
      // journal device filling up) — that genuinely ends the campaign.
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      // Drain the remaining work so the other workers stop promptly.
      next.store(n_pending, std::memory_order_relaxed);
    }
    if (telemetry != nullptr) telemetry->DetachThread();
  };

  const unsigned n_workers = static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(jobs_, n_pending == 0 ? 1 : n_pending)));
  if (n_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_workers);
    for (unsigned w = 0; w < n_workers; ++w) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);

  // Deterministic ordered reduction: merging in trial order through the
  // shared Accumulate makes the result bit-identical to the serial driver.
  // With an early stop the reduction covers exactly the committed prefix —
  // the same one the serial driver would have executed.
  const std::uint64_t stop = stop_at.load();
  const std::uint64_t committed_runs = stop == UINT64_MAX ? runs : stop + 1;
  CampaignResult result;
  result.runs = committed_runs;
  for (std::uint64_t i = 0; i < committed_runs; ++i) {
    result.Accumulate(records[static_cast<std::size_t>(i)],
                      config_.keep_records);
    // The sink sees the same seed-ordered committed prefix the serial driver
    // streams — single-threaded here, so no locking falls on the sink.
    if (config_.record_sink) {
      config_.record_sink(records[static_cast<std::size_t>(i)]);
    }
  }
  if (controller != nullptr) {
    result.stopped_early = controller->converged() && committed_runs < runs;
    result.FillEstimates(controller->estimator(), config_.sample_policy,
                         stop_ci, runs);
  }
  if (telemetry != nullptr) telemetry->DetachThread();
  return result;
}

}  // namespace chaser::campaign
