// Offline post-analysis workflow (how Figs. 7-9 are produced): run a traced
// campaign that logs its per-run records to a CTR store as trials commit,
// export one case's propagation log to CSV, read the store back and compute
// the distribution statistics — then replay the most active case into a
// trace spool and build the propagation graph from it (the chaser_analyze
// pipeline, in-process).
//
//   $ ./examples/post_analysis [runs]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "analysis/propagation.h"
#include "analysis/spool.h"
#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "store/ctr.h"

using namespace chaser;

int main(int argc, char** argv) {
  const std::uint64_t runs = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 40;

  // 1. A traced CLAMR campaign (faults on all ranks, like SIV-C) whose
  //    run records stream into a CTR store as trials commit.
  apps::AppSpec spec =
      apps::BuildClamr({.global_rows = 16, .cols = 16, .steps = 15, .ranks = 4});
  campaign::CampaignConfig config;
  config.runs = runs;
  config.seed = 2973;  // the paper's SIV-C campaign size, as a nod
  config.inject_ranks = {0, 1, 2, 3};
  const char* records_path = "/tmp/chaser_runs.ctr";
  store::CtrStoreInfo identity;
  identity.campaign_seed = config.seed;
  identity.app = "clamr";
  store::CtrStoreWriter writer(records_path, identity);
  config.record_sink = [&writer](const campaign::RunRecord& rec) {
    writer.Add(rec);
  };
  campaign::Campaign c(std::move(spec), config);
  const campaign::CampaignResult result = c.Run();
  std::printf("%s\n", result.Render("clamr campaign").c_str());

  // 2. Seal the store.
  writer.Finish();
  std::printf("wrote %llu run records to %s\n",
              static_cast<unsigned long long>(writer.added()), records_path);

  // 3. Re-execute the run with the most tainted writes and export its
  //    propagation trace + tainted-bytes timeline.
  const campaign::RunRecord* top = nullptr;
  for (const campaign::RunRecord& rec : result.records) {
    if (top == nullptr || rec.tainted_writes > top->tainted_writes) top = &rec;
  }
  if (top != nullptr && top->tainted_writes > 0) {
    const campaign::RunRecord replay = c.RunOnce(top->run_seed);
    std::ofstream trace_out("/tmp/chaser_trace_rank.csv");
    c.chaser().rank_chaser(top->inject_rank).trace_log().WriteCsv(trace_out);
    std::vector<core::TaintSample> all;
    for (Rank r = 0; r < 4; ++r) {
      const auto& t = c.chaser().rank_chaser(r).taint_timeline();
      all.insert(all.end(), t.begin(), t.end());
    }
    std::ofstream timeline_out("/tmp/chaser_timeline.csv");
    campaign::WriteTimelineCsv(all, timeline_out);
    std::printf("replayed seed %llu (%s): trace -> /tmp/chaser_trace_rank.csv, "
                "timeline -> /tmp/chaser_timeline.csv\n",
                static_cast<unsigned long long>(top->run_seed),
                campaign::OutcomeName(replay.outcome));
  }

  // 4. Offline pass: read the store back and compute the Fig. 8/9
  //    statistics.
  std::vector<campaign::RunRecord> loaded;
  store::CtrStoreScanner scanner(records_path);
  for (campaign::RunRecord rec; scanner.Next(&rec);) loaded.push_back(rec);
  const campaign::PropagationStats stats = campaign::AnalyzePropagation(loaded);
  std::printf(
      "\noffline analysis of %llu runs:\n"
      "  total tainted reads / writes: %llu / %llu\n"
      "  max per run:                  %llu / %llu\n"
      "  %% runs with more reads than writes: %.2f (paper: 47.1)\n"
      "  %% runs with only reads:             %.2f (paper: 3.97)\n"
      "  %% runs with only writes:            %.2f (paper: 14.93)\n",
      static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.total_tainted_reads),
      static_cast<unsigned long long>(stats.total_tainted_writes),
      static_cast<unsigned long long>(stats.max_tainted_reads),
      static_cast<unsigned long long>(stats.max_tainted_writes),
      stats.pct_more_reads_than_writes, stats.pct_only_reads,
      stats.pct_only_writes);

  // 5. Spool pipeline: replay the top case with a trace spool attached and
  //    build the propagation graph offline (what chaser_analyze does from
  //    the command line).
  if (top != nullptr && top->tainted_writes > 0) {
    const char* spool_root = "/tmp/chaser_spool_example";
    std::filesystem::remove_all(spool_root);
    campaign::CampaignConfig spool_config = config;
    spool_config.runs = 0;
    spool_config.spool_dir = spool_root;
    spool_config.chaser_options.taint_sample_interval = 50'000;
    campaign::Campaign replayer(
        apps::BuildClamr({.global_rows = 16, .cols = 16, .steps = 15, .ranks = 4}),
        spool_config);
    replayer.RunOnce(top->run_seed);

    const std::string trial_dir =
        std::string(spool_root) + "/trial-" + std::to_string(top->run_seed);
    const analysis::TrialSpool spool = analysis::ReadTrialSpool(trial_dir);
    const analysis::PropagationGraph graph =
        analysis::PropagationGraph::Build(analysis::DatasetFromSpool(spool));
    std::printf("\nspooled replay -> %s\n%s", trial_dir.c_str(),
                graph.Summarize().c_str());
    const auto outputs = graph.OutputEvents();
    if (!outputs.empty()) {
      const auto chain = graph.RootCause(outputs[0].rank, outputs[0].fd,
                                         outputs[0].stream_off);
      std::printf("%s", chain.Render().c_str());
    }
  }
  return 0;
}
