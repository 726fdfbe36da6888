// Tests for src/analysis: the TraceSpool on-disk format
// (round-trip, truncation recovery, sink tee-through), the propagation
// graph built from a hand-authored trace, the root-cause walk, and
// serial-vs-parallel spool determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/propagation.h"
#include "analysis/spool.h"
#include "apps/app.h"
#include "campaign/campaign.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/trace.h"
#include "hub/tainthub.h"

namespace chaser::analysis {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("chaser_analysis_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

// ---- Spool round trip --------------------------------------------------------

core::TraceEvent RandomEvent(Rng& rng, Rank rank, std::uint64_t instret) {
  core::TraceEvent e;
  const std::uint64_t k = rng.UniformU64(0, core::kNumTraceEventKinds - 1);
  e.kind = static_cast<core::TraceEventKind>(k);
  e.rank = rank;
  e.instret = instret;
  e.pc = rng.UniformU64(0, 1 << 20);
  e.vaddr = rng.UniformU64(0, ~0ull);
  e.paddr = rng.UniformU64(0, 1 << 30);
  e.size = static_cast<std::uint32_t>(rng.UniformU64(1, 8));
  e.value = rng.UniformU64(0, ~0ull);
  e.taint = rng.UniformU64(0, ~0ull);
  if (e.kind == core::TraceEventKind::kTaintedOutput) {
    e.fd = static_cast<int>(rng.UniformU64(1, 5));
    e.stream_off = rng.UniformU64(0, 1 << 16);
  }
  return e;
}

void ExpectEventsEqual(const core::TraceEvent& a, const core::TraceEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.vaddr, b.vaddr);
  EXPECT_EQ(a.paddr, b.paddr);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.taint, b.taint);
  EXPECT_EQ(a.fd, b.fd);
  EXPECT_EQ(a.stream_off, b.stream_off);
}

TEST(Spool, RoundTripFuzz) {
  const std::string dir = TempDir("roundtrip");
  Rng rng(7);
  std::vector<core::TraceEvent> events;
  std::vector<core::TaintSample> samples;
  std::vector<hub::TransferLogEntry> transfers;
  {
    TraceSpool spool(dir);
    // Per-rank monotone instret clocks (matches real traces; exercises the
    // delta encoding), interleaved across 3 ranks.
    std::map<Rank, std::uint64_t> clocks;
    for (int i = 0; i < 2000; ++i) {
      const Rank rank = static_cast<Rank>(rng.UniformU64(0, 2));
      clocks[rank] += rng.UniformU64(0, 1000);
      const core::TraceEvent e = RandomEvent(rng, rank, clocks[rank]);
      events.push_back(e);
      spool.OnTraceEvent(e);
    }
    for (int i = 0; i < 200; ++i) {
      const Rank rank = static_cast<Rank>(rng.UniformU64(0, 2));
      const core::TaintSample s{rank, rng.UniformU64(0, 1 << 24),
                                rng.UniformU64(0, 1 << 20)};
      samples.push_back(s);
      spool.AddSample(s);
    }
    for (std::uint64_t i = 0; i < 50; ++i) {
      hub::TransferLogEntry t;
      t.id = {static_cast<Rank>(rng.UniformU64(0, 2)),
              static_cast<Rank>(rng.UniformU64(0, 2)),
              static_cast<std::int64_t>(rng.UniformU64(0, 100)) - 50,
              rng.UniformU64(0, 1000)};
      t.tainted_bytes = rng.UniformU64(0, 4096);
      t.payload_bytes = rng.UniformU64(1, 4096);
      t.src_vaddr = rng.UniformU64(0, ~0ull);
      t.dest_vaddr = rng.UniformU64(0, ~0ull);
      t.send_instret = rng.UniformU64(0, 1 << 30);
      t.recv_instret = rng.UniformU64(0, 1 << 30);
      t.hub_seq = i;
      transfers.push_back(t);
      spool.AddTransfer(t);
    }
    spool.SetMeta("outcome", "sdc");
    spool.SetMeta("app", "fuzz");
    spool.Finish();
  }

  ASSERT_TRUE(IsTrialSpoolDir(dir));
  const TrialSpool back = ReadTrialSpool(dir);
  EXPECT_FALSE(back.truncated);
  EXPECT_EQ(back.meta.at("outcome"), "sdc");
  EXPECT_EQ(back.meta.at("app"), "fuzz");
  ASSERT_EQ(back.events.size(), events.size());
  ASSERT_EQ(back.samples.size(), samples.size());
  ASSERT_EQ(back.transfers.size(), transfers.size());

  // The reader groups events by rank (segments), preserving per-rank order.
  std::map<Rank, std::vector<core::TraceEvent>> by_rank;
  for (const core::TraceEvent& e : events) by_rank[e.rank].push_back(e);
  std::size_t idx = 0;
  for (const auto& [rank, rank_events] : by_rank) {
    for (const core::TraceEvent& e : rank_events) {
      ExpectEventsEqual(back.events[idx++], e);
    }
  }
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    EXPECT_EQ(back.transfers[i].id.Key(), transfers[i].id.Key());
    EXPECT_EQ(back.transfers[i].tainted_bytes, transfers[i].tainted_bytes);
    EXPECT_EQ(back.transfers[i].payload_bytes, transfers[i].payload_bytes);
    EXPECT_EQ(back.transfers[i].src_vaddr, transfers[i].src_vaddr);
    EXPECT_EQ(back.transfers[i].dest_vaddr, transfers[i].dest_vaddr);
    EXPECT_EQ(back.transfers[i].send_instret, transfers[i].send_instret);
    EXPECT_EQ(back.transfers[i].recv_instret, transfers[i].recv_instret);
    EXPECT_EQ(back.transfers[i].hub_seq, transfers[i].hub_seq);
  }
  fs::remove_all(dir);
}

TEST(Spool, FooterCountsMatch) {
  const std::string dir = TempDir("footer");
  {
    TraceSpool spool(dir);
    for (int i = 0; i < 10; ++i) {
      spool.OnTraceEvent({.kind = core::TraceEventKind::kTaintedRead,
                          .rank = 0, .instret = static_cast<std::uint64_t>(i)});
    }
    spool.OnTraceEvent({.kind = core::TraceEventKind::kInjection, .rank = 0,
                        .instret = 11});
    spool.Finish();
  }
  SegmentReader reader(dir + "/rank-0.seg");
  EXPECT_EQ(reader.rank(), 0);
  EXPECT_FALSE(reader.is_hub());
  ASSERT_TRUE(reader.footer().has_value());
  EXPECT_EQ(reader.footer()->events, 11u);
  EXPECT_EQ(reader.footer()->kind_counts[static_cast<int>(
                core::TraceEventKind::kTaintedRead)], 10u);
  EXPECT_EQ(reader.footer()->kind_counts[static_cast<int>(
                core::TraceEventKind::kInjection)], 1u);
  EXPECT_EQ(reader.footer()->min_instret, 0u);
  EXPECT_EQ(reader.footer()->max_instret, 11u);
  fs::remove_all(dir);
}

TEST(Spool, TruncatedSegmentServesIntactPrefix) {
  const std::string dir = TempDir("truncated");
  {
    TraceSpool spool(dir);
    for (int i = 0; i < 100; ++i) {
      spool.OnTraceEvent({.kind = core::TraceEventKind::kTaintedWrite,
                          .rank = 0,
                          .instret = static_cast<std::uint64_t>(10 * i),
                          .vaddr = 0x1000, .size = 8});
    }
    spool.Finish();
  }
  const std::string seg = dir + "/rank-0.seg";
  const auto full_size = fs::file_size(seg);
  // Chop the trailer and some records off: the reader must fall back to
  // truncated mode and still decode an intact prefix, never throw.
  fs::resize_file(seg, full_size - 40);
  SegmentReader reader(seg);
  SpoolRecord rec;
  std::size_t decoded = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec.type, SpoolRecord::Type::kEvent);
    EXPECT_EQ(rec.event.instret, 10 * decoded);
    ++decoded;
  }
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.footer().has_value());
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, 100u);

  const TrialSpool back = ReadTrialSpool(dir);
  EXPECT_TRUE(back.truncated);
  EXPECT_EQ(back.events.size(), decoded);
  fs::remove_all(dir);
}

TEST(Spool, ReaderRejectsGarbage) {
  const std::string dir = TempDir("garbage");
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/rank-0.seg", std::ios::binary);
    out << "not a spool segment at all";
  }
  EXPECT_THROW(SegmentReader(dir + "/rank-0.seg"), ConfigError);
  EXPECT_THROW(SegmentReader(dir + "/missing.seg"), ConfigError);
  fs::remove_all(dir);
}

TEST(Spool, SinkReceivesEventsPastTraceLogCap) {
  const std::string dir = TempDir("cap");
  core::TraceLog log(/*capacity=*/4);
  {
    TraceSpool spool(dir);
    log.set_sink(&spool);
    for (int i = 0; i < 10; ++i) {
      log.Add({.kind = core::TraceEventKind::kTaintedRead, .rank = 0,
               .instret = static_cast<std::uint64_t>(i)});
    }
    log.set_sink(nullptr);
    spool.Finish();
  }
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  const TrialSpool back = ReadTrialSpool(dir);
  EXPECT_EQ(back.events.size(), 10u);  // the spool never drops
  fs::remove_all(dir);
}

TEST(Spool, FinishIsIdempotentAndSeals) {
  const std::string dir = TempDir("sealed");
  TraceSpool spool(dir);
  spool.OnTraceEvent({.kind = core::TraceEventKind::kTaintedRead, .rank = 0});
  spool.Finish();
  spool.Finish();  // idempotent
  EXPECT_THROW(
      spool.OnTraceEvent({.kind = core::TraceEventKind::kTaintedRead, .rank = 0}),
      ConfigError);
  fs::remove_all(dir);
}

// ---- Propagation graph on a hand-authored trace ------------------------------

/// The canonical two-rank SDC story:
///   rank 0: injection @100, tainted write of 0x1000 @110 (the fault
///           materialises in memory), payload sent from 0x1000;
///   hub:    transfer 0 -> 1, src 0x1000 -> dest 0x2000, 8 tainted bytes;
///   rank 1: tainted read of 0x2000 @60 (its own clock), tainted write of
///           0x3000 @70, tainted output byte from 0x3000 @80 on fd 3.
TraceDataset HandAuthoredDataset() {
  TraceDataset data;
  data.events = {
      {.kind = core::TraceEventKind::kInjection, .rank = 0, .instret = 100,
       .pc = 7, .vaddr = 0, .size = 0, .taint = 0x3},
      {.kind = core::TraceEventKind::kTaintedWrite, .rank = 0, .instret = 110,
       .pc = 8, .vaddr = 0x1000, .size = 8, .value = 0xbad, .taint = 0xff},
      {.kind = core::TraceEventKind::kTaintedRead, .rank = 1, .instret = 60,
       .pc = 21, .vaddr = 0x2000, .size = 8, .value = 0xbad, .taint = 0xff},
      {.kind = core::TraceEventKind::kTaintedWrite, .rank = 1, .instret = 70,
       .pc = 22, .vaddr = 0x3000, .size = 8, .value = 0xbad, .taint = 0xff},
      {.kind = core::TraceEventKind::kTaintedOutput, .rank = 1, .instret = 80,
       .pc = 23, .vaddr = 0x3000, .size = 1, .value = 0xad, .taint = 0xff,
       .fd = 3, .stream_off = 16},
  };
  data.samples = {{0, 100, 8}, {1, 100, 16}, {0, 200, 8}, {1, 200, 16}};
  hub::TransferLogEntry t;
  t.id = {0, 1, 5, 0};
  t.tainted_bytes = 8;
  t.payload_bytes = 8;
  t.src_vaddr = 0x1000;
  t.dest_vaddr = 0x2000;
  t.send_instret = 120;
  t.recv_instret = 50;
  t.hub_seq = 0;
  data.transfers = {t};
  return data;
}

/// Node id of the first node matching (kind, rank) whose range covers addr
/// (episodes), or just (kind, rank) for injection/output nodes.
int FindNode(const PropagationGraph& g, NodeKind kind, Rank rank,
             GuestAddr addr = 0) {
  for (const GraphNode& n : g.nodes()) {
    if (n.kind != kind || n.rank != rank) continue;
    if (kind == NodeKind::kEpisode && !(n.addr_lo <= addr && addr < n.addr_hi)) {
      continue;
    }
    return n.id;
  }
  return -1;
}

bool HasEdge(const PropagationGraph& g, int from, int to, EdgeKind kind) {
  for (const GraphEdge& e : g.edges()) {
    if (e.from == from && e.to == to && e.kind == kind) return true;
  }
  return false;
}

TEST(PropagationGraph, HandAuthoredTraceMatchesExpectedShape) {
  const PropagationGraph g = PropagationGraph::Build(HandAuthoredDataset());

  const int inj = FindNode(g, NodeKind::kInjection, 0);
  const int w0 = FindNode(g, NodeKind::kEpisode, 0, 0x1000);
  const int r1 = FindNode(g, NodeKind::kEpisode, 1, 0x2000);
  const int w1 = FindNode(g, NodeKind::kEpisode, 1, 0x3000);
  const int out = FindNode(g, NodeKind::kOutput, 1);
  ASSERT_GE(inj, 0);
  ASSERT_GE(w0, 0);
  ASSERT_GE(r1, 0);
  ASSERT_GE(w1, 0);
  ASSERT_GE(out, 0);
  EXPECT_NE(r1, w1) << "0x2000 and 0x3000 are beyond addr_gap: two episodes";
  EXPECT_EQ(g.nodes().size(), 5u);

  // injection -> rank-0 write (no tainted read preceded it).
  EXPECT_TRUE(HasEdge(g, inj, w0, EdgeKind::kFlow));
  // rank-0 write -> rank-1 landing episode via the MPI transfer.
  EXPECT_TRUE(HasEdge(g, w0, r1, EdgeKind::kTransfer));
  // rank-1 read -> rank-1 write (register dataflow).
  EXPECT_TRUE(HasEdge(g, r1, w1, EdgeKind::kFlow));
  // rank-1 write episode -> output stream.
  EXPECT_TRUE(HasEdge(g, w1, out, EdgeKind::kOutput));
  EXPECT_EQ(g.edges().size(), 4u);

  // Queries.
  const auto first = g.FirstContamination();
  EXPECT_EQ(first.at(0), 100u);
  EXPECT_EQ(first.at(1), 50u);  // the inbound transfer, before any event
  EXPECT_EQ(g.SpreadOrder(), (std::vector<Rank>{0, 1}));
  const auto timeline = g.TaintTimeline();
  EXPECT_EQ(timeline.at(100), 24u);  // summed across ranks
  EXPECT_EQ(timeline.at(200), 24u);

  // DOT output mentions every node and is parseable-ish.
  const std::string dot = g.ToDot();
  EXPECT_NE(dot.find("digraph propagation"), std::string::npos);
  EXPECT_NE(dot.find("INJECT rank 0"), std::string::npos);
  EXPECT_NE(dot.find("OUTPUT rank 1"), std::string::npos);
}

TEST(PropagationGraph, RootCauseWalkReachesInjectionAcrossRanks) {
  const PropagationGraph g = PropagationGraph::Build(HandAuthoredDataset());
  const RootCauseChain chain = g.RootCause(1, 3, 16);
  ASSERT_TRUE(chain.complete);
  EXPECT_EQ(chain.transfers_crossed, 1u);
  ASSERT_EQ(chain.steps.size(), 6u);
  EXPECT_EQ(chain.steps[0].what, ChainStep::What::kInjection);
  EXPECT_EQ(chain.steps[1].what, ChainStep::What::kWrite);
  EXPECT_EQ(chain.steps[1].event.rank, 0);
  EXPECT_EQ(chain.steps[2].what, ChainStep::What::kTransfer);
  EXPECT_EQ(chain.steps[3].what, ChainStep::What::kRead);
  EXPECT_EQ(chain.steps[3].event.rank, 1);
  EXPECT_EQ(chain.steps[4].what, ChainStep::What::kWrite);
  EXPECT_EQ(chain.steps[5].what, ChainStep::What::kOutput);
  EXPECT_EQ(chain.steps[5].event.stream_off, 16u);
  // The rendered chain is ordered injection-first.
  const std::string text = chain.Render();
  EXPECT_LT(text.find("INJECT"), text.find("OUTPUT"));

  EXPECT_THROW(g.RootCause(1, 3, 999), ConfigError);
  EXPECT_THROW(g.RootCause(0, 3, 16), ConfigError);
}

TEST(PropagationGraph, OutputEventsSortedAndSummarized) {
  const PropagationGraph g = PropagationGraph::Build(HandAuthoredDataset());
  const auto outputs = g.OutputEvents();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].rank, 1);
  EXPECT_EQ(outputs[0].fd, 3);
  const std::string summary = g.Summarize();
  EXPECT_NE(summary.find("spread order: 0 -> 1"), std::string::npos);
  EXPECT_NE(summary.find("corrupted output: rank 1 fd 3: 1 bytes"),
            std::string::npos);
}

// ---- End-to-end: campaign spools, serial == parallel -------------------------

TEST(SpoolCampaign, SerialAndParallelSpoolsAreByteIdentical) {
  const std::string dir_serial = TempDir("serial");
  const std::string dir_parallel = TempDir("parallel");

  campaign::CampaignConfig config;
  config.runs = 4;
  config.seed = 99;
  config.chaser_options.taint_sample_interval = 2'000;

  {
    campaign::CampaignConfig c = config;
    c.spool_dir = dir_serial;
    campaign::Campaign serial(apps::BuildMatvec({}), c);
    (void)serial.Run();
  }
  {
    campaign::CampaignConfig c = config;
    c.spool_dir = dir_parallel;
    campaign::Campaign parallel(apps::BuildMatvec({}), c, 2);
    (void)parallel.Run();
  }

  // Same trial directories, and every file byte-identical.
  std::map<std::string, std::string> serial_files, parallel_files;
  const auto slurp = [](const std::string& root,
                        std::map<std::string, std::string>* out) {
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      (*out)[fs::relative(entry.path(), root).string()] =
          std::string((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    }
  };
  slurp(dir_serial, &serial_files);
  slurp(dir_parallel, &parallel_files);
  EXPECT_GE(serial_files.size(), 4u * 2u);  // >= meta.txt + one segment per trial
  ASSERT_FALSE(serial_files.empty());
  EXPECT_EQ(serial_files, parallel_files);
  fs::remove_all(dir_serial);
  fs::remove_all(dir_parallel);
}

TEST(SpoolCampaign, SpooledTrialIsAnalyzable) {
  const std::string dir = TempDir("analyzable");
  campaign::CampaignConfig config;
  config.runs = 0;
  config.seed = 5;
  config.spool_dir = dir;
  campaign::Campaign c(apps::BuildMatvec({}), config);
  c.RunGolden();
  // Deterministic seed sweep: find one SDC trial to analyze.
  const std::vector<std::uint64_t> seeds = campaign::Campaign::DeriveTrialSeeds(5, 40);
  std::uint64_t sdc_seed = 0;
  for (const std::uint64_t s : seeds) {
    const campaign::RunRecord rec = c.RunOnce(s);
    if (rec.outcome == campaign::Outcome::kSdc && rec.tainted_output_bytes > 0) {
      sdc_seed = s;
      break;
    }
  }
  ASSERT_NE(sdc_seed, 0u) << "no SDC among 40 matvec trials (seed drift?)";

  const TrialSpool spool =
      ReadTrialSpool(dir + "/trial-" + std::to_string(sdc_seed));
  EXPECT_EQ(spool.meta.at("outcome"), "sdc");
  EXPECT_FALSE(spool.truncated);
  const PropagationGraph g = PropagationGraph::Build(DatasetFromSpool(spool));
  const auto outputs = g.OutputEvents();
  ASSERT_FALSE(outputs.empty());
  const RootCauseChain chain =
      g.RootCause(outputs[0].rank, outputs[0].fd, outputs[0].stream_off);
  EXPECT_TRUE(chain.complete);
  ASSERT_FALSE(chain.steps.empty());
  EXPECT_EQ(chain.steps.front().what, ChainStep::What::kInjection);
  EXPECT_EQ(chain.steps.back().what, ChainStep::What::kOutput);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace chaser::analysis
