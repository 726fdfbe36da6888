// Perf-subsystem tests (label "perf"): the shared cross-trial translation
// cache, the flat software TLB, per-epoch translation stats, the TB cap, the
// identity matrix — serial, parallel, and back-to-back campaigns sharing
// one external translation cache must produce byte-identical reports and
// records — and golden-prefix checkpoints: trials restored from the golden
// run must produce the records booted trials do.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "core/injectors/registry.h"
#include "guest/builder.h"
#include "obs/metrics.h"
#include "tcg/shared_cache.h"
#include "vm/memory.h"
#include "vm/vm.h"

namespace chaser {
namespace {

using campaign::Campaign;
using campaign::CampaignConfig;
using campaign::CampaignResult;
using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;
using tcg::SharedTbCache;

// ---- SharedTbCache unit behaviour -----------------------------------------

guest::Program TinyProgram(const char* name, std::int64_t value) {
  ProgramBuilder b(name);
  b.MovI(R(1), value);
  b.Exit(0);
  return b.Finalize();
}

tcg::TranslationBlock FakeTb(std::uint64_t pc, std::uint32_t insns) {
  tcg::TranslationBlock tb;
  tb.start_pc = pc;
  tb.num_insns = insns;
  tb.ops.resize(1);
  tb.ops[0].opc = tcg::TcgOpc::kGotoTb;
  tb.ops[0].imm = pc + insns;
  return tb;
}

TEST(SharedTbCache, InsertThenLookupReturnsCanonicalPointer) {
  SharedTbCache cache;
  const SharedTbCache::Key key{1, 2, 3};
  EXPECT_EQ(cache.Lookup(key), nullptr);

  const tcg::TranslationBlock* canon = cache.Insert(key, FakeTb(3, 4));
  ASSERT_NE(canon, nullptr);
  EXPECT_EQ(canon->num_insns, 4u);
  EXPECT_EQ(cache.Lookup(key), canon);

  // A duplicate insert (racing-winner semantics) returns the first TB.
  EXPECT_EQ(cache.Insert(key, FakeTb(3, 9)), canon);
  EXPECT_EQ(cache.Lookup(key)->num_insns, 4u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedTbCache, KeysAreFullIdentityNotJustPc) {
  SharedTbCache cache;
  const tcg::TranslationBlock* a = cache.Insert({1, 1, 7}, FakeTb(7, 1));
  const tcg::TranslationBlock* b = cache.Insert({1, 2, 7}, FakeTb(7, 2));
  const tcg::TranslationBlock* c = cache.Insert({2, 1, 7}, FakeTb(7, 3));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.Lookup({1, 1, 7}), a);
  EXPECT_EQ(cache.Lookup({1, 2, 7}), b);
  EXPECT_EQ(cache.Lookup({2, 1, 7}), c);
  EXPECT_EQ(cache.Lookup({2, 2, 7}), nullptr);
}

TEST(SharedTbCache, CapOverflowFlushesWholeCache) {
  SharedTbCache cache(/*max_tbs=*/4);
  const tcg::TranslationBlock* first = cache.Insert({1, 1, 0}, FakeTb(0, 5));
  for (std::uint64_t pc = 1; pc < 4; ++pc) {
    cache.Insert({1, 1, pc}, FakeTb(pc, 1));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.ChainedNodes(), 4u);
  EXPECT_EQ(cache.stats().epoch_flushes, 0u);

  // The fifth TB overflows the cap: QEMU semantics are a full flush, then
  // the new TB lands alone in empty chains.
  cache.Insert({1, 1, 99}, FakeTb(99, 1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.ChainedNodes(), 1u) << "flushed TBs are unlinked";
  EXPECT_NE(cache.Lookup({1, 1, 99}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 1, 0}), nullptr);
  // A flushed TB stays readable: no reader can observe a free.
  EXPECT_EQ(first->num_insns, 5u);
  const SharedTbCache::Stats s = cache.stats();
  EXPECT_EQ(s.epoch_flushes, 1u);
  EXPECT_EQ(s.evicted_tbs, 4u);
  EXPECT_EQ(s.translations, 5u);
}

// Under a cap of 8, kmeans flushes the cache thousands of times per trial.
// A flush unlinks what it retires, so after every trial a lookup can reach
// only the live TBs — counted in nodes, not time. A chain that kept the
// retired TBs would make every trial slower than the one before.
TEST(SharedTbCache, CappedCampaignChainsOnlyLiveTbs) {
  SharedTbCache cache(/*max_tbs=*/8);
  CampaignConfig config;
  config.runs = 4;
  config.seed = 11;
  config.tb_cache_cap = 8;
  config.shared_tb_cache = &cache;
  std::uint64_t trials = 0;
  config.record_sink = [&](const campaign::RunRecord&) {
    EXPECT_EQ(cache.ChainedNodes(), cache.size()) << "after trial " << trials;
    ++trials;
  };
  Campaign(apps::BuildKmeans({}), config).Run();
  EXPECT_EQ(trials, config.runs);
  EXPECT_GT(cache.stats().epoch_flushes, config.runs);
}

TEST(SharedTbCache, HashProgramDistinguishesImages) {
  const std::uint64_t a = SharedTbCache::HashProgram(TinyProgram("a", 1));
  const std::uint64_t a2 = SharedTbCache::HashProgram(TinyProgram("a", 1));
  const std::uint64_t b = SharedTbCache::HashProgram(TinyProgram("a", 2));
  const std::uint64_t c = SharedTbCache::HashProgram(TinyProgram("c", 1));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

// Concurrency: many threads doing lookup-or-insert on an overlapping key
// space must agree on one canonical TB per key. Run under `ctest -L tsan`
// this doubles as the data-race proof for the lock-free read path.
TEST(SharedTbCache, ConcurrentLookupOrInsertConverges) {
  SharedTbCache cache;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 64;
  std::vector<std::vector<const tcg::TranslationBlock*>> seen(
      kThreads, std::vector<const tcg::TranslationBlock*>(kKeys, nullptr));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      for (std::uint64_t round = 0; round < 4; ++round) {
        for (std::uint64_t pc = 0; pc < kKeys; ++pc) {
          const SharedTbCache::Key key{7, 1, pc};
          const tcg::TranslationBlock* tb = cache.Lookup(key);
          if (tb == nullptr) {
            tb = cache.Insert(key, FakeTb(pc, static_cast<std::uint32_t>(pc + 1)));
          }
          ASSERT_NE(tb, nullptr);
          ASSERT_EQ(tb->start_pc, pc);
          seen[t][pc] = tb;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::uint64_t pc = 0; pc < kKeys; ++pc) {
    const tcg::TranslationBlock* canon = cache.Lookup({7, 1, pc});
    ASSERT_NE(canon, nullptr);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][pc], canon) << "thread " << t << " pc " << pc;
    }
  }
  EXPECT_EQ(cache.size(), kKeys);
}

// ---- Flat software TLB ----------------------------------------------------

TEST(MemoryTlb, HitsAfterFirstTouchAndCountsThem) {
  vm::GuestMemory mem;
  mem.MapRegion(0x1000, vm::kPageSize);
  ASSERT_TRUE(mem.Translate(0x1000).has_value());  // miss fills the slot
  const std::uint64_t misses_after_fill = mem.tlb_misses();
  EXPECT_GE(misses_after_fill, 1u);

  const std::uint64_t hits_before = mem.tlb_hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mem.Translate(0x1000 + i * 8).has_value());
  }
  EXPECT_EQ(mem.tlb_hits(), hits_before + 10);
  EXPECT_EQ(mem.tlb_misses(), misses_after_fill);  // same page: no new miss
}

TEST(MemoryTlb, NeverCachesUnmappedPages) {
  vm::GuestMemory mem;
  mem.MapRegion(0x1000, vm::kPageSize);
  EXPECT_FALSE(mem.Translate(0x100000).has_value());
  EXPECT_FALSE(mem.Translate(0x100000).has_value());  // still a fault
  // Mapping the page afterwards makes it visible (no stale negative entry).
  mem.MapRegion(0x100000, vm::kPageSize);
  EXPECT_TRUE(mem.Translate(0x100000).has_value());
}

TEST(MemoryTlb, AliasedSlotsEvictEachOtherCorrectly) {
  vm::GuestMemory mem;
  // Two pages 256 pages apart land in the same direct-mapped slot.
  const GuestAddr a = 0x10000;
  const GuestAddr b = a + 256 * vm::kPageSize;
  mem.MapRegion(a, vm::kPageSize);
  mem.MapRegion(b, vm::kPageSize);
  ASSERT_TRUE(mem.WriteBytes(a, "A", 1));
  ASSERT_TRUE(mem.WriteBytes(b, "B", 1));
  // Ping-pong between the aliases: every access must still translate to the
  // right frame even though each evicts the other's entry.
  for (int i = 0; i < 8; ++i) {
    char ca = 0, cb = 0;
    ASSERT_TRUE(mem.ReadBytes(a, &ca, 1));
    ASSERT_TRUE(mem.ReadBytes(b, &cb, 1));
    EXPECT_EQ(ca, 'A');
    EXPECT_EQ(cb, 'B');
  }
}

// ---- Per-epoch translation stats (satellite: breakdown + reset) -----------

guest::Program LoopProgram() {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 500);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  return b.Finalize();
}

TEST(TranslationEpochs, FlushClosesAnEpochAndResetZeroes) {
  // Epoch history is per-process (StartProcess clears it), so flush *mid*
  // process — exactly what Chaser's attach/detach retranslation does.
  vm::Vm vm;
  vm.StartProcess(LoopProgram());
  ASSERT_EQ(vm.Run(50), vm::RunState::kRunnable);

  auto epochs = vm.translation_epochs();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_GT(epochs[0].translations, 0u);
  EXPECT_GT(epochs[0].optimizer.movs_forwarded, 0u);
  const std::uint64_t first_translations = epochs[0].translations;

  // The flush closes epoch 0; continuing retranslates into epoch 1 and the
  // closed epoch's numbers must not change.
  vm.FlushTbCache();
  vm.RunToCompletion();
  epochs = vm.translation_epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].translations, first_translations);
  EXPECT_GT(epochs[1].translations, 0u);
  EXPECT_EQ(vm.tb_translations(),
            epochs[0].translations + epochs[1].translations);

  // Reset drops the history and the lifetime totals together.
  vm.ResetTranslationStats();
  epochs = vm.translation_epochs();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].translations, 0u);
  EXPECT_EQ(vm.tb_translations(), 0u);
  EXPECT_EQ(vm.optimizer_stats().movs_forwarded, 0u);
  EXPECT_EQ(vm.shared_tb_reuses(), 0u);
  EXPECT_EQ(vm.tb_evictions(), 0u);
}

// ---- Local TB cap (satellite: bounded cache, flush-on-overflow) -----------

TEST(TbCap, OverflowFlushesAndCountsEvictionsWithoutChangingResults) {
  auto run = [](std::uint64_t cap) {
    vm::Vm::Config config;
    config.max_cached_tbs = cap;
    vm::Vm vm(config);
    vm.StartProcess(LoopProgram());
    vm.RunToCompletion();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>(
        vm.cpu().IntReg(1), vm.instret(), vm.tb_evictions());
  };
  const auto [r1_uncapped, instret_uncapped, ev_uncapped] = run(0);
  const auto [r1_capped, instret_capped, ev_capped] = run(1);
  EXPECT_EQ(ev_uncapped, 0u);
  EXPECT_GT(ev_capped, 0u);  // >1 live TB against a cap of 1
  EXPECT_EQ(r1_capped, r1_uncapped);
  EXPECT_EQ(instret_capped, instret_uncapped);
}

// ---- The identity matrix --------------------------------------------------

/// Steerable single-process app: `iters` fadds accumulating into memory,
/// result written to fd 3 (same shape the campaign tests use).
apps::AppSpec AccumulatorApp(std::uint64_t iters = 40) {
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

/// Render + records CSV: one string capturing everything user-visible.
std::string Fingerprint(const CampaignResult& result) {
  std::ostringstream csv;
  campaign::WriteRecordsCsv(result.records, csv);
  return result.Render("matrix") + "\n" + csv.str();
}

CampaignConfig MatrixConfig() {
  CampaignConfig config;
  config.runs = 12;
  config.seed = 99;
  config.retry_backoff_ms = 0;
  return config;
}

// Every cell must match the serial baseline byte for byte: the parallel
// driver replays the serial seed sequence, and a translation cache that
// already holds another campaign's TBs hands back exactly the TBs this one
// would have translated.
TEST(IdentityMatrix, AllCellsByteIdentical) {
  const apps::AppSpec spec = AccumulatorApp();

  Campaign baseline(spec, MatrixConfig());
  const std::string want = Fingerprint(baseline.Run());
  EXPECT_NE(want.find("matrix"), std::string::npos);

  Campaign parallel(spec, MatrixConfig(), /*jobs=*/3);
  EXPECT_EQ(Fingerprint(parallel.Run()), want) << "parallel, 3 workers";

  SharedTbCache external;
  CampaignConfig config = MatrixConfig();
  config.shared_tb_cache = &external;
  std::uint64_t translations = 0;
  for (const int pass : {1, 2}) {
    Campaign c(spec, config);
    EXPECT_EQ(Fingerprint(c.Run()), want)
        << "campaign " << pass << " on one external cache";
    if (pass == 1) translations = external.stats().translations;
  }
  // The second campaign ran entirely on the first one's translations.
  EXPECT_EQ(external.stats().translations, translations);
}

/// Records CSV of the MatrixConfig trials, each run on a TrialEngine built
/// for that trial alone (one golden profile and one translation cache, as a
/// campaign's engines share): nothing a process leaves in an engine's VMs —
/// guest memory, TLB, counters — can reach the next trial.
std::string FreshEngineCsv(const apps::AppSpec& spec) {
  SharedTbCache cache;
  CampaignConfig config = MatrixConfig();
  config.shared_tb_cache = &cache;
  const std::set<Rank> ranks{0};
  campaign::TrialEngine golden_engine(spec, config, ranks);
  const campaign::GoldenProfile golden = golden_engine.RunGolden();
  std::vector<campaign::RunRecord> records;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    campaign::TrialEngine engine(spec, config, ranks);
    engine.AdoptGolden(golden);
    records.push_back(engine.RunTrial(seed));
  }
  std::ostringstream csv;
  campaign::WriteRecordsCsv(records, csv);
  return csv.str();
}

// A reused engine restarts its VMs on recycled guest memory; its records,
// hot-path counters included, must be the ones fresh engines produce.
TEST(IdentityMatrix, FreshEnginePerTrialMatchesReusedEngine) {
  for (const apps::AppSpec& spec : {AccumulatorApp(), apps::BuildMatvec({})}) {
    Campaign reused(spec, MatrixConfig());
    std::ostringstream want;
    campaign::WriteRecordsCsv(reused.Run().records, want);
    EXPECT_EQ(FreshEngineCsv(spec), want.str()) << spec.name;
  }
}

// The shared cache must actually be shared: across a campaign's trials the
// same pc is translated once, not once per trial.
TEST(IdentityMatrix, SharedCacheIsActuallyReused) {
  const apps::AppSpec spec = AccumulatorApp();
  SharedTbCache cache;
  CampaignConfig config = MatrixConfig();
  config.shared_tb_cache = &cache;
  Campaign c(spec, config);
  c.Run();
  const SharedTbCache::Stats s = cache.stats();
  EXPECT_GT(s.translations, 0u);
  EXPECT_GT(s.reuses, s.translations);  // many trials, one translation each
}

// ---- Golden-prefix checkpoints ----------------------------------------------

std::uint64_t TrialsRestored() {
  return obs::Registry::Global()
      .GetCounter("campaign_trials_restored_total")
      .Value();
}

std::string RecordsCsv(const std::vector<campaign::RunRecord>& records) {
  std::ostringstream csv;
  campaign::WriteRecordsCsv(records, csv);
  return csv.str();
}

CampaignConfig CheckpointConfig(campaign::SamplePolicy policy =
                                    campaign::SamplePolicy::kUniform) {
  CampaignConfig config;
  config.runs = 10;
  config.seed = 7;
  config.retry_backoff_ms = 0;
  config.sample_policy = policy;
  return config;
}

/// Records CSV of `config`'s trials, every one booted: one TrialEngine run
/// against a copy of the golden profile with its checkpoints removed.
std::string BootedCsv(const apps::AppSpec& spec, CampaignConfig config) {
  SharedTbCache cache;
  config.shared_tb_cache = &cache;
  const std::set<Rank> ranks =
      config.inject_ranks.empty() ? std::set<Rank>{0} : config.inject_ranks;
  campaign::TrialEngine golden_engine(spec, config, ranks);
  campaign::GoldenProfile golden = golden_engine.RunGolden();
  EXPECT_FALSE(golden.checkpoints.empty());
  golden.checkpoints.clear();
  campaign::TrialEngine engine(spec, config, ranks);
  engine.AdoptGolden(golden);
  std::vector<campaign::RunRecord> records;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    records.push_back(engine.RunTrial(seed));
  }
  return RecordsCsv(records);
}

/// The campaign's records — restored wherever a checkpoint allows — equal
/// the booted ones field for field (tb_chain_hits, tlb_* and instructions
/// included), on one worker and on 3 workers; and the one-worker run
/// really restored some trials.
void ExpectRestoredMatchesBooted(const std::string& cell,
                                 const apps::AppSpec& spec,
                                 const CampaignConfig& config) {
  SCOPED_TRACE(cell);
  const std::string want = BootedCsv(spec, config);
  const std::uint64_t before = TrialsRestored();
  EXPECT_EQ(RecordsCsv(Campaign(spec, config).Run().records), want) << "serial";
  EXPECT_GT(TrialsRestored(), before) << "no trial restored";
  EXPECT_EQ(RecordsCsv(Campaign(spec, config, 3).Run().records), want)
      << "parallel, 3 workers";
}

std::vector<apps::AppSpec> AllApps() {
  return {apps::BuildBfs({}), apps::BuildKmeans({}), apps::BuildLud({}),
          apps::BuildMatvec({}), apps::BuildClamr({})};
}

/// CheckpointConfig for `spec`. Matvec's master makes most of its targeted
/// executions before the first checkpoint, so its cells inject into every
/// rank (as chaser_run does for clamr) to give the workers' trials a
/// prefix to skip.
CampaignConfig AppConfig(const apps::AppSpec& spec,
                         campaign::SamplePolicy policy =
                             campaign::SamplePolicy::kUniform) {
  CampaignConfig config = CheckpointConfig(policy);
  if (spec.name == "matvec") config.inject_ranks = {0, 1, 2, 3};
  return config;
}

TEST(GoldenPrefix, RestoredTrialsMatchBootedOnEveryAppAndPolicy) {
  for (const apps::AppSpec& spec : AllApps()) {
    for (const campaign::SamplePolicy policy :
         {campaign::SamplePolicy::kUniform, campaign::SamplePolicy::kWeighted,
          campaign::SamplePolicy::kStratified}) {
      ExpectRestoredMatchesBooted(
          spec.name + "/" + campaign::SamplePolicyName(policy), spec,
          AppConfig(spec, policy));
    }
  }
}

TEST(GoldenPrefix, RestoredTrialsMatchBootedUnderEveryInjector) {
  for (const apps::AppSpec& spec : AllApps()) {
    for (const char* injector :
         {"iskip", "stuckat:value=1,bits=2", "multibit:bits=4", "rank-crash"}) {
      CampaignConfig config = AppConfig(spec);
      config.injector = core::ParseInjectorSpec(injector);
      ExpectRestoredMatchesBooted(spec.name + "/" + injector, spec, config);
    }
  }
}

// A 4-TB index cap flushes the local index over and over inside the prefix:
// the restored index must be the one the flushes left.
TEST(GoldenPrefix, TbCacheCapEvictsInsideThePrefix) {
  CampaignConfig config = CheckpointConfig();
  config.tb_cache_cap = 4;
  ExpectRestoredMatchesBooted("lud, tb cache cap 4", apps::BuildLud({}), config);
}

// With the watchdog below the golden length, booted trials are killed by
// it; a checkpoint past a budget would skip that kill, so it must not be
// used. lud's one rank trips the job budget; on clamr (4 ranks) the second
// checkpoint is within the job budget (131121 <= 4 * 33000) but not within
// one rank's (rank 0 has retired 37062 by then).
TEST(GoldenPrefix, RestoreNeverSkipsAWatchdogKill) {
  for (const auto& [spec, slack] : {std::pair{apps::BuildLud({}), 30'000},
                                    std::pair{apps::BuildClamr({}), 33'000}}) {
    CampaignConfig config = CheckpointConfig();
    config.runs = 24;
    config.watchdog_multiplier = 0;
    config.watchdog_slack = static_cast<std::uint64_t>(slack);
    ExpectRestoredMatchesBooted(spec.name + ", watchdog below the golden length",
                                spec, config);
    const CampaignResult result = Campaign(spec, config).Run();
    EXPECT_TRUE(std::any_of(result.records.begin(), result.records.end(),
                            [](const campaign::RunRecord& r) {
                              return r.signal == vm::GuestSignal::kKill;
                            }))
        << spec.name << ": no trial hit the watchdog; the cell tests nothing";
  }
}

// The golden run instruments every inject rank; a trial instruments one and
// runs the others clean, so their restored TB indexes switch variant.
TEST(GoldenPrefix, GoldenInstrumentsRanksTheTrialRunsClean) {
  CampaignConfig config = CheckpointConfig();
  config.inject_ranks = {0, 1, 2, 3};
  ExpectRestoredMatchesBooted("clamr, every rank injectable", apps::BuildClamr({}),
                              config);
}

TEST(GoldenPrefix, UntracedCampaigns) {
  for (const apps::AppSpec& spec : {apps::BuildLud({}), apps::BuildMatvec({})}) {
    CampaignConfig config = AppConfig(spec);
    config.trace = false;
    ExpectRestoredMatchesBooted(spec.name + ", untraced", spec, config);
  }
}

// An ambient hub fault model acts in the golden run too: its clock, drop
// tape and poll accounting are part of the restored hub state.
TEST(GoldenPrefix, AmbientHubFault) {
  const apps::AppSpec spec = apps::BuildMatvec({});
  CampaignConfig config = AppConfig(spec);
  config.runs = 16;
  config.hub_fault.outage_start = 3;
  config.hub_fault.outage_end = 9;
  config.hub_fault.visibility_delay = 1;
  config.hub_fault.poll_retries = 1;
  config.hub_fault.publish_drop_prob = 0.3;
  ExpectRestoredMatchesBooted("matvec, ambient hub fault", spec, config);
}

/// Every file under `dir` (relative path -> bytes).
std::map<std::string, std::string> Tree(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[std::filesystem::relative(entry.path(), dir).string()] = bytes.str();
  }
  return files;
}

TEST(GoldenPrefix, SpoolsMatch) {
  const apps::AppSpec spec = apps::BuildLud({});
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "chaser_perf_matrix_spools";
  std::filesystem::remove_all(root);
  CampaignConfig config = CheckpointConfig();
  config.spool_dir = (root / "booted").string();
  const std::string want = BootedCsv(spec, config);
  config.spool_dir = (root / "restored").string();
  const std::uint64_t before = TrialsRestored();
  EXPECT_EQ(RecordsCsv(Campaign(spec, config).Run().records), want);
  EXPECT_GT(TrialsRestored(), before);
  const auto booted = Tree(root / "booted");
  EXPECT_GE(booted.size(), config.runs);  // at least a meta file per trial
  EXPECT_EQ(Tree(root / "restored"), booted);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace chaser
