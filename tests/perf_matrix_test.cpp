// Perf-subsystem tests (label "perf"): the shared cross-trial translation
// cache, the flat software TLB, the TB cap, the identity matrix — serial,
// parallel, and back-to-back campaigns sharing one external translation
// cache must produce byte-identical reports and records — and golden-prefix
// checkpoints: trials restored from any golden checkpoint must produce the
// records and the final guest state (guest_state_digest.h) trials started
// from checkpoint 0 do, and the slots trials capture must hold clean
// prefixes of their own rank.
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
#include "guest_state_digest.h"
#include "obs/metrics.h"
#include "scratch_path.h"
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

// The image regions all start 1024-page aligned; by the low vpage bits
// alone their first pages would share one slot and evict each other.
TEST(MemoryTlb, ImageRegionsKeepTheirOwnSlots) {
  vm::GuestMemory mem;
  const GuestAddr bases[] = {guest::kDataBase, guest::kBssBase,
                             guest::kHeapBase,
                             guest::kStackTop - vm::kPageSize};
  for (const GuestAddr base : bases) mem.MapRegion(base, vm::kPageSize);
  for (const GuestAddr base : bases) ASSERT_TRUE(mem.Translate(base));
  const std::uint64_t misses = mem.tlb_misses();
  for (int round = 0; round < 4; ++round) {
    for (const GuestAddr base : bases) ASSERT_TRUE(mem.Translate(base + 8));
  }
  EXPECT_EQ(mem.tlb_misses(), misses);
}

TEST(MemoryTlb, AliasedSlotsEvictEachOtherCorrectly) {
  vm::GuestMemory mem;
  // Twice as many pages as TLB slots, so pages share slots whatever the
  // slot function.
  constexpr std::uint64_t kPages = 2048;
  const GuestAddr base = 0x10000;
  mem.MapRegion(base, kPages * vm::kPageSize);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    const auto byte = static_cast<std::uint8_t>(p * 37);
    ASSERT_TRUE(mem.WriteBytes(base + p * vm::kPageSize, &byte, 1));
  }
  // Every access must still translate to the right frame even though the
  // pages keep evicting each other's entries.
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      std::uint8_t byte = 0;
      ASSERT_TRUE(mem.ReadBytes(base + p * vm::kPageSize, &byte, 1));
      EXPECT_EQ(byte, static_cast<std::uint8_t>(p * 37)) << "page " << p;
    }
  }
}

// ---- Local TB cap (bounded cache, flush-on-overflow) ---------------------

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

std::string RecordsCsv(const std::vector<campaign::RunRecord>& records) {
  std::ostringstream csv;
  campaign::WriteRecordsCsv(records, csv);
  return csv.str();
}

/// Trials' records and, per trial, the final guest state it left.
struct TrialRuns {
  std::vector<campaign::RunRecord> records;
  std::vector<digest::State> digests;

  void Run(campaign::TrialEngine& engine, std::uint64_t seed) {
    records.push_back(engine.RunTrial(seed));
    digests.push_back(digest::Snapshot(engine));
  }
  std::string csv() const { return RecordsCsv(records); }
};

/// Trial i's digest equals `want`'s, naming the trial on a mismatch.
void ExpectSameDigests(const TrialRuns& got, const TrialRuns& want) {
  ASSERT_EQ(got.digests.size(), want.digests.size());
  for (std::size_t i = 0; i < got.digests.size(); ++i) {
    EXPECT_TRUE(digest::Same(got.digests[i], want.digests[i])) << "trial " << i;
  }
}

std::set<Rank> InjectRanks(const CampaignConfig& config) {
  return config.inject_ranks.empty() ? std::set<Rank>{0} : config.inject_ranks;
}

/// `config`'s trials as a one-worker campaign runs them: on the golden
/// run's engine, each restoring from the slots earlier trials captured.
/// `*golden` receives the profile, slot table included.
TrialRuns SerialTrials(const apps::AppSpec& spec, CampaignConfig config,
                       campaign::GoldenProfile* golden = nullptr) {
  SharedTbCache cache;
  config.shared_tb_cache = &cache;
  const std::set<Rank> ranks = InjectRanks(config);
  campaign::TrialEngine engine(spec, config, ranks);
  const campaign::GoldenProfile profile = engine.RunGolden();
  engine.AdoptGolden(profile);
  TrialRuns runs;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    runs.Run(engine, seed);
  }
  if (golden != nullptr) *golden = profile;
  return runs;
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

/// The MatrixConfig trials, each run on a TrialEngine built for that trial
/// alone (one golden profile and one translation cache, as a campaign's
/// engines share): nothing a process leaves in an engine's VMs — guest
/// memory, TLB, TB index — can reach the next trial.
TrialRuns FreshEngineTrials(const apps::AppSpec& spec) {
  SharedTbCache cache;
  CampaignConfig config = MatrixConfig();
  config.shared_tb_cache = &cache;
  const std::set<Rank> ranks{0};
  campaign::TrialEngine golden_engine(spec, config, ranks);
  const campaign::GoldenProfile golden = golden_engine.RunGolden();
  TrialRuns runs;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    campaign::TrialEngine engine(spec, config, ranks);
    engine.AdoptGolden(golden);
    runs.Run(engine, seed);
  }
  return runs;
}

// A reused engine restarts its VMs on recycled guest memory; its records
// and the guest state each trial leaves must be the ones fresh engines
// produce.
TEST(IdentityMatrix, FreshEnginePerTrialMatchesReusedEngine) {
  for (const apps::AppSpec& spec : {AccumulatorApp(), apps::BuildMatvec({})}) {
    SCOPED_TRACE(spec.name);
    const TrialRuns fresh = FreshEngineTrials(spec);
    const TrialRuns reused = SerialTrials(spec, MatrixConfig());
    EXPECT_EQ(reused.csv(), fresh.csv());
    ExpectSameDigests(reused, fresh);
    Campaign campaign(spec, MatrixConfig());
    EXPECT_EQ(RecordsCsv(campaign.Run().records), fresh.csv()) << "campaign";
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

CampaignConfig CheckpointConfig(campaign::SamplePolicy policy =
                                    campaign::SamplePolicy::kUniform) {
  CampaignConfig config;
  config.runs = 10;
  config.seed = 7;
  config.retry_backoff_ms = 0;
  config.sample_policy = policy;
  return config;
}

/// Empty slots shaped like `golden`'s.
std::shared_ptr<campaign::CheckpointSlots> EmptySlots(
    const campaign::GoldenProfile& golden) {
  return std::make_shared<campaign::CheckpointSlots>(golden.targeted_execs,
                                                     golden.instructions);
}

/// `config`'s trials, every one started at instruction 0: one
/// TrialEngine, and a fresh empty slot table before each trial, so the
/// trial restores checkpoint 0 — which vm_test's
/// RestoreOfAStartMatchesTheBootOnEveryApp and mpi_test's
/// JobRestoredFromItsStartMatchesTheBootedJob pin as a boot — and no later
/// trial reads what it captures. (Copies of a profile share its table.)
TrialRuns BootedTrials(const apps::AppSpec& spec, CampaignConfig config) {
  SharedTbCache cache;
  config.shared_tb_cache = &cache;
  const std::set<Rank> ranks = InjectRanks(config);
  campaign::TrialEngine golden_engine(spec, config, ranks);
  campaign::GoldenProfile golden = golden_engine.RunGolden();
  EXPECT_NE(golden.slots, nullptr);
  campaign::TrialEngine engine(spec, config, ranks);
  engine.AdoptGolden(golden);
  TrialRuns runs;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    golden.slots = EmptySlots(golden);
    runs.Run(engine, seed);
  }
  return runs;
}

/// Every filled slot of `golden` holds a prefix of its own inject rank:
/// that rank's count falls in the slot, every other rank counted nothing
/// (only the trial's rank counts, so its capture serves no other rank's
/// trials), and a sampled trial's per-site counts add up to its count.
/// Returns how many slots each inject rank filled.
std::map<Rank, std::size_t> ExpectSlotsHoldTheirRanksPrefixes(
    const campaign::GoldenProfile& golden) {
  std::map<Rank, std::size_t> filled;
  for (const auto& [r, execs] : golden.targeted_execs) {
    for (std::size_t k = 0; k < golden.slots->size(); ++k) {
      const auto ck = golden.slots->Get(r, k);
      if (ck == nullptr) continue;
      ++filled[r];
      SCOPED_TRACE(testing::Message() << "rank " << r << " slot " << k);
      for (std::size_t s = 0; s < ck->chasers.size(); ++s) {
        const core::Chaser::Checkpoint& c = ck->chasers[s];
        if (static_cast<Rank>(s) != r) {
          EXPECT_EQ(c.exec_count, 0u) << "rank " << s << " counted";
          continue;
        }
        EXPECT_EQ(golden.slots->SlotOf(r, c.exec_count), k);
        if (!golden.sites.empty()) {
          std::uint64_t sum = 0;
          for (const auto& [pc, n] : c.site_execs) sum += n;
          EXPECT_EQ(sum, c.exec_count) << "per-site counts";
        }
      }
    }
  }
  return filled;
}

/// The campaign's trials — restored wherever a checkpoint allows — equal
/// the booted ones: on one worker their records field for field and the
/// guest state each trial leaves, and on 3 workers, whose engines share one
/// slot table, their records. The one-worker run really restored some
/// trials, every inject rank filled slots, and both runs' slots hold
/// prefixes of their own ranks.
void ExpectRestoredMatchesBooted(const std::string& cell,
                                 const apps::AppSpec& spec,
                                 const CampaignConfig& config) {
  SCOPED_TRACE(cell);
  const TrialRuns want = BootedTrials(spec, config);
  const std::uint64_t before = TrialsRestored();
  campaign::GoldenProfile golden;
  const TrialRuns serial = SerialTrials(spec, config, &golden);
  const std::string want_csv = want.csv();
  EXPECT_EQ(serial.csv(), want_csv) << "serial";
  ExpectSameDigests(serial, want);
  EXPECT_GT(TrialsRestored(), before) << "no trial restored";
  const std::map<Rank, std::size_t> filled =
      ExpectSlotsHoldTheirRanksPrefixes(golden);
  for (const auto& [r, execs] : golden.targeted_execs) {
    EXPECT_GT(filled.count(r), 0u) << "rank " << r << " captured nothing";
  }
  Campaign parallel(spec, config, 3);
  EXPECT_EQ(RecordsCsv(parallel.Run().records), want_csv)
      << "parallel, 3 workers";
  ExpectSlotsHoldTheirRanksPrefixes(parallel.golden());
}

/// clamr writes its height field every 5 steps, so later slots hold output.
std::vector<apps::AppSpec> AllApps() {
  return {apps::BuildBfs({}), apps::BuildKmeans({}), apps::BuildLud({}),
          apps::BuildMatvec({}), apps::BuildClamr({.checkpoint_interval = 5})};
}

TEST(GoldenPrefix, RestoredTrialsMatchBootedOnEveryAppAndPolicy) {
  for (const apps::AppSpec& spec : AllApps()) {
    for (const campaign::SamplePolicy policy :
         {campaign::SamplePolicy::kUniform, campaign::SamplePolicy::kWeighted,
          campaign::SamplePolicy::kStratified}) {
      ExpectRestoredMatchesBooted(
          spec.name + "/" + campaign::SamplePolicyName(policy), spec,
          CheckpointConfig(policy));
    }
  }
}

TEST(GoldenPrefix, RestoredTrialsMatchBootedUnderEveryInjector) {
  for (const apps::AppSpec& spec : AllApps()) {
    for (const char* injector :
         {"iskip", "stuckat:value=1,bits=2", "multibit:bits=4", "rank-crash"}) {
      CampaignConfig config = CheckpointConfig();
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

// A trial counts targeted executions on its own rank only, so a slot it
// captures may serve trials of that rank alone: each rank of an every-rank
// campaign fills its own slots, and no trial restores another rank's. On
// matvec a worker's slots come after other ranks have blocked or exited,
// so the records of trials restored there depend on each rank's run state
// and termination.
TEST(GoldenPrefix, SlotsServeOnlyTheirInjectRank) {
  CampaignConfig config = CheckpointConfig();
  config.runs = 24;
  config.inject_ranks = {0, 1, 2, 3};
  ExpectRestoredMatchesBooted("clamr, every rank injectable",
                              apps::BuildClamr({}), config);
  config.runs = 60;  // at 24, no record depends on a rank's run state
  ExpectRestoredMatchesBooted("matvec, every rank injectable",
                              apps::BuildMatvec({}), config);
}

// On matvec the master makes 90% of its targeted executions in the first
// third of the golden run; slots at steps of those executions let most
// master-only trials skip a prefix.
TEST(GoldenPrefix, MasterOnlyMatvecTrialsRestorePastCheckpointZero) {
  CampaignConfig config = CheckpointConfig();
  config.runs = 40;
  const std::uint64_t before = TrialsRestored();
  Campaign(apps::BuildMatvec({}), config).Run();
  EXPECT_GE(TrialsRestored() - before, config.runs / 2);
}

// Captures stop when the trigger fires. Untraced, no taint makes
// Vm::Capture refuse a late one, so each trial runs against a fresh table
// and every slot it filled must hold fewer targeted executions than the
// trial's injection point.
TEST(GoldenPrefix, TrialsCaptureOnlyTheirCleanPrefix) {
  for (const apps::AppSpec& spec : {apps::BuildMatvec({}), apps::BuildLud({})}) {
    SCOPED_TRACE(spec.name);
    CampaignConfig config = CheckpointConfig();
    config.trace = false;
    SharedTbCache cache;
    config.shared_tb_cache = &cache;
    const std::set<Rank> ranks{0};
    campaign::TrialEngine engine(spec, config, ranks);
    campaign::GoldenProfile golden = engine.RunGolden();
    engine.AdoptGolden(golden);
    std::size_t captured = 0;
    for (const std::uint64_t seed : Campaign::DeriveTrialSeeds(config.seed, 200)) {
      golden.slots = EmptySlots(golden);
      const campaign::RunRecord rec = engine.RunTrial(seed);
      for (std::size_t k = 0; k < golden.slots->size(); ++k) {
        const auto ck = golden.slots->Get(0, k);
        if (ck == nullptr) continue;
        ++captured;
        EXPECT_LT(ck->chasers[0].exec_count, rec.trigger_nth)
            << "seed " << seed << " slot " << k;
      }
    }
    EXPECT_GT(captured, 0u);
  }
}

TEST(GoldenPrefix, UntracedCampaigns) {
  for (const apps::AppSpec& spec : {apps::BuildLud({}), apps::BuildMatvec({})}) {
    CampaignConfig config = CheckpointConfig();
    config.trace = false;
    ExpectRestoredMatchesBooted(spec.name + ", untraced", spec, config);
  }
}

// An ambient hub fault model acts in the golden run too: the hub clock and
// poll accounting a clean prefix leaves are part of the restored state.
// matvec's clean prefixes never poll the hub; clamr's do, so only the clamr
// cell sees a checkpoint's hub restored.
TEST(GoldenPrefix, AmbientHubFault) {
  CampaignConfig config = CheckpointConfig();
  config.runs = 16;
  config.hub_fault.outage_start = 3;
  config.hub_fault.outage_end = 9;
  config.hub_fault.visibility_delay = 1;
  config.hub_fault.poll_retries = 1;
  config.hub_fault.publish_drop_prob = 0.3;
  ExpectRestoredMatchesBooted("matvec, ambient hub fault",
                              apps::BuildMatvec({}), config);
  config.inject_ranks = {0, 1, 2, 3};
  ExpectRestoredMatchesBooted("clamr, ambient hub fault", apps::BuildClamr({}),
                              config);
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
  const std::filesystem::path root = testutil::ScratchPath("spools");
  CampaignConfig config = CheckpointConfig();
  config.spool_dir = (root / "booted").string();
  const std::string want = BootedTrials(spec, config).csv();
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
