// Tests for the injector registry and the system-level fault families:
// spec parsing and its error messages, each bundled family's corruption
// semantics, stuck-at persistence across TB-chain and cache-epoch
// boundaries, instruction-skip on the final retired instruction, rank-crash
// campaigns and the kCrashed outcome, records CSV v9 and the CTR store's
// injector columns, and serial/parallel determinism for non-default
// injectors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "common/bits.h"
#include "common/error.h"
#include "core/chaser.h"
#include "core/injectors/registry.h"
#include "core/trigger.h"
#include "guest/builder.h"
#include "hub/remote/protocol.h"
#include "store/ctr.h"
#include "vm/vm.h"

namespace chaser {
namespace {

namespace fs = std::filesystem;
using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

std::string TempPath(const std::string& name) {
  const std::string path =
      (fs::temp_directory_path() / ("chaser_injectors_test_" + name)).string();
  fs::remove_all(path);
  return path;
}

// ---- key=val tokenizer (common/strings) ---------------------------------------

TEST(KeyValList, ParsesPairs) {
  std::vector<KeyVal> kvs;
  std::string bad;
  ASSERT_TRUE(ParseKeyValList("bits=3,span=2,name=x=y", &kvs, &bad));
  ASSERT_EQ(kvs.size(), 3u);
  EXPECT_EQ(kvs[0].key, "bits");
  EXPECT_EQ(kvs[0].value, "3");
  EXPECT_EQ(kvs[1].key, "span");
  EXPECT_EQ(kvs[1].value, "2");
  // Only the first '=' splits: values may themselves contain '='.
  EXPECT_EQ(kvs[2].key, "name");
  EXPECT_EQ(kvs[2].value, "x=y");
}

TEST(KeyValList, EmptySpecIsEmptyList) {
  std::vector<KeyVal> kvs;
  std::string bad;
  ASSERT_TRUE(ParseKeyValList("", &kvs, &bad));
  EXPECT_TRUE(kvs.empty());
}

TEST(KeyValList, RejectsTokenWithoutEquals) {
  std::vector<KeyVal> kvs;
  std::string bad;
  EXPECT_FALSE(ParseKeyValList("bits=3,whoops,span=2", &kvs, &bad));
  EXPECT_EQ(bad, "whoops");
}

TEST(KeyValList, RejectsEmptyKey) {
  std::vector<KeyVal> kvs;
  std::string bad;
  EXPECT_FALSE(ParseKeyValList("=5", &kvs, &bad));
  EXPECT_EQ(bad, "=5");
}

// ---- registry and spec-parse error messages -----------------------------------

TEST(InjectorRegistry, ListsAllBundledFamilies) {
  const std::vector<std::string> names = core::InjectorRegistry::Global().Names();
  for (const char* expected :
       {"probabilistic", "deterministic", "group", "multibit", "burst",
        "stuckat", "iskip", "rank-crash"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(InjectorRegistry, UnknownNameErrorListsRegisteredNames) {
  try {
    core::ParseInjectorSpec("warp");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown injector 'warp'"), std::string::npos) << msg;
    // The one-line error must enumerate the valid choices.
    EXPECT_NE(msg.find("probabilistic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank-crash"), std::string::npos) << msg;
    EXPECT_NE(msg.find("stuckat"), std::string::npos) << msg;
  }
}

TEST(InjectorRegistry, UnknownParamErrorListsValidKeys) {
  try {
    core::ParseInjectorSpec("multibit:frob=1");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown parameter 'frob'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bits"), std::string::npos) << msg;
  }
}

TEST(InjectorRegistry, MalformedParamTokenNamesIt) {
  try {
    core::ParseInjectorSpec("burst:span");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected key=value"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'span'"), std::string::npos) << msg;
  }
}

TEST(InjectorRegistry, StuckAtRejectsBadValue) {
  EXPECT_THROW(core::ParseInjectorSpec("stuckat:value=2"), ConfigError);
  EXPECT_NO_THROW(core::ParseInjectorSpec("stuckat:value=1,bits=3"));
}

TEST(InjectorRegistry, ParameterlessFamilyRejectsParams) {
  try {
    core::ParseInjectorSpec("rank-crash:bits=1");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("takes no parameters"),
              std::string::npos)
        << e.what();
  }
}

TEST(InjectorRegistry, CustomInjectorRegistersViaMacro) {
  // The README walkthrough's mechanism: a plugin TU self-registers at static
  // initialization and is immediately reachable by name.
  const core::InjectorRegistry::Entry* entry =
      core::InjectorRegistry::Global().Find("test-nop");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->fault_class, "test");
  core::InjectorSpec spec;
  spec.name = "test-nop";
  EXPECT_NE(core::InjectorRegistry::Global().Create(spec, 1), nullptr);
}

TEST(HubFaultSpec, BadTokenErrorNamesTokenAndChoices) {
  try {
    hub::remote::ParseHubFaultSpec("drop=0.5,frobs=1");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("--hub-fault", 0), 0u) << msg;
    EXPECT_NE(msg.find("frobs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid keys"), std::string::npos) << msg;
  }
}

TEST(HubFaultSpec, FlagNamePropagatesIntoErrors) {
  try {
    hub::remote::ParseHubFaultSpec("nonsense", "--hub-fault-trigger");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("--hub-fault-trigger", 0), 0u) << msg;
    EXPECT_NE(msg.find("'nonsense'"), std::string::npos) << msg;
  }
}

// ---- per-family corruption semantics (Chaser on a bare Vm) --------------------

/// 20 fadds accumulating 1.0 into f5, then Exit — the injection workhorse.
guest::Program& FaddLoopProgram() {
  static guest::Program p = [] {
    ProgramBuilder b("faddloop");
    b.FmovI(F(5), 0.0);
    b.FmovI(F(1), 1.0);
    b.MovI(R(1), 0);
    auto loop = b.Here("loop");
    b.Fadd(F(5), F(5), F(1));
    b.AddI(R(1), R(1), 1);
    b.CmpI(R(1), 20);
    b.Br(Cond::kLt, loop);
    b.Exit(0);
    return b.Finalize();
  }();
  return p;
}

core::InjectionCommand FaddCommand(const std::string& injector_spec,
                                   std::uint64_t nth) {
  core::InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<core::DeterministicTrigger>(nth);
  cmd.injector = core::InjectorRegistry::Global().Create(
      core::ParseInjectorSpec(injector_spec), 1);
  cmd.seed = 11;
  return cmd;
}

TEST(InjectorFamilies, MultiBitFlipsContiguousBurst) {
  vm::Vm vm;
  core::Chaser chaser(vm);
  chaser.Arm(FaddCommand("multibit:bits=4", 7));
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  ASSERT_EQ(chaser.injections().size(), 1u);
  const core::InjectionRecord& rec = chaser.injections()[0];
  EXPECT_EQ(PopCount(rec.flip_mask), 4u);
  // Contiguous: mask >> trailing-zeros must be 0b1111.
  std::uint64_t m = rec.flip_mask;
  while ((m & 1) == 0) m >>= 1;
  EXPECT_EQ(m, 0xfull);
  EXPECT_EQ(rec.new_value, rec.old_value ^ rec.flip_mask);
}

TEST(InjectorFamilies, BurstCorruptsAdjacentRegisters) {
  vm::Vm vm;
  core::Chaser chaser(vm);
  chaser.Arm(FaddCommand("burst:span=3,bits=1", 5));
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  // One strike, three records — one per register in the span, adjacent
  // (mod the register-file size) in the same file.
  ASSERT_EQ(chaser.injections().size(), 3u);
  const auto& recs = chaser.injections();
  const unsigned file_size = recs[0].target ==
                                     core::InjectionRecord::Target::kFpRegister
                                 ? guest::kNumFpRegs
                                 : guest::kNumIntRegs;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(recs[i].target, recs[0].target);
    EXPECT_EQ(recs[i].reg, (recs[0].reg + i) % file_size);
    EXPECT_EQ(PopCount(recs[i].flip_mask), 1u);
  }
}

TEST(InjectorFamilies, ISkipSquashesTargetedInstruction) {
  vm::Vm vm;
  core::Chaser chaser(vm);
  chaser.Arm(FaddCommand("iskip", 7));
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  // The 7th fadd never executed: the loop still runs 20 iterations but only
  // 19 additions land.
  EXPECT_EQ(vm.termination(), vm::TerminationKind::kExited);
  EXPECT_EQ(vm.cpu().FpReg(5), 19.0);
  ASSERT_EQ(chaser.injections().size(), 1u);
  // The squashed destination register is tainted, so the trace still
  // anchors at the injection even though no value changed hands.
  EXPECT_TRUE(vm.taint().Active());
}

TEST(InjectorFamilies, ISkipOnFinalRetiredInstructionTerminatesCleanly) {
  // Skip the program's *last* instruction (the Exit syscall): the pc walks
  // off the end of text and the VM must deterministically classify that as
  // a fault, never hang or read past the text array.
  vm::Vm vm;
  core::Chaser chaser(vm);
  core::InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kSys};
  cmd.trigger = std::make_shared<core::DeterministicTrigger>(1);
  cmd.injector = core::InjectorRegistry::Global().Create(
      core::ParseInjectorSpec("iskip"), 1);
  cmd.seed = 3;
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_EQ(vm.termination(), vm::TerminationKind::kSignaled);
  EXPECT_EQ(vm.signal(), vm::GuestSignal::kSegv);
}

TEST(InjectorFamilies, RankCrashRaisesCrashSignal) {
  vm::Vm vm;
  core::Chaser chaser(vm);
  chaser.Arm(FaddCommand("rank-crash", 3));
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_EQ(vm.termination(), vm::TerminationKind::kSignaled);
  EXPECT_EQ(vm.signal(), vm::GuestSignal::kCrash);
  EXPECT_NE(vm.termination_message().find("injected rank crash"),
            std::string::npos);
}

// ---- stuck-at persistence -----------------------------------------------------

/// A loop that re-writes R(2) = 3 every iteration across a TB boundary (the
/// backward branch ends the block), so a transient flip of R(2) would be
/// healed immediately — only a persistent stuck-at fault survives.
guest::Program RewriteLoopProgram() {
  ProgramBuilder b("rewrite");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.MovI(R(2), 3);
  b.AddI(R(3), R(2), 0);  // copy the (possibly pinned) value out
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 50);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  return b.Finalize();
}

TEST(StuckAt, PinPersistsAcrossTbChainBoundary) {
  // Chained TBs re-enter the loop body without returning to the dispatch
  // loop; the pin must reassert at every instruction boundary regardless.
  vm::Vm vm;
  const guest::Program p = RewriteLoopProgram();
  vm.StartProcess(p);
  vm.AddStuckFault(tcg::EnvInt(2), 0x3, 0x0);  // pin low two bits to 0
  vm.RunToCompletion();
  EXPECT_EQ(vm.termination(), vm::TerminationKind::kExited);
  // Every `MovI R2, 3` was immediately re-pinned: the copy saw 0, not 3.
  EXPECT_EQ(vm.cpu().IntReg(3), 0u);
  EXPECT_EQ(vm.cpu().IntReg(2), 0u);
  EXPECT_GT(vm.tb_chain_hits(), 0u);
}

TEST(StuckAt, PinPersistsAcrossCacheEpochFlush) {
  // A 1-entry TB cache flushes wholesale on every miss (QEMU-style), forcing
  // retranslation mid-run; the pin is Vm state, not TB state, and must hold.
  vm::Vm::Config config;
  config.max_cached_tbs = 1;
  vm::Vm vm(config);
  const guest::Program p = RewriteLoopProgram();
  vm.StartProcess(p);
  vm.AddStuckFault(tcg::EnvInt(2), 0x3, 0x0);
  vm.RunToCompletion();
  EXPECT_EQ(vm.termination(), vm::TerminationKind::kExited);
  EXPECT_EQ(vm.cpu().IntReg(3), 0u);
}

TEST(StuckAt, StuckAtOnePinsBitsHigh) {
  vm::Vm vm;
  const guest::Program p = RewriteLoopProgram();
  vm.StartProcess(p);
  vm.AddStuckFault(tcg::EnvInt(2), 0x8, ~0ull);  // pin bit 3 to 1
  vm.RunToCompletion();
  EXPECT_EQ(vm.cpu().IntReg(3), 3u | 0x8u);
}

TEST(StuckAt, ClearAndRestartResets) {
  vm::Vm vm;
  const guest::Program p = RewriteLoopProgram();
  vm.StartProcess(p);
  vm.AddStuckFault(tcg::EnvInt(2), 0x3, 0x0);
  vm.RunToCompletion();
  EXPECT_EQ(vm.cpu().IntReg(3), 0u);
  // StartProcess clears per-trial fault state: the next run is healthy.
  vm.StartProcess(p);
  EXPECT_TRUE(vm.stuck_faults().empty());
  vm.RunToCompletion();
  EXPECT_EQ(vm.cpu().IntReg(3), 3u);
}

// ---- campaign integration -----------------------------------------------------

/// Single-rank fadd-accumulator app (mirrors campaign_test's workhorse).
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

std::string RecordsCsvOf(const campaign::CampaignResult& result,
                         campaign::SamplePolicy policy =
                             campaign::SamplePolicy::kUniform) {
  std::ostringstream csv;
  campaign::WriteRecordsCsv(result.records, csv, policy);
  return csv.str();
}

TEST(InjectorCampaign, RankCrashCampaignYieldsCrashedOutcome) {
  // Multi-rank app with tracing on: the victim rank dies while its taint
  // publishes are in flight; the cluster must contain the crash and the
  // survivors' hub polls must drain without deadlock.
  apps::AppSpec spec = apps::BuildMatvec({});
  campaign::CampaignConfig config;
  config.runs = 6;
  config.seed = 5;
  config.injector = core::ParseInjectorSpec("rank-crash");
  campaign::Campaign c(std::move(spec), config);
  const campaign::CampaignResult result = c.Run();
  EXPECT_EQ(result.crashed, 6u);
  for (const campaign::RunRecord& r : result.records) {
    EXPECT_EQ(r.outcome, campaign::Outcome::kCrashed);
    EXPECT_EQ(r.signal, vm::GuestSignal::kCrash);
    EXPECT_EQ(r.injector, "rank-crash");
    EXPECT_EQ(r.fault_class, "process-crash");
    EXPECT_EQ(r.failure_rank, r.inject_rank);
  }
  const std::string report = result.Render("matvec");
  EXPECT_NE(report.find("crashed"), std::string::npos);
}

TEST(InjectorCampaign, CrashedIsDistinctFromInfra) {
  apps::AppSpec spec = apps::BuildMatvec({});
  campaign::CampaignConfig config;
  config.runs = 4;
  config.seed = 9;
  config.injector = core::ParseInjectorSpec("rank-crash");
  campaign::Campaign c(std::move(spec), config);
  const campaign::CampaignResult result = c.Run();
  EXPECT_EQ(result.infra, 0u) << "a rank crash is an injection outcome, not "
                                 "a quarantined harness failure";
  EXPECT_EQ(result.crashed, 4u);
}

TEST(InjectorCampaign, CustomInjectorSerialParallelIdentical) {
  campaign::CampaignConfig config;
  config.runs = 12;
  config.seed = 21;
  config.injector = core::ParseInjectorSpec("multibit:bits=3");
  campaign::Campaign serial(AccumulatorApp(40), config);
  const std::string serial_csv = RecordsCsvOf(serial.Run());
  campaign::Campaign parallel(AccumulatorApp(40), config, 3);
  const std::string parallel_csv = RecordsCsvOf(parallel.Run());
  EXPECT_EQ(serial_csv, parallel_csv);
  EXPECT_EQ(serial_csv.rfind("#chaser-records-csv v9\n", 0), 0u);
}

TEST(InjectorCampaign, StuckAtDeterministicAcrossCacheConfigs) {
  // The pin lives in the Vm, not the translation cache, so flushing and
  // retranslating (1-TB cap) must not change any outcome.
  campaign::CampaignConfig config;
  config.runs = 10;
  config.seed = 13;
  config.injector = core::ParseInjectorSpec("stuckat:value=1");
  campaign::Campaign baseline(AccumulatorApp(40), config);
  const std::string baseline_csv = RecordsCsvOf(baseline.Run());
  config.tb_cache_cap = 1;
  campaign::Campaign capped(AccumulatorApp(40), config);
  EXPECT_EQ(RecordsCsvOf(capped.Run()), baseline_csv);
}

TEST(InjectorCampaign, EveryFamilyRunsDeterministically) {
  for (const char* spec_text :
       {"probabilistic:bits=2", "deterministic:operand=0,mask=255", "group",
        "multibit", "burst:span=2", "stuckat", "iskip", "rank-crash"}) {
    campaign::CampaignConfig config;
    config.runs = 5;
    config.seed = 33;
    config.injector = core::ParseInjectorSpec(spec_text);
    campaign::Campaign a(AccumulatorApp(30), config);
    campaign::Campaign b(AccumulatorApp(30), config);
    EXPECT_EQ(RecordsCsvOf(a.Run()), RecordsCsvOf(b.Run())) << spec_text;
  }
}

TEST(InjectorCampaign, StoreKeepsACampaignsInjectorColumns) {
  // A custom-injector campaign stamps its identity on every record, and
  // the CTR store it commits into hands it back.
  const std::string path = TempPath("iskip_store");
  campaign::CampaignConfig config;
  config.runs = 4;
  config.seed = 17;
  config.injector = core::ParseInjectorSpec("iskip");
  store::CtrStoreInfo identity;
  identity.campaign_seed = config.seed;
  identity.app = "accum";
  store::CtrStoreWriter writer(path, identity);
  config.record_sink = [&](const campaign::RunRecord& r) { writer.Add(r); };
  campaign::Campaign c(AccumulatorApp(30), config);
  const campaign::CampaignResult result = c.Run();
  writer.Finish();
  store::CtrStoreScanner scanner(path);
  campaign::RunRecord back;
  std::size_t i = 0;
  for (; scanner.Next(&back); ++i) {
    ASSERT_LT(i, result.records.size());
    EXPECT_EQ(back.injector, "iskip");
    EXPECT_EQ(back.fault_class, "instruction-skip");
    EXPECT_EQ(back.outcome, result.records[i].outcome);
  }
  EXPECT_EQ(i, result.records.size());
  fs::remove_all(path);
}

TEST(InjectorCampaign, StoreRoundTripsInjectorIdentityAndCrash) {
  // A rank-crash record carries the injector identity and the kCrashed
  // outcome / kCrash signal; the CTR store a campaign resumes from must hand
  // all of them back.
  const std::string path = TempPath("crash_store");
  campaign::RunRecord rec;
  rec.run_seed = 42;
  rec.outcome = campaign::Outcome::kCrashed;
  rec.kind = vm::TerminationKind::kSignaled;
  rec.signal = vm::GuestSignal::kCrash;
  rec.injector = "rank-crash";
  rec.fault_class = "process-crash";
  store::CtrStoreInfo identity;
  identity.campaign_seed = 7;
  identity.app = "accum";
  {
    store::CtrStoreWriter writer(path, identity);
    writer.Add(rec);
    writer.Finish();
  }
  store::CtrStoreScanner scanner(path);
  campaign::RunRecord back;
  ASSERT_TRUE(scanner.Next(&back));
  EXPECT_FALSE(scanner.Next(&back));
  EXPECT_EQ(back.outcome, campaign::Outcome::kCrashed);
  EXPECT_EQ(back.signal, vm::GuestSignal::kCrash);
  EXPECT_EQ(back.injector, "rank-crash");
  EXPECT_EQ(back.fault_class, "process-crash");
  fs::remove_all(path);
}

TEST(InjectorCampaign, HubFaultTriggerIsDeterministicAndTrialScoped) {
  // The trial-window model must not perturb the golden run (which would
  // throw if the hub dropped its publishes with retries=0) and must be
  // deterministic in the campaign seed.
  apps::AppSpec spec = apps::BuildMatvec({});
  campaign::CampaignConfig config;
  config.runs = 6;
  config.seed = 3;
  config.hub_fault_trigger =
      hub::remote::ParseHubFaultSpec("drop=0.8,retries=1");
  campaign::Campaign a(apps::BuildMatvec({}), config);
  const std::string csv_a = RecordsCsvOf(a.Run());
  campaign::Campaign b(std::move(spec), config);
  EXPECT_EQ(RecordsCsvOf(b.Run()), csv_a);
  // Default injector + uniform sampling: the CSV stays v7 even with the
  // trigger armed — the feature adds no columns.
  EXPECT_EQ(csv_a.rfind("#chaser-records-csv v7\n", 0), 0u);
}

}  // namespace
}  // namespace chaser

// Plugin-style self-registration must work from an ordinary test TU (the
// registry macro is the exported extension point).
CHASER_REGISTER_INJECTOR(
    test_nop,
    ::chaser::core::InjectorRegistry::Entry{
        "test-nop",
        "test",
        "does nothing (registry self-registration test)",
        {},
        [](const ::chaser::core::InjectorArgs&) {
          class NopInjector : public ::chaser::core::FaultInjector {
           public:
            void Inject(::chaser::core::InjectionContext&) override {}
            std::string name() const override { return "test-nop"; }
          };
          return std::make_shared<NopInjector>();
        }});
