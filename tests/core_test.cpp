// Unit tests for src/core: triggers, corruption primitives, the bundled
// injectors, the Chaser attach/count/fire/detach lifecycle, the trace log,
// and the inject_fault console.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "common/bits.h"
#include "common/error.h"
#include "core/chaser.h"
#include "core/console.h"
#include "core/corrupt.h"
#include "core/injectors/deterministic_injector.h"
#include "core/injectors/group_injector.h"
#include "core/injectors/probabilistic_injector.h"
#include "core/trigger.h"
#include "guest/builder.h"

namespace chaser::core {
namespace {

using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

// ---- Triggers -----------------------------------------------------------------

TEST(Trigger, DeterministicFiresExactlyOnce) {
  Rng rng(1);
  DeterministicTrigger t(5);
  for (std::uint64_t n = 1; n <= 10; ++n) {
    EXPECT_EQ(t.ShouldFire(n, rng), n == 5) << n;
  }
  EXPECT_TRUE(t.Expired());
}

TEST(Trigger, DeterministicRejectsZero) {
  EXPECT_THROW(DeterministicTrigger(0), ConfigError);
}

TEST(Trigger, DeterministicCloneResetsState) {
  Rng rng(1);
  DeterministicTrigger t(2);
  EXPECT_TRUE(t.ShouldFire(2, rng));
  auto clone = t.Clone();
  EXPECT_FALSE(clone->Expired());
  EXPECT_TRUE(clone->ShouldFire(2, rng));
}

TEST(Trigger, ProbabilisticRespectsMax) {
  Rng rng(2);
  ProbabilisticTrigger t(1.0, 3);
  int fired = 0;
  for (int i = 1; i <= 10; ++i) fired += t.ShouldFire(i, rng) ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(t.Expired());
}

TEST(Trigger, ProbabilisticRoughRate) {
  Rng rng(3);
  ProbabilisticTrigger t(0.25, 1'000'000);
  int fired = 0;
  for (int i = 1; i <= 10000; ++i) fired += t.ShouldFire(i, rng) ? 1 : 0;
  EXPECT_NEAR(fired / 10000.0, 0.25, 0.03);
}

TEST(Trigger, ProbabilisticValidatesP) {
  EXPECT_THROW(ProbabilisticTrigger(-0.1), ConfigError);
  EXPECT_THROW(ProbabilisticTrigger(1.1), ConfigError);
}

TEST(Trigger, GroupFiresOnStride) {
  Rng rng(4);
  GroupTrigger t(10, 5, 3);  // fire at 10, 15, 20
  std::vector<std::uint64_t> fired;
  for (std::uint64_t n = 1; n <= 30; ++n) {
    if (t.ShouldFire(n, rng)) fired.push_back(n);
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 15, 20}));
  EXPECT_TRUE(t.Expired());
}

TEST(Trigger, NeverTriggerNeverFiresNorExpires) {
  Rng rng(5);
  NeverTrigger t;
  for (int i = 1; i < 100; ++i) EXPECT_FALSE(t.ShouldFire(i, rng));
  EXPECT_FALSE(t.Expired());
}

// A fast-forwarded trigger behaves as if it had seen the prefix's targeted
// executions; one the prefix would have fired refuses and stays fresh.
TEST(Trigger, FastForwardOverACleanPrefix) {
  Rng rng(5);
  DeterministicTrigger det(10);
  EXPECT_FALSE(det.FastForward(10, nullptr));
  EXPECT_TRUE(det.FastForward(9, nullptr));
  EXPECT_TRUE(det.ShouldFire(10, rng));

  const Trigger::SiteCounts sites = {{3, 5}, {8, 2}};
  PcNthTrigger pc_nth(8, 3);
  EXPECT_FALSE(pc_nth.FastForward(7, nullptr));  // sites not profiled
  EXPECT_TRUE(pc_nth.FastForward(7, &sites));
  EXPECT_FALSE(pc_nth.ShouldFireAt(8, 3, rng));
  EXPECT_TRUE(pc_nth.ShouldFireAt(9, 8, rng));  // the 3rd execution of pc 8
  EXPECT_FALSE(PcNthTrigger(8, 2).FastForward(7, &sites));
  PcNthTrigger unseen(5, 1);  // a pc the prefix never executed
  EXPECT_TRUE(unseen.FastForward(7, &sites));
  EXPECT_TRUE(unseen.ShouldFireAt(8, 5, rng));

  EXPECT_FALSE(ProbabilisticTrigger(0.5).FastForward(0, nullptr));
  EXPECT_FALSE(GroupTrigger(5, 1, 2).FastForward(0, nullptr));
}

// The checkpoint probe asks SilentThrough, without cloning: it answers what
// FastForward would, and leaves the trigger as it was.
TEST(Trigger, SilentThroughAnswersFastForwardWithoutMovingState) {
  Rng rng(5);
  const Trigger::SiteCounts sites = {{3, 5}, {8, 2}};
  const DeterministicTrigger det(10);
  EXPECT_TRUE(det.SilentThrough(9, nullptr));
  EXPECT_FALSE(det.SilentThrough(10, nullptr));
  PcNthTrigger pc_nth(8, 3);
  EXPECT_FALSE(pc_nth.SilentThrough(7, nullptr));
  EXPECT_TRUE(pc_nth.SilentThrough(7, &sites));
  EXPECT_FALSE(PcNthTrigger(8, 2).SilentThrough(7, &sites));
  EXPECT_TRUE(PcNthTrigger(5, 1).SilentThrough(7, &sites));
  // Probing did not fast-forward: the 3rd execution of pc 8 is still 3 away.
  EXPECT_FALSE(pc_nth.ShouldFireAt(1, 8, rng));
  EXPECT_FALSE(pc_nth.ShouldFireAt(2, 8, rng));
  EXPECT_TRUE(pc_nth.ShouldFireAt(3, 8, rng));
  EXPECT_FALSE(ProbabilisticTrigger(0.5).SilentThrough(0, nullptr));
  EXPECT_FALSE(GroupTrigger(5, 1, 2).SilentThrough(0, nullptr));
}

TEST(Trigger, DescribeMentionsParameters) {
  EXPECT_NE(DeterministicTrigger(7).Describe().find("7"), std::string::npos);
  EXPECT_NE(ProbabilisticTrigger(0.5).Describe().find("0.5"), std::string::npos);
  EXPECT_NE(GroupTrigger(1, 2, 3).Describe().find("stride=2"), std::string::npos);
}

// ---- Corruption primitives ---------------------------------------------------------

guest::Program& TrivialProgram() {
  static guest::Program p = [] {
    ProgramBuilder b("t");
    const GuestAddr buf = b.Bss("buf", 64);
    (void)buf;
    b.Nop();
    b.Exit(0);
    return b.Finalize();
  }();
  return p;
}

TEST(Corrupt, IntRegisterFlipAndTaint) {
  vm::Vm vm;
  vm.taint().set_enabled(true);
  vm.StartProcess(TrivialProgram());
  vm.cpu().IntReg(4) = 0xff;
  const InjectionRecord rec = CorruptIntRegister(vm, 4, 0x0f);
  EXPECT_EQ(vm.cpu().IntReg(4), 0xf0u);
  EXPECT_EQ(rec.old_value, 0xffu);
  EXPECT_EQ(rec.new_value, 0xf0u);
  EXPECT_EQ(vm.taint().GetValTaint(tcg::EnvInt(4)), 0x0fu);
}

TEST(Corrupt, FpRegisterFlipAndTaint) {
  vm::Vm vm;
  vm.taint().set_enabled(true);
  vm.StartProcess(TrivialProgram());
  vm.cpu().SetFpReg(2, 1.0);
  const InjectionRecord rec = CorruptFpRegister(vm, 2, 1ull << 63);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(2), -1.0);
  EXPECT_EQ(rec.target, InjectionRecord::Target::kFpRegister);
  EXPECT_EQ(vm.taint().GetValTaint(tcg::EnvFp(2)), 1ull << 63);
}

TEST(Corrupt, MemoryFlipAndTaint) {
  vm::Vm vm;
  vm.taint().set_enabled(true);
  vm.StartProcess(TrivialProgram());
  const GuestAddr buf = TrivialProgram().DataAddr("buf");
  PhysAddr pa;
  vm.memory().Store(buf, 8, 0x1111, &pa);
  const InjectionRecord rec = CorruptMemory(vm, buf, 8, 0x00ff);
  EXPECT_EQ(rec.old_value, 0x1111u);
  EXPECT_EQ(*vm.memory().Load(buf, 8, &pa), 0x11eeu);
  EXPECT_EQ(vm.taint().GetMemTaintByte(pa), 0xffu);
}

TEST(Corrupt, MemoryUnmappedThrows) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  EXPECT_THROW(CorruptMemory(vm, 0xdead0000, 8, 1), ConfigError);
}

TEST(Corrupt, RegisterRangeChecked) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  EXPECT_THROW(CorruptIntRegister(vm, 16, 1), ConfigError);
  EXPECT_THROW(CorruptFpRegister(vm, 99, 1), ConfigError);
}

TEST(Corrupt, TouchKeepsValueButTaints) {
  vm::Vm vm;
  vm.taint().set_enabled(true);
  vm.StartProcess(TrivialProgram());
  vm.cpu().IntReg(3) = 42;
  TouchIntRegister(vm, 3);
  EXPECT_EQ(vm.cpu().IntReg(3), 42u);
  EXPECT_EQ(vm.taint().GetValTaint(tcg::EnvInt(3)), ~std::uint64_t{0});
}

TEST(Corrupt, DescribeIsInformative) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  vm.cpu().IntReg(1) = 7;
  const InjectionRecord rec = CorruptIntRegister(vm, 1, 2);
  const std::string d = rec.Describe();
  EXPECT_NE(d.find("int-reg"), std::string::npos);
  EXPECT_NE(d.find("r1"), std::string::npos);
}

// ---- Chaser lifecycle ----------------------------------------------------------------

/// A program with a counted fadd loop: 20 fadds, result in f5.
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

TEST(ChaserCore, CountsTargetedExecutions) {
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<NeverTrigger>();
  cmd.injector = ProbabilisticInjector::Create(1);
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_TRUE(chaser.attached());
  EXPECT_EQ(chaser.targeted_executions(), 20u);
  EXPECT_TRUE(chaser.injections().empty());
}

TEST(ChaserCore, DoesNotAttachToOtherPrograms) {
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "some_other_app";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<NeverTrigger>();
  cmd.injector = ProbabilisticInjector::Create(1);
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_FALSE(chaser.attached());
  EXPECT_EQ(chaser.targeted_executions(), 0u);
}

TEST(ChaserCore, DeterministicNthExecutionFires) {
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<DeterministicTrigger>(7);
  cmd.injector = DeterministicInjector::Create(0, 1ull << 52);  // bump exponent
  cmd.seed = 3;
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  ASSERT_EQ(chaser.injections().size(), 1u);
  EXPECT_EQ(chaser.injections()[0].exec_count, 7u);
  EXPECT_EQ(chaser.injections()[0].instr_class, guest::InstrClass::kFadd);
  // f5 accumulated a corrupted addend: != 20.0.
  EXPECT_NE(vm.cpu().FpReg(5), 20.0);
}

TEST(ChaserCore, DetachAfterExpiryStopsCounting) {
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<DeterministicTrigger>(3);
  cmd.injector = ProbabilisticInjector::Create(1);
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  // fi_clean_cb detached at execution 3; the remaining 17 fadds uncounted.
  EXPECT_EQ(chaser.targeted_executions(), 3u);
  EXPECT_EQ(chaser.injections().size(), 1u);
}

TEST(ChaserCore, RearmAcrossRunsResetsState) {
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<DeterministicTrigger>(2);
  cmd.injector = ProbabilisticInjector::Create(1);
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_EQ(chaser.injections().size(), 1u);
  // Second run: fresh clone of the trigger fires again.
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_EQ(chaser.injections().size(), 1u);
}

TEST(ChaserCore, TraceOnlyCommandTracesWithoutInstrumenting) {
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  // no trigger / injector -> trace-only
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_TRUE(chaser.attached());
  EXPECT_TRUE(vm.taint().enabled());
  EXPECT_EQ(chaser.targeted_executions(), 0u);
}

TEST(ChaserCore, TraceLogRecordsTaintedMemoryTraffic) {
  // Program: corrupt a value, store it, load it back -> 1 write + 1 read.
  static guest::Program p = [] {
    ProgramBuilder b("memtrace");
    const GuestAddr buf = b.Bss("buf", 8);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 5);
    b.Add(R(2), R(2), R(2));  // targeted: corrupt r2 here
    b.St(R(1), 0, R(2));
    b.Ld(R(3), R(1), 0);
    b.Exit(0);
    return b.Finalize();
  }();
  vm::Vm vm;
  Chaser chaser(vm);
  InjectionCommand cmd;
  cmd.target_program = "memtrace";
  cmd.target_classes = {guest::InstrClass::kAdd};
  cmd.trigger = std::make_shared<DeterministicTrigger>(1);
  cmd.injector = DeterministicInjector::Create(0, 0xff);
  chaser.Arm(cmd);
  vm.StartProcess(p);
  vm.RunToCompletion();
  EXPECT_EQ(chaser.trace_log().tainted_writes(), 1u);
  EXPECT_EQ(chaser.trace_log().tainted_reads(), 1u);
  EXPECT_EQ(chaser.trace_log().injections(), 1u);
  // Events carry the paper's payload.
  bool saw_write = false;
  for (const TraceEvent& e : chaser.trace_log().events()) {
    if (e.kind == TraceEventKind::kTaintedWrite) {
      saw_write = true;
      EXPECT_EQ(e.vaddr, p.DataAddr("buf"));
      EXPECT_NE(e.taint, 0u);
    }
  }
  EXPECT_TRUE(saw_write);
}

TEST(ChaserCore, TaintTimelineSampled) {
  Chaser::Options opts;
  opts.taint_sample_interval = 10;
  vm::Vm vm;
  Chaser chaser(vm, opts);
  InjectionCommand cmd;
  cmd.target_program = "faddloop";
  cmd.target_classes = {guest::InstrClass::kFadd};
  cmd.trigger = std::make_shared<DeterministicTrigger>(1);
  cmd.injector = ProbabilisticInjector::Create(2);
  chaser.Arm(cmd);
  vm.StartProcess(FaddLoopProgram());
  vm.RunToCompletion();
  EXPECT_GT(chaser.taint_timeline().size(), 2u);
  for (std::size_t i = 1; i < chaser.taint_timeline().size(); ++i) {
    EXPECT_GT(chaser.taint_timeline()[i].instret,
              chaser.taint_timeline()[i - 1].instret);
  }
}

// ---- Bundled injectors ------------------------------------------------------------

TEST(Injectors, ProbabilisticCorruptsASourceOperand) {
  vm::Vm vm;
  vm.taint().set_enabled(true);
  vm.StartProcess(TrivialProgram());
  vm.cpu().IntReg(2) = 100;
  vm.cpu().IntReg(3) = 200;
  const guest::Instruction add{.op = guest::Opcode::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3};
  Rng rng(9);
  std::vector<InjectionRecord> records;
  InjectionContext ctx{vm, 0, add, 1, 0, rng, records};
  ProbabilisticInjector(1).Inject(ctx);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].reg == 2 || records[0].reg == 3);
  EXPECT_EQ(PopCount(records[0].flip_mask), 1u);
}

TEST(Injectors, ProbabilisticBitWidthRestriction) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  vm.cpu().IntReg(2) = 0;
  const guest::Instruction add{.op = guest::Opcode::kAdd, .rd = 1, .rs1 = 2,
                               .use_imm = true, .imm = 1};
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    std::vector<InjectionRecord> records;
    InjectionContext ctx{vm, 0, add, 1, 0, rng, records};
    ProbabilisticInjector(2, 8).Inject(ctx);
    EXPECT_EQ(records[0].flip_mask & ~0xffull, 0u);
  }
}

TEST(Injectors, DeterministicPicksExactOperandAndMask) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  vm.cpu().IntReg(2) = 0;
  vm.cpu().IntReg(3) = 0;
  const guest::Instruction add{.op = guest::Opcode::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3};
  Rng rng(11);
  std::vector<InjectionRecord> records;
  InjectionContext ctx{vm, 0, add, 1, 0, rng, records};
  DeterministicInjector(1, 0xf0).Inject(ctx);  // operand #1 = rs2 = r3
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].reg, 3u);
  EXPECT_EQ(records[0].flip_mask, 0xf0u);
  EXPECT_EQ(vm.cpu().IntReg(3), 0xf0u);
}

TEST(Injectors, DeterministicMemoryMode) {
  vm::Vm vm;
  vm.taint().set_enabled(true);
  vm.StartProcess(TrivialProgram());
  const GuestAddr buf = TrivialProgram().DataAddr("buf");
  const guest::Instruction nop{.op = guest::Opcode::kNop};
  Rng rng(12);
  std::vector<InjectionRecord> records;
  InjectionContext ctx{vm, 0, nop, 1, 0, rng, records};
  DeterministicInjector(buf, 4, 0xff).Inject(ctx);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].target, InjectionRecord::Target::kMemory);
  PhysAddr pa;
  EXPECT_EQ(*vm.memory().Load(buf, 4, &pa) & 0xff, 0xffu);
}

TEST(Injectors, DeterministicRejectsBadConfig) {
  EXPECT_THROW(DeterministicInjector(0, 0), ConfigError);
  EXPECT_THROW(DeterministicInjector(GuestAddr{0}, 0, 1), ConfigError);
  EXPECT_THROW(DeterministicInjector(GuestAddr{0}, 9, 1), ConfigError);
}

TEST(Injectors, GroupCorruptsAllFpSources) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  vm.cpu().SetFpReg(1, 1.0);
  vm.cpu().SetFpReg(2, 2.0);
  const guest::Instruction fadd{.op = guest::Opcode::kFadd, .rd = 0, .rs1 = 1, .rs2 = 2};
  Rng rng(13);
  std::vector<InjectionRecord> records;
  InjectionContext ctx{vm, 0, fadd, 1, 0, rng, records};
  GroupInjector(1).Inject(ctx);
  EXPECT_EQ(records.size(), 2u);
}

TEST(Injectors, GroupFallsBackToIntSources) {
  vm::Vm vm;
  vm.StartProcess(TrivialProgram());
  const guest::Instruction add{.op = guest::Opcode::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3};
  Rng rng(14);
  std::vector<InjectionRecord> records;
  InjectionContext ctx{vm, 0, add, 1, 0, rng, records};
  GroupInjector(1).Inject(ctx);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].target, InjectionRecord::Target::kIntRegister);
}

// ---- Console / plugin registry ---------------------------------------------------------

TEST(Console, ParseDeterministicCommand) {
  const InjectionCommand cmd = ParseInjectFault(
      {"-p", "matvec", "-i", "mov", "-m", "det", "-c", "1000", "-b", "2", "-s", "9"});
  EXPECT_EQ(cmd.target_program, "matvec");
  EXPECT_EQ(cmd.target_classes.count(guest::InstrClass::kMov), 1u);
  EXPECT_EQ(cmd.seed, 9u);
  EXPECT_FALSE(cmd.TraceOnly());
  EXPECT_NE(cmd.trigger->Describe().find("1000"), std::string::npos);
  EXPECT_TRUE(cmd.trace);
}

TEST(Console, ParseMultipleClassesAndProbModel) {
  const InjectionCommand cmd = ParseInjectFault(
      {"-p", "kmeans", "-i", "fadd,fmul", "-m", "prob", "-P", "0.01", "-max", "4"});
  EXPECT_EQ(cmd.target_classes.size(), 2u);
  EXPECT_NE(cmd.trigger->Describe().find("0.01"), std::string::npos);
}

TEST(Console, ParseGroupModelAndNoTrace) {
  const InjectionCommand cmd = ParseInjectFault(
      {"-p", "lud", "-i", "fmul", "-m", "group", "-c", "100", "-stride", "50",
       "-max", "3", "-notrace"});
  EXPECT_FALSE(cmd.trace);
  EXPECT_NE(cmd.trigger->Describe().find("stride=50"), std::string::npos);
}

TEST(Console, ParseExactMask) {
  const InjectionCommand cmd = ParseInjectFault(
      {"-p", "a", "-i", "fadd", "-m", "det", "-c", "5", "-o", "1", "-mask", "0x10"});
  EXPECT_EQ(cmd.injector->name(), "deterministic");
}

TEST(Console, ParseErrors) {
  EXPECT_THROW(ParseInjectFault({"-i", "mov"}), CommandError);             // no -p
  EXPECT_THROW(ParseInjectFault({"-p", "x"}), CommandError);               // no -i
  EXPECT_THROW(ParseInjectFault({"-p", "x", "-i", "bogus"}), CommandError);
  EXPECT_THROW(ParseInjectFault({"-p", "x", "-i", "mov", "-m", "huh"}), CommandError);
  EXPECT_THROW(ParseInjectFault({"-p", "x", "-i", "mov", "-c"}), CommandError);
  EXPECT_THROW(ParseInjectFault({"-p", "x", "-i", "mov", "-zz", "1"}), CommandError);
}

TEST(Console, RegistryDispatch) {
  PluginRegistry registry;
  InjectionCommand received;
  bool got = false;
  registry.LoadPlugin("fi", [&] {
    return MakeFaultInjectionPlugin([&](InjectionCommand cmd) {
      received = std::move(cmd);
      got = true;
    });
  });
  registry.Dispatch("inject_fault -p clamr -i fadd -m det -c 42");
  ASSERT_TRUE(got);
  EXPECT_EQ(received.target_program, "clamr");
}

TEST(Console, RegistryRejectsUnknownAndDuplicate) {
  PluginRegistry registry;
  registry.LoadPlugin("fi", [] {
    return MakeFaultInjectionPlugin([](InjectionCommand) {});
  });
  EXPECT_THROW(registry.Dispatch("frobnicate -x"), CommandError);
  EXPECT_THROW(registry.Dispatch(""), CommandError);
  EXPECT_THROW(registry.LoadPlugin("fi2",
                                   [] {
                                     return MakeFaultInjectionPlugin(
                                         [](InjectionCommand) {});
                                   }),
               ConfigError);
}

// ---- Trace log --------------------------------------------------------------------------

TEST(Trace, CapacityCapWithExactCounts) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Add({.kind = TraceEventKind::kTaintedRead});
  }
  EXPECT_EQ(log.tainted_reads(), 10u);
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
}

TEST(Trace, ClearResets) {
  TraceLog log;
  log.Add({.kind = TraceEventKind::kInjection});
  log.Clear();
  EXPECT_EQ(log.injections(), 0u);
  EXPECT_TRUE(log.events().empty());
}

TEST(Trace, ToStringContainsEipRendering) {
  TraceLog log;
  log.Add({.kind = TraceEventKind::kTaintedRead, .pc = 2, .vaddr = 0x10,
           .taint = 0xff});
  const std::string s = log.ToString();
  EXPECT_NE(s.find("T-READ"), std::string::npos);
  EXPECT_NE(s.find("0x0000000000400008"), std::string::npos);  // PcToAddr(2)
}

}  // namespace
}  // namespace chaser::core
