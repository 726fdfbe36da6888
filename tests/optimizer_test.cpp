// Tests for the TCG optimizer: specific rewrites, safety constraints, and an
// on/off equivalence sweep over random programs.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"
#include "guest/builder.h"
#include "guest_state_digest.h"
#include "tcg/optimizer.h"
#include "tcg/translator.h"
#include "vm/vm.h"

namespace chaser::tcg {
namespace {

using guest::Cond;
using guest::F;
using guest::ProgramBuilder;
using guest::R;

TranslationBlock TranslateAt(const guest::Program& p, std::uint64_t pc = 0,
                             bool instrument_all = false) {
  Translator::Options opts;
  opts.instrument_all = instrument_all;
  return Translator(opts).Translate(p, pc);
}

std::size_t CountOpc(const TranslationBlock& tb, TcgOpc opc) {
  std::size_t n = 0;
  for (const TcgOp& op : tb.ops) {
    if (op.opc == opc) ++n;
  }
  return n;
}

TEST(Optimizer, ForwardsAluIntoEnvDestination) {
  ProgramBuilder b("t");
  b.Add(R(1), R(2), R(3));  // add t, r2, r3; mov r1, t  ->  add r1, r2, r3
  b.Exit(0);
  const guest::Program p = b.Finalize();
  TranslationBlock tb = TranslateAt(p);
  const std::size_t movs_before = CountOpc(tb, TcgOpc::kMov);
  const OptimizerStats stats = Optimize(&tb);
  EXPECT_GT(stats.movs_forwarded, 0u);
  EXPECT_LT(CountOpc(tb, TcgOpc::kMov), movs_before);
  // The add now writes env.r1 directly.
  bool direct = false;
  for (const TcgOp& op : tb.ops) {
    if (op.opc == TcgOpc::kAdd && op.dst == EnvInt(1)) direct = true;
  }
  EXPECT_TRUE(direct);
}

TEST(Optimizer, FoldsImmediateMove) {
  ProgramBuilder b("t");
  b.MovI(R(4), 1234);  // movi t, 1234; mov r4, t  ->  movi r4, 1234
  b.Exit(0);
  const guest::Program p = b.Finalize();
  TranslationBlock tb = TranslateAt(p);
  Optimize(&tb);
  bool direct = false;
  for (const TcgOp& op : tb.ops) {
    if (op.opc == TcgOpc::kMovI && op.dst == EnvInt(4) && op.imm == 1234) {
      direct = true;
    }
  }
  EXPECT_TRUE(direct);
}

TEST(Optimizer, ForwardsLoadsButKeepsThem) {
  ProgramBuilder b("t");
  const GuestAddr buf = b.Bss("buf", 8);
  b.MovI(R(9), static_cast<std::int64_t>(buf));
  b.Ld(R(1), R(9), 0);
  b.Exit(0);
  const guest::Program p = b.Finalize();
  TranslationBlock tb = TranslateAt(p);
  const std::size_t loads_before = CountOpc(tb, TcgOpc::kQemuLd);
  Optimize(&tb);
  EXPECT_EQ(CountOpc(tb, TcgOpc::kQemuLd), loads_before);  // never removed
  bool direct = false;
  for (const TcgOp& op : tb.ops) {
    if (op.opc == TcgOpc::kQemuLd && op.dst == EnvInt(1)) direct = true;
  }
  EXPECT_TRUE(direct);
}

TEST(Optimizer, NeverTouchesDivision) {
  ProgramBuilder b("t");
  b.DivS(R(1), R(2), R(3));  // may trap: the div op must survive untouched
  b.Exit(0);
  const guest::Program p = b.Finalize();
  TranslationBlock tb = TranslateAt(p);
  const std::size_t divs_before = CountOpc(tb, TcgOpc::kDivS);
  Optimize(&tb);
  EXPECT_EQ(CountOpc(tb, TcgOpc::kDivS), divs_before);
  // And its result still reaches r1 through the mov.
  bool mov_to_r1 = false;
  for (const TcgOp& op : tb.ops) {
    if (op.opc == TcgOpc::kMov && op.dst == EnvInt(1)) mov_to_r1 = true;
  }
  EXPECT_TRUE(mov_to_r1);
}

TEST(Optimizer, KeepsHelperCallsAndTerminators) {
  ProgramBuilder b("t");
  b.Fadd(F(0), F(1), F(2));
  b.Exit(0);
  const guest::Program p = b.Finalize();
  TranslationBlock tb = TranslateAt(p, 0, /*instrument_all=*/true);
  const std::size_t helpers_before = CountOpc(tb, TcgOpc::kCallHelper);
  const std::size_t starts_before = CountOpc(tb, TcgOpc::kInsnStart);
  Optimize(&tb);
  EXPECT_EQ(CountOpc(tb, TcgOpc::kCallHelper), helpers_before);
  // Boundary folding may turn explicit kInsnStart ops into insn_boundary
  // flags, but every guest instruction boundary must survive in one form.
  std::size_t boundaries = CountOpc(tb, TcgOpc::kInsnStart);
  for (const TcgOp& op : tb.ops) {
    if (op.insn_boundary) ++boundaries;
  }
  EXPECT_EQ(boundaries, starts_before);
  EXPECT_EQ(tb.ops.back().opc, TcgOpc::kGotoTb);
}

// ---- Exact-count tests on hand-built IR -----------------------------------
// These pin the optimizer's accounting: each stat must report exactly the
// rewrites performed, not merely "some".

TcgOp Op(TcgOpc opc, ValId dst = 0, ValId src1 = 0, ValId src2 = 0) {
  TcgOp op;
  op.opc = opc;
  op.dst = dst;
  op.src1 = src1;
  op.src2 = src2;
  return op;
}

TEST(Optimizer, ExactCountsForwardAndImmFuseAndBoundary) {
  // insn_start; movi t0,7; add t1,r2,t0; mov r1,t1; goto_tb — the canonical
  // translator pattern for `add r1, r2, #7`.
  TranslationBlock tb;
  tb.num_temps = 2;
  tb.ops.push_back(Op(TcgOpc::kInsnStart));
  TcgOp movi = Op(TcgOpc::kMovI, kTempBase + 0);
  movi.imm = 7;
  tb.ops.push_back(movi);
  tb.ops.push_back(Op(TcgOpc::kAdd, kTempBase + 1, EnvInt(2), kTempBase + 0));
  tb.ops.push_back(Op(TcgOpc::kMov, EnvInt(1), kTempBase + 1));
  tb.ops.push_back(Op(TcgOpc::kGotoTb));

  const OptimizerStats stats = Optimize(&tb);
  EXPECT_EQ(stats.movs_forwarded, 1u);
  EXPECT_EQ(stats.imms_fused, 1u);
  EXPECT_EQ(stats.addrs_fused, 0u);
  EXPECT_EQ(stats.dead_ops_removed, 0u);
  EXPECT_EQ(stats.insn_starts_folded, 1u);

  // 5 ops collapse to: add r1, r2, $7 (boundary-flagged) + goto_tb.
  ASSERT_EQ(tb.ops.size(), 2u);
  EXPECT_EQ(tb.ops[0].opc, TcgOpc::kAdd);
  EXPECT_EQ(tb.ops[0].dst, EnvInt(1));
  EXPECT_TRUE(tb.ops[0].src2_imm);
  EXPECT_EQ(tb.ops[0].imm, 7u);
  EXPECT_TRUE(tb.ops[0].insn_boundary);
  EXPECT_EQ(tb.ops[1].opc, TcgOpc::kGotoTb);
}

TEST(Optimizer, ExactCountsAddressFusion) {
  // insn_start; movi t0,16; add t1,r9,t0; ld t2,[t1]; mov r1,t2; goto_tb —
  // the translator pattern for `ld r1, [r9 + 16]`.
  TranslationBlock tb;
  tb.num_temps = 3;
  tb.ops.push_back(Op(TcgOpc::kInsnStart));
  TcgOp movi = Op(TcgOpc::kMovI, kTempBase + 0);
  movi.imm = 16;
  tb.ops.push_back(movi);
  tb.ops.push_back(Op(TcgOpc::kAdd, kTempBase + 1, EnvInt(9), kTempBase + 0));
  TcgOp ld = Op(TcgOpc::kQemuLd, kTempBase + 2, kTempBase + 1);
  ld.size = guest::MemSize::k8;
  tb.ops.push_back(ld);
  tb.ops.push_back(Op(TcgOpc::kMov, EnvInt(1), kTempBase + 2));
  tb.ops.push_back(Op(TcgOpc::kGotoTb));

  const OptimizerStats stats = Optimize(&tb);
  EXPECT_EQ(stats.movs_forwarded, 1u);
  EXPECT_EQ(stats.imms_fused, 1u);
  EXPECT_EQ(stats.addrs_fused, 1u);
  EXPECT_EQ(stats.dead_ops_removed, 0u);
  EXPECT_EQ(stats.insn_starts_folded, 1u);

  // 6 ops collapse to: ld r1, [r9+$16] (boundary-flagged) + goto_tb.
  ASSERT_EQ(tb.ops.size(), 2u);
  EXPECT_EQ(tb.ops[0].opc, TcgOpc::kQemuLd);
  EXPECT_EQ(tb.ops[0].dst, EnvInt(1));
  EXPECT_EQ(tb.ops[0].src1, EnvInt(9));
  EXPECT_TRUE(tb.ops[0].addr_fused);
  EXPECT_EQ(tb.ops[0].imm2, 16u);
  EXPECT_TRUE(tb.ops[0].insn_boundary);
}

TEST(Optimizer, ExactCountsDeadTempElimination) {
  // A pure op whose temp is never read is dropped; the store stays.
  TranslationBlock tb;
  tb.num_temps = 1;
  tb.ops.push_back(Op(TcgOpc::kInsnStart));
  TcgOp movi = Op(TcgOpc::kMovI, kTempBase + 0);
  movi.imm = 3;
  tb.ops.push_back(movi);  // dead: nothing reads t0
  tb.ops.push_back(Op(TcgOpc::kQemuSt, 0, EnvInt(9), EnvInt(1)));
  tb.ops.push_back(Op(TcgOpc::kGotoTb));

  const OptimizerStats stats = Optimize(&tb);
  EXPECT_EQ(stats.movs_forwarded, 0u);
  EXPECT_EQ(stats.imms_fused, 0u);
  EXPECT_EQ(stats.dead_ops_removed, 1u);
  EXPECT_EQ(stats.insn_starts_folded, 1u);
  ASSERT_EQ(tb.ops.size(), 2u);
  EXPECT_EQ(tb.ops[0].opc, TcgOpc::kQemuSt);
  EXPECT_TRUE(tb.ops[0].insn_boundary);
}

TEST(Optimizer, ConsecutiveInsnStartsKeepTheFirstExplicit) {
  // A kNop-style instruction leaves two adjacent boundaries; only the one
  // with a following real op may fold.
  TranslationBlock tb;
  tb.num_temps = 0;
  tb.ops.push_back(Op(TcgOpc::kInsnStart));  // kept: next op is an insn_start
  tb.ops.push_back(Op(TcgOpc::kInsnStart));  // folds into goto_tb
  tb.ops.push_back(Op(TcgOpc::kGotoTb));

  const OptimizerStats stats = Optimize(&tb);
  EXPECT_EQ(stats.insn_starts_folded, 1u);
  ASSERT_EQ(tb.ops.size(), 2u);
  EXPECT_EQ(tb.ops[0].opc, TcgOpc::kInsnStart);
  EXPECT_FALSE(tb.ops[0].insn_boundary);
  EXPECT_EQ(tb.ops[1].opc, TcgOpc::kGotoTb);
  EXPECT_TRUE(tb.ops[1].insn_boundary);
}

TEST(Optimizer, ShrinksRealAppBlocks) {
  ProgramBuilder b("t");
  const GuestAddr buf = b.Bss("buf", 256);
  b.MovI(R(9), static_cast<std::int64_t>(buf));
  for (int i = 0; i < 8; ++i) {
    b.Ld(R(1), R(9), i * 8);
    b.AddI(R(1), R(1), 3);
    b.St(R(9), i * 8, R(1));
  }
  b.Exit(0);
  const guest::Program p = b.Finalize();
  TranslationBlock tb = TranslateAt(p);
  const std::size_t before = tb.ops.size();
  Optimize(&tb);
  // Expect a substantial reduction on this mov-heavy block.
  EXPECT_LT(tb.ops.size(), before - 8);
}

TEST(Optimizer, VmTracksCumulativeStats) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 10);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  const guest::Program p = b.Finalize();
  vm::Vm vm;
  vm.StartProcess(p);
  vm.RunToCompletion();
  EXPECT_GT(vm.optimizer_stats().movs_forwarded, 0u);
}

TEST(Optimizer, DisabledVmRunsIdentically) {
  ProgramBuilder b("t");
  const GuestAddr buf = b.Bss("buf", 64);
  b.MovI(R(9), static_cast<std::int64_t>(buf));
  b.MovI(R(1), 7);
  b.MulI(R(2), R(1), 6);
  b.St(R(9), 0, R(2));
  b.Fld(F(0), R(9), 0);
  b.Exit(0);
  const guest::Program p = b.Finalize();

  vm::Vm on;
  on.StartProcess(p);
  on.RunToCompletion();

  vm::Vm::Config config;
  config.optimize_tbs = false;
  vm::Vm off(config);
  off.StartProcess(p);
  off.RunToCompletion();

  EXPECT_TRUE(digest::SameState(off, on));
  EXPECT_EQ(off.optimizer_stats().movs_forwarded, 0u);
}

// Equivalence sweep: random-ish programs produce identical results with the
// optimizer on and off, including taint state under injection.
class OptimizerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalence, OnOffIdentical) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  ProgramBuilder b("t");
  const GuestAddr buf = b.Bss("buf", 32 * 8);
  b.MovI(R(10), static_cast<std::int64_t>(buf));
  b.MovI(R(1), static_cast<std::int64_t>(rng.UniformU64(1, 1u << 16)));
  b.MovI(R(2), static_cast<std::int64_t>(rng.UniformU64(1, 1u << 16)));
  for (int i = 0; i < 60; ++i) {
    switch (rng.UniformU64(0, 5)) {
      case 0: b.Add(R(1), R(1), R(2)); break;
      case 1: b.Mul(R(2), R(2), R(1)); break;
      case 2: b.XorI(R(1), R(1), static_cast<std::int64_t>(rng.UniformU64(0, 255))); break;
      case 3: {
        b.AndI(R(3), R(1), 31);
        b.ShlI(R(3), R(3), 3);
        b.Add(R(3), R(10), R(3));
        b.St(R(3), 0, R(2));
        break;
      }
      case 4: {
        b.AndI(R(3), R(2), 31);
        b.ShlI(R(3), R(3), 3);
        b.Add(R(3), R(10), R(3));
        b.Ld(R(1), R(3), 0);
        break;
      }
      case 5:
        b.CvtIF(F(0), R(1));
        b.FmovI(F(1), 1.25);
        b.Fmul(F(0), F(0), F(1));
        b.CvtFI(R(4), F(0));
        break;
    }
  }
  b.Exit(0);
  const guest::Program p = b.Finalize();

  auto run = [&p](bool optimize) {
    vm::Vm::Config config;
    config.optimize_tbs = optimize;
    auto vm = std::make_unique<vm::Vm>(config);
    vm->taint().set_enabled(true);
    vm->StartProcess(p);
    // Taint r2 from the start so taint flows through optimized blocks.
    vm->taint().TaintSourceRegister(EnvInt(2), 0xff);
    vm->RunToCompletion();
    return vm;
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_TRUE(digest::SameState(*off, *on));
  for (ValId v = 0; v < kNumEnvSlots; ++v) {
    EXPECT_EQ(on->taint().GetValTaint(v), off->taint().GetValTaint(v)) << "slot " << v;
  }
  EXPECT_EQ(on->taint().stats().tainted_reads, off->taint().stats().tainted_reads);
  EXPECT_EQ(on->taint().stats().tainted_writes, off->taint().stats().tainted_writes);
  EXPECT_EQ(on->taint().CountTaintedBytes(), off->taint().CountTaintedBytes());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OptimizerEquivalence, ::testing::Range(0, 25));

}  // namespace
}  // namespace chaser::tcg
