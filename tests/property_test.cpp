// Property-based tests (parameterized sweeps over random seeds):
//
//  1. ISA semantics: random guest programs produce identical final state
//     under the TB-cached TCG execution engine and under an independent
//     reference interpreter written directly against the ISA definition.
//  2. Flush equivalence: flushing the translation cache at every quantum
//     never changes semantics (the mechanism Chaser's JIT injection uses).
//  3. Taint soundness: flip one input bit and mark it tainted — every bit
//     of final state that differs from the clean run must carry taint
//     (the engine over-approximates, never under-approximates).
//  4. Execution determinism: the same program twice gives identical state.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>

#include "common/rng.h"
#include "core/corrupt.h"
#include "guest/builder.h"
#include "guest_state_digest.h"
#include "tcg/ir.h"
#include "vm/vm.h"

namespace chaser {
namespace {

using guest::Cond;
using guest::F;
using guest::Instruction;
using guest::MemSize;
using guest::Opcode;
using guest::Program;
using guest::ProgramBuilder;
using guest::R;

constexpr std::uint64_t kScratchWords = 32;

struct GeneratedProgram {
  Program program;
  GuestAddr scratch = 0;
  GuestAddr input = 0;
};

std::deque<GeneratedProgram>& Pool() {
  static std::deque<GeneratedProgram> pool;
  return pool;
}

/// Generates a random, always-terminating guest program.
///
///  * Integer/FP arithmetic over data registers r1, r4, r5, r6 / f0..f5.
///  * In-bounds loads/stores to a 32-word scratch buffer; address indices are
///    derived ONLY from r2/r3, which are never written after setup, so
///    addresses stay clean — required for the exact taint-soundness check.
///  * Compares and forward-only branches (no loops -> guaranteed exit).
///  * Unsigned division with the divisor OR-ed with 1 (no traps).
///
/// r10 = scratch base, r11 = address temp, r9 = setup temp.
GeneratedProgram& RandomProgram(std::uint64_t seed, bool with_fp,
                                bool with_branches) {
  Rng rng(seed * 3 + (with_fp ? 1 : 0) + (with_branches ? 7 : 0));
  ProgramBuilder b("rand");
  GeneratedProgram gen;
  gen.scratch = b.Bss("scratch", kScratchWords * 8);
  const std::vector<std::uint64_t> init{0x0123456789abcdefull};
  gen.input = b.DataU64("input", init);

  const std::vector<std::uint8_t> data_regs{1, 4, 5, 6};
  const std::vector<std::uint8_t> index_regs{2, 3};
  const std::vector<std::uint8_t> all_src{1, 2, 3, 4, 5, 6};
  const std::vector<std::uint8_t> fp_regs{0, 1, 2, 3, 4, 5};

  // ---- Setup ----------------------------------------------------------------
  b.MovI(R(10), static_cast<std::int64_t>(gen.scratch));
  b.MovI(R(9), static_cast<std::int64_t>(gen.input));
  b.Ld(R(1), R(9), 0);  // r1 carries the (possibly corrupted) input
  for (const std::uint8_t r : {2, 3, 4, 5, 6}) {
    b.MovI(R(r), static_cast<std::int64_t>(rng.UniformU64(0, 1u << 20)));
  }
  if (with_fp) {
    b.CvtIF(F(0), R(1));  // link the input into the FP domain
    for (const std::uint8_t f : {1, 2, 3, 4, 5}) {
      b.FmovI(F(f), rng.UniformDouble(1.0, 2.0));
    }
  }

  // Emit address computation into r11 from a clean index register.
  const auto emit_addr = [&] {
    const std::uint8_t idx = rng.Pick(index_regs);
    b.AndI(R(11), R(idx), static_cast<std::int64_t>(kScratchWords - 1));
    b.ShlI(R(11), R(11), 3);
    b.Add(R(11), R(10), R(11));
    // Mutate the index register (stays clean: constant arithmetic only).
    b.AddI(R(idx), R(idx), static_cast<std::int64_t>(rng.UniformU64(1, 7)));
  };

  // ---- Body ------------------------------------------------------------------
  struct Pending {
    ProgramBuilder::Label label;
    int remaining;
  };
  std::vector<Pending> pending;
  const int body = 80;
  for (int i = 0; i < body; ++i) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (--it->remaining <= 0) {
        b.Bind(it->label);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    const std::uint8_t rd = rng.Pick(data_regs);
    const std::uint8_t rs1 = rng.Pick(all_src);
    const std::uint8_t rs2 = rng.Pick(all_src);
    switch (rng.UniformU64(0, with_fp ? 13 : 9)) {
      case 0:
        b.Add(R(rd), R(rs1), R(rs2));
        break;
      case 1:
        b.Sub(R(rd), R(rs1), R(rs2));
        break;
      case 2:
        b.Mul(R(rd), R(rs1), R(rs2));
        break;
      case 3:
        b.Xor(R(rd), R(rs1), R(rs2));
        break;
      case 4: {
        const auto sh = static_cast<std::int64_t>(rng.UniformU64(0, 63));
        if (rng.Bernoulli(0.5)) {
          b.ShlI(R(rd), R(rs1), sh);
        } else {
          b.SarI(R(rd), R(rs1), sh);
        }
        break;
      }
      case 5:
        // Guarded unsigned division: divisor | 1 is never zero.
        b.OrI(R(11), R(rs2), 1);
        b.DivU(R(rd), R(rs1), R(11));
        break;
      case 6:
        emit_addr();
        b.Ld(R(rd), R(11), 0,
             rng.Bernoulli(0.3) ? MemSize::k4 : MemSize::k8);
        break;
      case 7:
        emit_addr();
        b.St(R(11), 0, R(rs1));
        break;
      case 8:
        b.Mov(R(rd), R(rs1));
        break;
      case 9: {
        b.Cmp(R(rs1), R(rs2));
        if (with_branches && i + 2 < body) {
          auto label = b.NewLabel();
          const auto dist =
              static_cast<int>(rng.UniformU64(1, std::min(body - i - 1, 10)));
          b.Br(static_cast<Cond>(rng.UniformU64(0, 7)), label);
          pending.push_back({label, dist});
        }
        break;
      }
      case 10: {
        const std::uint8_t fd = rng.Pick(fp_regs);
        const std::uint8_t fa = rng.Pick(fp_regs);
        const std::uint8_t fb = rng.Pick(fp_regs);
        switch (rng.UniformU64(0, 3)) {
          case 0: b.Fadd(F(fd), F(fa), F(fb)); break;
          case 1: b.Fsub(F(fd), F(fa), F(fb)); break;
          case 2: b.Fmul(F(fd), F(fa), F(fb)); break;
          case 3: b.Fmin(F(fd), F(fa), F(fb)); break;
        }
        break;
      }
      case 11:
        emit_addr();
        b.Fld(F(rng.Pick(fp_regs)), R(11), 0);
        break;
      case 12:
        emit_addr();
        b.Fst(R(11), 0, F(rng.Pick(fp_regs)));
        break;
      case 13:
        b.Fabs(F(rng.Pick(fp_regs)), F(rng.Pick(fp_regs)));
        break;
    }
  }
  for (const Pending& p : pending) b.Bind(p.label);
  b.Exit(0);
  gen.program = b.Finalize();
  Pool().push_back(std::move(gen));
  return Pool().back();
}

// ---- Reference interpreter -----------------------------------------------------
// Independent re-implementation of the ISA (no TCG, no TBs): a direct
// fetch-decode-execute loop against the Instruction records.

struct RefMachine {
  std::uint64_t r[16] = {};
  std::uint64_t f[16] = {};  // bit patterns
  std::uint64_t flags = 0;
  std::map<GuestAddr, std::uint8_t> mem;
  bool exited = false;

  std::uint64_t LoadBytes(GuestAddr a, unsigned size) const {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i) {
      const auto it = mem.find(a + i);
      const std::uint8_t byte = it == mem.end() ? 0 : it->second;
      v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return v;
  }
  void StoreBytes(GuestAddr a, unsigned size, std::uint64_t v) {
    for (unsigned i = 0; i < size; ++i) {
      mem[a + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  double F(unsigned i) const { return std::bit_cast<double>(f[i]); }
  void SetF(unsigned i, double v) { f[i] = std::bit_cast<std::uint64_t>(v); }
};

void RefRun(const Program& p, RefMachine& m, std::uint64_t max_steps = 1u << 20) {
  // Load the image: data segment bytes; bss/stack read as zero by default.
  for (std::size_t i = 0; i < p.data.size(); ++i) {
    m.mem[guest::kDataBase + i] = p.data[i];
  }
  m.r[guest::kSpReg] = guest::kStackTop - 64;
  std::uint64_t pc = p.entry;
  for (std::uint64_t step = 0; step < max_steps && !m.exited; ++step) {
    ASSERT_LT(pc, p.text.size()) << "reference: pc out of range";
    const Instruction& in = p.text[pc];
    std::uint64_t next = pc + 1;
    const auto rhs = [&]() -> std::uint64_t {
      return in.use_imm ? static_cast<std::uint64_t>(in.imm) : m.r[in.rs2];
    };
    switch (in.op) {
      case Opcode::kNop: break;
      case Opcode::kMovRR: m.r[in.rd] = m.r[in.rs1]; break;
      case Opcode::kMovRI: m.r[in.rd] = static_cast<std::uint64_t>(in.imm); break;
      case Opcode::kLd:
      case Opcode::kLdS: {
        const auto size = static_cast<unsigned>(in.size);
        std::uint64_t v = m.LoadBytes(m.r[in.rs1] + in.imm, size);
        if (in.op == Opcode::kLdS) {
          const unsigned sh = 64 - 8 * size;
          v = static_cast<std::uint64_t>(
              static_cast<std::int64_t>(v << sh) >> sh);
        }
        m.r[in.rd] = v;
        break;
      }
      case Opcode::kSt:
        m.StoreBytes(m.r[in.rs1] + in.imm, static_cast<unsigned>(in.size),
                     m.r[in.rs2]);
        break;
      case Opcode::kPush:
        m.r[guest::kSpReg] -= 8;
        m.StoreBytes(m.r[guest::kSpReg], 8, m.r[in.rs1]);
        break;
      case Opcode::kPop:
        m.r[in.rd] = m.LoadBytes(m.r[guest::kSpReg], 8);
        m.r[guest::kSpReg] += 8;
        break;
      case Opcode::kAdd: m.r[in.rd] = m.r[in.rs1] + rhs(); break;
      case Opcode::kSub: m.r[in.rd] = m.r[in.rs1] - rhs(); break;
      case Opcode::kMul: m.r[in.rd] = m.r[in.rs1] * rhs(); break;
      case Opcode::kDivU: m.r[in.rd] = m.r[in.rs1] / rhs(); break;
      case Opcode::kRemU: m.r[in.rd] = m.r[in.rs1] % rhs(); break;
      case Opcode::kDivS:
        m.r[in.rd] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(m.r[in.rs1]) /
            static_cast<std::int64_t>(rhs()));
        break;
      case Opcode::kRemS:
        m.r[in.rd] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(m.r[in.rs1]) %
            static_cast<std::int64_t>(rhs()));
        break;
      case Opcode::kAnd: m.r[in.rd] = m.r[in.rs1] & rhs(); break;
      case Opcode::kOr: m.r[in.rd] = m.r[in.rs1] | rhs(); break;
      case Opcode::kXor: m.r[in.rd] = m.r[in.rs1] ^ rhs(); break;
      case Opcode::kShl: m.r[in.rd] = m.r[in.rs1] << (rhs() & 63); break;
      case Opcode::kShr: m.r[in.rd] = m.r[in.rs1] >> (rhs() & 63); break;
      case Opcode::kSar:
        m.r[in.rd] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(m.r[in.rs1]) >> (rhs() & 63));
        break;
      case Opcode::kNot: m.r[in.rd] = ~m.r[in.rs1]; break;
      case Opcode::kNeg: m.r[in.rd] = 0 - m.r[in.rs1]; break;
      case Opcode::kCmp: m.flags = tcg::ComputeFlags(m.r[in.rs1], rhs()); break;
      case Opcode::kJmp: next = static_cast<std::uint64_t>(in.imm); break;
      case Opcode::kBr:
        if (tcg::CondHolds(in.cond, m.flags)) next = static_cast<std::uint64_t>(in.imm);
        break;
      case Opcode::kCall:
      case Opcode::kCallR:
        m.r[guest::kSpReg] -= 8;
        m.StoreBytes(m.r[guest::kSpReg], 8, next);
        next = in.op == Opcode::kCall ? static_cast<std::uint64_t>(in.imm)
                                      : m.r[in.rs1];
        break;
      case Opcode::kRet:
        next = m.LoadBytes(m.r[guest::kSpReg], 8);
        m.r[guest::kSpReg] += 8;
        break;
      case Opcode::kFmovRR: m.f[in.rd] = m.f[in.rs1]; break;
      case Opcode::kFmovI: m.SetF(in.rd, in.fimm); break;
      case Opcode::kFld: m.f[in.rd] = m.LoadBytes(m.r[in.rs1] + in.imm, 8); break;
      case Opcode::kFst: m.StoreBytes(m.r[in.rs1] + in.imm, 8, m.f[in.rs2]); break;
      case Opcode::kFadd: m.SetF(in.rd, m.F(in.rs1) + m.F(in.rs2)); break;
      case Opcode::kFsub: m.SetF(in.rd, m.F(in.rs1) - m.F(in.rs2)); break;
      case Opcode::kFmul: m.SetF(in.rd, m.F(in.rs1) * m.F(in.rs2)); break;
      case Opcode::kFdiv: m.SetF(in.rd, m.F(in.rs1) / m.F(in.rs2)); break;
      case Opcode::kFneg: m.SetF(in.rd, -m.F(in.rs1)); break;
      case Opcode::kFabs: m.SetF(in.rd, std::fabs(m.F(in.rs1))); break;
      case Opcode::kFsqrt: m.SetF(in.rd, std::sqrt(m.F(in.rs1))); break;
      case Opcode::kFmin: m.SetF(in.rd, std::fmin(m.F(in.rs1), m.F(in.rs2))); break;
      case Opcode::kFmax: m.SetF(in.rd, std::fmax(m.F(in.rs1), m.F(in.rs2))); break;
      case Opcode::kFcmp: m.flags = tcg::ComputeFlagsF(m.F(in.rs1), m.F(in.rs2)); break;
      case Opcode::kCvtIF:
        m.SetF(in.rd, static_cast<double>(static_cast<std::int64_t>(m.r[in.rs1])));
        break;
      case Opcode::kCvtFI:
        m.r[in.rd] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(m.F(in.rs1)));
        break;
      case Opcode::kFbits: m.r[in.rd] = m.f[in.rs1]; break;
      case Opcode::kBitsF: m.f[in.rd] = m.r[in.rs1]; break;
      case Opcode::kSyscall:
        // The generator only emits Exit (r7 == kExit).
        ASSERT_EQ(m.r[7], static_cast<std::uint64_t>(guest::Sys::kExit));
        m.exited = true;
        break;
      case Opcode::kHalt:
        FAIL() << "reference: unexpected halt";
        break;
    }
    pc = next;
  }
  ASSERT_TRUE(m.exited) << "reference interpreter did not terminate";
}

// ---- Property 1+2: engine vs reference, flush equivalence --------------------------

class SemanticsProperty : public ::testing::TestWithParam<int> {};

TEST_P(SemanticsProperty, EngineMatchesReferenceInterpreter) {
  GeneratedProgram& gen =
      RandomProgram(static_cast<std::uint64_t>(GetParam()), true, true);

  vm::Vm vm;
  vm.StartProcess(gen.program);
  vm.RunToCompletion();
  ASSERT_EQ(vm.termination(), vm::TerminationKind::kExited);

  RefMachine ref;
  RefRun(gen.program, ref);
  if (::testing::Test::HasFatalFailure()) return;

  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(vm.cpu().IntReg(i), ref.r[i]) << "r" << i;
    EXPECT_EQ(vm.cpu().env[tcg::EnvFp(i)], ref.f[i]) << "f" << i;
  }
  std::vector<std::uint8_t> engine_mem(kScratchWords * 8);
  ASSERT_TRUE(vm.memory().ReadBytes(gen.scratch, engine_mem.data(), engine_mem.size()));
  for (std::uint64_t i = 0; i < engine_mem.size(); ++i) {
    const auto it = ref.mem.find(gen.scratch + i);
    const std::uint8_t expected = it == ref.mem.end() ? 0 : it->second;
    EXPECT_EQ(engine_mem[i], expected) << "scratch byte " << i;
  }
}

TEST_P(SemanticsProperty, FlushEveryQuantumIsEquivalent) {
  GeneratedProgram& gen =
      RandomProgram(static_cast<std::uint64_t>(GetParam()), true, true);

  vm::Vm plain;
  plain.StartProcess(gen.program);
  plain.RunToCompletion();

  vm::Vm flushy;
  flushy.StartProcess(gen.program);
  while (flushy.run_state() == vm::RunState::kRunnable) {
    flushy.Run(13);
    flushy.FlushTbCache();
  }
  EXPECT_TRUE(digest::SameState(flushy, plain));
}

TEST_P(SemanticsProperty, ExecutionIsDeterministic) {
  GeneratedProgram& gen =
      RandomProgram(static_cast<std::uint64_t>(GetParam()), true, true);
  vm::Vm a, b;
  a.StartProcess(gen.program);
  a.RunToCompletion();
  b.StartProcess(gen.program);
  b.RunToCompletion();
  EXPECT_TRUE(digest::SameState(b, a));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SemanticsProperty, ::testing::Range(0, 40));

// ---- Property 3: taint soundness ------------------------------------------------------

class TaintSoundnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(TaintSoundnessProperty, DifferingBitsAreAlwaysTainted) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  // Straight-line only: control-flow taint is not tracked (by design, as in
  // DECAF), so branch-divergent programs may differ in untainted state.
  GeneratedProgram& gen = RandomProgram(seed, true, false);
  Rng rng(seed ^ 0xabcdef);
  const unsigned flip_bit = static_cast<unsigned>(rng.UniformU64(0, 63));

  // Clean run.
  vm::Vm clean;
  clean.StartProcess(gen.program);
  clean.RunToCompletion();
  ASSERT_EQ(clean.termination(), vm::TerminationKind::kExited);

  // Faulty run: corrupt one bit of the input cell and mark it tainted.
  vm::Vm faulty;
  faulty.taint().set_enabled(true);
  faulty.StartProcess(gen.program);
  core::CorruptMemory(faulty, gen.input, 8, 1ull << flip_bit);
  faulty.RunToCompletion();
  ASSERT_EQ(faulty.termination(), vm::TerminationKind::kExited);

  // Every differing register bit must be tainted.
  for (unsigned i = 0; i < 16; ++i) {
    {
      const std::uint64_t diff = clean.cpu().IntReg(i) ^ faulty.cpu().IntReg(i);
      const std::uint64_t taint = faulty.taint().GetValTaint(tcg::EnvInt(i));
      EXPECT_EQ(diff & ~taint, 0u)
          << "under-tainted r" << i << " diff=" << std::hex << diff
          << " taint=" << taint;
    }
    {
      const std::uint64_t diff =
          clean.cpu().env[tcg::EnvFp(i)] ^ faulty.cpu().env[tcg::EnvFp(i)];
      const std::uint64_t taint = faulty.taint().GetValTaint(tcg::EnvFp(i));
      EXPECT_EQ(diff & ~taint, 0u)
          << "under-tainted f" << i << " diff=" << std::hex << diff
          << " taint=" << taint;
    }
  }
  // Every differing scratch-memory bit must be tainted.
  for (std::uint64_t off = 0; off < kScratchWords * 8; ++off) {
    PhysAddr pa_clean = 0, pa_faulty = 0;
    const auto vc = clean.memory().Load(gen.scratch + off, 1, &pa_clean);
    const auto vf = faulty.memory().Load(gen.scratch + off, 1, &pa_faulty);
    ASSERT_TRUE(vc && vf);
    const auto diff = static_cast<std::uint8_t>(*vc ^ *vf);
    const std::uint8_t taint = faulty.taint().GetMemTaintByte(pa_faulty);
    EXPECT_EQ(diff & ~taint, 0) << "under-tainted scratch byte " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TaintSoundnessProperty, ::testing::Range(0, 40));

// ---- Property 4: elastic taint is exact ---------------------------------------------

class ElasticTaintProperty : public ::testing::TestWithParam<int> {};

TEST_P(ElasticTaintProperty, CheckModeMatchesAlwaysTrack) {
  // Elastic taint skips the taint path while nothing is tainted, and runs a
  // TB in check mode (only loads and stores reach the engine) while taint
  // lives only in memory. Force track mode everywhere in a second run by
  // tainting a register the generated program never touches (r8): all
  // *other* taint state, all values, the taint counters and the ordered
  // tainted-access streams must be identical. The faults hit a scratch word
  // the program loads and overwrites — in check mode a tainted load must
  // switch the TB to track mode and a clean store must clear the shadow —
  // and, later, a data register the program reads.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  GeneratedProgram& gen = RandomProgram(seed, true, false);
  Rng rng(seed ^ 0x517e);
  const std::uint64_t mem_after = rng.UniformU64(0, 40);
  const GuestAddr mem_word = gen.scratch + 8 * rng.UniformU64(0, kScratchWords - 1);
  const std::uint64_t mem_flip = 1ull << rng.UniformU64(0, 63);
  const std::uint64_t reg_after = rng.UniformU64(0, 80);
  const unsigned reg = rng.Pick(std::vector<unsigned>{1, 4, 5, 6});
  const std::uint64_t reg_flip = 1ull << rng.UniformU64(0, 63);

  struct Access {
    std::uint64_t pc, paddr, size, taint;
    bool operator==(const Access&) const = default;
  };
  std::vector<Access> reads[2], writes[2];
  auto run = [&](bool force_track) {
    auto vm = std::make_unique<vm::Vm>();
    vm->taint().set_enabled(true);
    auto log = [](std::vector<Access>* out) {
      return [out](const taint::TaintMemAccess& a) {
        out->push_back({a.pc, a.paddr, a.size, a.taint});
      };
    };
    vm->taint().set_on_tainted_read(log(&reads[force_track]));
    vm->taint().set_on_tainted_write(log(&writes[force_track]));
    vm->StartProcess(gen.program);
    if (force_track) {
      // r8 is never read or written by generated code; tainting it keeps
      // AnyValTainted() true from the first instruction.
      vm->taint().TaintSourceRegister(tcg::EnvInt(8), ~std::uint64_t{0});
    }
    // Let some instructions run on the (possibly) inactive path first.
    vm->Run(mem_after);
    if (vm->run_state() == vm::RunState::kRunnable) {
      core::CorruptMemory(*vm, mem_word, 8, mem_flip);
    }
    vm->Run(reg_after);
    if (vm->run_state() == vm::RunState::kRunnable) {
      core::CorruptIntRegister(*vm, reg, reg_flip);
    }
    vm->RunToCompletion();
    return vm;
  };

  const auto elastic = run(false);
  const auto forced = run(true);
  ASSERT_EQ(elastic->termination(), vm::TerminationKind::kExited);
  ASSERT_EQ(forced->termination(), vm::TerminationKind::kExited);

  EXPECT_TRUE(digest::SameState(*elastic, *forced));
  for (unsigned i = 0; i < tcg::kNumEnvSlots; ++i) {
    if (i == tcg::EnvInt(8)) continue;  // the forced-track marker itself
    EXPECT_EQ(elastic->taint().GetValTaint(i), forced->taint().GetValTaint(i))
        << "taint of env slot " << i;
  }
  for (std::uint64_t off = 0; off < kScratchWords * 8; ++off) {
    const auto pa = elastic->memory().Translate(gen.scratch + off);
    const auto pb = forced->memory().Translate(gen.scratch + off);
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(elastic->taint().GetMemTaintByte(*pa),
              forced->taint().GetMemTaintByte(*pb))
        << "memory taint at scratch+" << off;
  }
  const taint::TaintStats& es = elastic->taint().stats();
  const taint::TaintStats& fs = forced->taint().stats();
  EXPECT_EQ(es.tainted_reads, fs.tainted_reads);
  EXPECT_EQ(es.tainted_writes, fs.tainted_writes);
  EXPECT_EQ(es.taint_cleared_bytes, fs.taint_cleared_bytes);
  EXPECT_EQ(es.peak_tainted_bytes, fs.peak_tainted_bytes);
  EXPECT_TRUE(reads[0] == reads[1]) << "tainted-read streams differ";
  EXPECT_TRUE(writes[0] == writes[1]) << "tainted-write streams differ";
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ElasticTaintProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace chaser
