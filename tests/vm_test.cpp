// Unit tests for src/vm: soft-MMU memory, instruction semantics, guest OS
// services, signals, the TB cache, and VMI events.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <deque>

#include "common/error.h"
#include "guest/builder.h"
#include "vm/memory.h"
#include "vm/vm.h"

namespace chaser::vm {
namespace {

using guest::Cond;
using guest::F;
using guest::MemSize;
using guest::ProgramBuilder;
using guest::R;
using guest::Sys;

// ---- GuestMemory --------------------------------------------------------------

TEST(Memory, UnmappedAccessFails) {
  GuestMemory m;
  PhysAddr pa;
  EXPECT_FALSE(m.IsMapped(0x1000));
  EXPECT_EQ(m.Translate(0x1000), std::nullopt);
  EXPECT_FALSE(m.Load(0x1000, 8, &pa).has_value());
  EXPECT_FALSE(m.Store(0x1000, 8, 1, &pa));
}

TEST(Memory, MapThenRoundTrip) {
  GuestMemory m;
  m.MapRegion(0x1000, 0x2000);
  PhysAddr pa = 0;
  ASSERT_TRUE(m.Store(0x1234, 8, 0xdeadbeefcafef00dull, &pa));
  const auto v = m.Load(0x1234, 8, &pa);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xdeadbeefcafef00dull);
}

TEST(Memory, ZeroInitialized) {
  GuestMemory m;
  m.MapRegion(0x4000, 64);
  PhysAddr pa;
  EXPECT_EQ(*m.Load(0x4000, 8, &pa), 0u);
}

TEST(Memory, SubWordSizes) {
  GuestMemory m;
  m.MapRegion(0, 4096);
  PhysAddr pa;
  m.Store(0x10, 8, 0x1122334455667788ull, &pa);
  EXPECT_EQ(*m.Load(0x10, 1, &pa), 0x88u);
  EXPECT_EQ(*m.Load(0x10, 2, &pa), 0x7788u);
  EXPECT_EQ(*m.Load(0x10, 4, &pa), 0x55667788u);
  m.Store(0x10, 1, 0xff, &pa);
  EXPECT_EQ(*m.Load(0x10, 8, &pa), 0x11223344556677ffull);
}

TEST(Memory, CrossPageAccess) {
  GuestMemory m;
  m.MapRegion(0, 2 * kPageSize);
  PhysAddr pa;
  const GuestAddr addr = kPageSize - 4;  // straddles the page boundary
  ASSERT_TRUE(m.Store(addr, 8, 0x0102030405060708ull, &pa));
  EXPECT_EQ(*m.Load(addr, 8, &pa), 0x0102030405060708ull);
}

TEST(Memory, CrossPageIntoUnmappedFails) {
  GuestMemory m;
  m.MapRegion(0, kPageSize);  // only the first page
  PhysAddr pa;
  EXPECT_FALSE(m.Load(kPageSize - 4, 8, &pa).has_value());
  EXPECT_FALSE(m.Store(kPageSize - 4, 8, 1, &pa));
  // And the mapped prefix is untouched (no partial store).
  EXPECT_EQ(*m.Load(kPageSize - 8, 8, &pa) & 0xffffffffu, 0u);
}

TEST(Memory, BulkReadWrite) {
  GuestMemory m;
  m.MapRegion(0x7000, 3 * kPageSize);
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(m.WriteBytes(0x7100, data.data(), data.size()));
  std::vector<std::uint8_t> back(5000);
  ASSERT_TRUE(m.ReadBytes(0x7100, back.data(), back.size()));
  EXPECT_EQ(data, back);
}

TEST(Memory, BulkWriteFailsAtomically) {
  GuestMemory m;
  m.MapRegion(0, kPageSize);
  std::vector<std::uint8_t> data(2 * kPageSize, 0xab);
  EXPECT_FALSE(m.WriteBytes(0, data.data(), data.size()));
  PhysAddr pa;
  EXPECT_EQ(*m.Load(0, 8, &pa), 0u);  // nothing written
}

TEST(Memory, DistinctPagesDistinctFrames) {
  GuestMemory m;
  m.MapRegion(0x10000, kPageSize);
  m.MapRegion(0x90000, kPageSize);
  const PhysAddr p1 = *m.Translate(0x10000);
  const PhysAddr p2 = *m.Translate(0x90000);
  EXPECT_NE(p1 >> kPageBits, p2 >> kPageBits);
}

// ---- Instruction semantics -------------------------------------------------------

/// Runs `emit` inside a fresh program and returns the terminated VM.
template <typename EmitFn>
Vm RunProgram(EmitFn emit) {
  ProgramBuilder b("t");
  emit(b);
  b.Exit(0);
  static std::deque<guest::Program> programs;  // stable addresses, kept alive
  programs.push_back(b.Finalize());
  Vm vm;
  vm.StartProcess(programs.back());
  vm.Run(1u << 22);
  return vm;
}

TEST(Exec, IntegerAluBasics) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 7);
    b.MovI(R(2), 3);
    b.Add(R(3), R(1), R(2));
    b.Sub(R(4), R(1), R(2));
    b.Mul(R(5), R(1), R(2));
    b.DivS(R(6), R(1), R(2));
    b.RemS(R(8), R(1), R(2));
    b.And(R(9), R(1), R(2));
    b.Or(R(10), R(1), R(2));
    b.Xor(R(11), R(1), R(2));
  });
  EXPECT_EQ(vm.cpu().IntReg(3), 10u);
  EXPECT_EQ(vm.cpu().IntReg(4), 4u);
  EXPECT_EQ(vm.cpu().IntReg(5), 21u);
  EXPECT_EQ(vm.cpu().IntReg(6), 2u);
  EXPECT_EQ(vm.cpu().IntReg(8), 1u);
  EXPECT_EQ(vm.cpu().IntReg(9), 3u);
  EXPECT_EQ(vm.cpu().IntReg(10), 7u);
  EXPECT_EQ(vm.cpu().IntReg(11), 4u);
}

TEST(Exec, SignedUnsignedDivision) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), -7);
    b.MovI(R(2), 2);
    b.DivS(R(3), R(1), R(2));   // -3 (C++ truncation)
    b.RemS(R(4), R(1), R(2));   // -1
    b.DivU(R(5), R(1), R(2));   // huge
  });
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(3)), -3);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(4)), -1);
  EXPECT_EQ(vm.cpu().IntReg(5), (~std::uint64_t{0} - 6) / 2);
}

TEST(Exec, Shifts) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), -8);
    b.ShlI(R(2), R(1), 2);
    b.ShrI(R(3), R(1), 2);
    b.SarI(R(4), R(1), 2);
    b.MovI(R(5), 1);
    b.MovI(R(6), 65);          // shift amounts wrap mod 64
    b.Shl(R(8), R(5), R(6));   // (r7 is the syscall-number register)
  });
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(2)), -32);
  EXPECT_EQ(vm.cpu().IntReg(3), static_cast<std::uint64_t>(-8) >> 2);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(4)), -2);
  EXPECT_EQ(vm.cpu().IntReg(8), 2u);
}

TEST(Exec, NotNeg) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 5);
    b.Not(R(2), R(1));
    b.Neg(R(3), R(1));
  });
  EXPECT_EQ(vm.cpu().IntReg(2), ~5ull);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(3)), -5);
}

TEST(Exec, LoadStoreSignExtension) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 16);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 0xff80);
    b.St(R(1), 0, R(2), MemSize::k2);
    b.Ld(R(3), R(1), 0, MemSize::k2);    // zero-extend
    b.LdS(R(4), R(1), 0, MemSize::k2);   // sign-extend
    b.LdS(R(5), R(1), 1, MemSize::k1);   // 0xff -> -1
  });
  EXPECT_EQ(vm.cpu().IntReg(3), 0xff80u);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(4)), -128);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(5)), -1);
}

TEST(Exec, PushPopStackDiscipline) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 111);
    b.MovI(R(2), 222);
    b.Push(R(1));
    b.Push(R(2));
    b.Pop(R(3));
    b.Pop(R(4));
  });
  EXPECT_EQ(vm.cpu().IntReg(3), 222u);
  EXPECT_EQ(vm.cpu().IntReg(4), 111u);
}

TEST(Exec, CallRetRoundTrip) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    auto fn = b.NewLabel("fn");
    auto after = b.NewLabel("after");
    b.Call(fn);
    b.Jmp(after);
    b.Bind(fn);
    b.MovI(R(8), 99);  // (r1 is clobbered by the Exit convention)
    b.Ret();
    b.Bind(after);
    b.MovI(R(9), 1);
  });
  EXPECT_EQ(vm.cpu().IntReg(8), 99u);
  EXPECT_EQ(vm.cpu().IntReg(9), 1u);
}

TEST(Exec, IndirectCall) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    auto fn = b.NewLabel("fn");
    auto after = b.NewLabel("after");
    b.MovILabel(R(5), fn);
    b.CallR(R(5));
    b.Jmp(after);
    b.Bind(fn);
    b.MovI(R(8), 7);
    b.Ret();
    b.Bind(after);
    b.Nop();
  });
  EXPECT_EQ(vm.cpu().IntReg(8), 7u);
}

TEST(Exec, FpArithmetic) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.FmovI(F(1), 1.5);
    b.FmovI(F(2), 2.0);
    b.Fadd(F(3), F(1), F(2));
    b.Fsub(F(4), F(1), F(2));
    b.Fmul(F(5), F(1), F(2));
    b.Fdiv(F(6), F(1), F(2));
    b.Fneg(F(7), F(1));
    b.Fabs(F(8), F(7));
    b.FmovI(F(9), 9.0);
    b.Fsqrt(F(9), F(9));
    b.Fmin(F(10), F(1), F(2));
    b.Fmax(F(11), F(1), F(2));
  });
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(3), 3.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(4), -0.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(5), 3.0);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(6), 0.75);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(7), -1.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(8), 1.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(9), 3.0);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(10), 1.5);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(11), 2.0);
}

TEST(Exec, FpMemoryAndConversions) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 16);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.FmovI(F(0), 2.75);
    b.Fst(R(1), 0, F(0));
    b.Fld(F(1), R(1), 0);
    b.CvtFI(R(2), F(1));        // trunc(2.75) = 2
    b.MovI(R(3), -3);
    b.CvtIF(F(2), R(3));        // -3.0
    b.Fbits(R(4), F(0));
    b.BitsF(F(3), R(4));
  });
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(1), 2.75);
  EXPECT_EQ(static_cast<std::int64_t>(vm.cpu().IntReg(2)), 2);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(2), -3.0);
  EXPECT_DOUBLE_EQ(vm.cpu().FpReg(3), 2.75);
}

TEST(Exec, BranchConditions) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 5);
    b.CmpI(R(1), 5);
    auto eq_taken = b.NewLabel();
    b.Br(Cond::kEq, eq_taken);
    b.MovI(R(2), 111);  // skipped
    b.Bind(eq_taken);
    b.CmpI(R(1), 9);
    auto lt_taken = b.NewLabel();
    b.Br(Cond::kLt, lt_taken);
    b.MovI(R(3), 111);  // skipped
    b.Bind(lt_taken);
    b.MovI(R(4), 1);
  });
  EXPECT_EQ(vm.cpu().IntReg(2), 0u);
  EXPECT_EQ(vm.cpu().IntReg(3), 0u);
  EXPECT_EQ(vm.cpu().IntReg(4), 1u);
}

// ---- Guest signals ----------------------------------------------------------------

TEST(Signals, DivideByZeroRaisesFpe) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 1);
    b.MovI(R(2), 0);
    b.DivS(R(3), R(1), R(2));
  });
  EXPECT_EQ(vm.termination(), TerminationKind::kSignaled);
  EXPECT_EQ(vm.signal(), GuestSignal::kFpe);
}

TEST(Signals, DivisionOverflowRaisesFpe) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), INT64_MIN);
    b.MovI(R(2), -1);
    b.DivS(R(3), R(1), R(2));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kFpe);
}

TEST(Signals, WildLoadRaisesSegv) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 0x500000000000);
    b.Ld(R(2), R(1), 0);
  });
  EXPECT_EQ(vm.termination(), TerminationKind::kSignaled);
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
  EXPECT_NE(vm.termination_message().find("load fault"), std::string::npos);
}

TEST(Signals, WildJumpRaisesSegv) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 1'000'000);
    b.CallR(R(1));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
}

TEST(Signals, HaltRaisesIll) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.Halt(); });
  EXPECT_EQ(vm.signal(), GuestSignal::kIll);
}

TEST(Signals, UnknownSyscallRaisesSys) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(7), 9999);
    b.Syscall();
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSys);
}

TEST(Signals, AbortSyscall) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.Sys(Sys::kAbort); });
  EXPECT_EQ(vm.signal(), GuestSignal::kAbort);
}

TEST(Signals, AssertFailTerminatesWithKind) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.AssertFail(42); });
  EXPECT_EQ(vm.termination(), TerminationKind::kAssertFailed);
  EXPECT_NE(vm.termination_message().find("42"), std::string::npos);
}

TEST(Signals, WatchdogKillsHungRun) {
  ProgramBuilder b("hang");
  auto loop = b.Here("loop");
  b.Jmp(loop);
  const guest::Program p = b.Finalize();
  Vm::Config config;
  config.max_instructions = 10'000;
  Vm vm(config);
  vm.StartProcess(p);
  vm.RunToCompletion();
  EXPECT_EQ(vm.signal(), GuestSignal::kKill);
}

// ---- OS services ----------------------------------------------------------------

TEST(Os, WriteCapturesOutputPerFd) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr msg = b.DataString("msg", "hello");
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 5);
    b.Write(1, R(4), R(5));
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 4);
    b.Write(3, R(4), R(5));
  });
  EXPECT_EQ(vm.output(1), "hello");
  EXPECT_EQ(vm.output(3), "hell");
  EXPECT_EQ(vm.output(7), "");
}

TEST(Os, WriteBadBufferSegfaults) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(4), 0x123);  // unmapped
    b.MovI(R(5), 8);
    b.Write(1, R(4), R(5));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
}

TEST(Os, WriteInsaneLengthSegfaults) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr msg = b.DataString("m", "x");
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 1ll << 40);
    b.Write(1, R(4), R(5));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
}

TEST(Os, BrkGrowsHeap) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), 4096);
    b.Sys(Sys::kBrk);
    b.Mov(R(8), R(0));   // old break
    b.MovI(R(2), 77);
    b.St(R(8), 0, R(2)); // write into the new heap page
    b.Ld(R(9), R(8), 0);
  });
  EXPECT_EQ(vm.cpu().IntReg(8), guest::kHeapBase);
  EXPECT_EQ(vm.cpu().IntReg(9), 77u);
}

/// Resident set size of this process in bytes, 0 when /proc is unavailable.
std::uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif

TEST(Os, LargeBrkCostsOnlyTheTouchedPages) {
  // A fault-corrupted length can make brk map hundreds of MiB; mapping must
  // not make the whole region resident, or a single such trial pays a
  // host-side zero fill (and later free) of all of it.
  if (kSanitizedAllocator) {
    GTEST_SKIP() << "sanitizer allocators fill or shadow every allocated byte";
  }
  constexpr std::uint64_t kRegion = 64ull << 20;
  const std::uint64_t before = ResidentBytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/statm";
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.MovI(R(1), static_cast<std::int64_t>(kRegion));
    b.Sys(Sys::kBrk);
    b.Mov(R(8), R(0));
    b.MovI(R(2), 77);
    b.St(R(8), 0, R(2));
    b.Ld(R(9), R(8), 0);
  });
  EXPECT_EQ(vm.cpu().IntReg(9), 77u);
  EXPECT_GE(vm.memory().mapped_pages(), kRegion / kPageSize);
  const std::uint64_t after = ResidentBytes();
  EXPECT_LT(after > before ? after - before : 0, kRegion / 8);
}

TEST(Os, InstretSyscallCounts) {
  Vm vm = RunProgram([](ProgramBuilder& b) {
    b.Sys(Sys::kInstret);
    b.Mov(R(8), R(0));
  });
  EXPECT_GT(vm.cpu().IntReg(8), 0u);
  EXPECT_LT(vm.cpu().IntReg(8), 10u);
}

TEST(Os, ExitCodePropagates) {
  Vm vm = RunProgram([](ProgramBuilder& b) { b.Exit(42); });
  EXPECT_EQ(vm.termination(), TerminationKind::kExited);
  // RunProgram appends its own Exit(0), but the first exit wins.
  EXPECT_EQ(vm.exit_code(), 42);
}

// ---- VMI events -------------------------------------------------------------------

TEST(Vmi, ProcessCreateAndExitCallbacks) {
  ProgramBuilder b("target_app");
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  std::string created, exited;
  Pid created_pid = kInvalidPid;
  vm.set_on_process_create([&](Vm&, Pid pid, const std::string& name) {
    created = name;
    created_pid = pid;
  });
  vm.set_on_process_exit([&](Vm&, Pid, const std::string& name) { exited = name; });
  vm.StartProcess(p);
  EXPECT_EQ(created, "target_app");
  EXPECT_NE(created_pid, kInvalidPid);
  vm.RunToCompletion();
  EXPECT_EQ(exited, "target_app");
}

TEST(Vmi, PidAdvancesPerProcess) {
  ProgramBuilder b("a");
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  const Pid p1 = vm.StartProcess(p);
  vm.RunToCompletion();
  const Pid p2 = vm.StartProcess(p);
  EXPECT_NE(p1, p2);
}

// ---- TB cache --------------------------------------------------------------------

TEST(TbCache, TranslationsCachedAcrossLoopIterations) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 100);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  vm.StartProcess(p);
  vm.RunToCompletion();
  // 100 iterations but only a handful of distinct TBs.
  EXPECT_LT(vm.tb_translations(), 10u);
  EXPECT_GT(vm.tb_executions(), 99u);
}

TEST(TbCache, FlushForcesRetranslation) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 1);
  b.CmpI(R(1), 1000);
  b.Br(Cond::kLt, loop);
  b.Exit(0);
  const guest::Program p = b.Finalize();
  Vm vm;
  vm.StartProcess(p);
  vm.Run(50);
  const std::uint64_t before = vm.tb_translations();
  vm.FlushTbCache();
  vm.Run(50);
  EXPECT_GT(vm.tb_translations(), before);
}

TEST(TbCache, SemanticsUnchangedByFlushEveryQuantum) {
  ProgramBuilder b("loop");
  b.MovI(R(1), 0);
  auto loop = b.Here("loop");
  b.AddI(R(1), R(1), 3);
  b.CmpI(R(1), 3000);
  b.Br(Cond::kLt, loop);
  b.Mov(R(8), R(1));
  b.Exit(0);
  const guest::Program p = b.Finalize();

  Vm plain;
  plain.StartProcess(p);
  plain.RunToCompletion();

  Vm flushy;
  flushy.StartProcess(p);
  while (flushy.run_state() == RunState::kRunnable) {
    flushy.Run(17);
    flushy.FlushTbCache();
  }
  EXPECT_EQ(plain.cpu().IntReg(8), flushy.cpu().IntReg(8));
  EXPECT_EQ(plain.instret(), flushy.instret());
}

}  // namespace
}  // namespace chaser::vm
