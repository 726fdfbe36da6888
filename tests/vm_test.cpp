// Unit tests for src/vm: soft-MMU memory, instruction semantics, guest OS
// services, signals, the TB cache, and VMI events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>

#include "apps/app.h"
#include "common/error.h"
#include "guest/builder.h"
#include "guest_state_digest.h"
#include "peak_rss.h"
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

TEST(Memory, RangeMappedChecksEveryPage) {
  GuestMemory m;
  m.MapRegion(0x10000, 2 * kPageSize);
  m.MapRegion(0x13000, kPageSize);  // a one-page hole at 0x12000
  EXPECT_TRUE(m.IsRangeMapped(0x10000, 2 * kPageSize));
  EXPECT_TRUE(m.IsRangeMapped(0x10ff0, kPageSize));
  EXPECT_TRUE(m.IsRangeMapped(0x12000, 0));
  EXPECT_FALSE(m.IsRangeMapped(0x11ff0, 0x20));
  EXPECT_FALSE(m.IsRangeMapped(0x10000, 4 * kPageSize));
  EXPECT_FALSE(m.IsRangeMapped(0x13000, ~0ull));  // wraps the address space
  EXPECT_EQ(m.tlb_hits() + m.tlb_misses(), 0u);  // a page-table walk only
}

TEST(Memory, ReadBufferSizesNothingForAFaultingCopy) {
  GuestMemory m;
  m.MapRegion(0x20000, 3 * kPageSize);
  ASSERT_TRUE(m.WriteBytes(0x21ffe, "ok", 2));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(m.ReadBuffer(0x20010, 8 * kPageSize, &out));
  EXPECT_TRUE(out.empty());

  std::string text;
  ASSERT_TRUE(m.ReadBuffer(0x20010, 3 * kPageSize - 0x10, &text));
  EXPECT_EQ(text.size(), 3 * kPageSize - 0x10);
  EXPECT_EQ(text.substr(0x1fee, 2), "ok");
}

TEST(GuestMemory, ResetMatchesFreshMemory) {
  // Shaped like a process image: data, a bss wider than the TLB (so slots
  // are evicted and refilled), and a stack; plus a brk'd heap.
  struct Region {
    GuestAddr base;
    std::uint64_t bytes;
  };
  const Region image[] = {
      {guest::kDataBase, 3 * kPageSize + 100},
      {guest::kBssBase, 1200 * kPageSize},
      {guest::kStackTop - guest::kDefaultStackBytes, guest::kDefaultStackBytes},
  };
  const Region heap{guest::kHeapBase, 8 * kPageSize};
  const auto map_image = [&image](GuestMemory& m) {
    for (const Region& r : image) m.MapRegion(r.base, r.bytes);
  };

  GuestMemory m;
  map_image(m);
  m.MapRegion(heap.base, heap.bytes);
  std::uint64_t dirtied = 0;
  PhysAddr pa = 0;
  for (const Region& r : {image[0], image[1], image[2], heap}) {
    for (std::uint64_t off = 0; off < r.bytes; off += kPageSize, ++dirtied) {
      ASSERT_TRUE(m.Store(r.base + off, 8, ~0ull, &pa));
    }
  }
  ASSERT_GT(dirtied, 1024u);

  m.Reset();
  EXPECT_EQ(m.mapped_pages(), 0u);
  EXPECT_EQ(m.tlb_hits(), 0u);
  EXPECT_EQ(m.tlb_misses(), 0u);
  map_image(m);
  GuestMemory fresh;
  map_image(fresh);
  EXPECT_EQ(m.mapped_pages(), fresh.mapped_pages());
  EXPECT_FALSE(m.IsRangeMapped(heap.base, kPageSize));
  EXPECT_FALSE(m.IsMapped(heap.base + heap.bytes - 1));

  for (const Region& r : image) {
    for (std::uint64_t off = 0; off < r.bytes; off += kPageSize) {
      EXPECT_EQ(m.Translate(r.base + off), fresh.Translate(r.base + off))
          << "vaddr " << r.base + off;
    }
  }
  EXPECT_EQ(m.tlb_hits(), fresh.tlb_hits());  // no stale slot survived
  EXPECT_EQ(m.tlb_misses(), fresh.tlb_misses());
  for (const Region& r : image) {
    std::vector<std::uint8_t> bytes(r.bytes, 0xab);
    ASSERT_TRUE(m.ReadBytes(r.base, bytes.data(), bytes.size()));
    EXPECT_EQ(std::count(bytes.begin(), bytes.end(), 0),
              static_cast<std::ptrdiff_t>(r.bytes));
  }
  // The pooled frames the image did not take back are clean as well.
  m.MapRegion(heap.base, heap.bytes);
  fresh.MapRegion(heap.base, heap.bytes);
  EXPECT_EQ(m.Translate(heap.base), fresh.Translate(heap.base));
  std::vector<std::uint8_t> bytes(heap.bytes, 0xab);
  ASSERT_TRUE(m.ReadBytes(heap.base, bytes.data(), bytes.size()));
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), 0),
            static_cast<std::ptrdiff_t>(heap.bytes));
}

// MapRegion fills the page table a leaf span at a time; over a partly mapped
// range that crosses a leaf, the fresh pages still take the next frames in
// vpage order and the mapped ones keep theirs.
TEST(GuestMemory, PartlyMappedRegionAcrossALeafKeepsPageOrder) {
  constexpr std::uint64_t kLeafPages = 512;  // pages per page-table leaf
  const GuestAddr edge = guest::kHeapBase + kLeafPages * kPageSize;
  const auto frame_of = [](GuestMemory& m, GuestAddr va) {
    const auto pa = m.Translate(va);
    return pa ? static_cast<std::int64_t>(*pa / kPageSize) : -1;
  };
  GuestMemory m;
  for (int round = 0; round < 2; ++round) {  // and again after a Reset
    m.MapRegion(edge - 3 * kPageSize, 5 * kPageSize);    // pages -3..1
    m.MapRegion(edge - 5 * kPageSize, 11 * kPageSize);   // pages -5..5
    EXPECT_EQ(m.mapped_pages(), 11u);
    const std::int64_t want[] = {5, 6, 0, 1, 2, 3, 4, 7, 8, 9, 10};
    for (int i = 0; i < 11; ++i) {
      EXPECT_EQ(frame_of(m, edge + (i - 5) * kPageSize), want[i])
          << "round " << round << ", page " << i - 5;
    }
    EXPECT_EQ(frame_of(m, edge + 6 * kPageSize), -1);
    m.Reset();
    EXPECT_FALSE(m.IsMapped(edge));
  }
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

using testutil::kSanitizedAllocator;
using testutil::ResidentBytes;
using testutil::VirtualBytes;

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

TEST(Os, RestartsReturnALargeBrk) {
  // A Vm keeps its frames across restarts; one fault-corrupted brk must not
  // pin its region (or its page-table leaves) for every later trial.
  constexpr std::uint64_t kRegion = 64ull << 20;
  ProgramBuilder ob("ordinary");
  ob.Exit(0);
  const guest::Program ordinary = ob.Finalize();
  ProgramBuilder bb("big_brk");
  bb.MovI(R(1), static_cast<std::int64_t>(kRegion));
  bb.Sys(Sys::kBrk);
  bb.MovI(R(2), 77);
  bb.St(R(0), 0, R(2));
  bb.Exit(0);
  const guest::Program big = bb.Finalize();

  Vm vm;
  vm.StartProcess(ordinary);
  vm.RunToCompletion();
  const std::uint64_t ordinary_pages = vm.memory().mapped_pages();
  const std::uint64_t rss_before = ResidentBytes();
  const std::uint64_t virt_before = VirtualBytes();
  vm.StartProcess(big);
  vm.RunToCompletion();
  EXPECT_GE(vm.memory().mapped_pages(), ordinary_pages + kRegion / kPageSize);
  vm.StartProcess(ordinary);
  const std::uint64_t virt_restarted = VirtualBytes();
  vm.RunToCompletion();
  vm.StartProcess(ordinary);
  vm.RunToCompletion();
  EXPECT_EQ(vm.memory().mapped_pages(), ordinary_pages);
  if (kSanitizedAllocator || rss_before == 0) return;  // RSS says nothing here
  EXPECT_LT(virt_restarted > virt_before ? virt_restarted - virt_before : 0,
            kRegion / 2)
      << "the first restart after the brk kept its region";
  const std::uint64_t rss_after = ResidentBytes();
  EXPECT_LT(rss_after > rss_before ? rss_after - rss_before : 0, kRegion / 8);
}

TEST(Os, CorruptWriteLengthAllocatesNothing) {
  // A length just under the write cap over a one-byte buffer: the range
  // check must precede sizing the host copy, or this SIGSEGV costs a
  // 60 MiB zero fill first.
  if (kSanitizedAllocator) {
    GTEST_SKIP() << "sanitizer allocators fill or shadow every allocated byte";
  }
  if (!testutil::ResetPeakRss()) GTEST_SKIP() << "/proc/self/clear_refs not writable";
  const std::uint64_t before = testutil::PeakRssBytes();
  Vm vm = RunProgram([](ProgramBuilder& b) {
    const GuestAddr msg = b.DataString("m", "x");
    b.MovI(R(4), static_cast<std::int64_t>(msg));
    b.MovI(R(5), 60ll << 20);
    b.Write(1, R(4), R(5));
  });
  EXPECT_EQ(vm.signal(), GuestSignal::kSegv);
  EXPECT_NE(vm.termination_message().find("not mapped"), std::string::npos);
  const std::uint64_t after = testutil::PeakRssBytes();
  EXPECT_LT(after > before ? after - before : 0, 8ull << 20);
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

/// Prints what a new process sees in its bss, a brk'd heap, the stack below
/// sp and the data segment, then dirties all four. A second run in the same
/// Vm prints whatever the first one left behind.
guest::Program DirtyingProgram() {
  ProgramBuilder b("dirty");
  const GuestAddr data = b.DataString("d", "pristine");
  const GuestAddr bss = b.Bss("b", 64);
  b.MovI(R(1), 2 * static_cast<std::int64_t>(kPageSize));
  b.Sys(Sys::kBrk);
  b.Mov(R(8), R(0));
  b.MovI(R(5), 64);
  b.MovI(R(4), static_cast<std::int64_t>(bss));
  b.Write(1, R(4), R(5));
  b.Write(1, R(8), R(5));
  b.SubI(R(4), R(guest::kSpReg), 64);
  b.Write(1, R(4), R(5));
  b.MovI(R(4), static_cast<std::int64_t>(data));
  b.MovI(R(5), 8);
  b.Write(1, R(4), R(5));
  b.MovI(R(2), 0x5a5a5a5a5a5a5a5all);
  b.MovI(R(4), static_cast<std::int64_t>(data));
  b.St(R(4), 0, R(2));
  b.MovI(R(4), static_cast<std::int64_t>(bss));
  b.St(R(4), 8, R(2));
  b.St(R(8), 16, R(2));
  b.St(R(8), static_cast<std::int64_t>(kPageSize) + 8, R(2));
  for (int i = 0; i < 4; ++i) b.Push(R(2));
  for (int i = 0; i < 4; ++i) b.Pop(R(3));
  b.MovI(R(4), static_cast<std::int64_t>(data));
  b.Write(1, R(4), R(5));
  b.Exit(0);
  return b.Finalize();
}

TEST(Vm, RestartMatchesFreshVm) {
  const auto image = std::make_shared<const guest::Program>(DirtyingProgram());
  Vm fresh;
  fresh.StartProcess(image);
  fresh.RunToCompletion();
  ASSERT_EQ(fresh.termination(), TerminationKind::kExited);
  ASSERT_EQ(fresh.output(1), std::string(3 * 64, '\0') + "pristine" +
                                 std::string(8, '\x5a'));

  Vm reused;
  reused.StartProcess(image);
  reused.RunToCompletion();
  reused.StartProcess(image);
  reused.RunToCompletion();
  EXPECT_TRUE(digest::SameState(reused, fresh));
  // The soft-MMU's host behaviour too: a recycled frame pool costs the
  // same TLB traffic as a new one.
  EXPECT_EQ(reused.tlb_hits(), fresh.tlb_hits());
  EXPECT_EQ(reused.tlb_misses(), fresh.tlb_misses());

  // A fault-corrupted process may write to any fd. The next process on the
  // same Vm reuses the stream storage but must start with no stream at all.
  ProgramBuilder b("stray");
  const GuestAddr buf = b.Bss("buf", 64);
  b.MovI(R(4), static_cast<std::int64_t>(buf));
  b.MovI(R(5), 64);
  b.Write(7, R(4), R(5));
  b.Write(1, R(4), R(5));
  b.Exit(0);
  reused.StartProcess(b.Finalize());
  reused.RunToCompletion();
  ASSERT_EQ(reused.output(7).size(), 64u);
  reused.StartProcess(image);
  reused.RunToCompletion();
  EXPECT_TRUE(digest::SameState(reused, fresh));
}

void ExpectRestoresMatchStraightRun(
    const std::shared_ptr<const guest::Program>& image) {
  constexpr std::uint64_t kQuantum = 20'000;
  // Mark 0 is taken before the first instruction, so before any brk.
  const std::vector<std::uint64_t> marks = {0, 1, 3'000, 20'000, 31'013, 40'001};
  struct Taken {
    Vm::Checkpoint ck;
    std::uint64_t budget;
  };
  std::vector<Taken> taken;
  Vm straight;
  straight.StartProcess(image);
  straight.SetCheckpointHook([&](Vm& v, std::uint64_t budget) {
    Vm::Checkpoint ck = v.Capture(taken.empty() ? nullptr : &taken.back().ck);
    taken.push_back({std::move(ck), budget});
    v.set_checkpoint_at(taken.size() < marks.size() ? marks[taken.size()]
                                                    : ~std::uint64_t{0});
  });
  straight.set_checkpoint_at(marks[0]);
  while (straight.run_state() == RunState::kRunnable) straight.Run(kQuantum);
  ASSERT_EQ(straight.termination(), TerminationKind::kExited);
  ASSERT_EQ(taken.size(), marks.size());
  // The marks cover both kinds of boundary: where a Run call begins, and
  // mid-quantum.
  EXPECT_TRUE(std::any_of(taken.begin(), taken.end(), [&](const Taken& t) {
    return t.budget == kQuantum;
  }));
  EXPECT_TRUE(std::any_of(taken.begin(), taken.end(), [&](const Taken& t) {
    return t.budget < kQuantum;
  }));
  // Capture moved no guest state: the straight run ends as a run nobody
  // checkpointed.
  Vm plain;
  plain.StartProcess(image);
  while (plain.run_state() == RunState::kRunnable) plain.Run(kQuantum);
  EXPECT_TRUE(digest::SameState(straight, plain));

  // A restore is a process start: onto a Vm whose last process was the
  // previous restore's run (its frames dirty), onto one that never started
  // a process, and onto one whose last process ran another image.
  const auto other = std::make_shared<const guest::Program>(DirtyingProgram());
  Vm restored;
  for (const Taken& t : taken) {
    SCOPED_TRACE(testing::Message() << "checkpoint at instret " << t.ck.instret);
    Vm never_started;
    Vm ran_other;
    ran_other.StartProcess(other);
    ran_other.RunToCompletion();
    for (const auto& [name, vm] : {std::pair<const char*, Vm*>{"reused", &restored},
                                   {"never started", &never_started},
                                   {"ran another image", &ran_other}}) {
      SCOPED_TRACE(name);
      vm->Restore(t.ck);
      EXPECT_EQ(vm->program(), image.get());
      vm->Run(t.budget);
      while (vm->run_state() == RunState::kRunnable) vm->Run(kQuantum);
      EXPECT_TRUE(digest::SameState(*vm, straight));
    }
  }

  // Every frame the restores filled counted as touched, so the next start
  // is a fresh one: the same translations with the same TLB traffic over
  // the whole image, and a pool that reads zero past it.
  restored.StartProcess(image);
  Vm fresh;
  fresh.StartProcess(image);
  const guest::Program& prog = *image;
  for (const auto& [base, bytes] :
       {std::pair{guest::kDataBase, prog.data.size()},
        std::pair{guest::kBssBase, prog.bss_bytes},
        std::pair{guest::kStackTop - guest::kDefaultStackBytes,
                  guest::kDefaultStackBytes}}) {
    for (std::uint64_t off = 0; off < bytes; off += kPageSize) {
      EXPECT_EQ(restored.memory().Translate(base + off),
                fresh.memory().Translate(base + off));
    }
  }
  EXPECT_EQ(restored.tlb_hits(), fresh.tlb_hits());
  EXPECT_EQ(restored.tlb_misses(), fresh.tlb_misses());
  const std::uint64_t heap = straight.memory().mapped_pages() * kPageSize;
  restored.memory().MapRegion(guest::kHeapBase, heap);
  std::vector<std::uint8_t> bytes(heap, 0xab);
  ASSERT_TRUE(restored.memory().ReadBytes(guest::kHeapBase, bytes.data(), heap));
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), 0),
            static_cast<std::ptrdiff_t>(heap));
  restored.StartProcess(image);
  while (restored.run_state() == RunState::kRunnable) restored.Run(kQuantum);
  EXPECT_TRUE(digest::SameState(restored, straight));
}

/// Sweeps a bss, a brk'd heap and the stack for ~45k instructions, touching
/// a new page every few thousand, then writes the bss and heap to fd 1: a
/// checkpoint mid-run holds pages the loader never touched.
guest::Program PageWalkingProgram() {
  ProgramBuilder b("walk");
  const std::int64_t bss_bytes = 8 * static_cast<std::int64_t>(kPageSize);
  const std::int64_t heap_bytes = 4 * static_cast<std::int64_t>(kPageSize);
  const auto bss = static_cast<std::int64_t>(b.Bss("b", 8 * kPageSize));
  b.MovI(R(1), heap_bytes);
  b.Sys(Sys::kBrk);
  b.Mov(R(8), R(0));
  b.MovI(R(6), 0);
  auto loop = b.Here("loop");
  b.MulI(R(2), R(6), 24);
  b.AndI(R(3), R(2), bss_bytes - 8);
  b.AddI(R(3), R(3), bss);
  b.Ld(R(4), R(3), 0);
  b.Add(R(4), R(4), R(6));
  b.St(R(3), 0, R(4));
  b.AndI(R(5), R(2), heap_bytes - 8);
  b.Add(R(5), R(5), R(8));
  b.St(R(5), 0, R(4));
  b.Push(R(4));
  b.Pop(R(9));
  b.AddI(R(6), R(6), 1);
  b.CmpI(R(6), 3'000);
  b.Br(Cond::kLt, loop);
  b.MovI(R(4), bss);
  b.MovI(R(5), bss_bytes);
  b.Write(1, R(4), R(5));
  b.MovI(R(5), heap_bytes);
  b.Write(1, R(8), R(5));
  b.Exit(0);
  return b.Finalize();
}

// A process restored at a TB boundary — mid-quantum, or where a Run call
// begins — into a restarted Vm whose frames and TLB a previous run dirtied,
// then run on with the budget left, ends exactly as the straight run.
TEST(Vm, CheckpointRestoreMatchesStraightRun) {
  for (const guest::Program& program :
       {apps::BuildLud({}).program, PageWalkingProgram()}) {
    SCOPED_TRACE(program.name);
    ExpectRestoresMatchStraightRun(
        std::make_shared<const guest::Program>(program));
  }
}

// Checkpoint 0 is a boot: a process captured right after StartProcess and
// restored onto a Vm that never started one is the booted process, before
// and after both run to completion. (matvec and clamr stop at their first
// MPI call here, with no runtime attached; mpi_test runs their jobs.)
TEST(Vm, RestoreOfAStartMatchesTheBootOnEveryApp) {
  for (const apps::AppSpec& spec :
       {apps::BuildBfs({}), apps::BuildKmeans({}), apps::BuildLud({}),
        apps::BuildMatvec({}), apps::BuildClamr({})}) {
    SCOPED_TRACE(spec.name);
    Vm booted;
    booted.StartProcess(spec.program);
    Vm restored;
    restored.Restore(booted.Capture(nullptr));
    EXPECT_EQ(restored.program(), booted.program());
    EXPECT_TRUE(digest::SameState(restored, booted));
    booted.RunToCompletion();
    restored.RunToCompletion();
    EXPECT_TRUE(digest::SameState(restored, booted));
  }
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
  EXPECT_TRUE(digest::SameState(flushy, plain));
}

// The local TB index is a vector sized to the text: restarting the Vm on a
// shorter and then a longer image must resize it, and index only the TBs
// each run used.
TEST(TbCache, IndexFollowsTheImageAcrossRestarts) {
  const auto counter = [](const char* name, std::int64_t n, int pad) {
    ProgramBuilder b(name);
    for (int i = 0; i < pad; ++i) b.Nop();
    b.MovI(R(1), 0);
    auto loop = b.Here("loop");
    b.AddI(R(1), R(1), 1);
    b.CmpI(R(1), n);
    b.Br(Cond::kLt, loop);
    b.Mov(R(8), R(1));
    b.Exit(0);
    return b.Finalize();
  };
  const guest::Program longer = counter("long", 50, 300);
  const guest::Program shorter = counter("short", 70, 0);
  Vm vm;
  for (const guest::Program* p : {&longer, &shorter, &longer}) {
    vm.StartProcess(*p);
    EXPECT_EQ(vm.tb_cache_size(), 0u);
    vm.RunToCompletion();
    EXPECT_EQ(vm.termination(), TerminationKind::kExited);
    EXPECT_EQ(vm.cpu().IntReg(8), p == &shorter ? 70u : 50u);
    EXPECT_GT(vm.tb_cache_size(), 0u);
    EXPECT_LT(vm.tb_cache_size(), 12u);
  }
}

// ---- Record enum names ------------------------------------------------------

TEST(Names, ParseInvertsEveryTerminationKindAndSignalName) {
  for (int i = 0; i <= static_cast<int>(TerminationKind::kMpiError); ++i) {
    const auto kind = static_cast<TerminationKind>(i);
    TerminationKind parsed = TerminationKind::kRunning;
    ASSERT_TRUE(ParseTerminationKind(TerminationKindName(kind), &parsed))
        << TerminationKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  for (int i = 0; i <= static_cast<int>(GuestSignal::kCrash); ++i) {
    const auto signal = static_cast<GuestSignal>(i);
    GuestSignal parsed = GuestSignal::kNone;
    ASSERT_TRUE(ParseGuestSignal(GuestSignalName(signal), &parsed))
        << GuestSignalName(signal);
    EXPECT_EQ(parsed, signal);
  }
  TerminationKind kind = TerminationKind::kRunning;
  GuestSignal signal = GuestSignal::kNone;
  EXPECT_FALSE(ParseTerminationKind("?", &kind));
  EXPECT_FALSE(ParseGuestSignal("SIGNOPE", &signal));
}

}  // namespace
}  // namespace chaser::vm
