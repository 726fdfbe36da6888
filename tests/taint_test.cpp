// Unit tests for src/taint: bitwise shadow state, per-op propagation rules
// (including the value-aware and/or/shift rules and the FP extension),
// memory shadow accounting, and the tainted-access callbacks.
#include <gtest/gtest.h>

#include <cstring>

#include "taint/taint.h"

namespace chaser::taint {
namespace {

using tcg::TcgOpc;

class TaintEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_.set_enabled(true); }
  TaintEngine engine_;
};

// ---- Value-slot shadow --------------------------------------------------------

TEST_F(TaintEngineTest, DisabledEngineReportsClean) {
  TaintEngine off;
  off.SetValTaint(3, 0xff);
  EXPECT_EQ(off.GetValTaint(3), 0u);
  EXPECT_EQ(off.PropagateOp(TcgOpc::kAdd, 0xff, 0, 1, 2), 0u);
}

TEST_F(TaintEngineTest, ValTaintRoundTrip) {
  engine_.SetValTaint(tcg::EnvInt(5), 0x0f);
  EXPECT_EQ(engine_.GetValTaint(tcg::EnvInt(5)), 0x0fu);
  EXPECT_TRUE(engine_.AnyEnvTainted());
  engine_.ClearVals();
  EXPECT_FALSE(engine_.AnyEnvTainted());
}

TEST_F(TaintEngineTest, BeginTbClearsTempsKeepsEnv) {
  engine_.SetValTaint(tcg::EnvInt(1), 0xff);
  engine_.SetValTaint(tcg::kTempBase + 3, 0xff);
  engine_.BeginTb(10);
  EXPECT_EQ(engine_.GetValTaint(tcg::EnvInt(1)), 0xffu);
  EXPECT_EQ(engine_.GetValTaint(tcg::kTempBase + 3), 0u);
}

// ---- Propagation rules ----------------------------------------------------------

TEST_F(TaintEngineTest, CleanOperandsStayClean) {
  for (const TcgOpc opc : {TcgOpc::kAdd, TcgOpc::kMul, TcgOpc::kAnd,
                           TcgOpc::kXor, TcgOpc::kFAdd, TcgOpc::kShl}) {
    EXPECT_EQ(engine_.PropagateOp(opc, 0, 0, 123, 456), 0u);
  }
}

TEST_F(TaintEngineTest, MovPreservesMask) {
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kMov, 0b1010, 0, 0, 0), 0b1010u);
}

TEST_F(TaintEngineTest, AddSmearsUpward) {
  // Taint in bit 4 can carry into any bit >= 4.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kAdd, 1u << 4, 0, 0, 0),
            ~std::uint64_t{0} << 4);
  // Union first: lowest tainted bit across both operands governs.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kSub, 1u << 8, 1u << 2, 0, 0),
            ~std::uint64_t{0} << 2);
}

TEST_F(TaintEngineTest, MulFullyTaints) {
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kMul, 1, 0, 3, 4), ~std::uint64_t{0});
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kDivU, 0, 1, 3, 4), ~std::uint64_t{0});
}

TEST_F(TaintEngineTest, AndIsValueAware) {
  // x & 0: tainted x bits are masked off by a concrete zero -> clean.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kAnd, 0xff, 0, /*a=*/0xab, /*b=*/0x00), 0u);
  // x & 1s: taint flows through where the concrete bit is 1.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kAnd, 0xff, 0, 0xab, 0x0f), 0x0fu);
  // Both tainted with concrete ones underneath: each side's taint flows
  // where the other side's concrete bit is 1.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kAnd, 0xf0, 0x0f, 0xff, 0xff), 0xffu);
  // Both tainted over concrete zeros, no overlap: the AND result is pinned
  // to zero by the other operand's concrete 0 bit -> clean.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kAnd, 0xf0, 0x0f, 0, 0), 0u);
}

TEST_F(TaintEngineTest, OrIsValueAware) {
  // x | 1s: concrete ones pin the result regardless of taint.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kOr, 0xff, 0, 0x00, 0xff), 0u);
  // x | 0s: taint flows through.
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kOr, 0xff, 0, 0x00, 0x00), 0xffu);
}

TEST_F(TaintEngineTest, XorUnions) {
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kXor, 0xf0, 0x0f, 7, 9), 0xffu);
}

TEST_F(TaintEngineTest, ShiftsMoveMasksByConcreteAmount) {
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kShl, 0b11, 0, 0, 4), 0b110000u);
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kShr, 0xf00, 0, 0, 8), 0xfu);
  // Arithmetic shift replicates a tainted sign bit.
  const std::uint64_t sign = 1ull << 63;
  const std::uint64_t m = engine_.PropagateOp(TcgOpc::kSar, sign, 0, 0, 4);
  EXPECT_EQ(m, 0xf8ull << 56);
}

TEST_F(TaintEngineTest, TaintedShiftAmountFullyTaints) {
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kShl, 0, 1, 5, 2), ~std::uint64_t{0});
}

TEST_F(TaintEngineTest, FlagsFullyTaintedOnAnyOperandTaint) {
  const std::uint64_t f = engine_.PropagateOp(TcgOpc::kSetFlags, 1, 0, 0, 0);
  EXPECT_EQ(f, tcg::kFlagEq | tcg::kFlagLtS | tcg::kFlagLtU);
}

TEST_F(TaintEngineTest, FpOpsFullyTaint) {
  for (const TcgOpc opc : {TcgOpc::kFAdd, TcgOpc::kFMul, TcgOpc::kFDiv,
                           TcgOpc::kFSqrt, TcgOpc::kCvtIF, TcgOpc::kCvtFI}) {
    EXPECT_EQ(engine_.PropagateOp(opc, 1, 0, 0, 0), ~std::uint64_t{0});
  }
}

TEST_F(TaintEngineTest, FpNegAbsTouchOnlySignBit) {
  const std::uint64_t sign = 1ull << 63;
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kFNeg, 0x3, 0, 0, 0), 0x3u | sign);
  EXPECT_EQ(engine_.PropagateOp(TcgOpc::kFAbs, 0x3 | sign, 0, 0, 0), 0x3u);
}

// ---- Memory shadow ------------------------------------------------------------

TEST_F(TaintEngineTest, MemTaintByteRoundTripAndCount) {
  EXPECT_EQ(engine_.CountTaintedBytes(), 0u);
  engine_.SetMemTaintByte(0x1000, 0xff);
  engine_.SetMemTaintByte(0x1001, 0x01);
  EXPECT_EQ(engine_.CountTaintedBytes(), 2u);
  EXPECT_EQ(engine_.GetMemTaintByte(0x1000), 0xffu);
  engine_.SetMemTaintByte(0x1000, 0);  // clearing decrements
  EXPECT_EQ(engine_.CountTaintedBytes(), 1u);
  engine_.SetMemTaintByte(0x1001, 0x80);  // overwrite stays counted once
  EXPECT_EQ(engine_.CountTaintedBytes(), 1u);
}

TEST_F(TaintEngineTest, PackedMemTaint) {
  engine_.SetMemTaint(0x2000, 4, 0xaabbccdd);
  EXPECT_EQ(engine_.GetMemTaintByte(0x2000), 0xddu);
  EXPECT_EQ(engine_.GetMemTaintByte(0x2003), 0xaau);
  EXPECT_EQ(engine_.GetMemTaint(0x2000, 4), 0xaabbccddull);
  EXPECT_EQ(engine_.CountTaintedBytes(), 4u);
}

TEST_F(TaintEngineTest, CrossPageShadow) {
  const PhysAddr edge = kShadowPageSize - 2;
  engine_.SetMemTaint(edge, 4, 0x11223344);
  EXPECT_EQ(engine_.GetMemTaint(edge, 4), 0x11223344ull);
  EXPECT_EQ(engine_.CountTaintedBytes(), 4u);
}

// ---- Flat shadow: page-number index, padded pages, inline word probe -----------

TEST_F(TaintEngineTest, FlatShadowFrameZeroAndHighFrame) {
  const PhysAddr high = (PhysAddr{1} << 30) + 5 * kShadowPageSize + 0x123;
  engine_.SetMemTaint(0x10, 2, 0x8001);
  engine_.SetMemTaintByte(high, 0x40);
  EXPECT_EQ(engine_.GetMemTaint(0x10, 2), 0x8001u);
  EXPECT_EQ(engine_.GetMemTaint(high, 1), 0x40u);
  EXPECT_EQ(engine_.CountTaintedBytes(), 3u);

  const std::uint8_t* low_page = engine_.PeekShadowPage(0x10);
  const std::uint8_t* high_page = engine_.PeekShadowPage(high);
  ASSERT_NE(low_page, nullptr);
  ASSERT_NE(high_page, nullptr);
  EXPECT_EQ(low_page[0x10], 0x01u);
  EXPECT_EQ(low_page[0x11], 0x80u);
  EXPECT_EQ(high_page[high & (kShadowPageSize - 1)], 0x40u);
  // A page between the two was never tainted: no shadow, reads clean.
  EXPECT_EQ(engine_.PeekShadowPage(PhysAddr{1} << 29), nullptr);
  EXPECT_EQ(engine_.GetMemTaint(PhysAddr{1} << 29, 8), 0u);
}

TEST_F(TaintEngineTest, WideAccessAcrossPageEdgeMatchesBytes) {
  // An 8-byte access at page offset 4092 spans two shadow pages.
  const PhysAddr at = 3 * kShadowPageSize + 4092;
  const std::uint64_t packed = 0x0102030405060708ull;
  engine_.OnStore(0, 0, at, 8, 0, 0, packed);
  std::uint8_t bytes[8];
  for (unsigned i = 0; i < 8; ++i) bytes[i] = engine_.GetMemTaintByte(at + i);
  EXPECT_EQ(PackMask(bytes, 8), packed);
  EXPECT_EQ(engine_.OnLoad(0, 0, at, 8, false, 0, 0), packed);

  // Taint only in the second page: the load must still see it, though the
  // first page has no shadow at all.
  engine_.ClearMem();
  engine_.SetMemTaintByte(4 * kShadowPageSize + 1, 0x22);
  ASSERT_EQ(engine_.PeekShadowPage(at), nullptr);
  EXPECT_EQ(engine_.OnLoad(0, 0, at, 8, false, 0, 0), 0x22ull << 40);

  // A clean store over it clears and counts exactly that byte.
  engine_.OnStore(0, 0, at, 8, 0, 0, 0);
  EXPECT_EQ(engine_.CountTaintedBytes(), 0u);
  EXPECT_EQ(engine_.stats().taint_cleared_bytes, 1u);
}

TEST_F(TaintEngineTest, LastByteOfPageProbesOnlyItself) {
  // A 1-byte access at offset 4095: the word probe reads into the page's
  // zero pad, never into the next page's shadow.
  const PhysAddr last = 2 * kShadowPageSize + 4095;
  engine_.SetMemTaintByte(last + 1, 0xff);  // first byte of the next page
  EXPECT_EQ(engine_.OnLoad(0, 0, last, 1, false, 0, 0), 0u);
  engine_.SetMemTaintByte(last, 0x81);
  EXPECT_EQ(engine_.OnLoad(0, 0, last, 1, false, 0, 0), 0x81u);
  EXPECT_EQ(engine_.OnLoad(0, 0, last, 1, true, 0, 0), ~0x7eull)
      << "a tainted sign bit smears over the extended bits";
  engine_.OnStore(0, 0, last, 1, 0, 0, 0);
  EXPECT_EQ(engine_.GetMemTaintByte(last), 0u);
  EXPECT_EQ(engine_.GetMemTaintByte(last + 1), 0xffu);
  EXPECT_EQ(engine_.stats().taint_cleared_bytes, 1u);
}

TEST_F(TaintEngineTest, ClearMemDropsEveryShadowPage) {
  const PhysAddr addrs[] = {0, 7 * kShadowPageSize + 9, (PhysAddr{1} << 30) + 1};
  for (const PhysAddr a : addrs) engine_.SetMemTaint(a, 8, ~0ull);
  engine_.ClearMem();
  EXPECT_EQ(engine_.CountTaintedBytes(), 0u);
  for (const PhysAddr a : addrs) {
    for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(engine_.GetMemTaintByte(a + i), 0u);
    EXPECT_EQ(engine_.GetMemTaint(a, 8), 0u);
    EXPECT_EQ(engine_.PeekShadowPage(a), nullptr);
    EXPECT_EQ(engine_.OnLoad(0, 0, a, 8, false, 0, 0), 0u);
  }
  engine_.SetMemTaintByte(addrs[1], 0x10);  // the shadow grows back
  EXPECT_EQ(engine_.GetMemTaintByte(addrs[1]), 0x10u);
  EXPECT_EQ(engine_.CountTaintedBytes(), 1u);
}

TEST_F(TaintEngineTest, PeakTaintedBytesTracked) {
  engine_.SetMemTaint(0, 8, ~0ull);
  engine_.SetMemTaint(0, 8, 0);
  EXPECT_EQ(engine_.CountTaintedBytes(), 0u);
  EXPECT_EQ(engine_.stats().peak_tainted_bytes, 8u);
}

// ---- Loads / stores + callbacks ----------------------------------------------------

TEST_F(TaintEngineTest, LoadPicksUpShadowAndFiresCallback) {
  std::vector<TaintMemAccess> reads;
  engine_.set_on_tainted_read([&](const TaintMemAccess& a) { reads.push_back(a); });
  engine_.SetMemTaint(0x3000, 2, 0x00ff);
  const std::uint64_t t =
      engine_.OnLoad(/*pc=*/7, /*vaddr=*/0x993000, /*paddr=*/0x3000, 4,
                     /*sign=*/false, /*addr_taint=*/0, /*value=*/0xabcd);
  EXPECT_EQ(t, 0xffull);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].pc, 7u);
  EXPECT_EQ(reads[0].vaddr, 0x993000u);
  EXPECT_EQ(reads[0].paddr, 0x3000u);
  EXPECT_EQ(reads[0].value, 0xabcdu);
  EXPECT_EQ(engine_.stats().tainted_reads, 1u);
}

TEST_F(TaintEngineTest, CleanLoadNoCallback) {
  bool fired = false;
  engine_.set_on_tainted_read([&](const TaintMemAccess&) { fired = true; });
  EXPECT_EQ(engine_.OnLoad(0, 0, 0x4000, 8, false, 0, 0), 0u);
  EXPECT_FALSE(fired);
}

TEST_F(TaintEngineTest, SignExtendedLoadSpreadsSignTaint) {
  engine_.SetMemTaintByte(0x5001, 0x80);  // sign bit of a 2-byte load
  const std::uint64_t t = engine_.OnLoad(0, 0, 0x5000, 2, true, 0, 0x8000);
  EXPECT_EQ(t & 0xffff0000'00000000ull, 0xffff0000'00000000ull);
}

TEST_F(TaintEngineTest, TaintedAddressFullyTaintsLoad) {
  const std::uint64_t t = engine_.OnLoad(0, 0, 0x6000, 8, false, /*addr_taint=*/1, 0);
  EXPECT_EQ(t, ~std::uint64_t{0});
}

TEST_F(TaintEngineTest, StoreWritesShadowAndFiresCallback) {
  std::vector<TaintMemAccess> writes;
  engine_.set_on_tainted_write([&](const TaintMemAccess& a) { writes.push_back(a); });
  engine_.OnStore(/*pc=*/9, 0x997000, 0x7000, 8, 0, 0x1234, 0x00ff00ff00ff00ffull);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(engine_.GetMemTaint(0x7000, 8), 0x00ff00ff00ff00ffull);
  EXPECT_EQ(engine_.CountTaintedBytes(), 4u);
  EXPECT_EQ(engine_.stats().tainted_writes, 1u);
}

TEST_F(TaintEngineTest, CleanStoreClearsShadowSilently) {
  bool fired = false;
  engine_.set_on_tainted_write([&](const TaintMemAccess&) { fired = true; });
  engine_.SetMemTaint(0x8000, 8, ~0ull);
  engine_.OnStore(0, 0, 0x8000, 8, 0, 0, /*value_taint=*/0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine_.CountTaintedBytes(), 0u);
  EXPECT_EQ(engine_.stats().taint_cleared_bytes, 8u);
}

TEST_F(TaintEngineTest, NarrowStoreMasksValueTaint) {
  engine_.OnStore(0, 0, 0x9000, 2, 0, 0, ~0ull);
  EXPECT_EQ(engine_.CountTaintedBytes(), 2u);
}

// ---- Taint sources -----------------------------------------------------------------

TEST_F(TaintEngineTest, TaintSourceRegisterOrsIn) {
  engine_.SetValTaint(tcg::EnvFp(2), 0x0f);
  engine_.TaintSourceRegister(tcg::EnvFp(2), 0xf0);
  EXPECT_EQ(engine_.GetValTaint(tcg::EnvFp(2)), 0xffu);
}

TEST_F(TaintEngineTest, TaintSourceMemoryOrsIn) {
  engine_.SetMemTaintByte(0xa000, 0x01);
  engine_.TaintSourceMemory(0xa000, 2, 0x0202);
  EXPECT_EQ(engine_.GetMemTaintByte(0xa000), 0x03u);
  EXPECT_EQ(engine_.GetMemTaintByte(0xa001), 0x02u);
}

TEST_F(TaintEngineTest, ResetClearsEverything) {
  engine_.SetValTaint(tcg::EnvInt(1), 1);
  engine_.SetMemTaintByte(0, 1);
  engine_.OnStore(0, 0, 16, 8, 0, 0, 0xff);
  engine_.Reset();
  EXPECT_FALSE(engine_.AnyEnvTainted());
  EXPECT_EQ(engine_.CountTaintedBytes(), 0u);
  EXPECT_EQ(engine_.stats().tainted_writes, 0u);
  EXPECT_TRUE(engine_.enabled()) << "Reset must not flip the enable switch";
}

// ---- Packed helpers ------------------------------------------------------------------

TEST(TaintPack, PackUnpackRoundTrip) {
  const std::uint8_t masks[4] = {0x11, 0x22, 0x33, 0x44};
  const std::uint64_t packed = PackMask(masks, 4);
  EXPECT_EQ(packed, 0x44332211ull);
  std::uint8_t out[4] = {};
  UnpackMask(packed, 4, out);
  EXPECT_EQ(std::memcmp(masks, out, 4), 0);
}

}  // namespace
}  // namespace chaser::taint
