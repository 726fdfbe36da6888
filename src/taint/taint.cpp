#include "taint/taint.h"

#include <algorithm>

#include "common/bits.h"

namespace chaser::taint {
namespace {

/// Sound over-approximation for carry-propagating ops (add/sub): every bit at
/// or above the lowest tainted input bit may be affected by a carry.
std::uint64_t SmearUp(std::uint64_t mask) {
  if (mask == 0) return 0;
  const unsigned lowest = static_cast<unsigned>(std::countr_zero(mask));
  return ~std::uint64_t{0} << lowest;
}

}  // namespace

std::uint64_t PackMask(const std::uint8_t* masks, std::uint32_t size) {
  std::uint64_t packed = 0;
  for (std::uint32_t i = 0; i < size && i < 8; ++i) {
    packed |= static_cast<std::uint64_t>(masks[i]) << (8 * i);
  }
  return packed;
}

void UnpackMask(std::uint64_t packed, std::uint32_t size, std::uint8_t* masks) {
  for (std::uint32_t i = 0; i < size && i < 8; ++i) {
    masks[i] = static_cast<std::uint8_t>(packed >> (8 * i));
  }
}

TaintEngine::TaintEngine() : val_taint_(tcg::kTempBase, 0) {}

void TaintEngine::BeginTb(std::uint16_t num_temps) {
  if (!enabled_) return;
  const std::size_t needed = tcg::kTempBase + num_temps;
  if (val_taint_.size() < needed) val_taint_.resize(needed, 0);
  // Clear stale temp taint from a previous TB (or a direct SetValTaint) so
  // it cannot leak into this block's temporaries. The temp_nonzero_ counter
  // makes the common case — no tainted temps — a single compare instead of
  // a sweep over every temp slot on every TB.
  if (temp_nonzero_ == 0) return;
  for (std::size_t v = tcg::kTempBase; v < val_taint_.size(); ++v) {
    if (val_taint_[v] != 0) {
      val_taint_[v] = 0;
      --val_nonzero_;
    }
  }
  temp_nonzero_ = 0;
}

bool TaintEngine::AnyEnvTainted() const {
  if (!enabled_) return false;
  for (tcg::ValId v = 0; v < tcg::kNumEnvSlots; ++v) {
    if (val_taint_[v] != 0) return true;
  }
  return false;
}

void TaintEngine::ClearVals() {
  std::fill(val_taint_.begin(), val_taint_.end(), 0);
  val_nonzero_ = 0;
  temp_nonzero_ = 0;
}

std::uint8_t* TaintEngine::EnsurePage(PhysAddr paddr) {
  const std::uint64_t page = paddr >> kShadowPageBits;
  if (page >= pages_.size()) pages_.resize(page + 1);
  if (!pages_[page]) pages_[page] = std::make_unique<ShadowPage>();
  return pages_[page]->data();
}

std::uint8_t TaintEngine::GetMemTaintByte(PhysAddr paddr) const {
  const std::uint8_t* page = FindPage(paddr);
  return page == nullptr ? 0 : page[paddr & (kShadowPageSize - 1)];
}

void TaintEngine::SetMemTaintByte(PhysAddr paddr, std::uint8_t mask) {
  if (mask == 0) {
    std::uint8_t* page = FindPage(paddr);
    if (page == nullptr) return;
    std::uint8_t& slot = page[paddr & (kShadowPageSize - 1)];
    if (slot != 0) --tainted_bytes_;
    slot = 0;
    return;
  }
  std::uint8_t& slot = EnsurePage(paddr)[paddr & (kShadowPageSize - 1)];
  if (slot == 0) {
    ++tainted_bytes_;
    stats_.peak_tainted_bytes = std::max(stats_.peak_tainted_bytes, tainted_bytes_);
  }
  slot = mask;
}

std::uint64_t TaintEngine::GetMemTaint(PhysAddr paddr, std::uint32_t size) const {
  if (tainted_bytes_ == 0) return 0;
  // Fast path: the whole access sits in one shadow page (one word read).
  const std::uint64_t off = paddr & (kShadowPageSize - 1);
  if (off + size <= kShadowPageSize) {
    const std::uint8_t* page = FindPage(paddr);
    return page == nullptr ? 0 : ShadowWord(page, off, size);
  }
  std::uint64_t packed = 0;
  for (std::uint32_t i = 0; i < size && i < 8; ++i) {
    packed |= static_cast<std::uint64_t>(GetMemTaintByte(paddr + i)) << (8 * i);
  }
  return packed;
}

void TaintEngine::SetMemTaint(PhysAddr paddr, std::uint32_t size, std::uint64_t packed) {
  // Fast path: clearing a range when no shadow exists at all is a no-op.
  if (packed == 0 && tainted_bytes_ == 0) return;
  // Fast path: the whole access sits in one shadow page (one page lookup
  // for the range instead of one per byte — stores of tainted values are
  // the hottest shadow writers).
  if ((paddr & (kShadowPageSize - 1)) + size <= kShadowPageSize) {
    const std::uint64_t off = paddr & (kShadowPageSize - 1);
    std::uint8_t* page = packed == 0 ? FindPage(paddr) : EnsurePage(paddr);
    if (page == nullptr) return;  // clearing untracked bytes: no-op
    for (std::uint32_t i = 0; i < size && i < 8; ++i) {
      std::uint8_t& slot = page[off + i];
      const auto mask = static_cast<std::uint8_t>(packed >> (8 * i));
      if (slot == 0 && mask != 0) {
        ++tainted_bytes_;
        stats_.peak_tainted_bytes =
            std::max(stats_.peak_tainted_bytes, tainted_bytes_);
      } else if (slot != 0 && mask == 0) {
        --tainted_bytes_;
      }
      slot = mask;
    }
    return;
  }
  for (std::uint32_t i = 0; i < size && i < 8; ++i) {
    SetMemTaintByte(paddr + i, static_cast<std::uint8_t>(packed >> (8 * i)));
  }
}

void TaintEngine::ClearMem() {
  pages_.clear();
  tainted_bytes_ = 0;
}

std::uint64_t TaintEngine::PropagateOp(tcg::TcgOpc opc, std::uint64_t ta,
                                       std::uint64_t tb, std::uint64_t a,
                                       std::uint64_t b) const {
  using Opc = tcg::TcgOpc;
  if (!enabled_) return 0;
  if (ta == 0 && tb == 0) return 0;  // fast path: clean operands stay clean
  switch (opc) {
    case Opc::kMov:
      return ta;
    case Opc::kAdd:
    case Opc::kSub:
      return SmearUp(ta | tb);
    case Opc::kMul:
    case Opc::kDivS:
    case Opc::kDivU:
    case Opc::kRemS:
    case Opc::kRemU:
      return ~std::uint64_t{0};
    case Opc::kAnd:
      // Result bit is tainted if a tainted input bit can influence it: both
      // tainted, or one tainted while the other's concrete bit is 1.
      return (ta & tb) | (ta & b) | (tb & a);
    case Opc::kOr:
      return (ta & tb) | (ta & ~b) | (tb & ~a);
    case Opc::kXor:
      return ta | tb;
    case Opc::kNot:
      return ta;
    case Opc::kNeg:
      return SmearUp(ta);
    case Opc::kShl:
      if (tb != 0) return ~std::uint64_t{0};  // tainted shift amount
      return ta << (b & 63u);
    case Opc::kShr:
      if (tb != 0) return ~std::uint64_t{0};
      return ta >> (b & 63u);
    case Opc::kSar: {
      if (tb != 0) return ~std::uint64_t{0};
      const unsigned sh = static_cast<unsigned>(b & 63u);
      std::uint64_t m = ta >> sh;
      if ((ta >> 63) & 1u) m |= ~(~std::uint64_t{0} >> sh);  // sign bit smears
      return m;
    }
    // Flag computation: any operand taint taints every flag bit.
    case Opc::kSetFlags:
    case Opc::kSetFlagsF:
      return tcg::kFlagEq | tcg::kFlagLtS | tcg::kFlagLtU;
    // FP extension (Chaser, §II-C(b)): conservative whole-value rules —
    // rounding/normalisation smears bits across the significand.
    case Opc::kFAdd:
    case Opc::kFSub:
    case Opc::kFMul:
    case Opc::kFDiv:
    case Opc::kFMin:
    case Opc::kFMax:
    case Opc::kFSqrt:
    case Opc::kCvtIF:
    case Opc::kCvtFI:
      return ~std::uint64_t{0};
    case Opc::kFNeg:
      return ta | (std::uint64_t{1} << 63);
    case Opc::kFAbs:
      return ta & ~(std::uint64_t{1} << 63);
    default:
      return ta | tb;
  }
}

std::uint64_t TaintEngine::OnLoadSlow(std::uint64_t pc, GuestAddr vaddr, PhysAddr paddr,
                                  std::uint32_t size, bool sign_extend,
                                  std::uint64_t addr_taint, std::uint64_t value) {
  if (!enabled_) return 0;
  std::uint64_t taint = GetMemTaint(paddr, size);
  if (taint != 0) {
    ++stats_.tainted_reads;
    if (on_read_) {
      on_read_({.pc = pc, .vaddr = vaddr, .paddr = paddr, .size = size,
                .value = value, .taint = taint});
    }
  }
  if (sign_extend && size < 8 && taint != 0) {
    // If the loaded sign bit is tainted, all replicated upper bits are too.
    const std::uint64_t sign_bit = std::uint64_t{1} << (8 * size - 1);
    if (taint & sign_bit) taint |= ~LowBytesMask(size);
  }
  if (addr_taint != 0) {
    // Tainted pointer: the loaded value is wholly attacker/fault-controlled.
    taint = ~std::uint64_t{0};
  }
  return taint;
}

void TaintEngine::OnStoreSlow(std::uint64_t pc, GuestAddr vaddr, PhysAddr paddr,
                          std::uint32_t size, std::uint64_t addr_taint,
                          std::uint64_t value, std::uint64_t value_taint) {
  if (!enabled_) return;
  std::uint64_t stored_taint = value_taint & LowBytesMask(size);
  if (addr_taint != 0) stored_taint = LowBytesMask(size);  // tainted pointer write
  if (stored_taint != 0) {
    ++stats_.tainted_writes;
    if (on_write_) {
      on_write_({.pc = pc, .vaddr = vaddr, .paddr = paddr, .size = size,
                 .value = value, .taint = stored_taint});
    }
  } else if ((paddr & (kShadowPageSize - 1)) + size <= kShadowPageSize) {
    // Clean store: count taint destroyed by overwriting (Fig. 7's drops).
    // One page lookup for the whole in-page range.
    if (const std::uint8_t* page = FindPage(paddr)) {
      const std::uint64_t off = paddr & (kShadowPageSize - 1);
      for (std::uint32_t i = 0; i < size; ++i) {
        if (page[off + i] != 0) ++stats_.taint_cleared_bytes;
      }
    }
  } else {
    for (std::uint32_t i = 0; i < size; ++i) {
      if (GetMemTaintByte(paddr + i) != 0) ++stats_.taint_cleared_bytes;
    }
  }
  SetMemTaint(paddr, size, stored_taint);
}

void TaintEngine::TaintSourceRegister(tcg::ValId v, std::uint64_t mask) {
  if (!enabled_) return;
  if (v >= val_taint_.size()) val_taint_.resize(v + 1, 0);
  const bool was = val_taint_[v] != 0;
  val_taint_[v] |= mask;
  if (!was && val_taint_[v] != 0) {
    ++val_nonzero_;
    if (v >= tcg::kTempBase) ++temp_nonzero_;
  }
}

void TaintEngine::TaintSourceMemory(PhysAddr paddr, std::uint32_t size,
                                    std::uint64_t packed) {
  if (!enabled_) return;
  for (std::uint32_t i = 0; i < size && i < 8; ++i) {
    const auto mask = static_cast<std::uint8_t>(packed >> (8 * i));
    if (mask != 0) {
      SetMemTaintByte(paddr + i, static_cast<std::uint8_t>(
                                     GetMemTaintByte(paddr + i) | mask));
    }
  }
}

void TaintEngine::Reset() {
  ClearVals();
  ClearMem();
  ResetStats();
}

}  // namespace chaser::taint
