// Bitwise dynamic taint engine (the DECAF substrate Chaser builds on).
//
// DECAF propagates taint at TCG-op granularity through CPU registers, memory
// and I/O, with bit-level precision; Chaser extends the rules to floating
// point and registers READ/WRITE_TAINTMEM callbacks to observe propagation.
// This module reproduces that layer:
//
//  * every TCG value slot (guest registers, flags, per-TB temporaries) has a
//    64-bit taint mask (bit i set = bit i of the value is tainted);
//  * guest memory has a per-byte shadow (8-bit mask per byte), stored
//    page-by-page against *physical* addresses in a flat table indexed by
//    physical page number (GuestMemory hands frames out densely from 0, so
//    the table is bounded by the frames mapped);
//  * per-op propagation rules are value-aware where DECAF's are (and/or use
//    concrete operand bits; shifts move masks by the concrete amount);
//  * FP ops use conservative whole-value rules (any tainted input bit taints
//    the full result — FP normalisation smears bits unpredictably);
//  * tainted memory reads/writes invoke user callbacks with the paper's log
//    payload: eip, virtual address, physical address, taint mask, value.
//
// Elastic taint (DECAF++) is the execution engine's job, decided per
// translation block from Active() and AnyValTainted(): with no taint at all
// the taint path is skipped; with taint only in memory (check mode) just
// loads and stores reach the engine, through OnLoad/OnStore's inline clean
// probe; once a value slot is tainted (track mode) every op propagates.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/bits.h"
#include "common/types.h"
#include "tcg/ir.h"

namespace chaser::taint {

/// Shadow-memory page size (bytes).
inline constexpr std::uint64_t kShadowPageBits = 12;
inline constexpr std::uint64_t kShadowPageSize = 1ull << kShadowPageBits;

/// Payload of a tainted-memory-access callback
/// (the paper's fault-propagation log record, §III-C(c)).
struct TaintMemAccess {
  std::uint64_t pc = 0;        // guest instruction index ("eip"; use PcToAddr to render)
  GuestAddr vaddr = 0;         // virtual address of the access
  PhysAddr paddr = 0;          // physical address after soft-MMU translation
  std::uint32_t size = 0;      // bytes accessed
  std::uint64_t value = 0;     // value read/written (low `size` bytes)
  std::uint64_t taint = 0;     // packed per-byte masks: byte i's mask at bits [8i, 8i+8)
};

/// Counters maintained by the engine.
struct TaintStats {
  std::uint64_t tainted_reads = 0;   // reads that touched >=1 tainted byte
  std::uint64_t tainted_writes = 0;  // writes that stored >=1 tainted byte
  std::uint64_t taint_cleared_bytes = 0;  // tainted bytes overwritten clean
  std::uint64_t peak_tainted_bytes = 0;
};

class TaintEngine {
 public:
  using MemAccessCallback = std::function<void(const TaintMemAccess&)>;

  TaintEngine();

  /// Master switch. Disabled: all propagation calls are cheap no-ops and
  /// report zero taint (used for the Fig. 10 overhead ablation).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Elastic taint (DECAF++): true iff any taint exists anywhere (a value
  /// slot or a memory byte). While false, per-op propagation is exact even
  /// if skipped entirely — everything is already clean — so the execution
  /// engine bypasses the taint path until a source appears.
  bool Active() const { return val_nonzero_ != 0 || tainted_bytes_ != 0; }
  /// True iff any value slot (guest register, flags or temporary) carries
  /// taint. While false, every PropagateOp rule maps its clean inputs to a
  /// clean result, so only loads and stores can change taint state.
  bool AnyValTainted() const { return val_nonzero_ != 0; }

  /// Clear a value slot's taint without the full Set path (fast-path helper
  /// for clean results).
  void ClearValTaint(tcg::ValId v) {
    if (v < val_taint_.size() && val_taint_[v] != 0) {
      val_taint_[v] = 0;
      --val_nonzero_;
      if (v >= tcg::kTempBase) --temp_nonzero_;
    }
  }

  /// DECAF_READ_TAINTMEM_CB / DECAF_WRITE_TAINTMEM_CB equivalents.
  void set_on_tainted_read(MemAccessCallback cb) { on_read_ = std::move(cb); }
  void set_on_tainted_write(MemAccessCallback cb) { on_write_ = std::move(cb); }

  // ---- Value-slot shadow ----------------------------------------------------
  // Inline: the interpreter queries/sets value taint for every op while
  // taint is active, so these are on the per-op hot path.
  std::uint64_t GetValTaint(tcg::ValId v) const {
    if (!enabled_ || v >= val_taint_.size()) return 0;
    return val_taint_[v];
  }
  void SetValTaint(tcg::ValId v, std::uint64_t mask) {
    if (!enabled_) return;
    if (v >= val_taint_.size()) val_taint_.resize(v + 1, 0);
    const bool was = val_taint_[v] != 0;
    const bool now = mask != 0;
    val_taint_[v] = mask;
    if (was != now) {
      val_nonzero_ += now ? 1 : -1;
      if (v >= tcg::kTempBase) temp_nonzero_ += now ? 1 : -1;
    }
  }
  /// Ensure capacity for a TB's temporaries and clear them.
  void BeginTb(std::uint16_t num_temps);
  /// True if any guest register (int, FP, flags) carries taint.
  bool AnyEnvTainted() const;
  /// Clear every value-slot taint (process exit / reset).
  void ClearVals();

  // ---- Memory shadow --------------------------------------------------------
  /// Taint mask of the byte at `paddr` (0 if untracked).
  std::uint8_t GetMemTaintByte(PhysAddr paddr) const;
  /// Set the taint mask of a single byte; maintains the tainted-byte count.
  void SetMemTaintByte(PhysAddr paddr, std::uint8_t mask);
  /// Packed per-byte masks for `size` bytes starting at `paddr`.
  std::uint64_t GetMemTaint(PhysAddr paddr, std::uint32_t size) const;
  /// Store packed per-byte masks for `size` bytes at `paddr`.
  void SetMemTaint(PhysAddr paddr, std::uint32_t size, std::uint64_t packed);
  /// Raw shadow masks of the page containing `paddr` (kShadowPageSize bytes,
  /// indexed by paddr offset), or nullptr when no byte of the page has held
  /// taint since the last ClearMem. For page-at-a-time scans
  /// (Vm::ForEachShadowRun), where a per-byte GetMemTaintByte would pay the
  /// page lookup once per byte instead of once per page.
  const std::uint8_t* PeekShadowPage(PhysAddr paddr) const {
    return FindPage(paddr);
  }

  /// Number of bytes whose shadow mask is currently non-zero.
  std::uint64_t CountTaintedBytes() const { return tainted_bytes_; }
  /// Drop all memory taint.
  void ClearMem();

  // ---- Per-op propagation (called by the execution engine) -------------------
  /// Taint of the result of a pure ALU/FP op given operand taints and concrete
  /// operand values (value-aware rules need them).
  std::uint64_t PropagateOp(tcg::TcgOpc opc, std::uint64_t ta, std::uint64_t tb,
                            std::uint64_t a, std::uint64_t b) const;

  /// Memory load: computes the loaded value's taint from the shadow (plus a
  /// tainted-address over-approximation), fires the read callback if tainted.
  /// Inline early-out: a clean address over clean shadow yields exactly 0
  /// with no callback and no stats — the common case even after an injection
  /// (taint usually lives in a handful of registers/bytes while the guest
  /// streams over clean data).
  std::uint64_t OnLoad(std::uint64_t pc, GuestAddr vaddr, PhysAddr paddr,
                       std::uint32_t size, bool sign_extend,
                       std::uint64_t addr_taint, std::uint64_t value) {
    if (addr_taint == 0 && ShadowClean(paddr, size)) return 0;
    return OnLoadSlow(pc, vaddr, paddr, size, sign_extend, addr_taint, value);
  }

  /// Memory store: updates the shadow from the stored value's taint, fires the
  /// write callback if tainted, accounts for taint cleared by clean stores.
  /// Inline early-out mirroring OnLoad: a clean store over clean shadow
  /// changes nothing.
  void OnStore(std::uint64_t pc, GuestAddr vaddr, PhysAddr paddr,
               std::uint32_t size, std::uint64_t addr_taint,
               std::uint64_t value, std::uint64_t value_taint) {
    if (addr_taint == 0 && value_taint == 0 && ShadowClean(paddr, size)) return;
    OnStoreSlow(pc, vaddr, paddr, size, addr_taint, value, value_taint);
  }

  // ---- Taint sources (used by the fault injector) ----------------------------
  /// Mark bits of a guest register (int or FP) as tainted — the injected
  /// fault's footprint becomes the taint source.
  void TaintSourceRegister(tcg::ValId v, std::uint64_t mask);
  /// Mark `size` bytes of memory as a taint source with packed masks.
  void TaintSourceMemory(PhysAddr paddr, std::uint32_t size, std::uint64_t packed);

  const TaintStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TaintStats{}; }

  /// Full reset: values, memory, stats.
  void Reset();

 private:
  // kShadowPageSize masks plus an 8-byte pad that stays zero, so the 8-byte
  // word probe at any in-page offset (up to kShadowPageSize - 1) stays in
  // bounds.
  using ShadowPage = std::array<std::uint8_t, kShadowPageSize + 8>;

  /// Shadow masks of the page holding `paddr`, or nullptr when none exists.
  std::uint8_t* FindPage(PhysAddr paddr) const {
    const std::uint64_t page = paddr >> kShadowPageBits;
    return page < pages_.size() && pages_[page] ? pages_[page]->data() : nullptr;
  }

  /// Packed masks of `size` (<= 8) bytes at in-page offset `off`: one
  /// 8-byte word read (little-endian host, as GuestMemory assumes), masked.
  static std::uint64_t ShadowWord(const std::uint8_t* page, std::uint64_t off,
                                  std::uint32_t size) {
    std::uint64_t word;
    std::memcpy(&word, page + off, sizeof word);
    return word & LowBytesMask(size);
  }

  /// Inline clean probe: true when no byte of the access can carry taint —
  /// no shadow page, or a zero shadow word. An access that straddles two
  /// pages is never clean here; the slow path takes it byte by byte.
  bool ShadowClean(PhysAddr paddr, std::uint32_t size) const {
    const std::uint64_t off = paddr & (kShadowPageSize - 1);
    if (off + size > kShadowPageSize) return false;
    const std::uint8_t* page = FindPage(paddr);
    return page == nullptr || ShadowWord(page, off, size) == 0;
  }

  std::uint64_t OnLoadSlow(std::uint64_t pc, GuestAddr vaddr, PhysAddr paddr,
                           std::uint32_t size, bool sign_extend,
                           std::uint64_t addr_taint, std::uint64_t value);
  void OnStoreSlow(std::uint64_t pc, GuestAddr vaddr, PhysAddr paddr,
                   std::uint32_t size, std::uint64_t addr_taint,
                   std::uint64_t value, std::uint64_t value_taint);

  std::uint8_t* EnsurePage(PhysAddr paddr);

  bool enabled_ = false;
  std::vector<std::uint64_t> val_taint_;  // env slots + temps
  std::uint64_t val_nonzero_ = 0;         // slots with non-zero taint
  std::uint64_t temp_nonzero_ = 0;        // subset of val_nonzero_ >= kTempBase
  // Physical page number -> masks; null until the page first holds taint.
  std::vector<std::unique_ptr<ShadowPage>> pages_;
  std::uint64_t tainted_bytes_ = 0;
  TaintStats stats_;
  MemAccessCallback on_read_;
  MemAccessCallback on_write_;
};

/// Packed-mask helpers (byte i's mask occupies bits [8i, 8i+8)).
std::uint64_t PackMask(const std::uint8_t* masks, std::uint32_t size);
void UnpackMask(std::uint64_t packed, std::uint32_t size, std::uint8_t* masks);

}  // namespace chaser::taint
