// TCG-like intermediate representation.
//
// QEMU translates each guest basic block into a Translation Block (TB) of
// architecture-independent TCG ops; DECAF enforces taint-propagation rules at
// this level, and Chaser splices its fault-injection helper call into the IR
// of targeted instructions (paper Fig. 3). We mirror that structure: a
// Translator (src/tcg/translator.*) lowers GISA-64 instructions into TcgOps,
// and the execution engine (src/vm) interprets them, with the taint engine
// (src/taint) shadowing every IR value.
//
// Value space: a single index space of "value slots".
//   [0, 16)   guest integer registers r0..r15
//   [16, 32)  guest FP registers f0..f15 (as 64-bit patterns)
//   32        flags register (bit0 = eq, bit1 = lt-signed, bit2 = lt-unsigned)
//   [64, ...) per-TB temporaries t0, t1, ...
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "guest/isa.h"

namespace chaser::tcg {

using ValId = std::uint16_t;

inline constexpr ValId kEnvIntBase = 0;
inline constexpr ValId kEnvFpBase = 16;
inline constexpr ValId kEnvFlags = 32;
inline constexpr ValId kNumEnvSlots = 33;
inline constexpr ValId kTempBase = 64;

constexpr ValId EnvInt(unsigned r) { return static_cast<ValId>(kEnvIntBase + r); }
constexpr ValId EnvFp(unsigned f) { return static_cast<ValId>(kEnvFpBase + f); }
constexpr bool IsEnvSlot(ValId v) { return v < kNumEnvSlots; }
constexpr bool IsTemp(ValId v) { return v >= kTempBase; }

/// Flags register bit layout.
inline constexpr std::uint64_t kFlagEq = 1u << 0;
inline constexpr std::uint64_t kFlagLtS = 1u << 1;
inline constexpr std::uint64_t kFlagLtU = 1u << 2;

enum class TcgOpc : std::uint8_t {
  kInsnStart,   // marks a guest instruction boundary; imm = guest pc index
  kMovI,        // dst <- imm
  kMov,         // dst <- src1

  // Integer ALU on 64-bit values.
  kAdd, kSub, kMul, kDivS, kDivU, kRemS, kRemU,
  kAnd, kOr, kXor, kShl, kShr, kSar, kNot, kNeg,

  // Memory (guest virtual addresses; soft-MMU applies).
  kQemuLd,      // dst <- mem[src1]; size bytes; sign-extend if `sign`
  kQemuSt,      // mem[src1] <- src2; size bytes

  // FP helpers (operate on 64-bit double bit patterns, like softfloat calls).
  kFAdd, kFSub, kFMul, kFDiv, kFNeg, kFAbs, kFSqrt, kFMin, kFMax,
  kCvtIF,       // dst <- bits(double(int64 src1))
  kCvtFI,       // dst <- int64(trunc(double bits src1))

  // Flag computation (dst is always kEnvFlags).
  kSetFlags,    // flags from signed/unsigned compare of src1 ? src2
  kSetFlagsF,   // flags from double compare of bits(src1) ? bits(src2)

  // Host helper invocation (syscalls, fault injector, halt trap).
  kCallHelper,  // helper id in `helper`, guest pc in imm

  // TB terminators.
  kGotoTb,      // static successor: next pc index = imm
  kBrCond,      // if flags satisfy `cond` -> pc = imm else pc = imm2
  kExitTb,      // dynamic successor: next pc index = value of src1
};

/// Host helpers reachable from IR.
enum class HelperId : std::uint8_t {
  kSyscall = 1,
  kFaultInjector = 2,  // Chaser's DECAF_inject_fault equivalent
  kHaltTrap = 3,
};

struct TcgOp {
  TcgOpc opc = TcgOpc::kInsnStart;
  ValId dst = 0;
  ValId src1 = 0;
  ValId src2 = 0;
  guest::MemSize size = guest::MemSize::k8;
  bool sign = false;
  // Optimizer immediate fusion (never set by the translator):
  //  * src2_imm — the second operand is `imm`, not the value slot in src2.
  //    src2 still names the dead kMovI temp so taint reads stay valid (the
  //    temp is cleared at TB entry and nothing else writes it, so its taint
  //    is exactly the 0 the folded kMovI would have produced).
  //  * addr_fused (kQemuLd/kQemuSt) — the effective address is
  //    val(src1) + imm2; the folded kAdd's taint rule is applied to the
  //    base's taint by the interpreter. Unfused memory ops keep imm2 == 0,
  //    so the address math needs no branch.
  bool src2_imm = false;
  bool addr_fused = false;
  //  * insn_boundary — this op absorbed the preceding kInsnStart: the
  //    dispatch glue runs the per-instruction bookkeeping (instret, budget,
  //    watchdog, sample/trace hooks) before executing it. guest_pc supplies
  //    the instruction index the folded kInsnStart carried in imm.
  bool insn_boundary = false;
  guest::Cond cond = guest::Cond::kEq;
  HelperId helper = HelperId::kSyscall;
  std::uint64_t imm = 0;
  std::uint64_t imm2 = 0;
  std::uint64_t guest_pc = 0;  // index of the guest instruction that produced this op
};

/// A translated block of guest code, cached by the execution engine.
struct TranslationBlock {
  std::uint64_t start_pc = 0;       // first guest instruction index
  std::uint32_t num_insns = 0;      // guest instructions covered
  std::uint16_t num_temps = 0;      // temporaries used (t0..tN-1)
  bool instrumented = false;        // true if any injector call was spliced in
  std::vector<TcgOp> ops;
};

/// True if `cond` holds for a packed flags value. Inline: evaluated for
/// every conditional branch the interpreter executes.
inline bool CondHolds(guest::Cond cond, std::uint64_t flags) {
  const bool eq = (flags & kFlagEq) != 0;
  const bool lt_s = (flags & kFlagLtS) != 0;
  const bool lt_u = (flags & kFlagLtU) != 0;
  switch (cond) {
    case guest::Cond::kEq: return eq;
    case guest::Cond::kNe: return !eq;
    case guest::Cond::kLt: return lt_s;
    case guest::Cond::kLe: return lt_s || eq;
    case guest::Cond::kGt: return !(lt_s || eq);
    case guest::Cond::kGe: return !lt_s;
    case guest::Cond::kLtU: return lt_u;
    case guest::Cond::kGeU: return !lt_u;
  }
  return false;
}

/// Compute packed flags for an integer compare lhs ? rhs. Inline: one call
/// per kSetFlags op.
inline std::uint64_t ComputeFlags(std::uint64_t lhs, std::uint64_t rhs) {
  std::uint64_t flags = 0;
  if (lhs == rhs) flags |= kFlagEq;
  if (static_cast<std::int64_t>(lhs) < static_cast<std::int64_t>(rhs)) flags |= kFlagLtS;
  if (lhs < rhs) flags |= kFlagLtU;
  return flags;
}

/// Compute packed flags for a double compare (unordered -> no flags set).
inline std::uint64_t ComputeFlagsF(double lhs, double rhs) {
  std::uint64_t flags = 0;
  if (lhs == rhs) flags |= kFlagEq;
  if (lhs < rhs) flags |= kFlagLtS | kFlagLtU;
  return flags;  // NaN compares: no flags (matches x86 unordered semantics loosely)
}

const char* TcgOpcName(TcgOpc opc);

/// Printable listing of a TB (for tests and debugging).
std::string PrintTb(const TranslationBlock& tb);

}  // namespace chaser::tcg
