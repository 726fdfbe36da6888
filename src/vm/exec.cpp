// The TCG execution engine: QEMU's cpu_exec loop.
//
// Looks up (or translates) the TB for the current pc, then interprets its
// TCG ops against the CPU env slots and per-TB temporaries. Taint rules are
// applied op-by-op (DECAF's enforcement point); the fault-injection helper
// and the syscall helper are dispatched from kCallHelper ops.
//
// Hot-path structure:
//  * Vm::Run chains TBs goto_tb-style: each executed TB reports which static
//    exit it took, and the run loop patches a direct CachedTb* so the next
//    iteration skips the hash lookup entirely;
//  * Vm::LookupTb indexes the local TB slots by pc, and on a miss consults
//    the translation cache (the campaign-wide SharedTbCache, or the Vm's
//    private one) before translating, so a whole campaign translates each
//    TB once;
//  * Vm::ExecuteTb is the one interpreter: a for/switch over the TB's ops;
//  * at a TB boundary the loop can hand the budget it has left to a
//    checkpoint hook (one compare per TB); a process restored there goes on
//    with a Run of that budget.
#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "obs/profiler.h"
#include "tcg/shared_cache.h"
#include "vm/vm.h"

namespace chaser::vm {

namespace {

std::uint64_t SignExtend(std::uint64_t v, std::uint32_t size) {
  switch (size) {
    case 1: return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int8_t>(v)));
    case 2: return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int16_t>(v)));
    case 4: return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
    default: return v;
  }
}

std::uint64_t DoubleToI64(double d) {
  // x86 CVTTSD2SI semantics: NaN and out-of-range convert to the
  // "integer indefinite" value.
  constexpr std::uint64_t kIndefinite = 0x8000000000000000ull;
  if (std::isnan(d) || d >= 9.2233720368547758e18 || d < -9.2233720368547758e18) {
    return kIndefinite;
  }
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
}

}  // namespace

Vm::CachedTb& Vm::LookupTb(std::uint64_t pc) {
  CachedTb& entry = tb_index_[pc];
  if (entry.tb != nullptr) return entry;

  // Local index cap (QEMU code_gen_buffer overflow semantics): drop
  // everything and start over rather than evicting piecemeal.
  if (config_.max_cached_tbs > 0 && tb_filled_.size() >= config_.max_cached_tbs) {
    tb_evictions_ += tb_filled_.size();
    FlushTbCache();
  }
  entry.tb = ResolveTb(pc);
  tb_filled_.push_back(pc);
  return entry;
}

const tcg::TranslationBlock* Vm::ResolveTb(std::uint64_t pc) {
  tcg::SharedTbCache& cache =
      private_cache_ != nullptr ? *private_cache_ : *config_.shared_cache;
  const tcg::SharedTbCache::Key key{program_hash_, variant_key_, pc};
  if (const tcg::TranslationBlock* cached = cache.Lookup(key)) return cached;
  const obs::ScopedPhase obs_scope(obs::Phase::kTranslate);
  tcg::TranslationBlock tb = translator_.Translate(*program_, pc);
  if (config_.optimize_tbs) {
    const tcg::OptimizerStats stats = tcg::Optimize(&tb);
    optimizer_stats_.movs_forwarded += stats.movs_forwarded;
    optimizer_stats_.dead_ops_removed += stats.dead_ops_removed;
    optimizer_stats_.imms_fused += stats.imms_fused;
    optimizer_stats_.addrs_fused += stats.addrs_fused;
    optimizer_stats_.insn_starts_folded += stats.insn_starts_folded;
  }
  ++tb_translations_;
  // Insert returns the canonical TB — a racing worker's copy if it
  // published the same key first (our duplicate is then discarded).
  return cache.Insert(key, std::move(tb));
}

RunState Vm::Run(std::uint64_t max_insns) {
  if (program_ == nullptr) throw ConfigError("Run: no process started");
  std::uint64_t budget = max_insns;
  // goto_tb chaining state: the TB we just executed and the static exit slot
  // it took. Chains are only followed/patched within one Run call — a
  // signal, block, budget exhaustion, or flush drops prev (chain broken).
  CachedTb* prev = nullptr;
  int slot = -1;
  while (run_state_ == RunState::kRunnable && budget > 0) {
    if (instret_ >= checkpoint_at_) [[unlikely]] {
      checkpoint_hook_(*this, budget);
    }
    CachedTb* cur = (prev != nullptr && slot >= 0) ? prev->chain[slot] : nullptr;
    if (cur != nullptr) {
      // Chained: pc already equals the slot's static target, which was
      // bounds-checked when the chain was patched.
      ++tb_chain_hits_;
    } else {
      if (cpu_.pc >= program_->text.size()) {
        RaiseSignal(GuestSignal::kSegv,
                    "jump outside text: pc #" +
                        StrFormat("%llu", static_cast<unsigned long long>(cpu_.pc)));
        break;
      }
      const std::uint64_t fc_lookup = flush_count_;
      cur = &LookupTb(cpu_.pc);
      // A cap-overflow flush inside LookupTb invalidated prev — don't patch
      // through a dangling pointer.
      if (prev != nullptr && slot >= 0 && flush_count_ == fc_lookup) {
        prev->chain[slot] = cur;
      }
    }
    ++tb_executions_;
    slot = -1;
    const std::uint64_t fc_exec = flush_count_;
    ExecuteTb(*cur->tb, &budget, &slot);
    // A helper-triggered flush (RequestTbFlush fires below, but StartProcess
    // from a hook flushes immediately) also invalidates cur.
    prev = (flush_count_ == fc_exec) ? cur : nullptr;
    if (tb_flush_pending_) {
      tb_flush_pending_ = false;
      FlushTbCache();
      prev = nullptr;
    }
  }
  return run_state_;
}

void Vm::HandleSyscallHelper(std::uint64_t pc) {
  const std::uint64_t num = cpu_.IntReg(7);
  const SyscallResult result = HandleCoreSyscall(num);
  switch (result.outcome) {
    case SyscallResult::Outcome::kDone:
      cpu_.IntReg(0) = result.retval;
      // The syscall result comes from the host/runtime: clean unless the
      // extension explicitly tainted the destination buffer.
      taint_.SetValTaint(tcg::EnvInt(0), 0);
      break;
    case SyscallResult::Outcome::kBlock:
      run_state_ = RunState::kBlocked;
      cpu_.pc = pc;      // re-execute the syscall once unblocked
      --instret_;        // the retried instruction is not double-counted
      break;
    case SyscallResult::Outcome::kTerminated:
      break;
  }
}

// `*exit_slot` reports which static successor the TB exited through so the
// run loop can patch goto_tb-style chain pointers: 0 = kGotoTb / taken
// kBrCond, 1 = fallthrough kBrCond. The caller pre-sets -1; dynamic exits
// (kExitTb) and abnormal exits (signal, block, budget) leave it at -1.
// Cache-line aligned: fixes this function's placement, not other code's,
// which still moves timings (EXPERIMENTS.md).
[[gnu::aligned(64)]] void Vm::ExecuteTb(const tcg::TranslationBlock& tb,
                                        std::uint64_t* __restrict budget,
                                        int* __restrict exit_slot) {
  using tcg::TcgOpc;
  if (temps_.size() < tb.num_temps) temps_.resize(tb.num_temps);
  // Elastic taint (DECAF++), decided at TB entry. taint_on: some taint
  // exists (a value slot or a memory byte); while false the whole taint path
  // is skipped. track: some value slot is tainted, so every op propagates
  // (track mode). With taint only in memory (check mode) ALU, FP, flag and
  // move ops skip propagation — exact, because every value slot is clean and
  // every rule maps clean inputs to a clean result — while loads and stores
  // still consult the shadow: a load can pick taint up, and a clean store
  // over tainted bytes clears them. A load that returns taint, a helper that
  // leaves a value slot tainted, or a stuck-at re-pin switches the TB to
  // track mode; helpers (the injector, MPI receive) can also create or drop
  // memory taint, so both latches are refreshed after every kCallHelper.
  const bool taint_enabled = taint_.enabled();
  bool taint_on = taint_enabled && taint_.Active();
  if (taint_on) taint_.BeginTb(tb.num_temps);
  bool track = taint_on && taint_.AnyValTainted();
  // Hooks cannot be (re)installed mid-TB, so fold the trace-hook presence
  // and the taint latch into one per-instruction bool.
  const bool tracing = static_cast<bool>(insn_trace_hook_);
  bool trace_on = tracing && taint_on;

  auto get = [&](tcg::ValId v) __attribute__((always_inline)) -> std::uint64_t {
    return v < tcg::kNumEnvSlots ? cpu_.env[v] : temps_[v - tcg::kTempBase];
  };
  auto put = [&](tcg::ValId v, std::uint64_t x) __attribute__((always_inline)) {
    if (v < tcg::kNumEnvSlots) {
      cpu_.env[v] = x;
    } else {
      temps_[v - tcg::kTempBase] = x;
    }
  };
  auto fp = [&](tcg::ValId v) { return std::bit_cast<double>(get(v)); };
  // Second operand of an integer op: the fused immediate, or the src2 slot.
  // Taint-wise the two are interchangeable — a fused op's src2 still names
  // the folded kMovI's temp, which is cleared at TB entry and never written,
  // so taint reads through src2 yield the 0 the kMovI would have produced.
  auto srcb = [&](const tcg::TcgOp& op) __attribute__((always_inline)) -> std::uint64_t {
    return op.src2_imm ? op.imm : get(op.src2);
  };
  // Effective address of a load/store (imm2 is 0 unless addr_fused), and the
  // taint the folded kAdd would have left on the address temp.
  auto mem_addr = [&](const tcg::TcgOp& op) __attribute__((always_inline)) -> GuestAddr {
    return get(op.src1) + op.imm2;
  };
  auto mem_addr_taint = [&](const tcg::TcgOp& op) -> std::uint64_t {
    const std::uint64_t ta = taint_.GetValTaint(op.src1);
    if (!op.addr_fused || ta == 0) return ta;
    return taint_.PropagateOp(tcg::TcgOpc::kAdd, ta, 0, get(op.src1), op.imm2);
  };
  auto propagate2 = [&](const tcg::TcgOp& op, std::uint64_t a,
                        std::uint64_t bv) __attribute__((always_inline)) {
    if (!track) return;
    const std::uint64_t ta = taint_.GetValTaint(op.src1);
    const std::uint64_t tb = taint_.GetValTaint(op.src2);
    if ((ta | tb) == 0) {
      taint_.ClearValTaint(op.dst);  // clean result; avoid the full Set path
      return;
    }
    taint_.SetValTaint(op.dst, taint_.PropagateOp(op.opc, ta, tb, a, bv));
  };
  auto propagate1 = [&](const tcg::TcgOp& op,
                        std::uint64_t a) __attribute__((always_inline)) {
    if (!track) return;
    const std::uint64_t ta = taint_.GetValTaint(op.src1);
    if (ta == 0) {
      taint_.ClearValTaint(op.dst);
      return;
    }
    taint_.SetValTaint(op.dst, taint_.PropagateOp(op.opc, ta, 0, a, 0));
  };

// Per-instruction bookkeeping, shared by the explicit kInsnStart handler and
// by ops the optimizer flagged insn_boundary (the folded kInsnStart's pc
// lives in guest_pc there, in imm here). next_stop_ fuses the watchdog and
// sample-schedule compares; the slow path re-derives which (if either) fired.
#define VM_INSN_PROLOGUE(pc_expr)                                          \
  do {                                                                     \
    ++instret_;                                                            \
    if (*budget > 0) --*budget;                                            \
    if (instret_ >= next_stop_) {                                          \
      if (instret_ > config_.max_instructions) {                           \
        RaiseSignal(GuestSignal::kKill,                                    \
                    "watchdog: instruction budget exhausted (hung run)");  \
        return;                                                            \
      }                                                                    \
      if (sample_interval_ != 0 && instret_ >= next_sample_) {             \
        next_sample_ += sample_interval_;                                  \
        UpdateNextStop();                                                  \
        if (sample_hook_) {                                                \
          sample_hook_(*this, instret_);                                   \
          if (run_state_ != RunState::kRunnable) return;                   \
        }                                                                  \
      }                                                                    \
    }                                                                      \
    /* Stuck-at faults: re-pin at every instruction boundary so each read  \
       observes the stuck bits; a re-pin that flips state re-taints, which \
       must wake the elastic taint latch exactly like an injector helper   \
       would. stuck_active_ is false on every default-path trial. */       \
    if (stuck_active_ && ReassertStuckFaults() && taint_enabled) {         \
      if (!taint_on) taint_.BeginTb(tb.num_temps);                         \
      taint_on = true;                                                     \
      track = true;                                                        \
      trace_on = tracing;                                                  \
    }                                                                      \
    if (trace_on) {                                                        \
      insn_trace_hook_(*this, (pc_expr));                                  \
      if (run_state_ != RunState::kRunnable) return;                       \
    }                                                                      \
  } while (0)

  // No per-op run_state_ check: every handler that raises a signal or
  // terminates returns immediately, and the two helper/hook sites that can
  // change state indirectly check explicitly after the call. A TB always
  // ends in a terminator that returns, so the loop bound is a safety net.
  for (const tcg::TcgOp* opp = tb.ops.data(), *const op_end = opp + tb.ops.size();
       opp != op_end; ++opp) {
    if (opp->insn_boundary) VM_INSN_PROLOGUE(opp->guest_pc);
    switch (opp->opc) {
      case TcgOpc::kInsnStart:
        VM_INSN_PROLOGUE(opp->imm);
        break;
      case TcgOpc::kMovI:
        put(opp->dst, opp->imm);
        if (track) taint_.ClearValTaint(opp->dst);
        break;
      case TcgOpc::kMov:
        put(opp->dst, get(opp->src1));
        if (track) taint_.SetValTaint(opp->dst, taint_.GetValTaint(opp->src1));
        break;

      case TcgOpc::kAdd: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a + bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kSub: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a - bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kMul: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a * bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kDivS:
      case TcgOpc::kRemS: {
        const auto a = static_cast<std::int64_t>(get(opp->src1));
        const auto bv = static_cast<std::int64_t>(srcb(*opp));
        if (bv == 0) {
          RaiseSignal(GuestSignal::kFpe, "integer division by zero");
          return;
        }
        if (a == INT64_MIN && bv == -1) {
          RaiseSignal(GuestSignal::kFpe, "integer division overflow");
          return;
        }
        put(opp->dst,
            static_cast<std::uint64_t>(opp->opc == TcgOpc::kDivS ? a / bv : a % bv));
        propagate2(*opp, static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(bv));
        break;
      }
      case TcgOpc::kDivU:
      case TcgOpc::kRemU: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        if (bv == 0) {
          RaiseSignal(GuestSignal::kFpe, "integer division by zero");
          return;
        }
        put(opp->dst, opp->opc == TcgOpc::kDivU ? a / bv : a % bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kAnd: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a & bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kOr: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a | bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kXor: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a ^ bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kShl: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a << (bv & 63u));
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kShr: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst, a >> (bv & 63u));
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kSar: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        put(opp->dst,
            static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (bv & 63u)));
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kNot: {
        const std::uint64_t a = get(opp->src1);
        put(opp->dst, ~a);
        propagate1(*opp, a);
        break;
      }
      case TcgOpc::kNeg: {
        const std::uint64_t a = get(opp->src1);
        put(opp->dst, 0 - a);
        propagate1(*opp, a);
        break;
      }

      case TcgOpc::kQemuLd: {
        const GuestAddr vaddr = mem_addr(*opp);
        const auto size = static_cast<std::uint32_t>(opp->size);
        PhysAddr paddr = 0;
        const auto loaded = memory_.Load(vaddr, size, &paddr);
        if (!loaded) {
          RaiseSignal(GuestSignal::kSegv, "load fault at " + Hex64(vaddr));
          return;
        }
        const std::uint64_t value = opp->sign ? SignExtend(*loaded, size) : *loaded;
        put(opp->dst, value);
        if (taint_on) {
          const std::uint64_t t =
              taint_.OnLoad(opp->guest_pc, vaddr, paddr, size, opp->sign,
                            mem_addr_taint(*opp), *loaded);
          if (t != 0) track = true;
          if (track) taint_.SetValTaint(opp->dst, t);
        }
        break;
      }
      case TcgOpc::kQemuSt: {
        const GuestAddr vaddr = mem_addr(*opp);
        const std::uint64_t value = srcb(*opp);
        const auto size = static_cast<std::uint32_t>(opp->size);
        PhysAddr paddr = 0;
        if (!memory_.Store(vaddr, size, value, &paddr)) {
          RaiseSignal(GuestSignal::kSegv, "store fault at " + Hex64(vaddr));
          return;
        }
        if (taint_on) {
          taint_.OnStore(opp->guest_pc, vaddr, paddr, size,
                         mem_addr_taint(*opp), value,
                         taint_.GetValTaint(opp->src2));
        }
        break;
      }

      case TcgOpc::kFAdd:
        put(opp->dst, std::bit_cast<std::uint64_t>(fp(opp->src1) + fp(opp->src2)));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;
      case TcgOpc::kFSub:
        put(opp->dst, std::bit_cast<std::uint64_t>(fp(opp->src1) - fp(opp->src2)));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;
      case TcgOpc::kFMul:
        put(opp->dst, std::bit_cast<std::uint64_t>(fp(opp->src1) * fp(opp->src2)));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;
      case TcgOpc::kFDiv:
        put(opp->dst, std::bit_cast<std::uint64_t>(fp(opp->src1) / fp(opp->src2)));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;
      case TcgOpc::kFMin:
        put(opp->dst,
            std::bit_cast<std::uint64_t>(std::fmin(fp(opp->src1), fp(opp->src2))));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;
      case TcgOpc::kFMax:
        put(opp->dst,
            std::bit_cast<std::uint64_t>(std::fmax(fp(opp->src1), fp(opp->src2))));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;
      case TcgOpc::kFNeg:
        put(opp->dst, std::bit_cast<std::uint64_t>(-fp(opp->src1)));
        propagate1(*opp, get(opp->src1));
        break;
      case TcgOpc::kFAbs:
        put(opp->dst, std::bit_cast<std::uint64_t>(std::fabs(fp(opp->src1))));
        propagate1(*opp, get(opp->src1));
        break;
      case TcgOpc::kFSqrt:
        put(opp->dst, std::bit_cast<std::uint64_t>(std::sqrt(fp(opp->src1))));
        propagate1(*opp, get(opp->src1));
        break;
      case TcgOpc::kCvtIF:
        put(opp->dst,
            std::bit_cast<std::uint64_t>(
                static_cast<double>(static_cast<std::int64_t>(get(opp->src1)))));
        propagate1(*opp, get(opp->src1));
        break;
      case TcgOpc::kCvtFI:
        put(opp->dst, DoubleToI64(fp(opp->src1)));
        propagate1(*opp, get(opp->src1));
        break;

      case TcgOpc::kSetFlags: {
        const std::uint64_t a = get(opp->src1), bv = srcb(*opp);
        cpu_.env[tcg::kEnvFlags] = tcg::ComputeFlags(a, bv);
        propagate2(*opp, a, bv);
        break;
      }
      case TcgOpc::kSetFlagsF:
        cpu_.env[tcg::kEnvFlags] = tcg::ComputeFlagsF(fp(opp->src1), fp(opp->src2));
        propagate2(*opp, get(opp->src1), get(opp->src2));
        break;

      case TcgOpc::kCallHelper:
        switch (opp->helper) {
          case tcg::HelperId::kSyscall:
            HandleSyscallHelper(opp->imm);
            if (run_state_ != RunState::kRunnable) return;
            break;
          case tcg::HelperId::kFaultInjector:
            if (injector_hook_) {
              // Pin first: the hook may detach itself (fi_clean_cb), and
              // reassigning the member while it executes would destroy the
              // callable under our feet.
              const auto hook = injector_hook_;
              (*hook)(*this, opp->imm);
            }
            if (run_state_ != RunState::kRunnable) return;
            if (skip_pending_) {
              // Instruction-skip fault: squash the instruction this helper
              // guards. It already counted as retired (its prologue ran);
              // resuming at the next index is a dynamic exit (slot stays
              // -1), so no chain pointer ever learns the squashed path.
              skip_pending_ = false;
              cpu_.pc = opp->imm + 1;
              return;
            }
            break;
          case tcg::HelperId::kHaltTrap:
            RaiseSignal(GuestSignal::kIll, "halt instruction executed");
            return;
        }
        // A helper may have created (injector, MPI receive) or consumed
        // taint: refresh the elastic latches.
        if (taint_enabled) {
          const bool now_active = taint_.Active();
          if (now_active && !taint_on) taint_.BeginTb(tb.num_temps);
          taint_on = now_active;
          track = taint_.AnyValTainted();
          trace_on = tracing && taint_on;
        }
        break;

      case TcgOpc::kGotoTb:
        cpu_.pc = opp->imm;
        *exit_slot = 0;
        return;
      case TcgOpc::kBrCond: {
        const bool taken = tcg::CondHolds(opp->cond, cpu_.env[tcg::kEnvFlags]);
        cpu_.pc = taken ? opp->imm : opp->imm2;
        *exit_slot = taken ? 0 : 1;
        return;
      }
      case TcgOpc::kExitTb:
        cpu_.pc = get(opp->src1);
        return;
    }
  }
#undef VM_INSN_PROLOGUE
}

}  // namespace chaser::vm
