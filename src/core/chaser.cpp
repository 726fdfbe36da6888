#include "core/chaser.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "obs/profiler.h"

namespace chaser::core {

Chaser::Chaser(vm::Vm& vm) : Chaser(vm, Options{}) {}

Chaser::Chaser(vm::Vm& vm, Options options)
    : vm_(vm), options_(options), trace_log_(options.trace_capacity) {
  // fi_creation_cb: screen newly created processes for the target.
  vm_.set_on_process_create([this](vm::Vm&, Pid, const std::string& name) {
    OnProcessCreate(name);
  });
  injector_hook_ = std::make_shared<const vm::Vm::InjectorHook>(
      [this](vm::Vm&, std::uint64_t pc) { OnInjectorHelper(pc); });
}

void Chaser::Arm(InjectionCommand cmd) {
  owned_cmd_ = std::move(cmd);
  Arm(owned_cmd_, owned_cmd_.seed, /*inject=*/true);
}

void Chaser::Arm(const InjectionCommand& cmd, std::uint64_t seed, bool inject) {
  cmd_ = &cmd;
  inject_ = inject;
  rng_.Reseed(seed);
  // If the target process is already running, attach right away.
  if (vm_.program() != nullptr && vm_.run_state() != vm::RunState::kTerminated &&
      vm_.process_name() == cmd_->target_program) {
    Attach();
  }
}

void Chaser::Disarm() {
  Detach();
  cmd_ = nullptr;
}

void Chaser::OnProcessCreate(const std::string& name) {
  if (!cmd_ || name != cmd_->target_program) return;
  Attach();
}

void Chaser::Attach() {
  // Fresh per-run state (campaigns re-Start the same VM repeatedly).
  exec_count_ = 0;
  for (const std::uint64_t pc : site_pcs_) site_counts_[pc] = 0;
  site_pcs_.clear();
  if (cmd_->profile_sites) site_counts_.resize(vm_.program()->text.size());
  records_.clear();
  trace_log_.Clear();
  taint_timeline_.clear();
  attached_ = true;

  if (inject_ && !cmd_->TraceOnly()) {
    trigger_ = cmd_->trigger->Clone();
    injector_active_ = true;
    std::uint32_t classes = 0;  // InstrClass has fewer than 32 members
    for (const guest::InstrClass c : cmd_->target_classes) {
      classes |= 1u << static_cast<unsigned>(c);
    }
    if (!predicate_ || classes != predicate_classes_) {
      // The predicate is a pure function of the target-class set, so key it
      // for the shared translation cache: every trial targeting the same
      // classes shares one set of instrumented TBs. Bit 63 keeps user keys
      // disjoint from the reserved keys (0, and 1 for the clean variant).
      std::uint64_t key = 1469598103934665603ull;
      for (const guest::InstrClass c : cmd_->target_classes) {  // sorted
        key ^= static_cast<std::uint64_t>(c);
        key *= 1099511628211ull;
      }
      predicate_classes_ = classes;
      predicate_key_ = key | 1ull << 63;
      // Captures one word, so copies of it allocate nothing.
      predicate_ = [classes](const guest::Instruction& in, std::uint64_t) {
        return (classes >> static_cast<unsigned>(guest::ClassOf(in.op)) & 1u) != 0;
      };
    }
    vm_.SetInstrumentPredicate(predicate_, predicate_key_);
    vm_.set_injector_hook(injector_hook_);
  } else {
    trigger_.reset();
    injector_active_ = false;
    vm_.SetInstrumentPredicate(nullptr, vm::Vm::kCleanPredicateKey);
    vm_.set_injector_hook(nullptr);
  }
  vm_.FlushTbCache();

  if (cmd_->trace) {
    vm_.taint().set_enabled(true);
    vm_.taint().set_on_tainted_read([this](const taint::TaintMemAccess& a) {
      trace_log_.Add({.kind = TraceEventKind::kTaintedRead, .rank = rank_,
                      .instret = vm_.instret(), .pc = a.pc, .vaddr = a.vaddr,
                      .paddr = a.paddr, .size = a.size, .value = a.value,
                      .taint = a.taint});
    });
    vm_.taint().set_on_tainted_write([this](const taint::TaintMemAccess& a) {
      trace_log_.Add({.kind = TraceEventKind::kTaintedWrite, .rank = rank_,
                      .instret = vm_.instret(), .pc = a.pc, .vaddr = a.vaddr,
                      .paddr = a.paddr, .size = a.size, .value = a.value,
                      .taint = a.taint});
    });
    vm_.SetTaintedOutputHook([this](vm::Vm& v, const vm::Vm::TaintedOutputByte& b) {
      trace_log_.Add({.kind = TraceEventKind::kTaintedOutput, .rank = rank_,
                      .instret = v.instret(), .pc = v.cpu().pc, .vaddr = b.vaddr,
                      .paddr = b.paddr, .size = 1, .value = b.value,
                      .taint = b.taint, .fd = b.fd, .stream_off = b.stream_off});
    });
    if (options_.taint_sample_interval > 0) {
      vm_.SetInstretSample(
          options_.taint_sample_interval, [this](vm::Vm& v, std::uint64_t instret) {
            taint_timeline_.push_back(
                {rank_, instret, v.taint().CountTaintedBytes()});
          });
    }
    if (options_.granularity == TraceGranularity::kInstruction) {
      vm_.SetInsnTraceHook([this](vm::Vm& v, std::uint64_t pc) {
        trace_log_.Add({.kind = TraceEventKind::kInstruction, .rank = rank_,
                        .instret = v.instret(), .pc = pc});
      });
    } else {
      vm_.SetInsnTraceHook(nullptr);
    }
  } else {
    vm_.taint().set_enabled(false);
    vm_.SetInstretSample(0, nullptr);
    vm_.SetInsnTraceHook(nullptr);
    vm_.SetTaintedOutputHook(nullptr);
  }
}

void Chaser::Detach() {
  attached_ = false;
  injector_active_ = false;
  trigger_.reset();
  vm_.SetInstrumentPredicate(nullptr, vm::Vm::kCleanPredicateKey);
  vm_.set_injector_hook(nullptr);
  vm_.RequestTbFlush();
}

Trigger::SiteCounts Chaser::site_execs() const {
  Trigger::SiteCounts sites;
  sites.reserve(site_pcs_.size());
  for (const std::uint64_t pc : site_pcs_) sites.emplace_back(pc, site_counts_[pc]);
  std::sort(sites.begin(), sites.end());
  return sites;
}

Chaser::Checkpoint Chaser::Capture() const {
  Checkpoint ck;
  ForEachPart(ck, *this, [this](const char*, auto& part, const auto& live) {
    if constexpr (std::is_same_v<decltype(part), Trigger::SiteCounts&>) {
      part = site_execs();
    } else {
      part = live;
    }
  });
  return ck;
}

void Chaser::Restore(const Checkpoint& ck) {
  if (!attached_) return;
  // A trace-only Chaser counts nothing, as in a booted run. An injecting
  // one takes the counts and fast-forwards its trigger over them, unless
  // there are none yet (checkpoint 0), when every trigger is still fresh.
  ForEachPart(ck, *this, [&](const char*, const auto& part, auto& live) {
    using T = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<T, Trigger::SiteCounts>) {
      if (!injector_active_ || !cmd_->profile_sites) return;
      for (const auto& [pc, count] : part) {
        live[pc] = count;
        site_pcs_.push_back(pc);
      }
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      // The execution count, picked by itself: another part may be a count.
      if (&part != &ck.exec_count) {
        live = part;
      } else if (injector_active_ && ck.exec_count > 0) {
        const Trigger::SiteCounts* sites = ck.site_execs.empty() ? nullptr : &ck.site_execs;
        if (!trigger_->FastForward(ck.exec_count, sites)) {
          throw ConfigError("Chaser::Restore: the trigger fires within the prefix");
        }
        live = part;
      }
    } else {
      live = part;
    }
  });
}

void Chaser::OnInjectorHelper(std::uint64_t pc) {
  if (!injector_active_ || !cmd_) return;
  ++exec_count_;
  if (cmd_->profile_sites && site_counts_[pc]++ == 0) site_pcs_.push_back(pc);
  if (!trigger_->ShouldFireAt(exec_count_, pc, rng_)) {
    if (trigger_->Expired()) {
      // fi_clean_cb: stop screening and flush the instrumentation out of the
      // translation cache; tracing (taint) stays on.
      injector_active_ = false;
      vm_.SetInstrumentPredicate(nullptr, vm::Vm::kCleanPredicateKey);
      vm_.set_injector_hook(nullptr);
      vm_.RequestTbFlush();
    }
    return;
  }

  const obs::ScopedPhase obs_scope(obs::Phase::kInject);
  const guest::Instruction& instr = vm_.program()->text[pc];
  InjectionContext ctx{vm_, pc, instr, exec_count_, vm_.instret(), rng_, records_};
  const std::size_t before = records_.size();
  cmd_->injector->Inject(ctx);
  for (std::size_t i = before; i < records_.size(); ++i) {
    InjectionRecord& rec = records_[i];
    rec.pc = pc;
    rec.exec_count = exec_count_;
    rec.instr_class = guest::ClassOf(instr.op);
    trace_log_.Add({.kind = TraceEventKind::kInjection, .rank = rank_,
                    .instret = vm_.instret(), .pc = pc, .vaddr = rec.vaddr,
                    .paddr = 0, .size = 8, .value = rec.new_value,
                    .taint = rec.flip_mask});
    // Describe() formats three hex strings: skip it below kDebug.
    if (GetLogLevel() == LogLevel::kDebug) LogDebug(rec.Describe());
  }

  if (trigger_->Expired()) {
    injector_active_ = false;
    vm_.SetInstrumentPredicate(nullptr, vm::Vm::kCleanPredicateKey);
    vm_.set_injector_hook(nullptr);
    vm_.RequestTbFlush();
  }
}

}  // namespace chaser::core
