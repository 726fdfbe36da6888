// Chaser: the fault-injection and propagation-tracing framework, attached to
// one VM (one guest process).
//
// Mirrors the paper's plugin flow (§III-A(c), Fig. 4):
//
//   inject_fault command      -> InjectionCommand (fi_cmds_st)
//   fi_creation_cb            -> VMI process-create callback; on a name match,
//                                Chaser flushes the TB cache and installs the
//                                instrumentation predicate for the targeted
//                                instruction classes only
//   DECAF_inject_fault helper -> OnInjectorHelper: bump the executed counter,
//                                ask the trigger (fi_trigger_st), invoke the
//                                user's FaultInjector when it fires
//   fi_clean_cb               -> when the trigger expires, the injector is
//                                detached and the instrumentation flushed out
//   tainted_mem_rd/wt_cb      -> TraceLog records (eip, vaddr, paddr, taint,
//                                value), plus the tainted-bytes timeline
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/injector.h"
#include "core/trace.h"
#include "core/trigger.h"
#include "guest/isa.h"
#include "vm/vm.h"

namespace chaser::core {

/// The user's full injection request (the paper's fi_cmds_st): what
/// application, which instructions, when to fire, and how to corrupt.
struct InjectionCommand {
  std::string target_program;                    // matched against process name
  std::set<guest::InstrClass> target_classes;    // e.g. {kFadd} or {kMov}
  std::shared_ptr<const Trigger> trigger;        // cloned per run; null = trace-only
  std::shared_ptr<FaultInjector> injector;       // null = trace-only
  bool trace = true;                             // enable propagation tracing
  std::uint64_t seed = 1;                        // injector/trigger randomness
  /// Record a per-pc execution histogram of the targeted instructions
  /// (site_execs()). Sampled campaigns enable this on the golden run, to
  /// build their importance-sampling frame, and on every trial, whose
  /// golden-prefix captures carry what pc-local triggers read; off by
  /// default — it adds a counter update per targeted execution.
  bool profile_sites = false;

  /// True if this command only traces (no instrumentation is inserted).
  bool TraceOnly() const { return trigger == nullptr || injector == nullptr; }
};

class Chaser {
 public:
  enum class TraceGranularity : std::uint8_t {
    /// Chaser's design: record tainted memory accesses only (paper SII-C(b)).
    kMemoryAccess,
    /// The rejected alternative: additionally record *every* instruction
    /// retired while taint is live. Complete but prohibitively expensive;
    /// kept for the ablation that reproduces the paper's design argument.
    kInstruction,
  };

  struct Options {
    std::size_t trace_capacity = 1u << 17;
    /// Sample the tainted-byte count every N retired instructions
    /// (paper Fig. 7 samples every 100K). 0 disables the timeline.
    std::uint64_t taint_sample_interval = 100'000;
    TraceGranularity granularity = TraceGranularity::kMemoryAccess;
  };

  explicit Chaser(vm::Vm& vm);
  Chaser(vm::Vm& vm, Options options);

  // Non-copyable: registers callbacks pointing at itself.
  Chaser(const Chaser&) = delete;
  Chaser& operator=(const Chaser&) = delete;

  /// Register the command. Attachment happens when a process whose name
  /// matches `cmd.target_program` is created in the VM.
  void Arm(InjectionCommand cmd);

  /// Arm with a command the caller keeps alive and unchanged while it is
  /// armed (ChaserMpi shares one across its ranks), seeded with `seed`
  /// instead of cmd.seed. `inject` false arms it trace-only, as if its
  /// trigger and injector were null.
  void Arm(const InjectionCommand& cmd, std::uint64_t seed, bool inject);

  /// Drop the command and detach from the current process.
  void Disarm();

  /// Set the rank label stamped on trace events (ChaserMpi uses this).
  void set_rank(Rank rank) { rank_ = rank; }

  // ---- Per-run results ------------------------------------------------------
  bool attached() const { return attached_; }
  /// Executions of targeted instructions observed so far (profiling runs use
  /// this with a NeverTrigger to size deterministic triggers).
  std::uint64_t targeted_executions() const { return exec_count_; }
  /// True while the armed trigger can still fire: the injector is attached
  /// and has not expired. Until then the run is the clean golden run.
  bool trigger_pending() const { return injector_active_; }
  /// Per-pc execution counts of the targeted instructions, sorted by pc —
  /// populated only when the armed command set `profile_sites` (empty
  /// otherwise). The counts sum to targeted_executions().
  Trigger::SiteCounts site_execs() const;
  const std::vector<InjectionRecord>& injections() const { return records_; }
  TraceLog& trace_log() { return trace_log_; }
  const TraceLog& trace_log() const { return trace_log_; }
  const std::vector<TaintSample>& taint_timeline() const { return taint_timeline_; }

  vm::Vm& vm() { return vm_; }
  Rng& rng() { return rng_; }

  // ---- Golden-prefix checkpoints ---------------------------------------------
  /// What a clean run leaves in a Chaser by a checkpoint: targeted
  /// executions (in total, and per pc: empty unless the command profiled
  /// sites) and the taint timeline so far. A clean prefix logs no trace
  /// event and makes no injection, so nothing else moves.
  struct Checkpoint {
    std::uint64_t exec_count = 0;
    Trigger::SiteCounts site_execs;
    std::vector<TaintSample> taint_timeline;
  };
  /// The one list of that state (see vm::Vm::ForEachPart). Live, the site
  /// counts are a count per text pc; Capture and Restore pick them by type.
  template <typename Ck, typename C, typename F>
  static void ForEachPart(Ck& ck, C& chaser, F&& f) {
    f("exec_count", ck.exec_count, chaser.exec_count_);
    f("site_execs", ck.site_execs, chaser.site_counts_);
    f("taint_timeline", ck.taint_timeline, chaser.taint_timeline_);
  }
  Checkpoint Capture() const;

  /// Load `ck` into the run this Chaser just attached to. An injecting
  /// Chaser takes the execution counts — per pc too when its command
  /// profiles sites, so a capture later in the run carries them — and
  /// fast-forwards its trigger (ConfigError if the trigger would have fired
  /// within the prefix); a trace-only one counts nothing, as in a booted
  /// run.
  void Restore(const Checkpoint& ck);

 private:
  void OnProcessCreate(const std::string& name);
  void Attach();
  void Detach();
  void OnInjectorHelper(std::uint64_t pc);

  vm::Vm& vm_;
  Options options_;
  Rank rank_ = -1;

  const InjectionCommand* cmd_ = nullptr;  // null = disarmed
  InjectionCommand owned_cmd_;             // what Arm(InjectionCommand) keeps
  bool inject_ = false;                    // false = trace-only
  std::unique_ptr<Trigger> trigger_;   // per-run clone
  Rng rng_{0};
  // The instrumentation predicate for one class set (bit c = class c), kept
  // across runs: rebuilt only when an armed command targets other classes.
  std::uint32_t predicate_classes_ = 0;
  std::uint64_t predicate_key_ = 0;
  vm::Vm::InstrumentPredicate predicate_;
  std::shared_ptr<const vm::Vm::InjectorHook> injector_hook_;
  bool attached_ = false;
  bool injector_active_ = false;

  std::uint64_t exec_count_ = 0;
  // Per-site executions: a count per text pc, and the pcs counted so far,
  // so neither counting nor a restore allocates once warm.
  std::vector<std::uint64_t> site_counts_;
  std::vector<std::uint64_t> site_pcs_;
  std::vector<InjectionRecord> records_;
  TraceLog trace_log_;
  std::vector<TaintSample> taint_timeline_;
};

}  // namespace chaser::core
