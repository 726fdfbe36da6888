// The virtual machine: CPU state, guest OS services, VMI events, and the
// TB-cached execution engine.
//
// One Vm hosts one guest process (the paper runs the target application in a
// QEMU guest per node; we collapse guest-OS multi-tasking to the single
// process under test but keep the process-creation *event*, because that is
// the hook Chaser's VMI targeting uses). The execution engine mirrors QEMU's
// main loop: look up the translation block for the current pc in the TB
// cache, translate on miss, execute the TCG ops. Chaser's pieces plug in via:
//
//  * `set_on_process_create` — DECAF's VMI_CREATEPROC_CB;
//  * `SetInstrumentPredicate` + `FlushTbCache` — flush-and-retranslate so the
//    injector helper is spliced into targeted instructions only;
//  * `set_injector_hook` — the DECAF_inject_fault helper body;
//  * `taint()` — the per-VM bitwise taint engine;
//  * `set_syscall_extension` — the simulated MPI runtime.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "guest/program.h"
#include "taint/taint.h"
#include "tcg/ir.h"
#include "tcg/optimizer.h"
#include "tcg/shared_cache.h"
#include "tcg/translator.h"
#include "vm/memory.h"

namespace chaser::vm {

/// Guest-visible signals (the "OS exception" termination causes of Table III).
enum class GuestSignal : std::uint8_t {
  kNone = 0,
  kSegv,   // unmapped memory access or wild jump
  kFpe,    // integer division by zero
  kIll,    // halt / undefined behaviour trap
  kSys,    // unknown syscall
  kAbort,  // guest called abort()
  kKill,   // watchdog: instruction budget exceeded (hung run)
  kCrash,  // injected process crash (rank-crash fault, FINJ-style)
};

/// Why a process stopped.
enum class TerminationKind : std::uint8_t {
  kRunning = 0,
  kExited,        // normal exit(code)
  kSignaled,      // OS exception (GuestSignal)
  kAssertFailed,  // program-level assertion (e.g. CLAMR mass-conservation check)
  kMpiError,      // the MPI runtime detected an error
};

enum class RunState : std::uint8_t { kRunnable, kBlocked, kTerminated };

const char* GuestSignalName(GuestSignal s);
const char* TerminationKindName(TerminationKind k);
/// The inverses of the two above; false for an unknown name.
bool ParseGuestSignal(const std::string& name, GuestSignal* out);
bool ParseTerminationKind(const std::string& name, TerminationKind* out);

/// Guest CPU: TCG env slots (r0..r15, f0..f15 as bit patterns, flags) + pc.
struct CpuState {
  std::array<std::uint64_t, tcg::kNumEnvSlots> env{};
  std::uint64_t pc = 0;  // instruction index into program text

  std::uint64_t& IntReg(unsigned r) { return env[tcg::EnvInt(r)]; }
  std::uint64_t IntReg(unsigned r) const { return env[tcg::EnvInt(r)]; }
  double FpReg(unsigned f) const { return std::bit_cast<double>(env[tcg::EnvFp(f)]); }
  void SetFpReg(unsigned f, double v) { env[tcg::EnvFp(f)] = std::bit_cast<std::uint64_t>(v); }

  bool operator==(const CpuState&) const = default;
};

class Vm;

/// Result of an extension-handled syscall.
struct SyscallResult {
  enum class Outcome : std::uint8_t {
    kDone,       // retval valid; continue
    kBlock,      // re-execute the syscall when the VM is unblocked
    kTerminated, // the handler terminated the process (via Vm methods)
  };
  Outcome outcome = Outcome::kDone;
  std::uint64_t retval = 0;

  static SyscallResult Done(std::uint64_t rv = 0) { return {Outcome::kDone, rv}; }
  static SyscallResult Block() { return {Outcome::kBlock, 0}; }
  static SyscallResult Terminated() { return {Outcome::kTerminated, 0}; }
};

/// Handles syscalls the core OS does not implement (the MPI runtime).
class SyscallExtension {
 public:
  virtual ~SyscallExtension() = default;
  /// Return nullopt if the syscall number is not handled here.
  virtual std::optional<SyscallResult> HandleSyscall(Vm& vm, std::uint64_t num) = 0;
};

class Vm {
 public:
  struct Config {
    /// Watchdog: terminate (GuestSignal::kKill) after this many instructions.
    std::uint64_t max_instructions = 500'000'000;
    std::uint32_t max_tb_insns = 64;
    /// Run the TCG optimizer over each freshly translated TB.
    bool optimize_tbs = true;
    /// Cap on locally indexed TBs; exceeding it triggers a full flush
    /// (QEMU semantics) counted in tb_evictions(). 0 = unlimited.
    std::uint64_t max_cached_tbs = 0;
    /// Process-wide translation cache to publish TBs to and reuse them from
    /// (campaign engines share one across every trial). Not owned; must
    /// outlive the Vm. Null = the Vm owns a private cache, emptied by every
    /// FlushTbCache().
    tcg::SharedTbCache* shared_cache = nullptr;
    /// Precomputed SharedTbCache::HashProgram of the image this Vm will run,
    /// for callers (campaign engines) that restart one program thousands of
    /// times — hashing a large image on every process start is measurable.
    /// 0 = hash at each start.
    std::uint64_t program_hash = 0;
  };

  using VmiProcessCallback = std::function<void(Vm&, Pid, const std::string&)>;
  using InjectorHook = std::function<void(Vm&, std::uint64_t pc)>;
  using InstretSampleHook = std::function<void(Vm&, std::uint64_t instret)>;
  using InstrumentPredicate =
      std::function<bool(const guest::Instruction&, std::uint64_t pc)>;

  Vm();
  explicit Vm(Config config);

  // ---- VMI (DECAF-style process events) ------------------------------------
  void set_on_process_create(VmiProcessCallback cb) { on_create_ = std::move(cb); }
  void set_on_process_exit(VmiProcessCallback cb) { on_exit_ = std::move(cb); }

  // ---- Chaser instrumentation glue ------------------------------------------
  /// A null pointer or an empty hook detaches. Shared, not copied: the
  /// interpreter pins the callable with a refcount bump per invocation (the
  /// hook may detach itself mid-call, so it must outlive reassignment), and
  /// a caller re-installing one hook every run (Chaser, per trial) allocates
  /// nothing.
  void set_injector_hook(std::shared_ptr<const InjectorHook> hook) {
    injector_hook_ = hook != nullptr && *hook ? std::move(hook) : nullptr;
  }
  /// Install the predicate choosing which instructions get the injector call.
  /// Takes effect for TBs translated after the next FlushTbCache().
  ///
  /// `key` names the predicate's behaviour in the translation cache: two VMs
  /// passing the same key MUST have predicates that accept exactly the same
  /// (instruction, pc) pairs (e.g. a hash of "instruction class in
  /// {kFadd}"). A null predicate is the clean variant, kCleanPredicateKey,
  /// whatever `key` says; a live one needs a key that is neither 0 nor
  /// kCleanPredicateKey (ConfigError otherwise).
  void SetInstrumentPredicate(InstrumentPredicate pred, std::uint64_t key);

  /// Reserved translation-cache key for "no instrumentation" (null
  /// predicate). User keys should set bit 63 (see Chaser::Attach) to stay
  /// disjoint.
  static constexpr std::uint64_t kCleanPredicateKey = 1;
  /// Ablation: instrument every instruction (F-SEFI style).
  void SetInstrumentAll(bool all);
  /// Drop all cached TBs; the next execution re-translates (paper §III-A(b)).
  void FlushTbCache();
  /// Flush the TB cache at the next TB boundary. Safe to call from inside a
  /// helper (e.g. when the injector detaches itself after firing, the paper's
  /// fi_clean_cb) while the current TB is still executing.
  void RequestTbFlush() { tb_flush_pending_ = true; }
  /// Invoke `hook` every `interval` retired instructions (0 disables).
  void SetInstretSample(std::uint64_t interval, InstretSampleHook hook);

  /// Instruction-granularity trace hook: invoked at every retired guest
  /// instruction while taint is active. This is the expensive alternative
  /// Chaser's memory-access-granularity tracing replaces (paper SII-C(b));
  /// it exists for the ablation bench. Null disables (the default).
  using InsnTraceHook = std::function<void(Vm&, std::uint64_t pc)>;
  void SetInsnTraceHook(InsnTraceHook hook) { insn_trace_hook_ = std::move(hook); }

  /// One tainted byte leaving the process through a write syscall:
  /// (fd, byte offset in that fd's output stream, guest/physical source
  /// address, byte value, taint mask). Chaser records these as
  /// TraceEventKind::kTaintedOutput — the anchor the root-cause walk starts
  /// from when tracing an SDC'd output byte back to its injection.
  struct TaintedOutputByte {
    int fd = -1;
    std::uint64_t stream_off = 0;
    GuestAddr vaddr = 0;
    PhysAddr paddr = 0;
    std::uint8_t value = 0;
    std::uint8_t taint = 0;
  };
  using TaintedOutputHook = std::function<void(Vm&, const TaintedOutputByte&)>;
  void SetTaintedOutputHook(TaintedOutputHook hook) {
    tainted_output_hook_ = std::move(hook);
  }

  void set_syscall_extension(SyscallExtension* ext) { syscall_ext_ = ext; }

  /// Tune the hung-run watchdog (campaigns set this from the golden run's
  /// instruction count so corrupted loop bounds terminate quickly).
  void set_max_instructions(std::uint64_t n) {
    config_.max_instructions = n;
    UpdateNextStop();
  }
  std::uint64_t max_instructions() const { return config_.max_instructions; }

  // ---- Lifecycle -------------------------------------------------------------
  /// Begin a process of `program` (reset CPU/taint, fire the VMI
  /// process-creation callback), then load it: data, bss, stack, entry.
  /// Returns the new pid. The Vm shares ownership of the image.
  Pid StartProcess(std::shared_ptr<const guest::Program> program);
  /// Starts one shared copy of `program`, so temporaries are safe to pass.
  Pid StartProcess(const guest::Program& program) {
    return StartProcess(std::make_shared<const guest::Program>(program));
  }

  /// Execute up to `max_insns` instructions (or until blocked/terminated).
  /// The budget is checked at TB boundaries, so the last TB may overrun it.
  RunState Run(std::uint64_t max_insns);

  // ---- Golden-prefix checkpoints ---------------------------------------------
  /// A clean (untainted, uninjected) process at a TB boundary. Guest state
  /// only: a restored process refills its TB index and TLB as it runs, as a
  /// booted one does.
  struct Checkpoint {
    std::shared_ptr<const guest::Program> image;
    CpuState cpu;
    RunState run_state = RunState::kRunnable;
    TerminationKind termination = TerminationKind::kRunning;
    GuestSignal signal = GuestSignal::kNone;
    std::int64_t exit_code = 0;
    std::string termination_message;
    std::uint64_t instret = 0;
    GuestAddr heap_break = 0;
    std::uint64_t next_sample = 0;
    std::map<int, std::string> outputs;
    std::uint64_t tainted_output_bytes = 0;
    GuestMemory::Checkpoint memory;

    /// Shared parts compare by address: a checkpoint equals the previous
    /// one when its process has not changed since.
    bool operator==(const Checkpoint&) const = default;
  };

  /// The one list of a process's guest state: f(name, checkpoint part, live
  /// part), the image first. Capture, Restore and the tests' state oracle
  /// visit it: a part added here is captured, restored and compared.
  /// Capture and Restore pick the image, outputs and memory by type, so
  /// each must stay the only part of its type.
  template <typename Ck, typename V, typename F>
  static void ForEachPart(Ck& ck, V& vm, F&& f) {
    f("image", ck.image, vm.program_);
    f("cpu", ck.cpu, vm.cpu_);
    f("run_state", ck.run_state, vm.run_state_);
    f("termination", ck.termination, vm.termination_);
    f("signal", ck.signal, vm.signal_);
    f("exit_code", ck.exit_code, vm.exit_code_);
    f("termination_message", ck.termination_message, vm.termination_message_);
    f("instret", ck.instret, vm.instret_);
    f("heap_break", ck.heap_break, vm.heap_break_);
    f("next_sample", ck.next_sample, vm.next_sample_);
    f("outputs", ck.outputs, vm.outputs_);
    f("tainted_output_bytes", ck.tainted_output_bytes, vm.tainted_output_bytes_);
    f("memory", ck.memory, vm.memory_);
  }

  /// Snapshot this process; `prev` (an earlier checkpoint of it, or null)
  /// shares unchanged guest pages. Moves no guest state. ConfigError if the
  /// process carries taint — checkpoints hold clean prefixes only.
  Checkpoint Capture(const Checkpoint* prev) const;

  /// Start a process from `ck` instead of the loader: the begin-process
  /// step of StartProcess (so the process-creation callback attaches any
  /// instrumentation first), then the captured state. Any Vm can restore
  /// any checkpoint, whatever it ran before. A Run() with the budget the
  /// checkpoint hook was handed then continues exactly as the captured run
  /// did.
  void Restore(const Checkpoint& ck);

  /// Call `hook` with the budget the Run has left at the first TB boundary
  /// of a Run at which instret() has reached the mark set by
  /// set_checkpoint_at; the hook normally moves the mark on. Costs one
  /// compare per TB; the mark ~0, or a null hook, disarms.
  using CheckpointHook = std::function<void(Vm&, std::uint64_t budget)>;
  void SetCheckpointHook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
    if (!checkpoint_hook_) checkpoint_at_ = ~std::uint64_t{0};
  }
  void set_checkpoint_at(std::uint64_t instret) {
    checkpoint_at_ = checkpoint_hook_ ? instret : ~std::uint64_t{0};
  }

  /// Convenience for single-process workloads: run until terminated.
  /// Throws ConfigError if the process blocks with no extension to unblock it.
  RunState RunToCompletion();

  // ---- State inspection --------------------------------------------------------
  RunState run_state() const { return run_state_; }
  TerminationKind termination() const { return termination_; }
  GuestSignal signal() const { return signal_; }
  std::int64_t exit_code() const { return exit_code_; }
  const std::string& termination_message() const { return termination_message_; }
  std::uint64_t instret() const { return instret_; }
  Pid pid() const { return pid_; }
  const std::string& process_name() const { return process_name_; }

  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }
  GuestMemory& memory() { return memory_; }
  const GuestMemory& memory() const { return memory_; }
  taint::TaintEngine& taint() { return taint_; }
  const taint::TaintEngine& taint() const { return taint_; }
  const guest::Program* program() const { return program_.get(); }

  /// Captured guest output for a file descriptor (1 = stdout, 3 = data file).
  const std::string& output(int fd) const;

  /// Tainted bytes the guest wrote to any output fd (taint-through-I/O:
  /// DECAF propagates taint into I/O devices; a non-zero value predicts
  /// silent data corruption before any golden-run comparison).
  std::uint64_t tainted_output_bytes() const { return tainted_output_bytes_; }

  // ---- Used by extensions / the injector ----------------------------------------
  /// Mark a blocked process runnable again (e.g. its MPI message arrived).
  void Unblock();
  /// Terminate with an MPI-runtime-detected error.
  void TerminateMpiError(std::string msg);
  /// Raise a guest signal (terminates the process).
  void RaiseSignal(GuestSignal sig, std::string msg);

  /// Instruction-skip faults (InjectV-style): callable from inside the
  /// injector helper, which runs immediately before the targeted instruction
  /// — that instruction is then squashed and execution resumes at the next
  /// one. The squashed instruction still counts as retired (its prologue ran
  /// before the helper). For the few instructions whose helper is spliced
  /// *after* them (guest::CorruptAfter), the skip degrades to a no-op.
  void SkipCurrentInstruction() { skip_pending_ = true; }

  /// Stuck-at faults (CHAOS/NAIL-style persistent register faults): pin
  /// `mask` bits of CPU env slot `env_slot` to the corresponding bits of
  /// `value`. The pin is re-asserted at every instruction boundary, so every
  /// register read observes the stuck bits no matter what the program wrote;
  /// each re-pin that changes state re-taints the changed bits. Pins are VM
  /// state, not TB state — they survive TB chaining and cache flushes — and
  /// are cleared by every process start, making them strictly per-trial.
  struct StuckFault {
    std::uint32_t env_slot = 0;
    std::uint64_t mask = 0;
    std::uint64_t value = 0;
  };
  void AddStuckFault(std::uint32_t env_slot, std::uint64_t mask,
                     std::uint64_t value);
  void ClearStuckFaults();
  const std::vector<StuckFault>& stuck_faults() const { return stuck_faults_; }

  // ---- Engine statistics (Fig. 10 overhead analysis) ------------------------------
  std::uint64_t tb_translations() const { return tb_translations_; }
  std::uint64_t tb_executions() const { return tb_executions_; }
  std::uint64_t tb_cache_size() const { return tb_filled_.size(); }
  /// Cumulative TCG-optimizer activity across all translations.
  const tcg::OptimizerStats& optimizer_stats() const { return optimizer_stats_; }

  // ---- Host counters (telemetry, not guest state) ----------------------------
  /// TB-to-TB transfers that followed a patched chain pointer instead of
  /// hashing into the TB cache (QEMU's tb_add_jump hit rate), and the
  /// soft-MMU's TLB hits and misses. Each counts from the start of the
  /// process, booted or restored; no checkpoint holds them.
  std::uint64_t tb_chain_hits() const { return tb_chain_hits_; }
  std::uint64_t tlb_hits() const { return memory_.tlb_hits(); }
  std::uint64_t tlb_misses() const { return memory_.tlb_misses(); }
  /// TBs served by the shared cross-trial cache instead of translating.
  std::uint64_t shared_tb_reuses() const { return shared_reuses_; }
  /// TBs dropped by cap-overflow flushes of the local index.
  std::uint64_t tb_evictions() const { return tb_evictions_; }

 private:
  /// One slot of the local pc -> TB index. `tb` points at a translation-
  /// cache node (null: nothing indexed at this pc); `chain` holds the
  /// patched direct successors (slot 0 = kGotoTb / taken kBrCond, slot 1 =
  /// fallthrough kBrCond). Slots live in tb_index_, which is resized only
  /// by BeginProcess, so CachedTb* chain pointers stay valid until
  /// FlushTbCache() invalidates them wholesale.
  struct CachedTb {
    const tcg::TranslationBlock* tb = nullptr;
    CachedTb* chain[2] = {nullptr, nullptr};
  };

  /// The slot for `pc`, filled on a miss. Requires pc < text size (Run
  /// raises SIGSEGV for any other pc before looking it up).
  CachedTb& LookupTb(std::uint64_t pc);
  /// Empty every filled slot of the local index (and only those).
  void ClearTbIndex();
  /// The TB for `pc` in the current translation variant: from the
  /// translation cache, or translated and published there.
  const tcg::TranslationBlock* ResolveTb(std::uint64_t pc);
  /// Execute `tb`; `*exit_slot` receives the chain slot of the exit taken
  /// (0/1 for static successors, -1 for dynamic/none — see CachedTb::chain).
  /// __restrict: budget/exit_slot never alias VM state, which lets the
  /// compiler keep them in registers across the per-op member stores.
  void ExecuteTb(const tcg::TranslationBlock& tb,
                 std::uint64_t* __restrict budget,
                 int* __restrict exit_slot);
  /// Recompute variant_key_, the translation-cache variant of the current
  /// translation configuration (instrument predicate + translator/optimizer
  /// options). Every setter of those calls it.
  void UpdateVariantKey();
  /// The start of every process, booted or restored: the per-process reset
  /// of everything but CPU, heap break and memory contents, then the VMI
  /// process-creation callback.
  void BeginProcess(std::shared_ptr<const guest::Program> program);
  /// Empty outputs_ into spare_outputs_. No fd carries over; a stream grown
  /// past kMaxKeptOutputBytes (a fault-corrupted run's) is freed, and at
  /// most kMaxSpareOutputs nodes are kept.
  void RecycleOutputs();
  /// The stream of guest fd `fd`, made from a spare node if it is new.
  std::string& OutputStream(int fd);
  void HandleSyscallHelper(std::uint64_t pc);
  /// Recompute next_stop_ = min(watchdog threshold, next sample point).
  /// Called whenever max_instructions or the sample schedule changes.
  void UpdateNextStop() {
    const std::uint64_t kNever = ~std::uint64_t{0};
    const std::uint64_t watchdog = config_.max_instructions == kNever
                                       ? kNever
                                       : config_.max_instructions + 1;
    const std::uint64_t sample = sample_interval_ == 0 ? kNever : next_sample_;
    next_stop_ = watchdog < sample ? watchdog : sample;
  }
  SyscallResult HandleCoreSyscall(std::uint64_t num);
  void TerminateExit(std::int64_t code);
  void TerminateAssert(std::int64_t check_id);
  /// Re-apply every stuck-at pin to the CPU env, tainting any bits that had
  /// drifted since the last boundary. Returns true when a bit actually
  /// changed (the interpreter must then refresh its local taint latch).
  bool ReassertStuckFaults();

  Config config_;
  tcg::Translator translator_;
  /// The translation cache when config_.shared_cache is null. It has no
  /// other user, so FlushTbCache() frees its TBs instead of retiring them.
  std::unique_ptr<tcg::SharedTbCache> private_cache_;
  /// The local pc -> TB index: one slot per text instruction, plus the pcs
  /// of the filled slots in fill order, so a flush, a capture and a restore
  /// cost the TBs a run used, not the size of the text.
  std::vector<CachedTb> tb_index_;
  std::vector<std::uint64_t> tb_filled_;

  std::shared_ptr<const guest::Program> program_;  // null until a process starts
  std::string process_name_;
  Pid pid_ = kInvalidPid;
  Pid next_pid_ = 1000;

  CpuState cpu_;
  GuestMemory memory_;
  taint::TaintEngine taint_;
  std::vector<std::uint64_t> temps_;

  RunState run_state_ = RunState::kTerminated;
  TerminationKind termination_ = TerminationKind::kRunning;
  GuestSignal signal_ = GuestSignal::kNone;
  std::int64_t exit_code_ = 0;
  std::string termination_message_;

  std::uint64_t instret_ = 0;
  GuestAddr heap_break_ = 0;

  /// Output streams by guest fd. A restart or restore empties it into
  /// spare_outputs_, whose nodes (buffers kept) the next run's streams
  /// reuse, so a warmed trial allocates none.
  std::map<int, std::string> outputs_;
  std::vector<std::map<int, std::string>::node_type> spare_outputs_;
  std::uint64_t tainted_output_bytes_ = 0;

  VmiProcessCallback on_create_;
  VmiProcessCallback on_exit_;
  std::shared_ptr<const InjectorHook> injector_hook_;
  InstretSampleHook sample_hook_;
  InsnTraceHook insn_trace_hook_;
  TaintedOutputHook tainted_output_hook_;
  std::uint64_t sample_interval_ = 0;
  std::uint64_t next_sample_ = 0;
  // First instret at which the watchdog or the sample hook must act; fuses
  // their two compares into one on the per-instruction hot path.
  std::uint64_t next_stop_ = 0;
  // First instret at which Run calls checkpoint_hook_ (a trial's clean prefix).
  std::uint64_t checkpoint_at_ = ~std::uint64_t{0};
  CheckpointHook checkpoint_hook_;
  SyscallExtension* syscall_ext_ = nullptr;

  std::uint64_t tb_translations_ = 0;
  std::uint64_t tb_executions_ = 0;
  bool tb_flush_pending_ = false;
  // Fault-injection machine state (see SkipCurrentInstruction/AddStuckFault).
  bool skip_pending_ = false;
  bool stuck_active_ = false;
  std::vector<StuckFault> stuck_faults_;
  tcg::OptimizerStats optimizer_stats_;

  // Translation identity in the cache (fixed per process).
  std::uint64_t program_hash_ = 0;
  std::uint64_t predicate_key_ = kCleanPredicateKey;
  std::uint64_t variant_key_ = 0;

  // Host counters + chain-safety generation counter. flush_count_ lets
  // the run loop detect a flush that happened *inside* LookupTb/ExecuteTb
  // (cap overflow, guest-requested flush) and drop its dangling CachedTb*.
  std::uint64_t tb_chain_hits_ = 0;
  std::uint64_t shared_reuses_ = 0;
  std::uint64_t tb_evictions_ = 0;
  std::uint64_t flush_count_ = 0;
};

}  // namespace chaser::vm
