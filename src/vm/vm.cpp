#include "vm/vm.h"

#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "tcg/shared_cache.h"

namespace chaser::vm {

namespace {
/// Largest guest write() honoured; beyond this the buffer length is treated
/// as corrupt and the access faults (a corrupted length register would make
/// the real OS fail the copy the same way).
constexpr std::uint64_t kMaxWriteBytes = 1ull << 26;

/// Output-stream nodes a restart keeps for the next run, and the largest
/// buffer one keeps. Every bundled app writes one stream, fd 3, per rank: a
/// golden run writes 4096 B (bfs), 128 B (kmeans), 4608 B (lud), 192/64 B
/// (matvec) and 1160–1184 B (clamr). The caps only bound what a
/// fault-corrupted run (a stray fd, a huge length) leaves for the next.
constexpr std::size_t kMaxSpareOutputs = 4;
constexpr std::size_t kMaxKeptOutputBytes = 1u << 16;

/// The enumerator 0..last whose name_of() is `name`.
template <typename E>
bool ParseByName(const std::string& name, E last, const char* (*name_of)(E),
                 E* out) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (name == name_of(static_cast<E>(i))) {
      *out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}
}  // namespace

const char* GuestSignalName(GuestSignal s) {
  switch (s) {
    case GuestSignal::kNone: return "none";
    case GuestSignal::kSegv: return "SIGSEGV";
    case GuestSignal::kFpe: return "SIGFPE";
    case GuestSignal::kIll: return "SIGILL";
    case GuestSignal::kSys: return "SIGSYS";
    case GuestSignal::kAbort: return "SIGABRT";
    case GuestSignal::kKill: return "SIGKILL";
    case GuestSignal::kCrash: return "SIGCRASH";
  }
  return "?";
}

const char* TerminationKindName(TerminationKind k) {
  switch (k) {
    case TerminationKind::kRunning: return "running";
    case TerminationKind::kExited: return "exited";
    case TerminationKind::kSignaled: return "os-exception";
    case TerminationKind::kAssertFailed: return "assertion-failed";
    case TerminationKind::kMpiError: return "mpi-error";
  }
  return "?";
}

bool ParseGuestSignal(const std::string& name, GuestSignal* out) {
  return ParseByName(name, GuestSignal::kCrash, GuestSignalName, out);
}

bool ParseTerminationKind(const std::string& name, TerminationKind* out) {
  return ParseByName(name, TerminationKind::kMpiError, TerminationKindName,
                     out);
}

Vm::Vm() : Vm(Config{}) {}

Vm::Vm(Config config) : config_(config) {
  tcg::Translator::Options opts;
  opts.max_tb_insns = config_.max_tb_insns;
  translator_.set_options(std::move(opts));
  if (config_.shared_cache == nullptr) {
    private_cache_ = std::make_unique<tcg::SharedTbCache>();
  }
  UpdateVariantKey();
}

void Vm::SetInstrumentPredicate(InstrumentPredicate pred, std::uint64_t key) {
  if (!pred) {
    key = kCleanPredicateKey;
  } else if (key == 0 || key == kCleanPredicateKey) {
    throw ConfigError(
        "SetInstrumentPredicate: a live predicate needs its own translation-"
        "cache key (not 0, not kCleanPredicateKey)");
  }
  auto opts = translator_.options();
  opts.instrument = std::move(pred);
  translator_.set_options(std::move(opts));
  predicate_key_ = key;
  UpdateVariantKey();
}

void Vm::SetInstrumentAll(bool all) {
  auto opts = translator_.options();
  opts.instrument_all = all;
  translator_.set_options(std::move(opts));
  UpdateVariantKey();
}

void Vm::ClearTbIndex() {
  for (const std::uint64_t pc : tb_filled_) tb_index_[pc] = CachedTb{};
  tb_filled_.clear();
}

void Vm::FlushTbCache() {
  // A shared cache keeps its TBs: dropping the local pc index is the whole
  // flush, and a subsequent predicate change switches the variant key, so
  // stale translations can never be looked up again. A private cache has no
  // other reader, so its TBs are freed and the next execution retranslates.
  ClearTbIndex();
  if (private_cache_ != nullptr) {
    private_cache_ = std::make_unique<tcg::SharedTbCache>();
  }
  ++flush_count_;  // invalidates every outstanding CachedTb* / chain pointer
}

void Vm::UpdateVariantKey() {
  // Mix every knob that changes translation output. FNV-style so distinct
  // (predicate, optimize, max_tb_insns, instrument_all) tuples get distinct
  // variants.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(predicate_key_);
  mix(config_.optimize_tbs ? 1 : 0);
  mix(config_.max_tb_insns);
  mix(translator_.options().instrument_all ? 1 : 0);
  variant_key_ = h == 0 ? 1 : h;
}

void Vm::SetInstretSample(std::uint64_t interval, InstretSampleHook hook) {
  sample_interval_ = interval;
  sample_hook_ = std::move(hook);
  next_sample_ = instret_ + (interval == 0 ? 0 : interval);
  UpdateNextStop();
}

Pid Vm::StartProcess(std::shared_ptr<const guest::Program> program) {
  BeginProcess(std::move(program));
  const guest::Program& image = *program_;
  if (!image.data.empty()) {
    memory_.MapRegion(guest::kDataBase, image.data.size());
    memory_.WriteBytes(guest::kDataBase, image.data.data(), image.data.size());
  }
  if (image.bss_bytes > 0) {
    memory_.MapRegion(guest::kBssBase, image.bss_bytes);
  }
  memory_.MapRegion(guest::kStackTop - guest::kDefaultStackBytes,
                    guest::kDefaultStackBytes);
  heap_break_ = guest::kHeapBase;

  cpu_ = CpuState{};
  cpu_.pc = image.entry;
  cpu_.IntReg(guest::kSpReg) = guest::kStackTop - 64;
  return pid_;
}

void Vm::BeginProcess(std::shared_ptr<const guest::Program> program) {
  if (program == nullptr) throw ConfigError("Vm: no program image to start");
  program_ = std::move(program);
  process_name_ = program_->name;
  pid_ = next_pid_++;
  // A private cache is emptied on every start (FlushTbCache below), so only
  // a shared one needs the image in its keys.
  program_hash_ = private_cache_ != nullptr ? 0
                  : config_.program_hash != 0
                      ? config_.program_hash
                      : tcg::SharedTbCache::HashProgram(*program_);

  memory_.Reset();
  taint_.Reset();
  temps_.clear();
  RecycleOutputs();
  tainted_output_bytes_ = 0;

  run_state_ = RunState::kRunnable;
  termination_ = TerminationKind::kRunning;
  signal_ = GuestSignal::kNone;
  exit_code_ = 0;
  termination_message_.clear();
  instret_ = 0;
  next_sample_ = sample_interval_;
  UpdateNextStop();
  tb_chain_hits_ = 0;
  // Fault-injection state is per-trial: a stuck-at pin or pending skip from
  // a previous run must never leak into a fresh process.
  skip_pending_ = false;
  stuck_active_ = false;
  stuck_faults_.clear();

  FlushTbCache();
  // Every slot is empty after the flush; a new image may need more or fewer.
  tb_index_.resize(program_->text.size());

  if (on_create_) on_create_(*this, pid_, process_name_);
}

Vm::Checkpoint Vm::Capture(const Checkpoint* prev) const {
  if (taint_.Active()) {
    throw ConfigError("Vm::Capture: the process carries taint");
  }
  Checkpoint ck;
  ForEachPart(ck, *this, [prev](const char*, auto& part, const auto& live) {
    if constexpr (std::is_same_v<decltype(part), GuestMemory::Checkpoint&>) {
      part = live.Capture(prev != nullptr ? &prev->memory : nullptr);
    } else {
      part = live;
    }
  });
  return ck;
}

void Vm::Restore(const Checkpoint& ck) {
  ForEachPart(ck, *this, [this](const char*, const auto& part, auto& live) {
    using T = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<T, std::shared_ptr<const guest::Program>>) {
      BeginProcess(part);  // first in the walk
    } else if constexpr (std::is_same_v<T, std::map<int, std::string>>) {
      for (const auto& [fd, bytes] : part) OutputStream(fd) = bytes;
    } else if constexpr (std::is_same_v<T, GuestMemory::Checkpoint>) {
      live.Restore(part);
    } else {
      live = part;
    }
  });
  UpdateNextStop();  // for the restored next sample point
}

RunState Vm::RunToCompletion() {
  while (run_state_ == RunState::kRunnable) {
    Run(1u << 22);
  }
  if (run_state_ == RunState::kBlocked) {
    throw ConfigError("RunToCompletion: process '" + process_name_ +
                      "' blocked with nothing to unblock it");
  }
  return run_state_;
}

void Vm::RecycleOutputs() {
  while (!outputs_.empty()) {
    auto node = outputs_.extract(outputs_.begin());
    if (spare_outputs_.size() < kMaxSpareOutputs &&
        node.mapped().capacity() <= kMaxKeptOutputBytes) {
      node.mapped().clear();
      spare_outputs_.push_back(std::move(node));
    }
  }
}

std::string& Vm::OutputStream(int fd) {
  const auto it = outputs_.find(fd);
  if (it != outputs_.end()) return it->second;
  if (spare_outputs_.empty()) return outputs_[fd];
  auto node = std::move(spare_outputs_.back());
  spare_outputs_.pop_back();
  node.key() = fd;
  return outputs_.insert(std::move(node)).position->second;
}

const std::string& Vm::output(int fd) const {
  static const std::string kEmpty;
  const auto it = outputs_.find(fd);
  return it == outputs_.end() ? kEmpty : it->second;
}

void Vm::Unblock() {
  if (run_state_ == RunState::kBlocked) run_state_ = RunState::kRunnable;
}

void Vm::TerminateMpiError(std::string msg) {
  if (run_state_ == RunState::kTerminated) return;
  run_state_ = RunState::kTerminated;
  termination_ = TerminationKind::kMpiError;
  termination_message_ = std::move(msg);
  if (on_exit_) on_exit_(*this, pid_, process_name_);
}

void Vm::AddStuckFault(std::uint32_t env_slot, std::uint64_t mask,
                       std::uint64_t value) {
  if (env_slot >= tcg::kNumEnvSlots) {
    throw ConfigError(StrFormat("AddStuckFault: env slot %u out of range",
                                env_slot));
  }
  stuck_faults_.push_back({env_slot, mask, value});
  stuck_active_ = true;
  ReassertStuckFaults();
}

void Vm::ClearStuckFaults() {
  stuck_faults_.clear();
  stuck_active_ = false;
}

bool Vm::ReassertStuckFaults() {
  bool changed = false;
  for (const StuckFault& f : stuck_faults_) {
    const std::uint64_t cur = cpu_.env[f.env_slot];
    const std::uint64_t pinned = (cur & ~f.mask) | (f.value & f.mask);
    if (pinned != cur) {
      cpu_.env[f.env_slot] = pinned;
      taint_.TaintSourceRegister(f.env_slot, cur ^ pinned);
      changed = true;
    }
  }
  return changed;
}

void Vm::RaiseSignal(GuestSignal sig, std::string msg) {
  if (run_state_ == RunState::kTerminated) return;
  run_state_ = RunState::kTerminated;
  termination_ = TerminationKind::kSignaled;
  signal_ = sig;
  termination_message_ = std::move(msg);
  if (on_exit_) on_exit_(*this, pid_, process_name_);
}

void Vm::TerminateExit(std::int64_t code) {
  if (run_state_ == RunState::kTerminated) return;
  run_state_ = RunState::kTerminated;
  termination_ = TerminationKind::kExited;
  exit_code_ = code;
  if (on_exit_) on_exit_(*this, pid_, process_name_);
}

void Vm::TerminateAssert(std::int64_t check_id) {
  if (run_state_ == RunState::kTerminated) return;
  run_state_ = RunState::kTerminated;
  termination_ = TerminationKind::kAssertFailed;
  termination_message_ = StrFormat("program assertion %lld failed",
                                   static_cast<long long>(check_id));
  if (on_exit_) on_exit_(*this, pid_, process_name_);
}

SyscallResult Vm::HandleCoreSyscall(std::uint64_t num) {
  using guest::Sys;
  switch (static_cast<Sys>(num)) {
    case Sys::kExit:
      TerminateExit(static_cast<std::int64_t>(cpu_.IntReg(1)));
      return SyscallResult::Terminated();
    case Sys::kWrite: {
      const int fd = static_cast<int>(cpu_.IntReg(1));
      const GuestAddr buf = cpu_.IntReg(2);
      const std::uint64_t len = cpu_.IntReg(3);
      if (len > kMaxWriteBytes) {
        RaiseSignal(GuestSignal::kSegv,
                    StrFormat("write: implausible length %llu",
                              static_cast<unsigned long long>(len)));
        return SyscallResult::Terminated();
      }
      std::string bytes;
      if (!memory_.ReadBuffer(buf, len, &bytes)) {
        RaiseSignal(GuestSignal::kSegv,
                    "write: buffer " + Hex64(buf) + " not mapped");
        return SyscallResult::Terminated();
      }
      std::string& stream = OutputStream(fd);
      const std::uint64_t stream_base = stream.size();
      stream += bytes;
      // Taint-through-I/O: count corrupted bytes leaving the process.
      // Scanned page-at-a-time: one translation and one shadow lookup per
      // page instead of per byte (a buffer page is contiguous physically,
      // so per-byte results are identical).
      if (taint_.enabled() && taint_.Active()) {
        // One guest page maps to one phys frame maps to one shadow page.
        static_assert(taint::kShadowPageSize == kPageSize);
        std::uint64_t i = 0;
        while (i < len) {
          const GuestAddr va = buf + i;
          const std::uint64_t in_page = kPageSize - (va & kPageMask);
          const std::uint64_t chunk = std::min(in_page, len - i);
          const auto pa = memory_.Translate(va);
          if (!pa) {
            i += chunk;  // unmapped page: every byte in it is unmapped
            continue;
          }
          const std::uint8_t* shadow = taint_.PeekShadowPage(*pa);
          if (shadow == nullptr) {
            i += chunk;  // untracked page: every byte in it is clean
            continue;
          }
          const std::uint64_t off = *pa & (taint::kShadowPageSize - 1);
          for (std::uint64_t j = 0; j < chunk; ++j) {
            const std::uint8_t mask = shadow[off + j];
            if (mask == 0) continue;
            ++tainted_output_bytes_;
            if (tainted_output_hook_) {
              tainted_output_hook_(
                  *this, TaintedOutputByte{
                             .fd = fd,
                             .stream_off = stream_base + i + j,
                             .vaddr = va + j,
                             .paddr = *pa + j,
                             .value = static_cast<std::uint8_t>(bytes[i + j]),
                             .taint = mask});
            }
          }
          i += chunk;
        }
      }
      return SyscallResult::Done(len);
    }
    case Sys::kAbort:
      RaiseSignal(GuestSignal::kAbort, "guest called abort()");
      return SyscallResult::Terminated();
    case Sys::kAssertFail:
      TerminateAssert(static_cast<std::int64_t>(cpu_.IntReg(1)));
      return SyscallResult::Terminated();
    case Sys::kBrk: {
      const std::uint64_t bytes = cpu_.IntReg(1);
      const GuestAddr old_break = heap_break_;
      if (bytes > 0) {
        if (bytes > (1ull << 30) || heap_break_ + bytes > guest::kStackTop) {
          RaiseSignal(GuestSignal::kSegv, "brk: out of guest memory");
          return SyscallResult::Terminated();
        }
        memory_.MapRegion(heap_break_, bytes);
        heap_break_ += bytes;
      }
      return SyscallResult::Done(old_break);
    }
    case Sys::kInstret:
      return SyscallResult::Done(instret_);
    default:
      break;
  }
  if (syscall_ext_ != nullptr) {
    if (auto result = syscall_ext_->HandleSyscall(*this, num)) return *result;
  }
  RaiseSignal(GuestSignal::kSys,
              StrFormat("unknown syscall %llu", static_cast<unsigned long long>(num)));
  return SyscallResult::Terminated();
}

}  // namespace chaser::vm
