#include "mpi/cluster.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/error.h"
#include "common/strings.h"

namespace chaser::mpi {

namespace {

// Payload storage kept for reuse. Of the bundled apps only matvec and clamr
// send messages. A job has at most 12 (matvec) and 9 (clamr) payloads alive
// at once, of at most 768 B (matvec's row blocks) and 192 B (clamr's halo
// rows), measured over golden runs, 2,000 matvec trials (uniform, weighted,
// iskip, every rank) and 300 clamr trials, at 1 and 4 workers. The caps only
// bound what a fault-corrupted job (a runaway send loop, a huge count)
// leaves for the next.
constexpr std::size_t kMaxSparePayloads = 16;
constexpr std::size_t kMaxKeptPayloadBytes = 1024;

}  // namespace

void ClearGuestMemTaint(vm::Vm& vm, GuestAddr vaddr, std::uint64_t len) {
  auto& taint = vm.taint();
  if (!taint.enabled()) return;
  // With zero tainted bytes in the whole process the clear is a no-op;
  // receives in clean runs skip the scan entirely.
  if (taint.CountTaintedBytes() == 0) return;
  vm.ForEachShadowRun(vaddr, len, [&](std::uint64_t, PhysAddr pa,
                                      const std::uint8_t* shadow, std::uint64_t n) {
    if (shadow == nullptr) return;  // untracked page: already clean
    for (std::uint64_t j = 0; j < n; ++j) taint.SetMemTaintByte(pa + j, 0);
  });
}

bool ReadGuestMemTaint(const vm::Vm& vm, GuestAddr vaddr, std::uint64_t len,
                       std::vector<std::uint8_t>* masks) {
  const auto& taint = vm.taint();
  if (!taint.enabled() || taint.CountTaintedBytes() == 0) return false;
  masks->assign(len, 0);
  bool any = false;
  vm.ForEachShadowRun(vaddr, len, [&](std::uint64_t i, PhysAddr,
                                      const std::uint8_t* shadow, std::uint64_t n) {
    if (shadow == nullptr) return;
    std::copy_n(shadow, n, masks->begin() + static_cast<std::ptrdiff_t>(i));
    any = any || std::any_of(shadow, shadow + n, [](std::uint8_t m) { return m != 0; });
  });
  return any;
}

void ApplyGuestMemTaint(vm::Vm& vm, GuestAddr vaddr, const std::uint8_t* masks,
                        std::uint64_t len) {
  auto& taint = vm.taint();
  vm.ForEachShadowRun(vaddr, len, [&](std::uint64_t i, PhysAddr pa,
                                      const std::uint8_t*, std::uint64_t n) {
    for (std::uint64_t j = 0; j < n; ++j) {
      if (masks[i + j] != 0) taint.SetMemTaintByte(pa + j, masks[i + j]);
    }
  });
}

std::optional<vm::SyscallResult> Cluster::RankSyscalls::HandleSyscall(
    vm::Vm& vm, std::uint64_t num) {
  using guest::Sys;
  (void)vm;
  switch (static_cast<Sys>(num)) {
    case Sys::kMpiInit: return cluster_->MpiInit(rank_);
    case Sys::kMpiCommRank: return vm::SyscallResult::Done(static_cast<std::uint64_t>(rank_));
    case Sys::kMpiCommSize:
      return vm::SyscallResult::Done(static_cast<std::uint64_t>(cluster_->num_ranks()));
    case Sys::kMpiSend: return cluster_->MpiSend(rank_);
    case Sys::kMpiRecv: return cluster_->MpiRecv(rank_);
    case Sys::kMpiBcast: return cluster_->MpiBcast(rank_);
    case Sys::kMpiReduce: return cluster_->MpiReduce(rank_);
    case Sys::kMpiBarrier: return cluster_->MpiBarrier(rank_);
    case Sys::kMpiAllreduce: return cluster_->MpiAllreduce(rank_);
    case Sys::kMpiGather: return cluster_->MpiGather(rank_);
    case Sys::kMpiScatter: return cluster_->MpiScatter(rank_);
    case Sys::kMpiFinalize: return cluster_->MpiFinalize(rank_);
    default: return std::nullopt;
  }
}

Cluster::Cluster(Config config) : config_(config) {
  if (config_.num_ranks <= 0) throw ConfigError("Cluster: num_ranks must be positive");
  if (config_.ranks_per_node <= 0) {
    throw ConfigError("Cluster: ranks_per_node must be positive");
  }
  ranks_.reserve(static_cast<std::size_t>(config_.num_ranks));
  for (Rank r = 0; r < config_.num_ranks; ++r) {
    auto state = std::make_unique<RankState>();
    state->vm = std::make_unique<vm::Vm>(config_.vm);
    state->syscalls = std::make_unique<RankSyscalls>(this, r);
    state->vm->set_syscall_extension(state->syscalls.get());
    ranks_.push_back(std::move(state));
  }
}

void Cluster::SetInstructionBudgets(std::uint64_t per_rank, std::uint64_t total) {
  config_.max_total_instructions = total;
  for (auto& state : ranks_) state->vm->set_max_instructions(per_rank);
}

void Cluster::Start(std::shared_ptr<const guest::Program> program) {
  BeginJob();
  capture_ = {.rank = 0, .budget = config_.quantum, .retired = 0};
  for (auto& state : ranks_) state->vm->StartProcess(program);
}

std::uint64_t JobMpiState::NextSeq(Rank src, Rank dest, std::int64_t tag) {
  const std::tuple<Rank, Rank, std::int64_t> channel{src, dest, tag};
  auto it = std::lower_bound(
      send_seq.begin(), send_seq.end(), channel,
      [](const SendSeq& s, const auto& c) { return s.channel < c; });
  if (it == send_seq.end() || it->channel != channel) {
    it = send_seq.insert(it, SendSeq{channel, 0});
  }
  return it->next++;
}

void JobMpiState::Clear() {
  if (send_seq.capacity() > kMaxKeptChannels) {
    std::vector<SendSeq>().swap(send_seq);
  }
  send_seq.clear();
  barrier_completed = 0;
  barrier_arrived_count = 0;
  messages_delivered = 0;
}

void Cluster::BeginJob() {
  if (hooks_ != nullptr) hooks_->OnJobStart();
  job_.Clear();
  resume_.reset();
  for (auto& state : ranks_) {
    for (Envelope& env : state->inbox) RecyclePayload(std::move(env.payload));
    state->inbox.clear();
    static_cast<RankMpiProgress&>(*state) = {};
  }
}

std::vector<std::uint8_t> Cluster::TakePayload() {
  if (spare_payloads_.empty()) return {};
  std::vector<std::uint8_t> payload = std::move(spare_payloads_.back());
  spare_payloads_.pop_back();
  return payload;
}

void Cluster::RecyclePayload(std::vector<std::uint8_t>&& payload) {
  if (spare_payloads_.size() < kMaxSparePayloads &&
      payload.capacity() <= kMaxKeptPayloadBytes && payload.capacity() > 0) {
    payload.clear();
    spare_payloads_.push_back(std::move(payload));
  }
}

void Cluster::SetCheckpointHook(std::uint64_t at, CheckpointHook hook) {
  checkpoint_hook_ = std::move(hook);
  checkpoint_at_ = checkpoint_hook_ ? at : ~std::uint64_t{0};
  for (Rank r = 0; r < config_.num_ranks; ++r) {
    vm::Vm& v = rank_vm(r);
    if (checkpoint_hook_) {
      v.SetCheckpointHook([this](vm::Vm& at_vm, std::uint64_t budget) {
        OnCheckpointBoundary(at_vm, budget);
      });
    } else {
      v.SetCheckpointHook(nullptr);
    }
  }
}

std::uint64_t Cluster::CheckpointMark(std::uint64_t instret,
                                      std::uint64_t total) const {
  if (checkpoint_at_ == ~std::uint64_t{0}) return checkpoint_at_;
  return checkpoint_at_ > total ? instret + (checkpoint_at_ - total) : instret;
}

void Cluster::OnCheckpointBoundary(vm::Vm& v, std::uint64_t budget) {
  capture_.budget = budget;
  capture_.retired = running_total_ + (v.instret() - running_before_);
  checkpoint_at_ = checkpoint_hook_(capture_.retired);
  v.set_checkpoint_at(CheckpointMark(v.instret(), capture_.retired));
}

ClusterCheckpoint Cluster::Capture(const ClusterCheckpoint* prev) const {
  // A rank part equal to prev's copy (`before`) shares it: a rank that has
  // not run since shares its whole VM.
  const auto share = [](auto& part, const auto* before, auto&& now) {
    part = before != nullptr && **before == now
               ? *before
               : std::make_shared<const std::remove_cvref_t<decltype(now)>>(
                     std::forward<decltype(now)>(now));
  };
  ClusterCheckpoint ck;
  ForEachPart(ck, *this, [&](const char*, Rank r, auto& part, const auto& live) {
    using T = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<T, std::shared_ptr<const vm::Vm::Checkpoint>>) {
      const T* before = prev != nullptr ? &prev->ranks[r].vm : nullptr;
      share(part, before, live.Capture(before != nullptr ? before->get() : nullptr));
    } else if constexpr (std::is_same_v<T, std::shared_ptr<const RankMpiState>>) {
      share(part, prev != nullptr ? &prev->ranks[r].mpi : nullptr, live);
    } else {
      part = live;
    }
  });
  ck.round = capture_;
  return ck;
}

void Cluster::Restore(const ClusterCheckpoint& ck) {
  if (ck.ranks.size() != ranks_.size()) {
    throw ConfigError("Cluster::Restore: checkpoint of a different rank count");
  }
  BeginJob();
  ForEachPart(ck, *this, [this](const char*, Rank, const auto& part, auto& live) {
    using T = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<T, JobMpiState>) {
      live = part;
    } else if constexpr (std::is_same_v<T, std::shared_ptr<const RankMpiState>>) {
      static_cast<RankMpiProgress&>(live) = *part;
      // Envelope by envelope into spare payloads: BeginJob emptied the
      // inbox, keeping its storage.
      for (const Envelope& env : part->inbox) {
        live.inbox.push_back({.src = env.src, .dest = env.dest, .tag = env.tag,
                              .count = env.count, .datatype = env.datatype,
                              .seq = env.seq, .payload = TakePayload()});
        live.inbox.back().payload.assign(env.payload.begin(), env.payload.end());
      }
    } else {
      live.Restore(*part);
    }
  });
  resume_ = ck.round;
}

JobResult Cluster::Run() {
  JobResult result;
  std::uint64_t total = 0;
  // A restored job re-enters the round it was captured in: the interrupted
  // rank continues its Run, then the round goes on from the next rank.
  Rank first = 0;
  std::optional<std::uint64_t> budget;
  if (resume_.has_value()) {
    first = resume_->rank;
    budget = resume_->budget;
    total = resume_->retired;
    resume_.reset();
  }
  while (true) {
    bool any_runnable = false;
    for (Rank r = first; r < config_.num_ranks; ++r) {
      vm::Vm& v = rank_vm(r);
      if (v.run_state() != vm::RunState::kRunnable) continue;
      any_runnable = true;
      const std::uint64_t before = v.instret();
      if (checkpoint_hook_) {
        capture_.rank = r;
        running_total_ = total;
        running_before_ = before;
        v.set_checkpoint_at(CheckpointMark(before, total));
      }
      v.Run(budget.value_or(config_.quantum));
      budget.reset();
      total += v.instret() - before;
      if (v.run_state() == vm::RunState::kTerminated &&
          v.termination() != vm::TerminationKind::kExited) {
        result.first_failure_rank = r;
        result.first_failure_kind = v.termination();
        result.first_failure_signal = v.signal();
        result.first_failure_message = v.termination_message();
        result.total_instructions = total;
        return result;  // launcher kills the job on first abnormal exit
      }
    }
    first = 0;

    bool all_exited = true;
    for (Rank r = 0; r < config_.num_ranks; ++r) {
      const vm::Vm& v = rank_vm(r);
      if (!(v.run_state() == vm::RunState::kTerminated &&
            v.termination() == vm::TerminationKind::kExited)) {
        all_exited = false;
        break;
      }
    }
    if (all_exited) {
      result.completed = true;
      result.total_instructions = total;
      return result;
    }

    if (!any_runnable) {
      // Every surviving rank is blocked: the runtime reports a deadlock
      // (classified as an MPI-detected error by the campaign layer).
      result.deadlock = true;
      for (Rank r = 0; r < config_.num_ranks; ++r) {
        vm::Vm& v = rank_vm(r);
        if (v.run_state() == vm::RunState::kBlocked) {
          v.TerminateMpiError("MPI deadlock: blocked with no matching message");
          if (result.first_failure_rank < 0) {
            result.first_failure_rank = r;
            result.first_failure_kind = vm::TerminationKind::kMpiError;
            result.first_failure_message = v.termination_message();
          }
        }
      }
      result.total_instructions = total;
      return result;
    }

    if (total > config_.max_total_instructions) {
      for (Rank r = 0; r < config_.num_ranks; ++r) {
        vm::Vm& v = rank_vm(r);
        if (v.run_state() != vm::RunState::kTerminated) {
          v.RaiseSignal(vm::GuestSignal::kKill, "cluster watchdog expired");
          if (result.first_failure_rank < 0) {
            result.first_failure_rank = r;
            result.first_failure_kind = vm::TerminationKind::kSignaled;
            result.first_failure_signal = vm::GuestSignal::kKill;
            result.first_failure_message = v.termination_message();
          }
        }
      }
      result.total_instructions = total;
      return result;
    }
  }
}

bool Cluster::RequireInitialized(Rank r, const char* what) {
  RankState& state = rank(r);
  if (state.mpi_initialized && !state.mpi_finalized) return true;
  state.vm->TerminateMpiError(StrFormat("%s called outside MPI_Init/Finalize", what));
  return false;
}

bool Cluster::ValidateArgs(Rank r, std::uint64_t count, std::uint64_t datatype,
                           std::int64_t peer, std::int64_t tag,
                           bool peer_may_be_any, const char* what) {
  vm::Vm& v = rank_vm(r);
  if (guest::MpiDatatypeSize(datatype) == 0) {
    v.TerminateMpiError(StrFormat("%s: invalid datatype %llu", what,
                                  static_cast<unsigned long long>(datatype)));
    return false;
  }
  if (count > kMaxCount) {
    v.TerminateMpiError(StrFormat("%s: invalid count %llu", what,
                                  static_cast<unsigned long long>(count)));
    return false;
  }
  const bool peer_ok =
      (peer >= 0 && peer < config_.num_ranks) || (peer_may_be_any && peer == -1);
  if (!peer_ok) {
    v.TerminateMpiError(StrFormat("%s: invalid rank %lld", what,
                                  static_cast<long long>(peer)));
    return false;
  }
  if (tag < -1 || tag > kMaxUserTag) {
    v.TerminateMpiError(StrFormat("%s: invalid tag %lld", what,
                                  static_cast<long long>(tag)));
    return false;
  }
  return true;
}

bool Cluster::ValidateOp(Rank r, std::uint64_t op, const char* what) {
  using guest::MpiOp;
  if (op == static_cast<std::uint64_t>(MpiOp::kSum) ||
      op == static_cast<std::uint64_t>(MpiOp::kMin) ||
      op == static_cast<std::uint64_t>(MpiOp::kMax)) {
    return true;
  }
  rank_vm(r).TerminateMpiError(
      StrFormat("%s: invalid op %llu", what, static_cast<unsigned long long>(op)));
  return false;
}

vm::SyscallResult Cluster::MpiInit(Rank r) {
  rank(r).mpi_initialized = true;
  return vm::SyscallResult::Done(0);
}

vm::SyscallResult Cluster::MpiFinalize(Rank r) {
  rank(r).mpi_finalized = true;
  return vm::SyscallResult::Done(0);
}

void Cluster::Deliver(Envelope env) {
  const Rank dest = env.dest;
  rank(dest).inbox.push_back(std::move(env));
  ++job_.messages_delivered;
  rank_vm(dest).Unblock();
}

bool Cluster::SendRaw(Rank src, Rank dest, std::int64_t tag, std::uint64_t count,
                      std::uint64_t datatype, GuestAddr buf, const char* what) {
  vm::Vm& v = rank_vm(src);
  Envelope env{.src = src, .dest = dest, .tag = tag, .count = count,
               .datatype = datatype, .payload = TakePayload()};
  const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);
  if (!v.memory().ReadBuffer(buf, bytes, &env.payload)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  std::string(what) + ": buffer " + Hex64(buf) + " not mapped");
    return false;
  }
  env.seq = job_.NextSeq(env.src, env.dest, env.tag);
  if (hooks_ != nullptr) hooks_->OnSend(v, env, buf);
  Deliver(std::move(env));
  return true;
}

vm::SyscallResult Cluster::MpiSend(Rank r) {
  if (!RequireInitialized(r, "MPI_Send")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr buf = v.cpu().IntReg(1);
  const std::uint64_t count = v.cpu().IntReg(2);
  const std::uint64_t datatype = v.cpu().IntReg(3);
  const auto dest = static_cast<std::int64_t>(v.cpu().IntReg(4));
  const auto tag = static_cast<std::int64_t>(v.cpu().IntReg(5));
  if (!ValidateArgs(r, count, datatype, dest, tag, /*peer_may_be_any=*/false,
                    "MPI_Send") ||
      tag < 0) {
    if (v.run_state() != vm::RunState::kTerminated) {
      v.TerminateMpiError("MPI_Send: negative tag");
    }
    return vm::SyscallResult::Terminated();
  }
  if (!SendRaw(r, static_cast<Rank>(dest), tag, count, datatype, buf,
               "MPI_Send")) {
    return vm::SyscallResult::Terminated();
  }
  return vm::SyscallResult::Done(0);
}

bool Cluster::CompleteReceive(Rank r, Envelope env, GuestAddr buf,
                              const char* what) {
  vm::Vm& v = rank_vm(r);
  const bool mapped =
      v.memory().WriteBytes(buf, env.payload.data(), env.payload.size());
  if (!mapped) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  std::string(what) + ": buffer " + Hex64(buf) + " not mapped");
  } else {
    // Only raw bytes crossed the wire: whatever taint the buffer carried is
    // gone, and the incoming taint (if any) must be re-established by the
    // TaintHub hook below — this is the paper's central mechanism.
    ClearGuestMemTaint(v, buf, env.payload.size());
    if (hooks_ != nullptr) hooks_->OnRecvComplete(v, env, buf);
  }
  RecyclePayload(std::move(env.payload));
  return mapped;
}

std::vector<Envelope>::iterator Cluster::FindMessage(Rank r, std::int64_t src,
                                                    std::int64_t tag) {
  auto& inbox = rank(r).inbox;
  return std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
    return (src == -1 || e.src == src) && (tag == -1 ? e.tag >= 0 : e.tag == tag);
  });
}

bool Cluster::AllArrived(Rank r, std::int64_t tag) {
  for (Rank src = 0; src < config_.num_ranks; ++src) {
    if (src != r && FindMessage(r, src, tag) == rank(r).inbox.end()) return false;
  }
  return true;
}

vm::SyscallResult Cluster::TakeMessage(Rank r, std::int64_t src, std::int64_t tag,
                                       std::uint64_t bytes, Fit fit,
                                       const char* what, Envelope* env) {
  const auto match = FindMessage(r, src, tag);
  if (match == rank(r).inbox.end()) return vm::SyscallResult::Block();
  const std::size_t size = match->payload.size();
  if (fit == Fit::kAtMost ? size > bytes : size != bytes) {
    rank_vm(r).TerminateMpiError(
        fit == Fit::kAtMost
            ? StrFormat("%s: message truncated (%zu bytes into %llu-byte buffer)",
                        what, size, static_cast<unsigned long long>(bytes))
            : StrFormat("%s: count mismatch %s", what,
                        fit == Fit::kFromRoot ? "between root and receiver"
                                              : "across ranks"));
    return vm::SyscallResult::Terminated();
  }
  *env = std::move(*match);
  rank(r).inbox.erase(match);
  return vm::SyscallResult::Done(0);
}

vm::SyscallResult Cluster::Receive(Rank r, std::int64_t src, std::int64_t tag,
                                   GuestAddr buf, std::uint64_t bytes, Fit fit,
                                   const char* what) {
  Envelope env;
  const vm::SyscallResult took = TakeMessage(r, src, tag, bytes, fit, what, &env);
  if (took.outcome != vm::SyscallResult::Outcome::kDone) return took;
  return CompleteReceive(r, std::move(env), buf, what)
             ? took
             : vm::SyscallResult::Terminated();
}

bool Cluster::CopyLocal(Rank r, GuestAddr from, GuestAddr to, std::uint64_t bytes,
                        const char* what) {
  vm::Vm& v = rank_vm(r);
  std::vector<std::uint8_t> data = TakePayload();
  std::vector<std::uint8_t> masks = TakePayload();
  // The source's shadow is read before the destination's is cleared: the
  // two may overlap.
  const bool read = v.memory().ReadBuffer(from, bytes, &data);
  const bool tainted = read && ReadGuestMemTaint(v, from, bytes, &masks);
  const bool copied = read && v.memory().WriteBytes(to, data.data(), bytes);
  if (copied) {
    ClearGuestMemTaint(v, to, bytes);
    if (tainted) ApplyGuestMemTaint(v, to, masks.data(), bytes);
  } else {
    v.RaiseSignal(vm::GuestSignal::kSegv, std::string(what) + ": buffer not mapped");
  }
  RecyclePayload(std::move(data));
  RecyclePayload(std::move(masks));
  return copied;
}

vm::SyscallResult Cluster::MpiRecv(Rank r) {
  if (!RequireInitialized(r, "MPI_Recv")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr buf = v.cpu().IntReg(1);
  const std::uint64_t count = v.cpu().IntReg(2);
  const std::uint64_t datatype = v.cpu().IntReg(3);
  const auto source = static_cast<std::int64_t>(v.cpu().IntReg(4));
  const auto tag = static_cast<std::int64_t>(v.cpu().IntReg(5));
  if (!ValidateArgs(r, count, datatype, source, tag, /*peer_may_be_any=*/true,
                    "MPI_Recv")) {
    return vm::SyscallResult::Terminated();
  }
  return Receive(r, source, tag, buf, count * guest::MpiDatatypeSize(datatype),
                 Fit::kAtMost, "MPI_Recv");
}

vm::SyscallResult Cluster::MpiBcast(Rank r) {
  if (!RequireInitialized(r, "MPI_Bcast")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr buf = v.cpu().IntReg(1);
  const std::uint64_t count = v.cpu().IntReg(2);
  const std::uint64_t datatype = v.cpu().IntReg(3);
  const auto root = static_cast<std::int64_t>(v.cpu().IntReg(4));
  if (!ValidateArgs(r, count, datatype, root, 0, false, "MPI_Bcast")) {
    return vm::SyscallResult::Terminated();
  }
  if (r != root) {
    return Receive(r, root, kBcastTag, buf, count * guest::MpiDatatypeSize(datatype),
                   Fit::kFromRoot, "MPI_Bcast");
  }
  for (Rank dest = 0; dest < config_.num_ranks; ++dest) {
    if (dest != r && !SendRaw(r, dest, kBcastTag, count, datatype, buf, "MPI_Bcast")) {
      return vm::SyscallResult::Terminated();
    }
  }
  return vm::SyscallResult::Done(0);
}

namespace {

/// One element of a reduction: *acc = *acc `op` *in, as T.
template <typename T>
void CombineElement(std::uint8_t* acc, const std::uint8_t* in, std::uint64_t op) {
  T a, b;
  std::memcpy(&a, acc, sizeof a);
  std::memcpy(&b, in, sizeof b);
  switch (static_cast<guest::MpiOp>(op)) {
    case guest::MpiOp::kSum: a = static_cast<T>(a + b); break;
    case guest::MpiOp::kMin: a = std::min(a, b); break;
    case guest::MpiOp::kMax: a = std::max(a, b); break;
  }
  std::memcpy(acc, &a, sizeof a);
}

/// Element-wise reduction of `incoming` into `accum` (same size).
void Combine(std::vector<std::uint8_t>& accum, const std::vector<std::uint8_t>& incoming,
             std::uint64_t datatype, std::uint64_t op) {
  using guest::MpiDatatype;
  const std::uint64_t size = guest::MpiDatatypeSize(datatype);
  for (std::size_t i = 0; i < accum.size(); i += size) {
    std::uint8_t* acc = accum.data() + i;
    const std::uint8_t* in = incoming.data() + i;
    switch (static_cast<MpiDatatype>(datatype)) {
      case MpiDatatype::kDouble: CombineElement<double>(acc, in, op); break;
      case MpiDatatype::kInt64: CombineElement<std::int64_t>(acc, in, op); break;
      case MpiDatatype::kByte: CombineElement<std::uint8_t>(acc, in, op); break;
    }
  }
}

}  // namespace

vm::SyscallResult Cluster::ReduceAtRoot(Rank r, std::int64_t tag, GuestAddr sendbuf,
                                        GuestAddr recvbuf, std::uint64_t count,
                                        std::uint64_t datatype, std::uint64_t op,
                                        const char* what) {
  if (!AllArrived(r, tag)) return vm::SyscallResult::Block();
  vm::Vm& v = rank_vm(r);
  auto& taint = v.taint();
  const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);
  std::vector<std::uint8_t> accum = TakePayload();
  if (!v.memory().ReadBuffer(sendbuf, bytes, &accum)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  std::string(what) + ": buffer " + Hex64(sendbuf) + " not mapped");
    return vm::SyscallResult::Terminated();
  }
  // Whether the root's own contribution is tainted, before combining.
  bool root_tainted = false;
  if (taint.enabled() && taint.Active()) {  // elastic: no taint -> clean
    v.ForEachShadowRun(sendbuf, bytes, [&](std::uint64_t, PhysAddr,
                                           const std::uint8_t* shadow, std::uint64_t n) {
      root_tainted = root_tainted ||
                     (shadow != nullptr &&
                      std::any_of(shadow, shadow + n, [](std::uint8_t m) { return m != 0; }));
    });
  }

  std::vector<Envelope> taken;
  for (Rank src = 0; src < config_.num_ranks; ++src) {
    if (src == r) continue;
    Envelope& env = taken.emplace_back();
    if (TakeMessage(r, src, tag, bytes, Fit::kAcrossRanks, what, &env).outcome !=
        vm::SyscallResult::Outcome::kDone) {
      return vm::SyscallResult::Terminated();
    }
    Combine(accum, env.payload, datatype, op);
  }

  if (!v.memory().WriteBytes(recvbuf, accum.data(), bytes)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  std::string(what) + ": recv buffer " + Hex64(recvbuf) + " not mapped");
    return vm::SyscallResult::Terminated();
  }
  ClearGuestMemTaint(v, recvbuf, bytes);
  // Taint flows into the result from the root's own contribution (local
  // propagation, every byte) and from remote contributions (the hub hook,
  // whose masks replace those bytes').
  if (root_tainted) {
    v.ForEachShadowRun(recvbuf, bytes, [&](std::uint64_t, PhysAddr pa,
                                           const std::uint8_t*, std::uint64_t n) {
      for (std::uint64_t j = 0; j < n; ++j) taint.SetMemTaintByte(pa + j, 0xff);
    });
  }
  if (hooks_ != nullptr) {
    for (const Envelope& env : taken) hooks_->OnRecvComplete(v, env, recvbuf);
  }
  for (Envelope& env : taken) RecyclePayload(std::move(env.payload));
  RecyclePayload(std::move(accum));
  return vm::SyscallResult::Done(0);
}

vm::SyscallResult Cluster::MpiReduce(Rank r) {
  if (!RequireInitialized(r, "MPI_Reduce")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr sendbuf = v.cpu().IntReg(1);
  const GuestAddr recvbuf = v.cpu().IntReg(2);
  const std::uint64_t count = v.cpu().IntReg(3);
  const std::uint64_t datatype = v.cpu().IntReg(4);
  const std::uint64_t op = v.cpu().IntReg(5);
  const auto root = static_cast<std::int64_t>(v.cpu().IntReg(6));
  if (!ValidateArgs(r, count, datatype, root, 0, false, "MPI_Reduce") ||
      !ValidateOp(r, op, "MPI_Reduce")) {
    return vm::SyscallResult::Terminated();
  }
  if (r != root) {
    return SendRaw(r, static_cast<Rank>(root), kReduceTag, count, datatype, sendbuf,
                   "MPI_Reduce")
               ? vm::SyscallResult::Done(0)
               : vm::SyscallResult::Terminated();
  }
  return ReduceAtRoot(r, kReduceTag, sendbuf, recvbuf, count, datatype, op,
                      "MPI_Reduce");
}

vm::SyscallResult Cluster::MpiAllreduce(Rank r) {
  // A reduce to rank 0, which then sends the result to every other rank.
  // The other ranks contribute exactly once (allreduce_sent survives the
  // re-execution of a blocked syscall) and then wait for the result.
  if (!RequireInitialized(r, "MPI_Allreduce")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr sendbuf = v.cpu().IntReg(1);
  const GuestAddr recvbuf = v.cpu().IntReg(2);
  const std::uint64_t count = v.cpu().IntReg(3);
  const std::uint64_t datatype = v.cpu().IntReg(4);
  const std::uint64_t op = v.cpu().IntReg(5);
  if (!ValidateArgs(r, count, datatype, 0, 0, false, "MPI_Allreduce") ||
      !ValidateOp(r, op, "MPI_Allreduce")) {
    return vm::SyscallResult::Terminated();
  }
  if (r != 0) {
    RankState& state = rank(r);
    if (!state.allreduce_sent) {
      if (!SendRaw(r, 0, kAllreduceTag, count, datatype, sendbuf,
                   "MPI_Allreduce")) {
        return vm::SyscallResult::Terminated();
      }
      state.allreduce_sent = true;
    }
    const vm::SyscallResult got =
        Receive(r, 0, kAllreduceResultTag, recvbuf,
                count * guest::MpiDatatypeSize(datatype), Fit::kAcrossRanks,
                "MPI_Allreduce");
    if (got.outcome != vm::SyscallResult::Outcome::kBlock) {
      state.allreduce_sent = false;  // ready for the next allreduce
    }
    return got;
  }
  const vm::SyscallResult reduced = ReduceAtRoot(r, kAllreduceTag, sendbuf, recvbuf,
                                                 count, datatype, op, "MPI_Allreduce");
  if (reduced.outcome != vm::SyscallResult::Outcome::kDone) return reduced;
  // Distribute the combined result (taint travels via the usual send hook).
  for (Rank dest = 1; dest < config_.num_ranks; ++dest) {
    if (!SendRaw(r, dest, kAllreduceResultTag, count, datatype, recvbuf,
                 "MPI_Allreduce")) {
      return vm::SyscallResult::Terminated();
    }
  }
  return reduced;
}

vm::SyscallResult Cluster::MpiGather(Rank r) {
  if (!RequireInitialized(r, "MPI_Gather")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr sendbuf = v.cpu().IntReg(1);
  const GuestAddr recvbuf = v.cpu().IntReg(2);
  const std::uint64_t count = v.cpu().IntReg(3);
  const std::uint64_t datatype = v.cpu().IntReg(4);
  const auto root = static_cast<std::int64_t>(v.cpu().IntReg(5));
  if (!ValidateArgs(r, count, datatype, root, 0, false, "MPI_Gather")) {
    return vm::SyscallResult::Terminated();
  }
  const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);

  if (r != root) {
    // Fire-and-forget: no blocking, so no re-execution to guard against.
    return SendRaw(r, static_cast<Rank>(root), kGatherTag, count, datatype, sendbuf,
                   "MPI_Gather")
               ? vm::SyscallResult::Done(0)
               : vm::SyscallResult::Terminated();
  }
  if (!AllArrived(r, kGatherTag)) return vm::SyscallResult::Block();
  // Root's own slice first.
  if (!CopyLocal(r, sendbuf, recvbuf + static_cast<std::uint64_t>(r) * bytes, bytes,
                 "MPI_Gather")) {
    return vm::SyscallResult::Terminated();
  }
  for (Rank src = 0; src < config_.num_ranks; ++src) {
    if (src == r) continue;
    const vm::SyscallResult got =
        Receive(r, src, kGatherTag, recvbuf + static_cast<std::uint64_t>(src) * bytes,
                bytes, Fit::kAcrossRanks, "MPI_Gather");
    if (got.outcome != vm::SyscallResult::Outcome::kDone) return got;
  }
  return vm::SyscallResult::Done(0);
}

vm::SyscallResult Cluster::MpiScatter(Rank r) {
  if (!RequireInitialized(r, "MPI_Scatter")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr sendbuf = v.cpu().IntReg(1);
  const GuestAddr recvbuf = v.cpu().IntReg(2);
  const std::uint64_t count = v.cpu().IntReg(3);
  const std::uint64_t datatype = v.cpu().IntReg(4);
  const auto root = static_cast<std::int64_t>(v.cpu().IntReg(5));
  if (!ValidateArgs(r, count, datatype, root, 0, false, "MPI_Scatter")) {
    return vm::SyscallResult::Terminated();
  }
  const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);

  if (r != root) {
    return Receive(r, root, kScatterTag, recvbuf, bytes, Fit::kFromRoot, "MPI_Scatter");
  }
  for (Rank dest = 0; dest < config_.num_ranks; ++dest) {
    const GuestAddr chunk = sendbuf + static_cast<std::uint64_t>(dest) * bytes;
    if (!(dest == r ? CopyLocal(r, chunk, recvbuf, bytes, "MPI_Scatter")
                    : SendRaw(r, dest, kScatterTag, count, datatype, chunk,
                              "MPI_Scatter"))) {
      return vm::SyscallResult::Terminated();
    }
  }
  return vm::SyscallResult::Done(0);
}

vm::SyscallResult Cluster::MpiBarrier(Rank r) {
  if (!RequireInitialized(r, "MPI_Barrier")) return vm::SyscallResult::Terminated();
  RankState& state = rank(r);
  const std::uint64_t target = state.barriers_done + 1;
  if (job_.barrier_completed >= target) {
    state.barriers_done = target;
    state.barrier_arrived = false;
    return vm::SyscallResult::Done(0);
  }
  if (!state.barrier_arrived) {
    state.barrier_arrived = true;
    ++job_.barrier_arrived_count;
    if (job_.barrier_arrived_count == config_.num_ranks) {
      ++job_.barrier_completed;
      job_.barrier_arrived_count = 0;
      for (auto& other : ranks_) {
        other->barrier_arrived = false;
        other->vm->Unblock();
      }
      state.barriers_done = target;
      return vm::SyscallResult::Done(0);
    }
  }
  return vm::SyscallResult::Block();
}

}  // namespace chaser::mpi
