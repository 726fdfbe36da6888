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
  // Page-at-a-time: one translation per guest page, one shadow-page probe
  // instead of a lookup per byte; untracked pages are already clean.
  std::uint64_t i = 0;
  while (i < len) {
    const GuestAddr va = vaddr + i;
    std::uint64_t chunk =
        std::min<std::uint64_t>(len - i, vm::kPageSize - (va & vm::kPageMask));
    const auto paddr = vm.memory().Translate(va);
    if (paddr) {
      const std::uint64_t shadow_off = *paddr & (taint::kShadowPageSize - 1);
      chunk = std::min(chunk, taint::kShadowPageSize - shadow_off);
      if (taint.PeekShadowPage(*paddr) != nullptr) {
        for (std::uint64_t j = 0; j < chunk; ++j) {
          taint.SetMemTaintByte(*paddr + j, 0);
        }
      }
    }
    i += chunk;
  }
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
  ClusterCheckpoint ck;
  ck.ranks.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& state = *ranks_[r];
    const ClusterCheckpoint::RankCheckpoint* before =
        prev != nullptr ? &prev->ranks[r] : nullptr;
    vm::Vm::Checkpoint vm =
        state.vm->Capture(before != nullptr ? before->vm.get() : nullptr);
    const RankMpiState& mpi = state;
    ck.ranks.push_back(
        {before != nullptr && *before->vm == vm
             ? before->vm
             : std::make_shared<const vm::Vm::Checkpoint>(std::move(vm)),
         before != nullptr && *before->mpi == mpi
             ? before->mpi
             : std::make_shared<const RankMpiState>(mpi)});
  }
  ck.job = job_;
  ck.round = capture_;
  return ck;
}

void Cluster::Restore(const ClusterCheckpoint& ck) {
  if (ck.ranks.size() != ranks_.size()) {
    throw ConfigError("Cluster::Restore: checkpoint of a different rank count");
  }
  BeginJob();
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& state = *ranks_[r];
    state.vm->Restore(*ck.ranks[r].vm);
    const RankMpiState& mpi = *ck.ranks[r].mpi;
    static_cast<RankMpiProgress&>(state) = mpi;
    // Envelope by envelope into spare payloads: BeginJob emptied the inbox,
    // keeping its storage.
    for (const Envelope& env : mpi.inbox) {
      state.inbox.push_back({.src = env.src, .dest = env.dest, .tag = env.tag,
                             .count = env.count, .datatype = env.datatype,
                             .seq = env.seq, .payload = TakePayload()});
      state.inbox.back().payload.assign(env.payload.begin(), env.payload.end());
    }
  }
  job_ = ck.job;
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

bool Cluster::CompleteReceive(Rank r, Envelope env, GuestAddr buf) {
  vm::Vm& v = rank_vm(r);
  const bool mapped =
      v.memory().WriteBytes(buf, env.payload.data(), env.payload.size());
  if (!mapped) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  "MPI_Recv: buffer " + Hex64(buf) + " not mapped");
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

  auto& inbox = rank(r).inbox;
  const auto match = std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
    if (e.tag < 0) return false;  // collective traffic is not user-receivable
    return (source == -1 || e.src == source) && (tag == -1 || e.tag == tag);
  });
  if (match == inbox.end()) return vm::SyscallResult::Block();

  const std::uint64_t capacity = count * guest::MpiDatatypeSize(datatype);
  if (match->payload.size() > capacity) {
    v.TerminateMpiError(StrFormat(
        "MPI_Recv: message truncated (%zu bytes into %llu-byte buffer)",
        match->payload.size(), static_cast<unsigned long long>(capacity)));
    return vm::SyscallResult::Terminated();
  }
  Envelope env = std::move(*match);
  inbox.erase(match);
  if (!CompleteReceive(r, std::move(env), buf)) {
    return vm::SyscallResult::Terminated();
  }
  return vm::SyscallResult::Done(0);
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

  if (r == root) {
    const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);
    std::vector<std::uint8_t> payload = TakePayload();
    if (!v.memory().ReadBuffer(buf, bytes, &payload)) {
      v.RaiseSignal(vm::GuestSignal::kSegv,
                    "MPI_Bcast: buffer " + Hex64(buf) + " not mapped");
      return vm::SyscallResult::Terminated();
    }
    for (Rank dest = 0; dest < config_.num_ranks; ++dest) {
      if (dest == r) continue;
      Envelope env{.src = r, .dest = dest, .tag = kBcastTag, .count = count,
                   .datatype = datatype, .payload = TakePayload()};
      env.payload.assign(payload.begin(), payload.end());
      env.seq = job_.NextSeq(env.src, env.dest, env.tag);
      if (hooks_ != nullptr) hooks_->OnSend(v, env, buf);
      Deliver(std::move(env));
    }
    RecyclePayload(std::move(payload));
    return vm::SyscallResult::Done(0);
  }

  // Non-root: wait for the broadcast message from the root.
  auto& inbox = rank(r).inbox;
  const auto match = std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
    return e.tag == kBcastTag && e.src == root;
  });
  if (match == inbox.end()) return vm::SyscallResult::Block();
  const std::uint64_t capacity = count * guest::MpiDatatypeSize(datatype);
  if (match->payload.size() != capacity) {
    v.TerminateMpiError("MPI_Bcast: count mismatch between root and receiver");
    return vm::SyscallResult::Terminated();
  }
  Envelope env = std::move(*match);
  inbox.erase(match);
  if (!CompleteReceive(r, std::move(env), buf)) {
    return vm::SyscallResult::Terminated();
  }
  return vm::SyscallResult::Done(0);
}

namespace {

/// Element-wise reduction of `incoming` into `accum`.
void CombineReduce(std::vector<std::uint8_t>& accum,
                   const std::vector<std::uint8_t>& incoming,
                   std::uint64_t datatype, std::uint64_t op) {
  using guest::MpiDatatype;
  using guest::MpiOp;
  const std::size_t n = std::min(accum.size(), incoming.size());
  if (static_cast<MpiDatatype>(datatype) == MpiDatatype::kDouble) {
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      double a = 0, b = 0;
      std::memcpy(&a, accum.data() + i, 8);
      std::memcpy(&b, incoming.data() + i, 8);
      double out = a;
      switch (static_cast<MpiOp>(op)) {
        case MpiOp::kSum: out = a + b; break;
        case MpiOp::kMin: out = std::min(a, b); break;
        case MpiOp::kMax: out = std::max(a, b); break;
      }
      std::memcpy(accum.data() + i, &out, 8);
    }
  } else if (static_cast<MpiDatatype>(datatype) == MpiDatatype::kInt64) {
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      std::int64_t a = 0, b = 0;
      std::memcpy(&a, accum.data() + i, 8);
      std::memcpy(&b, incoming.data() + i, 8);
      std::int64_t out = a;
      switch (static_cast<MpiOp>(op)) {
        case MpiOp::kSum: out = a + b; break;
        case MpiOp::kMin: out = std::min(a, b); break;
        case MpiOp::kMax: out = std::max(a, b); break;
      }
      std::memcpy(accum.data() + i, &out, 8);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      switch (static_cast<MpiOp>(op)) {
        case MpiOp::kSum: accum[i] = static_cast<std::uint8_t>(accum[i] + incoming[i]); break;
        case MpiOp::kMin: accum[i] = std::min(accum[i], incoming[i]); break;
        case MpiOp::kMax: accum[i] = std::max(accum[i], incoming[i]); break;
      }
    }
  }
}

}  // namespace

vm::SyscallResult Cluster::MpiReduce(Rank r) {
  if (!RequireInitialized(r, "MPI_Reduce")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr sendbuf = v.cpu().IntReg(1);
  const GuestAddr recvbuf = v.cpu().IntReg(2);
  const std::uint64_t count = v.cpu().IntReg(3);
  const std::uint64_t datatype = v.cpu().IntReg(4);
  const std::uint64_t op = v.cpu().IntReg(5);
  const auto root = static_cast<std::int64_t>(v.cpu().IntReg(6));
  if (!ValidateArgs(r, count, datatype, root, 0, false, "MPI_Reduce")) {
    return vm::SyscallResult::Terminated();
  }
  if (op != static_cast<std::uint64_t>(guest::MpiOp::kSum) &&
      op != static_cast<std::uint64_t>(guest::MpiOp::kMin) &&
      op != static_cast<std::uint64_t>(guest::MpiOp::kMax)) {
    v.TerminateMpiError(StrFormat("MPI_Reduce: invalid op %llu",
                                  static_cast<unsigned long long>(op)));
    return vm::SyscallResult::Terminated();
  }
  const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);

  if (r != root) {
    if (!SendRaw(r, static_cast<Rank>(root), kReduceTag, count, datatype,
                 sendbuf, "MPI_Reduce")) {
      return vm::SyscallResult::Terminated();
    }
    return vm::SyscallResult::Done(0);
  }

  // Root: wait until every other rank's contribution is in the inbox.
  auto& inbox = rank(r).inbox;
  std::vector<const Envelope*> contributions(
      static_cast<std::size_t>(config_.num_ranks), nullptr);
  int have = 0;
  for (const Envelope& e : inbox) {
    if (e.tag == kReduceTag && contributions[static_cast<std::size_t>(e.src)] == nullptr) {
      contributions[static_cast<std::size_t>(e.src)] = &e;
      ++have;
    }
  }
  if (have < config_.num_ranks - 1) return vm::SyscallResult::Block();

  std::vector<std::uint8_t> accum = TakePayload();
  if (!v.memory().ReadBuffer(sendbuf, bytes, &accum)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  "MPI_Reduce: buffer " + Hex64(sendbuf) + " not mapped");
    return vm::SyscallResult::Terminated();
  }
  // Record whether the root's own contribution was tainted before combining.
  bool root_contribution_tainted = false;
  if (v.taint().enabled() && v.taint().Active()) {  // elastic: no taint -> clean
    for (std::uint64_t i = 0; i < bytes && !root_contribution_tainted; ++i) {
      const auto pa = v.memory().Translate(sendbuf + i);
      if (pa && v.taint().GetMemTaintByte(*pa) != 0) root_contribution_tainted = true;
    }
  }

  std::vector<Envelope> taken;
  for (Rank src = 0; src < config_.num_ranks; ++src) {
    if (src == r) continue;
    const auto match = std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
      return e.tag == kReduceTag && e.src == src;
    });
    if (match->payload.size() != bytes) {
      v.TerminateMpiError("MPI_Reduce: count mismatch across ranks");
      return vm::SyscallResult::Terminated();
    }
    CombineReduce(accum, match->payload, datatype, op);
    taken.push_back(std::move(*match));
    inbox.erase(match);
  }

  if (!v.memory().WriteBytes(recvbuf, accum.data(), bytes)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  "MPI_Reduce: recv buffer " + Hex64(recvbuf) + " not mapped");
    return vm::SyscallResult::Terminated();
  }
  ClearGuestMemTaint(v, recvbuf, bytes);
  // Taint flows into the reduction result from the root's own contribution
  // (local propagation) and from remote contributions (via the hub hook).
  if (root_contribution_tainted && v.taint().enabled()) {
    for (std::uint64_t i = 0; i < bytes; ++i) {
      const auto pa = v.memory().Translate(recvbuf + i);
      if (pa) v.taint().SetMemTaintByte(*pa, 0xff);
    }
  }
  if (hooks_ != nullptr) {
    for (const Envelope& env : taken) hooks_->OnRecvComplete(v, env, recvbuf);
  }
  for (Envelope& env : taken) RecyclePayload(std::move(env.payload));
  RecyclePayload(std::move(accum));
  return vm::SyscallResult::Done(0);
}

vm::SyscallResult Cluster::MpiAllreduce(Rank r) {
  // Implemented as reduce-to-rank-0 + result distribution. Rank 0 combines
  // contributions (idempotently: they are only consumed once all arrived)
  // and sends the result to every other rank; non-zero ranks contribute
  // exactly once (allreduce_sent survives blocked re-execution) and then
  // wait for the result message.
  if (!RequireInitialized(r, "MPI_Allreduce")) return vm::SyscallResult::Terminated();
  vm::Vm& v = rank_vm(r);
  const GuestAddr sendbuf = v.cpu().IntReg(1);
  const GuestAddr recvbuf = v.cpu().IntReg(2);
  const std::uint64_t count = v.cpu().IntReg(3);
  const std::uint64_t datatype = v.cpu().IntReg(4);
  const std::uint64_t op = v.cpu().IntReg(5);
  if (!ValidateArgs(r, count, datatype, 0, 0, false, "MPI_Allreduce")) {
    return vm::SyscallResult::Terminated();
  }
  if (op != static_cast<std::uint64_t>(guest::MpiOp::kSum) &&
      op != static_cast<std::uint64_t>(guest::MpiOp::kMin) &&
      op != static_cast<std::uint64_t>(guest::MpiOp::kMax)) {
    v.TerminateMpiError(StrFormat("MPI_Allreduce: invalid op %llu",
                                  static_cast<unsigned long long>(op)));
    return vm::SyscallResult::Terminated();
  }
  const std::uint64_t bytes = count * guest::MpiDatatypeSize(datatype);

  if (r != 0) {
    RankState& state = rank(r);
    if (!state.allreduce_sent) {
      if (!SendRaw(r, 0, kAllreduceTag, count, datatype, sendbuf)) {
        return vm::SyscallResult::Terminated();
      }
      state.allreduce_sent = true;
    }
    auto& inbox = state.inbox;
    const auto match = std::find_if(inbox.begin(), inbox.end(), [](const Envelope& e) {
      return e.tag == kAllreduceResultTag;
    });
    if (match == inbox.end()) return vm::SyscallResult::Block();
    if (match->payload.size() != bytes) {
      v.TerminateMpiError("MPI_Allreduce: count mismatch across ranks");
      return vm::SyscallResult::Terminated();
    }
    Envelope env = std::move(*match);
    inbox.erase(match);
    state.allreduce_sent = false;  // ready for the next allreduce
    if (!CompleteReceive(r, std::move(env), recvbuf)) {
      return vm::SyscallResult::Terminated();
    }
    return vm::SyscallResult::Done(0);
  }

  // Rank 0: wait for every contribution, combine, distribute.
  auto& inbox = rank(r).inbox;
  int have = 0;
  std::vector<bool> seen(static_cast<std::size_t>(config_.num_ranks), false);
  for (const Envelope& e : inbox) {
    if (e.tag == kAllreduceTag && !seen[static_cast<std::size_t>(e.src)]) {
      seen[static_cast<std::size_t>(e.src)] = true;
      ++have;
    }
  }
  if (have < config_.num_ranks - 1) return vm::SyscallResult::Block();

  std::vector<std::uint8_t> accum = TakePayload();
  if (!v.memory().ReadBuffer(sendbuf, bytes, &accum)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  "MPI_Allreduce: buffer " + Hex64(sendbuf) + " not mapped");
    return vm::SyscallResult::Terminated();
  }
  bool root_tainted = false;
  if (v.taint().enabled() && v.taint().Active()) {  // elastic: no taint -> clean
    for (std::uint64_t i = 0; i < bytes && !root_tainted; ++i) {
      const auto pa = v.memory().Translate(sendbuf + i);
      if (pa && v.taint().GetMemTaintByte(*pa) != 0) root_tainted = true;
    }
  }
  std::vector<Envelope> taken;
  for (Rank src = 1; src < config_.num_ranks; ++src) {
    const auto match = std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
      return e.tag == kAllreduceTag && e.src == src;
    });
    if (match->payload.size() != bytes) {
      v.TerminateMpiError("MPI_Allreduce: count mismatch across ranks");
      return vm::SyscallResult::Terminated();
    }
    CombineReduce(accum, match->payload, datatype, op);
    taken.push_back(std::move(*match));
    inbox.erase(match);
  }
  if (!v.memory().WriteBytes(recvbuf, accum.data(), bytes)) {
    v.RaiseSignal(vm::GuestSignal::kSegv,
                  "MPI_Allreduce: recv buffer " + Hex64(recvbuf) + " not mapped");
    return vm::SyscallResult::Terminated();
  }
  ClearGuestMemTaint(v, recvbuf, bytes);
  if (root_tainted && v.taint().enabled()) {
    for (std::uint64_t i = 0; i < bytes; ++i) {
      const auto pa = v.memory().Translate(recvbuf + i);
      if (pa) v.taint().SetMemTaintByte(*pa, 0xff);
    }
  }
  if (hooks_ != nullptr) {
    for (const Envelope& env : taken) hooks_->OnRecvComplete(v, env, recvbuf);
  }
  for (Envelope& env : taken) RecyclePayload(std::move(env.payload));
  RecyclePayload(std::move(accum));
  // Distribute the combined result (taint travels via the usual send hook).
  for (Rank dest = 1; dest < config_.num_ranks; ++dest) {
    if (!SendRaw(r, dest, kAllreduceResultTag, count, datatype, recvbuf)) {
      return vm::SyscallResult::Terminated();
    }
  }
  return vm::SyscallResult::Done(0);
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
    if (!SendRaw(r, static_cast<Rank>(root), kGatherTag, count, datatype, sendbuf)) {
      return vm::SyscallResult::Terminated();
    }
    return vm::SyscallResult::Done(0);
  }

  auto& inbox = rank(r).inbox;
  int have = 0;
  std::vector<bool> seen(static_cast<std::size_t>(config_.num_ranks), false);
  for (const Envelope& e : inbox) {
    if (e.tag == kGatherTag && !seen[static_cast<std::size_t>(e.src)]) {
      seen[static_cast<std::size_t>(e.src)] = true;
      ++have;
    }
  }
  if (have < config_.num_ranks - 1) return vm::SyscallResult::Block();

  // Root's own slice first (local copy).
  std::vector<std::uint8_t> slice;
  if (!v.memory().ReadBuffer(sendbuf, bytes, &slice) ||
      !v.memory().WriteBytes(recvbuf + static_cast<std::uint64_t>(r) * bytes,
                             slice.data(), bytes)) {
    v.RaiseSignal(vm::GuestSignal::kSegv, "MPI_Gather: buffer not mapped");
    return vm::SyscallResult::Terminated();
  }
  for (Rank src = 0; src < config_.num_ranks; ++src) {
    if (src == r) continue;
    const auto match = std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
      return e.tag == kGatherTag && e.src == src;
    });
    if (match->payload.size() != bytes) {
      v.TerminateMpiError("MPI_Gather: count mismatch across ranks");
      return vm::SyscallResult::Terminated();
    }
    Envelope env = std::move(*match);
    inbox.erase(match);
    if (!CompleteReceive(r, std::move(env),
                         recvbuf + static_cast<std::uint64_t>(src) * bytes)) {
      return vm::SyscallResult::Terminated();
    }
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

  if (r == root) {
    for (Rank dest = 0; dest < config_.num_ranks; ++dest) {
      const GuestAddr chunk = sendbuf + static_cast<std::uint64_t>(dest) * bytes;
      if (dest == r) {
        std::vector<std::uint8_t> slice;
        if (!v.memory().ReadBuffer(chunk, bytes, &slice) ||
            !v.memory().WriteBytes(recvbuf, slice.data(), bytes)) {
          v.RaiseSignal(vm::GuestSignal::kSegv, "MPI_Scatter: buffer not mapped");
          return vm::SyscallResult::Terminated();
        }
        continue;
      }
      if (!SendRaw(r, dest, kScatterTag, count, datatype, chunk)) {
        return vm::SyscallResult::Terminated();
      }
    }
    return vm::SyscallResult::Done(0);
  }

  auto& inbox = rank(r).inbox;
  const auto match = std::find_if(inbox.begin(), inbox.end(), [&](const Envelope& e) {
    return e.tag == kScatterTag && e.src == root;
  });
  if (match == inbox.end()) return vm::SyscallResult::Block();
  if (match->payload.size() != bytes) {
    v.TerminateMpiError("MPI_Scatter: count mismatch between root and receiver");
    return vm::SyscallResult::Terminated();
  }
  Envelope env = std::move(*match);
  inbox.erase(match);
  if (!CompleteReceive(r, std::move(env), recvbuf)) {
    return vm::SyscallResult::Terminated();
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
