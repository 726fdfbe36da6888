// Simulated MPI runtime.
//
// Each MPI rank runs in its own Vm (own address space, own taint shadow),
// scheduled round-robin — the "four Chaser-hypervised nodes" of the paper's
// testbed collapse into one host process, but the property that matters is
// preserved: *only raw bytes* cross rank boundaries, so shadow taint dies at
// the boundary unless TaintHub (src/hub) re-establishes it.
//
// MPI calls are guest syscalls (Sys::kMpi*). The runtime validates arguments
// the way a real MPI would: bad ranks/tags/counts/datatypes terminate the
// offending process with an "MPI error detected" outcome (Table III's second
// column), and faulting buffers raise the SIGSEGV analogue (first column).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "guest/program.h"
#include "vm/vm.h"

namespace chaser::mpi {

/// Reserved internal tags for collectives (user tags must be >= 0).
inline constexpr std::int64_t kBcastTag = -2;
inline constexpr std::int64_t kReduceTag = -3;
inline constexpr std::int64_t kAllreduceTag = -4;
inline constexpr std::int64_t kAllreduceResultTag = -5;
inline constexpr std::int64_t kGatherTag = -6;
inline constexpr std::int64_t kScatterTag = -7;
inline constexpr std::int64_t kMaxUserTag = 32767;
/// Largest element count a message may carry (larger counts are corrupt).
inline constexpr std::uint64_t kMaxCount = 1ull << 22;

/// A message in flight between two ranks.
struct Envelope {
  Rank src = 0;
  Rank dest = 0;
  std::int64_t tag = 0;
  std::uint64_t count = 0;     // element count
  std::uint64_t datatype = 0;  // guest::MpiDatatype value
  std::uint64_t seq = 0;       // per-(src,dest,tag) FIFO sequence number
  std::vector<std::uint8_t> payload;

  bool operator==(const Envelope&) const = default;
};

/// Chaser's MPI function hooks (implemented by the TaintHub glue, src/hub).
class MessageHooks {
 public:
  virtual ~MessageHooks() = default;
  /// Invoked at every job start — Cluster::Start or Cluster::Restore —
  /// before any rank begins. Per-job state must reset here: message
  /// sequence numbers restart with every job, so taint records published
  /// in a previous job (e.g. by a trial that terminated before the receiver
  /// polled) would otherwise match the *next* job's identities and leak
  /// phantom taint across campaign trials.
  virtual void OnJobStart() {}
  /// Sender side, invoked before the message leaves the rank; `buf` is the
  /// send buffer's guest virtual address in `sender`.
  virtual void OnSend(vm::Vm& sender, const Envelope& env, GuestAddr buf) = 0;
  /// Receiver side, invoked after the payload has been copied into `buf`
  /// (whose shadow taint has been cleared — fresh data arrived).
  virtual void OnRecvComplete(vm::Vm& receiver, const Envelope& env,
                              GuestAddr buf) = 0;
};

/// Where one rank's MPI calls stand: its MPI-runtime state but the inbox.
/// The member initializers are the one definition of a fresh rank's.
struct RankMpiProgress {
  bool mpi_initialized = false;
  bool mpi_finalized = false;
  std::uint64_t barriers_done = 0;
  bool barrier_arrived = false;
  // Allreduce progress: the contribution is sent exactly once even though
  // a blocked syscall re-executes when the rank is unblocked.
  bool allreduce_sent = false;

  bool operator==(const RankMpiProgress&) const = default;
};

/// One rank's MPI-runtime state (everything but its VM).
struct RankMpiState : RankMpiProgress {
  /// Messages delivered to the rank and not yet received. A vector: a copy
  /// of an empty one allocates nothing, and a reset keeps its storage.
  std::vector<Envelope> inbox;

  bool operator==(const RankMpiState&) const = default;
};

/// The job-wide MPI-runtime state.
struct JobMpiState {
  JobMpiState() { Clear(); }

  /// The next sequence number of one (src, dest, tag) channel.
  struct SendSeq {
    std::tuple<Rank, Rank, std::int64_t> channel;
    std::uint64_t next;
    bool operator==(const SendSeq&) const = default;
  };
  /// Sorted by channel. A flat vector, so a trial's reset and restore
  /// reuse its storage.
  std::vector<SendSeq> send_seq;
  std::uint64_t barrier_completed;
  int barrier_arrived_count;
  std::uint64_t messages_delivered;

  /// The sequence number of the next message on (src, dest, tag).
  std::uint64_t NextSeq(Rank src, Rank dest, std::int64_t tag);

  /// The one definition of a fresh job's state (the constructor calls it),
  /// applied in place: send_seq keeps its storage unless a fault-corrupted
  /// trial grew it past kMaxKeptChannels.
  void Clear();
  static constexpr std::size_t kMaxKeptChannels = 256;
  bool operator==(const JobMpiState&) const = default;
};

/// A clean job at one TB boundary of one rank's Run: every rank's VM and
/// MPI state, the job's, and the round in progress.
struct ClusterCheckpoint {
  /// Each part is shared with the previous checkpoint while it is
  /// unchanged — a rank that has not run since then shares its whole VM.
  struct RankCheckpoint {
    std::shared_ptr<const vm::Vm::Checkpoint> vm;
    std::shared_ptr<const RankMpiState> mpi;
  };
  /// The rank whose Run was interrupted, the budget that Run had left, and
  /// the instructions the whole job had retired (what
  /// JobResult::total_instructions counts).
  struct Round {
    Rank rank = 0;
    std::uint64_t budget = 0;
    std::uint64_t retired = 0;
  };
  std::vector<RankCheckpoint> ranks;
  JobMpiState job;
  Round round;
};

/// Result of running an MPI job to completion.
struct JobResult {
  bool completed = false;  // every rank exited normally
  bool deadlock = false;   // all surviving ranks blocked forever
  Rank first_failure_rank = -1;
  vm::TerminationKind first_failure_kind = vm::TerminationKind::kRunning;
  vm::GuestSignal first_failure_signal = vm::GuestSignal::kNone;
  std::string first_failure_message;
  std::uint64_t total_instructions = 0;
};

class Cluster {
 public:
  using Checkpoint = ClusterCheckpoint;
  struct Config {
    int num_ranks = 4;
    int ranks_per_node = 1;           // paper testbed: one rank per node
    std::uint64_t quantum = 20'000;   // instructions per scheduling slice
    std::uint64_t max_total_instructions = 4'000'000'000ull;
    vm::Vm::Config vm;
  };

  explicit Cluster(Config config);

  // Non-copyable (owns VMs).
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void SetMessageHooks(MessageHooks* hooks) { hooks_ = hooks; }

  int num_ranks() const { return config_.num_ranks; }
  int node_of(Rank r) const { return r / config_.ranks_per_node; }
  vm::Vm& rank_vm(Rank r) { return *ranks_[static_cast<std::size_t>(r)]->vm; }
  const vm::Vm& rank_vm(Rank r) const { return *ranks_[static_cast<std::size_t>(r)]->vm; }

  /// Boot the SPMD `program`: the job-start hook, then Vm::StartProcess on
  /// every rank (firing each VM's VMI process-creation callback). Every
  /// rank VM shares the one image.
  void Start(std::shared_ptr<const guest::Program> program);
  /// Boots one shared copy of `program`, so temporaries are safe to pass.
  void Start(const guest::Program& program) {
    Start(std::make_shared<const guest::Program>(program));
  }

  /// Round-robin schedule all ranks until the job completes, a rank fails
  /// (which kills the job, like a real MPI launcher), or deadlock.
  JobResult Run();

  /// Messages delivered so far (for tests).
  std::uint64_t messages_delivered() const { return job_.messages_delivered; }

  // ---- Golden-prefix checkpoints ---------------------------------------------
  /// While a hook is installed, Run calls it at the first TB boundary (of
  /// whichever rank is running) at which the job has retired `at`
  /// instructions, and then at each count the hook returns (~0 = no more).
  /// The hook may call Capture(). A null hook disarms.
  using CheckpointHook = std::function<std::uint64_t(std::uint64_t retired)>;
  void SetCheckpointHook(std::uint64_t at, CheckpointHook hook);

  /// The one list of a job's guest state (see Vm::ForEachPart): f(name,
  /// rank, checkpoint part, live part) for each rank's VM and MPI state,
  /// then (rank -1) the job's. Not the round, where a checkpoint stands.
  /// Capture and Restore pick each part by type.
  template <typename Ck, typename C, typename F>
  static void ForEachPart(Ck& ck, C& cluster, F&& f) {
    if constexpr (!std::is_const_v<Ck>) ck.ranks.resize(cluster.ranks_.size());
    for (std::size_t r = 0; r < cluster.ranks_.size(); ++r) {
      auto& state = *cluster.ranks_[r];
      f("vm", static_cast<Rank>(r), ck.ranks[r].vm, *state.vm);
      f("mpi", static_cast<Rank>(r), ck.ranks[r].mpi, static_cast<RankMpiState&>(state));
    }
    f("job", Rank{-1}, ck.job, cluster.job_);
  }

  /// Snapshot the job at the boundary a checkpoint hook is running at, or
  /// right after Start (a job that has run nothing); `prev` (an earlier
  /// checkpoint of this job, or null) shares unchanged rank VMs, guest
  /// pages and rank MPI states.
  ClusterCheckpoint Capture(const ClusterCheckpoint* prev) const;

  /// Start the job from `ck` instead of booting it: the job-start hook,
  /// then Vm::Restore on every rank (each VM's process-creation callback
  /// attaches its instrumentation first) and the MPI state. The next Run
  /// resumes the captured round, and returns what the captured job's Run
  /// would have returned from that point on.
  void Restore(const ClusterCheckpoint& ck);

  /// Tune the whole-job instruction watchdog (see Vm::set_max_instructions).
  void SetInstructionBudgets(std::uint64_t per_rank, std::uint64_t total);

 private:
  struct RankState;

  /// Shared prologue of Start and Restore: the job-start hook, then a
  /// fresh job and fresh ranks, their inboxes' payloads recycled.
  void BeginJob();
  /// A rank VM reached the checkpoint mark inside Run.
  void OnCheckpointBoundary(vm::Vm& v, std::uint64_t budget);
  /// The instret at which a rank VM standing at `instret`, with the job at
  /// `total` retired instructions, reaches the next checkpoint mark.
  std::uint64_t CheckpointMark(std::uint64_t instret, std::uint64_t total) const;

  /// Per-rank syscall extension: forwards MPI syscalls into the cluster.
  class RankSyscalls : public vm::SyscallExtension {
   public:
    RankSyscalls(Cluster* cluster, Rank rank) : cluster_(cluster), rank_(rank) {}
    std::optional<vm::SyscallResult> HandleSyscall(vm::Vm& vm,
                                                   std::uint64_t num) override;

   private:
    Cluster* cluster_;
    Rank rank_;
  };

  struct RankState : RankMpiState {
    std::unique_ptr<vm::Vm> vm;
    std::unique_ptr<RankSyscalls> syscalls;
  };

  vm::SyscallResult MpiInit(Rank r);
  vm::SyscallResult MpiFinalize(Rank r);
  vm::SyscallResult MpiSend(Rank r);
  vm::SyscallResult MpiRecv(Rank r);
  vm::SyscallResult MpiBcast(Rank r);
  vm::SyscallResult MpiReduce(Rank r);
  vm::SyscallResult MpiBarrier(Rank r);
  vm::SyscallResult MpiAllreduce(Rank r);
  vm::SyscallResult MpiGather(Rank r);
  vm::SyscallResult MpiScatter(Rank r);

  /// Validates (count, datatype, peer, tag); terminates with an MPI error and
  /// returns false if invalid. `peer_may_be_any` allows -1 (MPI_ANY_SOURCE).
  bool ValidateArgs(Rank r, std::uint64_t count, std::uint64_t datatype,
                    std::int64_t peer, std::int64_t tag, bool peer_may_be_any,
                    const char* what);
  bool RequireInitialized(Rank r, const char* what);

  /// Enqueue `env` for its destination and unblock the destination VM.
  void Deliver(Envelope env);

  /// Copy a payload into guest memory, clear the buffer's shadow taint
  /// (fresh bytes arrived over the wire), and fire the receive hook; the
  /// payload's storage then goes back to the spare list. Returns false if
  /// the destination buffer faulted (signal raised).
  bool CompleteReceive(Rank r, Envelope env, GuestAddr buf);

  /// Read `count` elements from `buf` into an envelope payload and ship it;
  /// raises SIGSEGV (naming `what`) and returns false if the buffer is
  /// unmapped.
  bool SendRaw(Rank src, Rank dest, std::int64_t tag, std::uint64_t count,
               std::uint64_t datatype, GuestAddr buf,
               const char* what = "MPI collective");

  /// An empty payload vector, with the storage of a recycled one when the
  /// spare list has one, so a warmed job's messages allocate nothing.
  std::vector<std::uint8_t> TakePayload();
  /// Keep `payload`'s storage for TakePayload, unless the list is full or
  /// it grew past kMaxKeptPayloadBytes (a fault-corrupted count's).
  void RecyclePayload(std::vector<std::uint8_t>&& payload);

  RankState& rank(Rank r) { return *ranks_[static_cast<std::size_t>(r)]; }

  Config config_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  MessageHooks* hooks_ = nullptr;
  JobMpiState job_;
  std::vector<std::vector<std::uint8_t>> spare_payloads_;

  // Checkpoint capture: the hook, the job-wide mark it set,
  // where the running rank's quantum began, and the round a hook is at (a
  // fresh one right after Start).
  CheckpointHook checkpoint_hook_;
  std::uint64_t checkpoint_at_ = ~std::uint64_t{0};
  std::uint64_t running_total_ = 0;   // job instructions before the quantum
  std::uint64_t running_before_ = 0;  // the rank's instret when it began
  ClusterCheckpoint::Round capture_;
  /// Set by Restore: the round Run resumes.
  std::optional<ClusterCheckpoint::Round> resume_;
};

/// Clear the shadow taint of `len` bytes of guest memory starting at `vaddr`
/// (no-op for unmapped bytes). Exposed for the hub and tests.
void ClearGuestMemTaint(vm::Vm& vm, GuestAddr vaddr, std::uint64_t len);

}  // namespace chaser::mpi
