// Unit tests for src/mpi: point-to-point messaging, collectives, argument
// validation (the source of "MPI error detected" outcomes), scheduling,
// deadlock detection, and message hooks.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <tuple>

#include "apps/app.h"
#include "common/error.h"
#include "guest/builder.h"
#include "mpi/cluster.h"
#include "peak_rss.h"

namespace chaser::mpi {
namespace {

using guest::Cond;
using guest::F;
using guest::MpiDatatype;
using guest::MpiOp;
using guest::ProgramBuilder;
using guest::R;
using guest::Sys;

constexpr std::int64_t kDouble = static_cast<std::int64_t>(MpiDatatype::kDouble);
constexpr std::int64_t kInt64 = static_cast<std::int64_t>(MpiDatatype::kInt64);

std::deque<guest::Program>& Programs() {
  static std::deque<guest::Program> programs;
  return programs;
}

/// SPMD program: rank 0 sends `payload` doubles to rank 1 with `tag`;
/// rank 1 receives into a buffer and re-exports it on fd 3.
const guest::Program& SendRecvProgram() {
  static const guest::Program* p = [] {
    ProgramBuilder b("sendrecv");
    const std::vector<double> payload{1.5, 2.5, 3.5};
    const GuestAddr src = b.DataF64("src", payload);
    const GuestAddr dst = b.Bss("dst", 3 * 8);
    b.Sys(Sys::kMpiInit);
    b.Sys(Sys::kMpiCommRank);
    b.Mov(R(10), R(0));
    auto receiver = b.NewLabel("receiver");
    auto done = b.NewLabel("done");
    b.CmpI(R(10), 0);
    b.Br(Cond::kNe, receiver);
    b.MovI(R(1), static_cast<std::int64_t>(src));
    b.MovI(R(2), 3);
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 1);
    b.MovI(R(5), 7);
    b.Sys(Sys::kMpiSend);
    b.Jmp(done);
    b.Bind(receiver);
    b.MovI(R(1), static_cast<std::int64_t>(dst));
    b.MovI(R(2), 3);
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 0);
    b.MovI(R(5), 7);
    b.Sys(Sys::kMpiRecv);
    b.MovI(R(4), static_cast<std::int64_t>(dst));
    b.MovI(R(5), 24);
    b.Write(3, R(4), R(5));
    b.Bind(done);
    b.Sys(Sys::kMpiFinalize);
    b.Exit(0);
    Programs().push_back(b.Finalize());
    return &Programs().back();
  }();
  return *p;
}

TEST(Mpi, SendRecvDeliversPayload) {
  Cluster cluster({.num_ranks = 2});
  cluster.Start(SendRecvProgram());
  const JobResult job = cluster.Run();
  ASSERT_TRUE(job.completed) << job.first_failure_message;
  const std::string& out = cluster.rank_vm(1).output(3);
  ASSERT_EQ(out.size(), 24u);
  double values[3];
  std::memcpy(values, out.data(), 24);
  EXPECT_DOUBLE_EQ(values[0], 1.5);
  EXPECT_DOUBLE_EQ(values[1], 2.5);
  EXPECT_DOUBLE_EQ(values[2], 3.5);
  EXPECT_EQ(cluster.messages_delivered(), 1u);
}

TEST(Mpi, ReceiverBlocksUntilSenderRuns) {
  // Rank 1 (receiver) scheduled before rank 0 would block: verify the
  // round-robin scheduler makes progress and the job still completes.
  Cluster cluster({.num_ranks = 2, .quantum = 5});
  cluster.Start(SendRecvProgram());
  EXPECT_TRUE(cluster.Run().completed);
}

/// Builds an SPMD program that runs `emit_rank0` on rank 0 and exits 0 on
/// other ranks (which still init/finalize).
template <typename EmitFn>
const guest::Program& Rank0Program(const std::string& name, EmitFn emit_rank0) {
  ProgramBuilder b(name);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  auto skip = b.NewLabel("skip");
  b.CmpI(R(10), 0);
  b.Br(Cond::kNe, skip);
  emit_rank0(b);
  b.Bind(skip);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  return Programs().back();
}

TEST(Mpi, InvalidRankIsMpiError) {
  const guest::Program& p = Rank0Program("badrank", [](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 8);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 1);
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 57);  // no such rank
    b.MovI(R(5), 1);
    b.Sys(Sys::kMpiSend);
  });
  Cluster cluster({.num_ranks = 2});
  cluster.Start(p);
  const JobResult job = cluster.Run();
  EXPECT_FALSE(job.completed);
  EXPECT_EQ(job.first_failure_kind, vm::TerminationKind::kMpiError);
  EXPECT_NE(job.first_failure_message.find("invalid rank"), std::string::npos);
}

TEST(Mpi, InvalidDatatypeIsMpiError) {
  const guest::Program& p = Rank0Program("baddt", [](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 8);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 1);
    b.MovI(R(3), 99);  // invalid datatype
    b.MovI(R(4), 1);
    b.MovI(R(5), 1);
    b.Sys(Sys::kMpiSend);
  });
  Cluster cluster({.num_ranks = 2});
  cluster.Start(p);
  const JobResult job = cluster.Run();
  EXPECT_EQ(job.first_failure_kind, vm::TerminationKind::kMpiError);
  EXPECT_NE(job.first_failure_message.find("invalid datatype"), std::string::npos);
}

TEST(Mpi, HugeCountIsMpiError) {
  const guest::Program& p = Rank0Program("badcount", [](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 8);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 1ll << 40);
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 1);
    b.MovI(R(5), 1);
    b.Sys(Sys::kMpiSend);
  });
  Cluster cluster({.num_ranks = 2});
  cluster.Start(p);
  EXPECT_EQ(cluster.Run().first_failure_kind, vm::TerminationKind::kMpiError);
}

TEST(Mpi, NegativeTagOnSendIsMpiError) {
  const guest::Program& p = Rank0Program("badtag", [](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 8);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), 1);
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 1);
    b.MovI(R(5), -1);
    b.Sys(Sys::kMpiSend);
  });
  Cluster cluster({.num_ranks = 2});
  cluster.Start(p);
  EXPECT_EQ(cluster.Run().first_failure_kind, vm::TerminationKind::kMpiError);
}

TEST(Mpi, UnmappedSendBufferIsOsException) {
  const guest::Program& p = Rank0Program("badbuf", [](ProgramBuilder& b) {
    b.MovI(R(1), 0xdead0000);
    b.MovI(R(2), 4);
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 1);
    b.MovI(R(5), 1);
    b.Sys(Sys::kMpiSend);
  });
  Cluster cluster({.num_ranks = 2});
  cluster.Start(p);
  const JobResult job = cluster.Run();
  EXPECT_EQ(job.first_failure_kind, vm::TerminationKind::kSignaled);
  EXPECT_EQ(job.first_failure_signal, vm::GuestSignal::kSegv);
}

TEST(Mpi, CorruptSendCountAllocatesNothing) {
  // The largest count MPI accepts, over an 8-byte buffer: the range check
  // must precede sizing the payload, or this SIGSEGV costs a 32 MiB zero
  // fill first.
  if (testutil::kSanitizedAllocator) {
    GTEST_SKIP() << "sanitizer allocators fill or shadow every allocated byte";
  }
  const guest::Program& p = Rank0Program("hugesend", [](ProgramBuilder& b) {
    const GuestAddr buf = b.Bss("buf", 8);
    b.MovI(R(1), static_cast<std::int64_t>(buf));
    b.MovI(R(2), static_cast<std::int64_t>(kMaxCount));
    b.MovI(R(3), kDouble);
    b.MovI(R(4), 1);
    b.MovI(R(5), 1);
    b.Sys(Sys::kMpiSend);
  });
  if (!testutil::ResetPeakRss()) GTEST_SKIP() << "/proc/self/clear_refs not writable";
  const std::uint64_t before = testutil::PeakRssBytes();
  Cluster cluster({.num_ranks = 2});
  cluster.Start(p);
  const JobResult job = cluster.Run();
  EXPECT_EQ(job.first_failure_kind, vm::TerminationKind::kSignaled);
  EXPECT_EQ(job.first_failure_signal, vm::GuestSignal::kSegv);
  EXPECT_NE(job.first_failure_message.find("not mapped"), std::string::npos);
  const std::uint64_t after = testutil::PeakRssBytes();
  EXPECT_LT(after > before ? after - before : 0, 8ull << 20);
}

TEST(Mpi, MpiCallBeforeInitIsMpiError) {
  ProgramBuilder b("noinit");
  const GuestAddr buf = b.Bss("buf", 8);
  b.MovI(R(1), static_cast<std::int64_t>(buf));
  b.MovI(R(2), 1);
  b.MovI(R(3), kDouble);
  b.MovI(R(4), 0);
  b.MovI(R(5), 1);
  b.Sys(Sys::kMpiSend);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 1});
  cluster.Start(Programs().back());
  const JobResult job = cluster.Run();
  EXPECT_EQ(job.first_failure_kind, vm::TerminationKind::kMpiError);
  EXPECT_NE(job.first_failure_message.find("MPI_Init"), std::string::npos);
}

TEST(Mpi, TruncationDetectedAtReceiver) {
  // Rank 0 sends 4 doubles; rank 1 only has room for 2.
  ProgramBuilder b("trunc");
  const std::vector<double> payload{1, 2, 3, 4};
  const GuestAddr src = b.DataF64("src", payload);
  const GuestAddr dst = b.Bss("dst", 2 * 8);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  auto receiver = b.NewLabel("receiver");
  auto done = b.NewLabel("done");
  b.CmpI(R(10), 0);
  b.Br(Cond::kNe, receiver);
  b.MovI(R(1), static_cast<std::int64_t>(src));
  b.MovI(R(2), 4);
  b.MovI(R(3), kDouble);
  b.MovI(R(4), 1);
  b.MovI(R(5), 3);
  b.Sys(Sys::kMpiSend);
  b.Jmp(done);
  b.Bind(receiver);
  b.MovI(R(1), static_cast<std::int64_t>(dst));
  b.MovI(R(2), 2);
  b.MovI(R(3), kDouble);
  b.MovI(R(4), 0);
  b.MovI(R(5), 3);
  b.Sys(Sys::kMpiRecv);
  b.Bind(done);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 2});
  cluster.Start(Programs().back());
  const JobResult job = cluster.Run();
  EXPECT_EQ(job.first_failure_kind, vm::TerminationKind::kMpiError);
  EXPECT_EQ(job.first_failure_rank, 1);
  EXPECT_NE(job.first_failure_message.find("truncated"), std::string::npos);
}

TEST(Mpi, DeadlockDetected) {
  // Everyone receives, nobody sends.
  ProgramBuilder b("deadlock");
  const GuestAddr buf = b.Bss("buf", 8);
  b.Sys(Sys::kMpiInit);
  b.MovI(R(1), static_cast<std::int64_t>(buf));
  b.MovI(R(2), 1);
  b.MovI(R(3), kDouble);
  b.MovI(R(4), -1);  // any source
  b.MovI(R(5), -1);  // any tag
  b.Sys(Sys::kMpiRecv);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 2});
  cluster.Start(Programs().back());
  const JobResult job = cluster.Run();
  EXPECT_FALSE(job.completed);
  EXPECT_TRUE(job.deadlock);
  EXPECT_EQ(cluster.rank_vm(0).termination(), vm::TerminationKind::kMpiError);
}

TEST(Mpi, FifoOrderPerChannel) {
  // Rank 0 sends the values 0..9 with the same tag; rank 1 must see them in
  // order (receive into slots sequentially; verify monotone).
  ProgramBuilder b("fifo");
  const GuestAddr src = b.Bss("src", 8);
  const GuestAddr dst = b.Bss("dst", 10 * 8);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  auto receiver = b.NewLabel("receiver");
  auto done = b.NewLabel("done");
  b.CmpI(R(10), 0);
  b.Br(Cond::kNe, receiver);
  // Sender: for i in 0..9 { src = i; send(src) }
  b.MovI(R(11), 0);
  {
    auto loop = b.Here("send_loop");
    b.MovI(R(9), static_cast<std::int64_t>(src));
    b.St(R(9), 0, R(11));
    b.MovI(R(1), static_cast<std::int64_t>(src));
    b.MovI(R(2), 1);
    b.MovI(R(3), kInt64);
    b.MovI(R(4), 1);
    b.MovI(R(5), 5);
    b.Sys(Sys::kMpiSend);
    b.AddI(R(11), R(11), 1);
    b.CmpI(R(11), 10);
    b.Br(Cond::kLt, loop);
  }
  b.Jmp(done);
  b.Bind(receiver);
  b.MovI(R(11), 0);
  {
    auto loop = b.Here("recv_loop");
    b.MovI(R(9), static_cast<std::int64_t>(dst));
    b.ShlI(R(8), R(11), 3);
    b.Add(R(9), R(9), R(8));
    b.Mov(R(1), R(9));
    b.MovI(R(2), 1);
    b.MovI(R(3), kInt64);
    b.MovI(R(4), 0);
    b.MovI(R(5), 5);
    b.Sys(Sys::kMpiRecv);
    b.AddI(R(11), R(11), 1);
    b.CmpI(R(11), 10);
    b.Br(Cond::kLt, loop);
  }
  b.MovI(R(4), static_cast<std::int64_t>(dst));
  b.MovI(R(5), 80);
  b.Write(3, R(4), R(5));
  b.Bind(done);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 2, .quantum = 50});
  cluster.Start(Programs().back());
  ASSERT_TRUE(cluster.Run().completed);
  const std::string& out = cluster.rank_vm(1).output(3);
  ASSERT_EQ(out.size(), 80u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, out.data() + i * 8, 8);
    EXPECT_EQ(v, i);
  }
}

TEST(Mpi, BcastReachesAllRanks) {
  ProgramBuilder b("bcast");
  const std::vector<double> payload{42.0, 43.0};
  const GuestAddr root_data = b.DataF64("rootdata", payload);
  const GuestAddr buf = b.Bss("buf", 16);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  auto use_bss = b.NewLabel("use_bss");
  auto go = b.NewLabel("go");
  b.CmpI(R(10), 0);
  b.Br(Cond::kNe, use_bss);
  b.MovI(R(1), static_cast<std::int64_t>(root_data));
  b.Jmp(go);
  b.Bind(use_bss);
  b.MovI(R(1), static_cast<std::int64_t>(buf));
  b.Bind(go);
  b.Mov(R(12), R(1));  // remember my buffer
  b.MovI(R(2), 2);
  b.MovI(R(3), kDouble);
  b.MovI(R(4), 0);
  b.Sys(Sys::kMpiBcast);
  b.Mov(R(4), R(12));
  b.MovI(R(5), 16);
  b.Write(3, R(4), R(5));
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 4});
  cluster.Start(Programs().back());
  ASSERT_TRUE(cluster.Run().completed);
  for (Rank r = 0; r < 4; ++r) {
    double v[2];
    ASSERT_EQ(cluster.rank_vm(r).output(3).size(), 16u) << r;
    std::memcpy(v, cluster.rank_vm(r).output(3).data(), 16);
    EXPECT_DOUBLE_EQ(v[0], 42.0) << r;
    EXPECT_DOUBLE_EQ(v[1], 43.0) << r;
  }
}

TEST(Mpi, ReduceSumsAcrossRanks) {
  // Each rank contributes (rank+1); root gets sum = 1+2+3+4 = 10.
  ProgramBuilder b("reduce");
  const GuestAddr sendbuf = b.Bss("sendbuf", 8);
  const GuestAddr recvbuf = b.Bss("recvbuf", 8);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  b.AddI(R(9), R(10), 1);
  b.CvtIF(F(0), R(9));
  b.MovI(R(9), static_cast<std::int64_t>(sendbuf));
  b.Fst(R(9), 0, F(0));
  b.MovI(R(1), static_cast<std::int64_t>(sendbuf));
  b.MovI(R(2), static_cast<std::int64_t>(recvbuf));
  b.MovI(R(3), 1);
  b.MovI(R(4), kDouble);
  b.MovI(R(5), static_cast<std::int64_t>(MpiOp::kSum));
  b.MovI(R(6), 0);
  b.Sys(Sys::kMpiReduce);
  auto not_root = b.NewLabel("not_root");
  b.CmpI(R(10), 0);
  b.Br(Cond::kNe, not_root);
  b.MovI(R(4), static_cast<std::int64_t>(recvbuf));
  b.MovI(R(5), 8);
  b.Write(3, R(4), R(5));
  b.Bind(not_root);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 4});
  cluster.Start(Programs().back());
  ASSERT_TRUE(cluster.Run().completed);
  double v = 0;
  std::memcpy(&v, cluster.rank_vm(0).output(3).data(), 8);
  EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(Mpi, BarrierSynchronisesAllRanks) {
  // Each rank spins rank*2000 instructions, then barriers, 3 times over.
  ProgramBuilder b("barrier");
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  b.MovI(R(12), 0);  // round
  auto round = b.Here("round");
  b.MulI(R(11), R(10), 500);
  {
    auto spin = b.NewLabel("spin");
    auto spun = b.NewLabel("spun");
    b.Bind(spin);
    b.CmpI(R(11), 0);
    b.Br(Cond::kLe, spun);
    b.SubI(R(11), R(11), 1);
    b.Jmp(spin);
    b.Bind(spun);
  }
  b.Sys(Sys::kMpiBarrier);
  b.AddI(R(12), R(12), 1);
  b.CmpI(R(12), 3);
  b.Br(Cond::kLt, round);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());
  Cluster cluster({.num_ranks = 4, .quantum = 100});
  cluster.Start(Programs().back());
  EXPECT_TRUE(cluster.Run().completed);
}

TEST(Mpi, NodeMapping) {
  Cluster c1({.num_ranks = 4, .ranks_per_node = 1});
  EXPECT_EQ(c1.node_of(0), 0);
  EXPECT_EQ(c1.node_of(3), 3);
  Cluster c2({.num_ranks = 4, .ranks_per_node = 2});
  EXPECT_EQ(c2.node_of(0), 0);
  EXPECT_EQ(c2.node_of(1), 0);
  EXPECT_EQ(c2.node_of(2), 1);
}

TEST(Mpi, HooksObserveSendAndRecv) {
  struct RecordingHooks : MessageHooks {
    int sends = 0, recvs = 0;
    Envelope last;
    void OnSend(vm::Vm&, const Envelope& env, GuestAddr) override {
      ++sends;
      last = env;
    }
    void OnRecvComplete(vm::Vm&, const Envelope&, GuestAddr) override { ++recvs; }
  };
  RecordingHooks hooks;
  Cluster cluster({.num_ranks = 2});
  cluster.SetMessageHooks(&hooks);
  cluster.Start(SendRecvProgram());
  ASSERT_TRUE(cluster.Run().completed);
  EXPECT_EQ(hooks.sends, 1);
  EXPECT_EQ(hooks.recvs, 1);
  EXPECT_EQ(hooks.last.src, 0);
  EXPECT_EQ(hooks.last.dest, 1);
  EXPECT_EQ(hooks.last.tag, 7);
  EXPECT_EQ(hooks.last.payload.size(), 24u);
}

TEST(Mpi, ClearGuestMemTaintHelper) {
  Cluster cluster({.num_ranks = 1});
  cluster.Start(SendRecvProgram());
  vm::Vm& vm = cluster.rank_vm(0);
  vm.taint().set_enabled(true);
  const GuestAddr dst = SendRecvProgram().DataAddr("src");
  const auto pa = vm.memory().Translate(dst);
  ASSERT_TRUE(pa.has_value());
  vm.taint().SetMemTaintByte(*pa, 0xff);
  ClearGuestMemTaint(vm, dst, 8);
  EXPECT_EQ(vm.taint().GetMemTaintByte(*pa), 0u);
}

TEST(Mpi, JobStateClearRestartsEveryChannelAndShedsOutgrownStorage) {
  JobMpiState job;
  EXPECT_EQ(job.NextSeq(0, 1, 5), 0u);
  EXPECT_EQ(job.NextSeq(0, 1, 5), 1u);
  EXPECT_EQ(job.NextSeq(1, 0, 5), 0u);
  EXPECT_EQ(job.NextSeq(0, 1, 6), 0u);
  EXPECT_EQ(job.NextSeq(0, 1, 5), 2u);
  job.messages_delivered = 4;
  job.Clear();
  EXPECT_EQ(job.NextSeq(0, 1, 5), 0u);  // no channel carries over
  EXPECT_EQ(job.messages_delivered, 0u);
  const std::size_t kept = job.send_seq.capacity();
  job.Clear();
  EXPECT_EQ(job.send_seq.capacity(), kept);  // a normal trial's storage stays
  // A fault-corrupted tag sweep opens more channels than any app uses.
  const auto tags = static_cast<std::int64_t>(2 * JobMpiState::kMaxKeptChannels);
  for (std::int64_t tag = 0; tag <= tags; ++tag) {
    EXPECT_EQ(job.NextSeq(0, 1, tag), 0u);
  }
  job.Clear();
  EXPECT_LE(job.send_seq.capacity(), JobMpiState::kMaxKeptChannels);
  EXPECT_EQ(job.NextSeq(0, 1, 3), 0u);
}

/// Each rank's outputs (fds 1 and 3) and counters (instret, chain hits, TLB
/// hits and misses).
using RankEnd = std::tuple<std::string, std::string, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t>;
std::vector<RankEnd> RankEnds(const Cluster& cluster) {
  std::vector<RankEnd> ends;
  for (Rank r = 0; r < cluster.num_ranks(); ++r) {
    const vm::Vm& v = cluster.rank_vm(r);
    ends.emplace_back(v.output(1), v.output(3), v.instret(), v.tb_chain_hits(),
                      v.tlb_hits(), v.tlb_misses());
  }
  return ends;
}

// Checkpoint 0 is a boot: a job captured right after Start and restored —
// into a cluster that never ran one, and into the booted cluster once its
// job is done — returns the booted job's result, outputs and counters.
TEST(Mpi, JobRestoredFromItsStartMatchesTheBootedJob) {
  for (const apps::AppSpec& spec :
       {apps::BuildMatvec({.ranks = 4}), apps::BuildClamr({})}) {
    SCOPED_TRACE(spec.name);
    Cluster booted({.num_ranks = spec.num_ranks});
    booted.Start(spec.program);
    const ClusterCheckpoint start = booted.Capture(nullptr);
    const JobResult want = booted.Run();
    ASSERT_TRUE(want.completed);
    const std::uint64_t delivered = booted.messages_delivered();
    const std::vector<RankEnd> want_ranks = RankEnds(booted);
    Cluster fresh({.num_ranks = spec.num_ranks});
    for (Cluster* cluster : {&fresh, &booted}) {
      cluster->Restore(start);
      const JobResult got = cluster->Run();
      EXPECT_EQ(got.completed, want.completed);
      EXPECT_EQ(got.deadlock, want.deadlock);
      EXPECT_EQ(got.first_failure_rank, want.first_failure_rank);
      EXPECT_EQ(got.total_instructions, want.total_instructions);
      EXPECT_EQ(cluster->messages_delivered(), delivered);
      EXPECT_EQ(RankEnds(*cluster), want_ranks);
    }
  }
}

TEST(Mpi, BadConfigThrows) {
  EXPECT_THROW(Cluster({.num_ranks = 0}), ConfigError);
  EXPECT_THROW(Cluster({.num_ranks = 2, .ranks_per_node = 0}), ConfigError);
}

}  // namespace
}  // namespace chaser::mpi
