// Tests for the collectives: Allreduce, Gather and Scatter results, every
// collective's failure outcomes, and taint through the two-hop allreduce
// path and the Gather and Scatter roots' own shares.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <deque>
#include <vector>

#include "guest/builder.h"
#include "hub/mpi_hooks.h"
#include "hub/tainthub.h"
#include "mpi/cluster.h"

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

/// Every rank contributes (rank+1) as a double; allreduce-sum twice in a row
/// (the second round exercises the per-rank progress-flag reset); each rank
/// exports both results.
const guest::Program& AllreduceProgram() {
  static const guest::Program* p = [] {
    ProgramBuilder b("allreduce");
    const std::vector<double> one{1.0};
    const GuestAddr scale = b.DataF64("scale", one);  // read-only input cell
    const GuestAddr sendbuf = b.Bss("sendbuf", 8);
    const GuestAddr recvbuf = b.Bss("recvbuf", 16);
    b.Sys(Sys::kMpiInit);
    b.Sys(Sys::kMpiCommRank);
    b.Mov(R(10), R(0));
    b.AddI(R(9), R(10), 1);
    b.CvtIF(F(0), R(9));
    b.MovI(R(9), static_cast<std::int64_t>(scale));
    b.Fld(F(1), R(9), 0);
    b.Fmul(F(0), F(0), F(1));  // contribution = (rank+1) * scale
    b.MovI(R(9), static_cast<std::int64_t>(sendbuf));
    b.Fst(R(9), 0, F(0));
    for (int round = 0; round < 2; ++round) {
      b.MovI(R(1), static_cast<std::int64_t>(sendbuf));
      b.MovI(R(2), static_cast<std::int64_t>(recvbuf + 8 * round));
      b.MovI(R(3), 1);
      b.MovI(R(4), kDouble);
      b.MovI(R(5), static_cast<std::int64_t>(MpiOp::kSum));
      b.Sys(Sys::kMpiAllreduce);
    }
    b.MovI(R(4), static_cast<std::int64_t>(recvbuf));
    b.MovI(R(5), 16);
    b.Write(3, R(4), R(5));
    b.Sys(Sys::kMpiFinalize);
    b.Exit(0);
    Programs().push_back(b.Finalize());
    return &Programs().back();
  }();
  return *p;
}

TEST(Collectives, AllreduceSumsOnEveryRankTwice) {
  Cluster cluster({.num_ranks = 4});
  cluster.Start(AllreduceProgram());
  const JobResult job = cluster.Run();
  ASSERT_TRUE(job.completed) << job.first_failure_message;
  for (Rank r = 0; r < 4; ++r) {
    double v[2];
    ASSERT_EQ(cluster.rank_vm(r).output(3).size(), 16u);
    std::memcpy(v, cluster.rank_vm(r).output(3).data(), 16);
    EXPECT_DOUBLE_EQ(v[0], 10.0) << "rank " << r << " round 1";
    EXPECT_DOUBLE_EQ(v[1], 10.0) << "rank " << r << " round 2";
  }
}

TEST(Collectives, AllreduceTaintReachesEveryRank) {
  hub::TaintHub hub;
  hub::ChaserMpiHooks hooks(&hub);
  Cluster cluster({.num_ranks = 4});
  cluster.SetMessageHooks(&hooks);
  cluster.Start(AllreduceProgram());
  for (Rank r = 0; r < 4; ++r) cluster.rank_vm(r).taint().set_enabled(true);
  // Taint rank 2's read-only input cell: its contribution is derived from
  // it, so the taint flows sendbuf -> rank 0 -> combined result -> everyone.
  vm::Vm& source = cluster.rank_vm(2);
  const GuestAddr scale = AllreduceProgram().DataAddr("scale");
  const auto scale_pa = source.memory().Translate(scale);
  ASSERT_TRUE(scale_pa.has_value());
  source.taint().TaintSourceMemory(*scale_pa, 8, ~std::uint64_t{0});
  ASSERT_TRUE(cluster.Run().completed);
  // The combined result must be tainted on every rank's recvbuf.
  for (Rank r = 0; r < 4; ++r) {
    const GuestAddr recvbuf = AllreduceProgram().DataAddr("recvbuf");
    const auto pa = cluster.rank_vm(r).memory().Translate(recvbuf);
    ASSERT_TRUE(pa.has_value());
    EXPECT_NE(cluster.rank_vm(r).taint().GetMemTaintByte(*pa), 0u) << "rank " << r;
  }
  EXPECT_GE(hub.stats().hits, 2u);  // contribution hop + distribution hops
}

TEST(Collectives, GatherCollectsInRankOrder) {
  ProgramBuilder b("gather");
  const GuestAddr sendbuf = b.Bss("sendbuf", 8);
  const GuestAddr recvbuf = b.Bss("recvbuf", 4 * 8);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.Mov(R(10), R(0));
  b.MulI(R(9), R(10), 11);  // contribute rank*11
  b.MovI(R(8), static_cast<std::int64_t>(sendbuf));
  b.St(R(8), 0, R(9));
  b.MovI(R(1), static_cast<std::int64_t>(sendbuf));
  b.MovI(R(2), static_cast<std::int64_t>(recvbuf));
  b.MovI(R(3), 1);
  b.MovI(R(4), kInt64);
  b.MovI(R(5), 1);  // root = rank 1
  b.Sys(Sys::kMpiGather);
  auto not_root = b.NewLabel("not_root");
  b.CmpI(R(10), 1);
  b.Br(Cond::kNe, not_root);
  b.MovI(R(4), static_cast<std::int64_t>(recvbuf));
  b.MovI(R(5), 32);
  b.Write(3, R(4), R(5));
  b.Bind(not_root);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());

  Cluster cluster({.num_ranks = 4});
  cluster.Start(Programs().back());
  ASSERT_TRUE(cluster.Run().completed);
  std::uint64_t v[4];
  ASSERT_EQ(cluster.rank_vm(1).output(3).size(), 32u);
  std::memcpy(v, cluster.rank_vm(1).output(3).data(), 32);
  for (std::uint64_t r = 0; r < 4; ++r) EXPECT_EQ(v[r], r * 11) << "slot " << r;
}

TEST(Collectives, ScatterDistributesChunks) {
  ProgramBuilder b("scatter");
  const std::vector<std::uint64_t> table{100, 200, 300, 400};
  const GuestAddr sendbuf = b.DataU64("table", table);
  const GuestAddr recvbuf = b.Bss("recvbuf", 8);
  b.Sys(Sys::kMpiInit);
  b.MovI(R(1), static_cast<std::int64_t>(sendbuf));
  b.MovI(R(2), static_cast<std::int64_t>(recvbuf));
  b.MovI(R(3), 1);
  b.MovI(R(4), kInt64);
  b.MovI(R(5), 0);  // root = rank 0
  b.Sys(Sys::kMpiScatter);
  b.MovI(R(4), static_cast<std::int64_t>(recvbuf));
  b.MovI(R(5), 8);
  b.Write(3, R(4), R(5));
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  Programs().push_back(b.Finalize());

  Cluster cluster({.num_ranks = 4});
  cluster.Start(Programs().back());
  ASSERT_TRUE(cluster.Run().completed);
  for (Rank r = 0; r < 4; ++r) {
    std::uint64_t v = 0;
    ASSERT_EQ(cluster.rank_vm(r).output(3).size(), 8u);
    std::memcpy(&v, cluster.rank_vm(r).output(3).data(), 8);
    EXPECT_EQ(v, static_cast<std::uint64_t>(r + 1) * 100) << "rank " << r;
  }
}

// ---- Failure outcomes -------------------------------------------------------

// The buffers of the failure table: one mapped bss page and an address no
// program maps. kPageEnd is the page's last int64, so a buffer there holds
// one element and faults at the next.
constexpr std::int64_t kBuf = static_cast<std::int64_t>(guest::kBssBase);
constexpr std::int64_t kRecv = kBuf + 256;
constexpr std::int64_t kPageEnd = kBuf + 4096 - 8;
constexpr std::int64_t kUnmapped = 0x1000;
constexpr std::int64_t kSum = static_cast<std::int64_t>(MpiOp::kSum);

/// One collective call on two ranks that fails: `args` holds each rank's
/// registers r1..r6 for `call`; the job must end with `rank`'s termination.
struct FailureCase {
  const char* name;
  Sys call;
  std::array<std::array<std::int64_t, 6>, 2> args;
  Rank rank;
  vm::TerminationKind kind;
  vm::GuestSignal signal;
  const char* message;
};

/// Each rank loads its row of `args` into r1..r6, makes the call, exits.
guest::Program FailureProgram(const FailureCase& c) {
  ProgramBuilder b(c.name);
  EXPECT_EQ(b.Bss("buf", 4096), static_cast<GuestAddr>(kBuf));
  std::vector<std::uint64_t> rows;
  for (const auto& row : c.args) {
    for (const std::int64_t a : row) rows.push_back(static_cast<std::uint64_t>(a));
  }
  const GuestAddr table = b.DataU64("args", rows);
  b.Sys(Sys::kMpiInit);
  b.Sys(Sys::kMpiCommRank);
  b.MulI(R(9), R(0), 48);
  b.AddI(R(9), R(9), static_cast<std::int64_t>(table));
  for (int k = 0; k < 6; ++k) b.Ld(R(1 + k), R(9), 8 * k);
  b.Sys(c.call);
  b.Sys(Sys::kMpiFinalize);
  b.Exit(0);
  return b.Finalize();
}

// Every collective's failures, pinned by termination kind, signal and exact
// message: count mismatches, unmapped send and receive buffers (at the root
// and elsewhere), and invalid roots and ops. Root 0 unless a row says 1.
TEST(Collectives, FailureOutcomes) {
  using vm::GuestSignal;
  using vm::TerminationKind;
  constexpr auto kMpi = TerminationKind::kMpiError;
  constexpr auto kSig = TerminationKind::kSignaled;
  constexpr auto kNone = GuestSignal::kNone;
  constexpr auto kSegv = GuestSignal::kSegv;
  const FailureCase cases[] = {
      {"bcast count mismatch", Sys::kMpiBcast,
       {{{kBuf, 2, kInt64, 0}, {kBuf, 1, kInt64, 0}}}, 1, kMpi, kNone,
       "MPI_Bcast: count mismatch between root and receiver"},
      {"bcast unmapped send buffer", Sys::kMpiBcast,
       {{{kUnmapped, 1, kInt64, 0}, {kBuf, 1, kInt64, 0}}}, 0, kSig, kSegv,
       "MPI_Bcast: buffer 0x0000000000001000 not mapped"},
      {"bcast unmapped receive buffer", Sys::kMpiBcast,
       {{{kBuf, 1, kInt64, 0}, {kUnmapped, 1, kInt64, 0}}}, 1, kSig, kSegv,
       "MPI_Bcast: buffer 0x0000000000001000 not mapped"},
      {"bcast invalid root", Sys::kMpiBcast,
       {{{kBuf, 1, kInt64, 9}, {kBuf, 1, kInt64, 9}}}, 0, kMpi, kNone,
       "MPI_Bcast: invalid rank 9"},

      {"reduce count mismatch", Sys::kMpiReduce,
       {{{kBuf, kRecv, 1, kInt64, kSum, 0}, {kBuf, kRecv, 2, kInt64, kSum, 0}}},
       0, kMpi, kNone, "MPI_Reduce: count mismatch across ranks"},
      {"reduce unmapped send buffer at the root", Sys::kMpiReduce,
       {{{kUnmapped, kRecv, 1, kInt64, kSum, 0}, {kBuf, kRecv, 1, kInt64, kSum, 0}}},
       0, kSig, kSegv, "MPI_Reduce: buffer 0x0000000000001000 not mapped"},
      {"reduce unmapped send buffer off the root", Sys::kMpiReduce,
       {{{kBuf, kRecv, 1, kInt64, kSum, 0}, {kUnmapped, kRecv, 1, kInt64, kSum, 0}}},
       1, kSig, kSegv, "MPI_Reduce: buffer 0x0000000000001000 not mapped"},
      {"reduce unmapped receive buffer", Sys::kMpiReduce,
       {{{kBuf, kUnmapped, 1, kInt64, kSum, 0}, {kBuf, kRecv, 1, kInt64, kSum, 0}}},
       0, kSig, kSegv, "MPI_Reduce: recv buffer 0x0000000000001000 not mapped"},
      {"reduce invalid root", Sys::kMpiReduce,
       {{{kBuf, kRecv, 1, kInt64, kSum, 9}, {kBuf, kRecv, 1, kInt64, kSum, 9}}},
       0, kMpi, kNone, "MPI_Reduce: invalid rank 9"},
      {"reduce invalid op", Sys::kMpiReduce,
       {{{kBuf, kRecv, 1, kInt64, 42, 0}, {kBuf, kRecv, 1, kInt64, 42, 0}}},
       0, kMpi, kNone, "MPI_Reduce: invalid op 42"},

      {"allreduce count mismatch", Sys::kMpiAllreduce,
       {{{kBuf, kRecv, 1, kInt64, kSum}, {kBuf, kRecv, 2, kInt64, kSum}}},
       0, kMpi, kNone, "MPI_Allreduce: count mismatch across ranks"},
      {"allreduce unmapped send buffer at the root", Sys::kMpiAllreduce,
       {{{kUnmapped, kRecv, 1, kInt64, kSum}, {kBuf, kRecv, 1, kInt64, kSum}}},
       0, kSig, kSegv, "MPI_Allreduce: buffer 0x0000000000001000 not mapped"},
      {"allreduce unmapped send buffer off the root", Sys::kMpiAllreduce,
       {{{kBuf, kRecv, 1, kInt64, kSum}, {kUnmapped, kRecv, 1, kInt64, kSum}}},
       1, kSig, kSegv, "MPI_Allreduce: buffer 0x0000000000001000 not mapped"},
      {"allreduce unmapped receive buffer at the root", Sys::kMpiAllreduce,
       {{{kBuf, kUnmapped, 1, kInt64, kSum}, {kBuf, kRecv, 1, kInt64, kSum}}},
       0, kSig, kSegv, "MPI_Allreduce: recv buffer 0x0000000000001000 not mapped"},
      {"allreduce unmapped receive buffer off the root", Sys::kMpiAllreduce,
       {{{kBuf, kRecv, 1, kInt64, kSum}, {kBuf, kUnmapped, 1, kInt64, kSum}}},
       1, kSig, kSegv, "MPI_Allreduce: buffer 0x0000000000001000 not mapped"},
      {"allreduce invalid op", Sys::kMpiAllreduce,
       {{{kBuf, kRecv, 1, kInt64, 42}, {kBuf, kRecv, 1, kInt64, 42}}},
       0, kMpi, kNone, "MPI_Allreduce: invalid op 42"},

      {"gather count mismatch", Sys::kMpiGather,
       {{{kBuf, kRecv, 1, kInt64, 0}, {kBuf, kRecv, 2, kInt64, 0}}},
       0, kMpi, kNone, "MPI_Gather: count mismatch across ranks"},
      {"gather unmapped send buffer at the root", Sys::kMpiGather,
       {{{kUnmapped, kRecv, 1, kInt64, 0}, {kBuf, kRecv, 1, kInt64, 0}}},
       0, kSig, kSegv, "MPI_Gather: buffer not mapped"},
      {"gather unmapped send buffer off the root", Sys::kMpiGather,
       {{{kBuf, kRecv, 1, kInt64, 0}, {kUnmapped, kRecv, 1, kInt64, 0}}},
       1, kSig, kSegv, "MPI_Gather: buffer 0x0000000000001000 not mapped"},
      {"gather unmapped receive buffer", Sys::kMpiGather,
       {{{kBuf, kUnmapped, 1, kInt64, 0}, {kBuf, kRecv, 1, kInt64, 0}}},
       0, kSig, kSegv, "MPI_Gather: buffer not mapped"},
      {"gather receive buffer unmapped past the root's slot", Sys::kMpiGather,
       {{{kBuf, kPageEnd, 1, kInt64, 0}, {kBuf, kRecv, 1, kInt64, 0}}},
       0, kSig, kSegv, "MPI_Gather: buffer 0x0000000018001000 not mapped"},
      {"gather invalid root", Sys::kMpiGather,
       {{{kBuf, kRecv, 1, kInt64, 9}, {kBuf, kRecv, 1, kInt64, 9}}},
       0, kMpi, kNone, "MPI_Gather: invalid rank 9"},

      {"scatter count mismatch", Sys::kMpiScatter,
       {{{kBuf, kRecv, 1, kInt64, 0}, {kBuf, kRecv, 2, kInt64, 0}}},
       1, kMpi, kNone, "MPI_Scatter: count mismatch between root and receiver"},
      {"scatter unmapped send buffer", Sys::kMpiScatter,
       {{{kUnmapped, kRecv, 1, kInt64, 0}, {kBuf, kRecv, 1, kInt64, 0}}},
       0, kSig, kSegv, "MPI_Scatter: buffer not mapped"},
      {"scatter send buffer unmapped past the root's chunk", Sys::kMpiScatter,
       {{{kPageEnd, kRecv, 1, kInt64, 0}, {kBuf, kRecv, 1, kInt64, 0}}},
       0, kSig, kSegv, "MPI_Scatter: buffer 0x0000000018001000 not mapped"},
      {"scatter unmapped send buffer, root 1", Sys::kMpiScatter,
       {{{kBuf, kRecv, 1, kInt64, 1}, {kUnmapped, kRecv, 1, kInt64, 1}}},
       1, kSig, kSegv, "MPI_Scatter: buffer 0x0000000000001000 not mapped"},
      {"scatter unmapped receive buffer at the root", Sys::kMpiScatter,
       {{{kBuf, kUnmapped, 1, kInt64, 0}, {kBuf, kRecv, 1, kInt64, 0}}},
       0, kSig, kSegv, "MPI_Scatter: buffer not mapped"},
      {"scatter unmapped receive buffer off the root", Sys::kMpiScatter,
       {{{kBuf, kRecv, 1, kInt64, 0}, {kBuf, kUnmapped, 1, kInt64, 0}}},
       1, kSig, kSegv, "MPI_Scatter: buffer 0x0000000000001000 not mapped"},
      {"scatter invalid root", Sys::kMpiScatter,
       {{{kBuf, kRecv, 1, kInt64, 9}, {kBuf, kRecv, 1, kInt64, 9}}},
       0, kMpi, kNone, "MPI_Scatter: invalid rank 9"},
  };
  for (const FailureCase& c : cases) {
    SCOPED_TRACE(c.name);
    Cluster cluster({.num_ranks = 2});
    cluster.Start(FailureProgram(c));
    const JobResult job = cluster.Run();
    EXPECT_FALSE(job.completed);
    EXPECT_FALSE(job.deadlock);
    EXPECT_EQ(job.first_failure_rank, c.rank);
    EXPECT_EQ(job.first_failure_kind, c.kind);
    EXPECT_EQ(job.first_failure_signal, c.signal);
    EXPECT_EQ(job.first_failure_message, c.message);
  }
}

// ---- Root-local copies carry taint ------------------------------------------

/// The shadow masks of the 8 bytes at `vaddr` on `vm`, packed.
std::uint64_t Taint8(vm::Vm& vm, GuestAddr vaddr) {
  const auto pa = vm.memory().Translate(vaddr);
  EXPECT_TRUE(pa.has_value());
  return pa ? vm.taint().GetMemTaint(*pa, 8) : 0;
}

/// Gives the 8 bytes at `vaddr` on `vm` the packed masks `masks`.
void SetTaint8(vm::Vm& vm, GuestAddr vaddr, std::uint64_t masks) {
  const auto pa = vm.memory().Translate(vaddr);
  ASSERT_TRUE(pa.has_value());
  vm.taint().SetMemTaint(*pa, 8, masks);
}

/// A two-rank job of `program` with taint on and TaintHub hooks, started
/// but not run, so a test can seed taint first.
struct TaintedJob {
  explicit TaintedJob(const guest::Program& program)
      : hooks(&hub), cluster({.num_ranks = 2}) {
    cluster.SetMessageHooks(&hooks);
    cluster.Start(program);
    for (Rank r = 0; r < 2; ++r) cluster.rank_vm(r).taint().set_enabled(true);
  }
  hub::TaintHub hub;
  hub::ChaserMpiHooks hooks;
  Cluster cluster;
};

/// Scatter of a data table `table` (one int64 chunk per rank) from `root`
/// into each rank's `recvbuf`.
const guest::Program& ScatterTableProgram() {
  static const guest::Program* p = [] {
    ProgramBuilder b("scatter_table");
    const std::vector<std::uint64_t> table{100, 200};
    const GuestAddr sendbuf = b.DataU64("table", table);
    const GuestAddr recvbuf = b.Bss("recvbuf", 8);
    b.Sys(Sys::kMpiInit);
    b.MovI(R(1), static_cast<std::int64_t>(sendbuf));
    b.MovI(R(2), static_cast<std::int64_t>(recvbuf));
    b.MovI(R(3), 1);
    b.MovI(R(4), kInt64);
    b.MovI(R(5), 0);
    b.Sys(Sys::kMpiScatter);
    b.Sys(Sys::kMpiFinalize);
    b.Exit(0);
    Programs().push_back(b.Finalize());
    return &Programs().back();
  }();
  return *p;
}

/// Gather of each rank's data cell `slice` into root 1's `recvbuf`.
const guest::Program& GatherSliceProgram() {
  static const guest::Program* p = [] {
    ProgramBuilder b("gather_slice");
    const std::vector<std::uint64_t> slice{77};
    const GuestAddr sendbuf = b.DataU64("slice", slice);
    const GuestAddr recvbuf = b.Bss("recvbuf", 16);
    b.Sys(Sys::kMpiInit);
    b.MovI(R(1), static_cast<std::int64_t>(sendbuf));
    b.MovI(R(2), static_cast<std::int64_t>(recvbuf));
    b.MovI(R(3), 1);
    b.MovI(R(4), kInt64);
    b.MovI(R(5), 1);
    b.Sys(Sys::kMpiGather);
    b.Sys(Sys::kMpiFinalize);
    b.Exit(0);
    Programs().push_back(b.Finalize());
    return &Programs().back();
  }();
  return *p;
}

constexpr std::uint64_t kMasks = 0x0102'0408'1020'40ffull;

// The root's own chunk never crosses the wire, yet it carries the taint a
// chunk sent to another rank does.
TEST(Collectives, ScatterRootKeepsItsChunksTaint) {
  const guest::Program& program = ScatterTableProgram();
  TaintedJob job(program);
  vm::Vm& root = job.cluster.rank_vm(0);
  const GuestAddr table = program.DataAddr("table");
  SetTaint8(root, table, kMasks);
  SetTaint8(root, table + 8, kMasks);
  ASSERT_TRUE(job.cluster.Run().completed);
  const GuestAddr recvbuf = program.DataAddr("recvbuf");
  EXPECT_EQ(Taint8(root, recvbuf), kMasks) << "root";
  EXPECT_EQ(Taint8(job.cluster.rank_vm(1), recvbuf), kMasks) << "rank 1";
}

// Clean bytes landing over stale taint leave them clean, as a receive does.
TEST(Collectives, ScatterRootClearsStaleTaintUnderACleanChunk) {
  const guest::Program& program = ScatterTableProgram();
  TaintedJob job(program);
  vm::Vm& root = job.cluster.rank_vm(0);
  const GuestAddr recvbuf = program.DataAddr("recvbuf");
  SetTaint8(root, recvbuf, kMasks);
  ASSERT_TRUE(job.cluster.Run().completed);
  EXPECT_EQ(Taint8(root, recvbuf), 0u);
  EXPECT_EQ(root.taint().CountTaintedBytes(), 0u);
}

TEST(Collectives, GatherRootKeepsItsSlicesTaint) {
  const guest::Program& program = GatherSliceProgram();
  TaintedJob job(program);
  vm::Vm& root = job.cluster.rank_vm(1);
  SetTaint8(root, program.DataAddr("slice"), kMasks);
  ASSERT_TRUE(job.cluster.Run().completed);
  const GuestAddr recvbuf = program.DataAddr("recvbuf");
  EXPECT_EQ(Taint8(root, recvbuf), 0u) << "rank 0's clean slice";
  EXPECT_EQ(Taint8(root, recvbuf + 8), kMasks) << "the root's own slice";
}

TEST(Collectives, GatherRootClearsStaleTaintUnderACleanSlice) {
  const guest::Program& program = GatherSliceProgram();
  TaintedJob job(program);
  vm::Vm& root = job.cluster.rank_vm(1);
  const GuestAddr recvbuf = program.DataAddr("recvbuf");
  SetTaint8(root, recvbuf, kMasks);
  SetTaint8(root, recvbuf + 8, kMasks);
  ASSERT_TRUE(job.cluster.Run().completed);
  EXPECT_EQ(Taint8(root, recvbuf), 0u) << "rank 0's slice";
  EXPECT_EQ(Taint8(root, recvbuf + 8), 0u) << "the root's own slice";
  EXPECT_EQ(root.taint().CountTaintedBytes(), 0u);
}

}  // namespace
}  // namespace chaser::mpi
