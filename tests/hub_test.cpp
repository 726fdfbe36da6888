// Unit tests for src/hub: TaintHub publish/poll, the Chaser MPI hooks, and
// end-to-end cross-rank taint propagation (the paper's Fig. 5 mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "core/chaser_mpi.h"
#include "core/corrupt.h"
#include "guest/builder.h"
#include "hub/mpi_hooks.h"
#include "hub/tainthub.h"
#include "mpi/cluster.h"

namespace chaser::hub {
namespace {

using guest::Cond;
using guest::ProgramBuilder;
using guest::R;
using guest::Sys;

constexpr std::int64_t kInt64 = static_cast<std::int64_t>(guest::MpiDatatype::kInt64);

// ---- TaintHub registry -------------------------------------------------------

TEST(TaintHub, PublishPollRoundTrip) {
  TaintHub hub;
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0x00, 0xff, 0x0f};
  hub.Publish(rec);
  const auto got = hub.Poll({0, 1, 7, 0});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->byte_masks, rec.byte_masks);
  EXPECT_EQ(got->TaintedByteCount(), 2u);
  // One-shot: a second poll misses.
  EXPECT_FALSE(hub.Poll({0, 1, 7, 0}).has_value());
}

TEST(TaintHub, PollMissesOnDifferentIdentity) {
  TaintHub hub;
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff};
  hub.Publish(rec);
  EXPECT_FALSE(hub.Poll({0, 1, 7, 1}).has_value());  // different seq
  EXPECT_FALSE(hub.Poll({0, 2, 7, 0}).has_value());  // different dest
  EXPECT_FALSE(hub.Poll({0, 1, 8, 0}).has_value());  // different tag
  EXPECT_FALSE(hub.Poll({1, 1, 7, 0}).has_value());  // different src
}

TEST(TaintHub, StatsAndTransfers) {
  TaintHub hub;
  MessageTaintRecord rec;
  rec.id = {2, 3, 1, 5};
  rec.byte_masks = {0xff, 0xff};
  hub.Publish(rec);
  (void)hub.Poll({2, 3, 1, 5});
  (void)hub.Poll({9, 9, 9, 9});
  EXPECT_EQ(hub.stats().publishes, 1u);
  EXPECT_EQ(hub.stats().polls, 2u);
  EXPECT_EQ(hub.stats().hits, 1u);
  EXPECT_EQ(hub.stats().applied_bytes, 2u);
  ASSERT_EQ(hub.transfers().size(), 1u);
  EXPECT_EQ(hub.transfers()[0].id.src, 2);
  EXPECT_EQ(hub.transfers()[0].id.dest, 3);
}

TEST(TaintHub, ClearResets) {
  TaintHub hub;
  MessageTaintRecord rec;
  rec.id = {0, 1, 0, 0};
  rec.byte_masks = {1};
  hub.Publish(rec);
  hub.Clear();
  EXPECT_FALSE(hub.Poll({0, 1, 0, 0}).has_value());
  EXPECT_EQ(hub.stats().publishes, 0u);
  EXPECT_TRUE(hub.transfers().empty());
}

TEST(TaintHub, TransferLogOrderingAndAnchors) {
  TaintHub hub;
  for (std::uint64_t i = 0; i < 3; ++i) {
    MessageTaintRecord rec;
    rec.id = {0, 1, static_cast<std::int64_t>(i), i};
    rec.byte_masks = {0xff};
    rec.src_vaddr = 0x1000 + i;
    rec.send_instret = 100 + i;
    hub.Publish(rec);
  }
  // Poll out of publish order: hub_seq must follow *poll* (arrival) order.
  (void)hub.Poll({0, 1, 2, 2}, {.dest_vaddr = 0x2002, .recv_instret = 202});
  (void)hub.Poll({0, 1, 0, 0}, {.dest_vaddr = 0x2000, .recv_instret = 200});
  (void)hub.Poll({0, 1, 1, 1}, {.dest_vaddr = 0x2001, .recv_instret = 201});

  const std::vector<TransferLogEntry> log = hub.transfer_log();
  ASSERT_EQ(log.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(log[i].hub_seq, i);
  EXPECT_EQ(log[0].id.tag, 2);  // first polled
  EXPECT_EQ(log[1].id.tag, 0);
  EXPECT_EQ(log[2].id.tag, 1);
  // Sender/receiver anchors survive into the log.
  EXPECT_EQ(log[0].src_vaddr, 0x1002u);
  EXPECT_EQ(log[0].send_instret, 102u);
  EXPECT_EQ(log[0].dest_vaddr, 0x2002u);
  EXPECT_EQ(log[0].recv_instret, 202u);
  EXPECT_EQ(log[0].payload_bytes, 1u);
  EXPECT_EQ(log[0].tainted_bytes, 1u);
}

TEST(TaintHub, DrainTransferLogMovesAndClears) {
  TaintHub hub;
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff};
  hub.Publish(rec);
  (void)hub.Poll({0, 1, 7, 0});

  const std::vector<TransferLogEntry> drained = hub.DrainTransferLog();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(hub.transfers().empty());
  // Stats and pending records survive a drain; only the log empties.
  EXPECT_EQ(hub.stats().hits, 1u);
  EXPECT_TRUE(hub.DrainTransferLog().empty());
  // hub_seq keeps counting across drains (Clear() resets it).
  MessageTaintRecord rec2;
  rec2.id = {1, 0, 7, 0};
  rec2.byte_masks = {0xff};
  hub.Publish(rec2);
  (void)hub.Poll({1, 0, 7, 0});
  const std::vector<TransferLogEntry> second = hub.DrainTransferLog();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].hub_seq, 1u);
  hub.Clear();
  rec2.byte_masks = {0xff};
  hub.Publish(rec2);
  (void)hub.Poll({1, 0, 7, 0});
  EXPECT_EQ(hub.transfer_log().at(0).hub_seq, 0u);
}

// ---- Degradation model (HubFaultModel) ---------------------------------------

TEST(TaintHubFault, OutageWindowDropsPublishesAndBlocksPolls) {
  TaintHub hub;
  hub.SetFaultModel({.outage_start = 0, .outage_end = 10});
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff, 0x0f};
  hub.Publish(rec);  // clock 1, inside the outage: lost
  EXPECT_EQ(hub.stats().publish_drops, 1u);
  EXPECT_EQ(hub.stats().taint_lost, 1u);
  EXPECT_EQ(hub.stats().lost_taint_bytes, 2u);
  const PollAttempt attempt = hub.TryPoll({0, 1, 7, 0}, {});
  EXPECT_EQ(attempt.status, PollStatus::kUnavailable);
  EXPECT_EQ(hub.stats().unavailable_polls, 1u);
}

TEST(TaintHubFault, PollAfterOutageEndsSeesDefinitiveMiss) {
  TaintHub hub;
  hub.SetFaultModel({.outage_start = 0, .outage_end = 2});
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff};
  hub.Publish(rec);                                        // clock 1: lost
  EXPECT_EQ(hub.TryPoll({0, 1, 7, 0}, {}).status,          // clock 2: outage over,
            PollStatus::kMiss);                            // record is simply gone
}

TEST(TaintHubFault, VisibilityDelayOvercomeByRetrying) {
  TaintHub hub;
  hub.SetFaultModel({.visibility_delay = 2});
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff};
  hub.Publish(rec);  // clock 1, visible at clock 3
  EXPECT_EQ(hub.TryPoll({0, 1, 7, 0}, {}).status, PollStatus::kUnavailable);
  const PollAttempt hit = hub.TryPoll({0, 1, 7, 0}, {});  // clock 3
  ASSERT_EQ(hit.status, PollStatus::kHit);
  EXPECT_EQ(hit.record->byte_masks, rec.byte_masks);
  EXPECT_EQ(hub.stats().unavailable_polls, 1u);
  EXPECT_EQ(hub.stats().hits, 1u);
  EXPECT_EQ(hub.stats().taint_lost, 0u);
}

TEST(TaintHubFault, AbandonedPollAccountsTheLoss) {
  TaintHub hub;
  hub.SetFaultModel({.visibility_delay = 100});
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff, 0xff, 0x00};
  hub.Publish(rec);
  EXPECT_EQ(hub.TryPoll({0, 1, 7, 0}, {}).status, PollStatus::kUnavailable);
  hub.AbandonPoll({0, 1, 7, 0});
  EXPECT_EQ(hub.stats().abandoned_polls, 1u);
  EXPECT_EQ(hub.stats().taint_lost, 1u);
  EXPECT_EQ(hub.stats().lost_taint_bytes, 2u);
  // The evicted record cannot alias a later message with the same identity.
  EXPECT_EQ(hub.TryPoll({0, 1, 7, 0}, {}).status, PollStatus::kMiss);
}

TEST(TaintHubFault, PublishDropProbabilityOneLosesEverything) {
  TaintHub hub;
  hub.SetFaultModel({.publish_drop_prob = 1.0});
  for (std::uint64_t i = 0; i < 5; ++i) {
    MessageTaintRecord rec;
    rec.id = {0, 1, 7, i};
    rec.byte_masks = {0xff};
    hub.Publish(rec);
    EXPECT_EQ(hub.TryPoll({0, 1, 7, i}, {}).status, PollStatus::kMiss);
  }
  EXPECT_EQ(hub.stats().publish_drops, 5u);
  EXPECT_EQ(hub.stats().taint_lost, 5u);
}

TEST(TaintHubFault, ClearRestartsTheDegradationSchedule) {
  // The drop tape and the operation clock restart on Clear(), so every
  // trial sees the same schedule — the serial == parallel bit-identity of
  // degraded campaigns depends on this.
  TaintHub hub;
  hub.SetFaultModel({.publish_drop_prob = 0.5, .seed = 7});
  const auto run_tape = [&] {
    std::vector<bool> dropped;
    std::uint64_t drops_before = hub.stats().publish_drops;
    for (std::uint64_t i = 0; i < 32; ++i) {
      MessageTaintRecord rec;
      rec.id = {0, 1, 7, i};
      rec.byte_masks = {0xff};
      hub.Publish(rec);
      dropped.push_back(hub.stats().publish_drops > drops_before);
      drops_before = hub.stats().publish_drops;
    }
    return dropped;
  };
  const std::vector<bool> first = run_tape();
  hub.Clear();
  EXPECT_EQ(run_tape(), first);
  EXPECT_TRUE(std::find(first.begin(), first.end(), true) != first.end());
  EXPECT_TRUE(std::find(first.begin(), first.end(), false) != first.end());
}

TEST(TaintHubFault, LegacyPollTreatsUnavailableAsMiss) {
  TaintHub hub;
  hub.SetFaultModel({.outage_start = 0, .outage_end = 100});
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff};
  hub.Publish(rec);
  EXPECT_FALSE(hub.Poll({0, 1, 7, 0}).has_value());
}

// ---- Golden-prefix checkpoints ----------------------------------------------

TEST(TaintHubFault, RestoredCaptureKeepsTheClockInsideAnOutage) {
  // A clean prefix only polls, here partly inside an outage window. A hub
  // restored from its capture after a job start's Clear() has the captured
  // clock and stats, so its next poll lands where the captured hub's does.
  const HubFaultModel model{.outage_start = 2, .outage_end = 6};
  TaintHub hub;
  hub.SetFaultModel(model);
  for (std::uint64_t i = 0; i < 3; ++i) hub.TryPoll({0, 1, 7, i}, {});
  hub.AbandonPoll({0, 1, 7, 2});
  const TaintHub::Checkpoint ck = hub.Capture();

  TaintHub restored;
  restored.SetFaultModel(model);
  restored.Clear();
  restored.Restore(ck);
  EXPECT_EQ(restored.clock(), 3u);
  EXPECT_EQ(restored.clock(), hub.clock());
  EXPECT_TRUE(restored.stats() == hub.stats());
  EXPECT_EQ(restored.stats().unavailable_polls, 2u);
  const PollStatus next = restored.TryPoll({0, 1, 7, 3}, {}).status;
  EXPECT_EQ(next, PollStatus::kUnavailable);
  EXPECT_EQ(next, hub.TryPoll({0, 1, 7, 3}, {}).status);
}

TEST(TaintHub, CaptureRefusesAHubThatHoldsARecord) {
  TaintHub hub;
  MessageTaintRecord rec;
  rec.id = {0, 1, 7, 0};
  rec.byte_masks = {0xff};
  hub.Publish(rec);
  EXPECT_THROW(hub.Capture(), ConfigError);
  hub.Clear();
  EXPECT_NO_THROW(hub.Capture());
}

TEST(TaintHub, AnyTaintedHelper) {
  MessageTaintRecord clean;
  clean.byte_masks = {0, 0, 0};
  EXPECT_FALSE(clean.AnyTainted());
  MessageTaintRecord dirty;
  dirty.byte_masks = {0, 4, 0};
  EXPECT_TRUE(dirty.AnyTainted());
}

// ---- End-to-end cross-rank propagation ---------------------------------------------

/// Rank 0 stores a value, (optionally corrupted by the test before the send),
/// sends it to rank 1; rank 1 receives, copies it to a second buffer via a
/// load/store, and exits. All data lives at "cell" / "copy".
const guest::Program& RelayProgram() {
  static const guest::Program p = [] {
    ProgramBuilder b("relay");
    const std::vector<std::uint64_t> init{0x1234};
    const GuestAddr cell = b.DataU64("cell", init);
    const GuestAddr copy = b.Bss("copy", 8);
    b.Sys(Sys::kMpiInit);
    b.Sys(Sys::kMpiCommRank);
    b.Mov(R(10), R(0));
    auto receiver = b.NewLabel("receiver");
    auto done = b.NewLabel("done");
    b.CmpI(R(10), 0);
    b.Br(Cond::kNe, receiver);
    b.MovI(R(1), static_cast<std::int64_t>(cell));
    b.MovI(R(2), 1);
    b.MovI(R(3), kInt64);
    b.MovI(R(4), 1);
    b.MovI(R(5), 2);
    b.Sys(Sys::kMpiSend);
    b.Jmp(done);
    b.Bind(receiver);
    b.MovI(R(1), static_cast<std::int64_t>(cell));
    b.MovI(R(2), 1);
    b.MovI(R(3), kInt64);
    b.MovI(R(4), 0);
    b.MovI(R(5), 2);
    b.Sys(Sys::kMpiRecv);
    // Local propagation on the receiving side: tainted load + store.
    b.MovI(R(9), static_cast<std::int64_t>(cell));
    b.Ld(R(8), R(9), 0);
    b.MovI(R(9), static_cast<std::int64_t>(copy));
    b.St(R(9), 0, R(8));
    b.Bind(done);
    b.Sys(Sys::kMpiFinalize);
    b.Exit(0);
    return b.Finalize();
  }();
  return p;
}

class HubEndToEnd : public ::testing::Test {
 protected:
  HubEndToEnd() : cluster_({.num_ranks = 2}), hooks_(&hub_) {
    cluster_.SetMessageHooks(&hooks_);
  }

  /// Start, enable taint on both ranks, taint the sender's cell, run.
  mpi::JobResult RunWithTaintedCell() {
    cluster_.Start(RelayProgram());
    for (Rank r = 0; r < 2; ++r) cluster_.rank_vm(r).taint().set_enabled(true);
    vm::Vm& sender = cluster_.rank_vm(0);
    const GuestAddr cell = RelayProgram().DataAddr("cell");
    const auto pa = sender.memory().Translate(cell);
    sender.taint().SetMemTaintByte(*pa, 0xff);
    sender.taint().SetMemTaintByte(*pa + 1, 0x0f);
    return cluster_.Run();
  }

  mpi::Cluster cluster_;
  TaintHub hub_;
  ChaserMpiHooks hooks_;
};

TEST_F(HubEndToEnd, TaintCrossesRankBoundaryViaHub) {
  ASSERT_TRUE(RunWithTaintedCell().completed);
  EXPECT_EQ(hub_.stats().publishes, 1u);
  EXPECT_EQ(hub_.stats().hits, 1u);
  ASSERT_EQ(hub_.transfers().size(), 1u);
  EXPECT_EQ(hub_.transfers()[0].id.src, 0);
  EXPECT_EQ(hub_.transfers()[0].id.dest, 1);

  // The receiver's cell carries the re-applied per-byte masks...
  vm::Vm& receiver = cluster_.rank_vm(1);
  const GuestAddr cell = RelayProgram().DataAddr("cell");
  const auto pa = receiver.memory().Translate(cell);
  EXPECT_EQ(receiver.taint().GetMemTaintByte(*pa), 0xffu);
  EXPECT_EQ(receiver.taint().GetMemTaintByte(*pa + 1), 0x0fu);
  // ...and local propagation resumed: the copy cell is tainted too.
  const GuestAddr copy = RelayProgram().DataAddr("copy");
  const auto copy_pa = receiver.memory().Translate(copy);
  EXPECT_NE(receiver.taint().GetMemTaintByte(*copy_pa), 0u);
}

TEST_F(HubEndToEnd, WithoutHooksTaintDiesAtBoundary) {
  cluster_.SetMessageHooks(nullptr);  // the paper's problem statement
  ASSERT_TRUE(RunWithTaintedCell().completed);
  vm::Vm& receiver = cluster_.rank_vm(1);
  const GuestAddr copy = RelayProgram().DataAddr("copy");
  const auto copy_pa = receiver.memory().Translate(copy);
  EXPECT_EQ(receiver.taint().GetMemTaintByte(*copy_pa), 0u);
  // But the *data* still arrived: only the shadow was lost.
  PhysAddr pa;
  EXPECT_EQ(*receiver.memory().Load(copy, 8, &pa), 0x1234u);
}

TEST_F(HubEndToEnd, CleanMessagesNeverTouchTheHub) {
  cluster_.Start(RelayProgram());
  for (Rank r = 0; r < 2; ++r) cluster_.rank_vm(r).taint().set_enabled(true);
  ASSERT_TRUE(cluster_.Run().completed);
  EXPECT_EQ(hub_.stats().publishes, 0u);  // sender returned early
  EXPECT_EQ(hub_.stats().hits, 0u);
}

TEST_F(HubEndToEnd, TaintDisabledMeansNoHubTraffic) {
  cluster_.Start(RelayProgram());
  ASSERT_TRUE(cluster_.Run().completed);
  EXPECT_EQ(hub_.stats().publishes, 0u);
  EXPECT_EQ(hub_.stats().polls, 0u);
}

// ---- Per-job isolation (campaign trials re-Start the same cluster) -----------

/// Like RelayProgram, but rank 1 exits without ever receiving: the tainted
/// message is published to the hub and never polled.
const guest::Program& SendNoRecvProgram() {
  static const guest::Program p = [] {
    ProgramBuilder b("relay");  // same process name: hooks stay comparable
    const std::vector<std::uint64_t> init{0x1234};
    const GuestAddr cell = b.DataU64("cell", init);
    b.Bss("copy", 8);
    b.Sys(Sys::kMpiInit);
    b.Sys(Sys::kMpiCommRank);
    b.Mov(R(10), R(0));
    auto done = b.NewLabel("done");
    b.CmpI(R(10), 0);
    b.Br(Cond::kNe, done);  // rank 1: straight to finalize, no recv
    b.MovI(R(1), static_cast<std::int64_t>(cell));
    b.MovI(R(2), 1);
    b.MovI(R(3), kInt64);
    b.MovI(R(4), 1);
    b.MovI(R(5), 2);  // same tag RelayProgram uses
    b.Sys(Sys::kMpiSend);
    b.Bind(done);
    b.Sys(Sys::kMpiFinalize);
    b.Exit(0);
    return b.Finalize();
  }();
  return p;
}

TEST_F(HubEndToEnd, StaleRecordsFromDeadTrialDoNotLeakIntoNextJob) {
  // Job 1: the tainted message is published but the receiver terminates
  // without polling — the record is stranded in the hub.
  cluster_.Start(SendNoRecvProgram());
  for (Rank r = 0; r < 2; ++r) cluster_.rank_vm(r).taint().set_enabled(true);
  vm::Vm& sender = cluster_.rank_vm(0);
  const GuestAddr cell = SendNoRecvProgram().DataAddr("cell");
  const auto pa = sender.memory().Translate(cell);
  sender.taint().SetMemTaintByte(*pa, 0xff);
  ASSERT_TRUE(cluster_.Run().completed);
  EXPECT_EQ(hub_.stats().publishes, 1u);
  EXPECT_EQ(hub_.stats().hits, 0u);

  // Job 2: a clean relay run. Sequence numbers restart at zero, so the
  // first (src 0, dest 1, tag 2) message has the *same identity* as the
  // stranded record — without the per-job hub reset the receiver would poll
  // a hit and phantom taint would leak into this trial.
  cluster_.Start(RelayProgram());
  for (Rank r = 0; r < 2; ++r) cluster_.rank_vm(r).taint().set_enabled(true);
  ASSERT_TRUE(cluster_.Run().completed);
  EXPECT_EQ(hub_.stats().publishes, 0u) << "stats must not accumulate across jobs";
  EXPECT_EQ(hub_.stats().hits, 0u) << "stale record must not match the new job";
  EXPECT_TRUE(hub_.transfers().empty());

  vm::Vm& receiver = cluster_.rank_vm(1);
  const GuestAddr copy = RelayProgram().DataAddr("copy");
  const auto copy_pa = receiver.memory().Translate(copy);
  EXPECT_EQ(receiver.taint().GetMemTaintByte(*copy_pa), 0u)
      << "phantom taint leaked from the previous job";
}

TEST_F(HubEndToEnd, PollDeadlineExhaustedProceedsUntaintedAndCountsLoss) {
  // The publish succeeds but stays invisible longer than the receiver's
  // whole poll deadline: the receiver must give up, deliver the payload
  // untainted, and the hub must account the lost shadow.
  hub_.SetFaultModel({.visibility_delay = 1000, .poll_retries = 2});
  ASSERT_TRUE(RunWithTaintedCell().completed);
  EXPECT_EQ(hub_.stats().publishes, 1u);
  EXPECT_EQ(hub_.stats().hits, 0u);
  EXPECT_EQ(hub_.stats().abandoned_polls, 1u);
  EXPECT_EQ(hub_.stats().taint_lost, 1u);
  EXPECT_EQ(hub_.stats().lost_taint_bytes, 2u);
  // Retries happened: 1 first attempt + 2 retries, all unavailable.
  EXPECT_EQ(hub_.stats().polls, 3u);
  EXPECT_EQ(hub_.stats().unavailable_polls, 3u);

  vm::Vm& receiver = cluster_.rank_vm(1);
  const GuestAddr cell = RelayProgram().DataAddr("cell");
  const auto pa = receiver.memory().Translate(cell);
  EXPECT_EQ(receiver.taint().GetMemTaintByte(*pa), 0u) << "must proceed untainted";
  // The *data* still arrived — only its shadow was lost.
  PhysAddr unused;
  EXPECT_EQ(*receiver.memory().Load(cell, 8, &unused), 0x1234u);
}

TEST_F(HubEndToEnd, HardOutageLosesTaintButJobCompletes) {
  hub_.SetFaultModel({.outage_start = 0, .outage_end = 1'000'000});
  ASSERT_TRUE(RunWithTaintedCell().completed);
  EXPECT_EQ(hub_.stats().publish_drops, 1u);
  EXPECT_EQ(hub_.stats().taint_lost, 1u);
  vm::Vm& receiver = cluster_.rank_vm(1);
  const GuestAddr copy = RelayProgram().DataAddr("copy");
  const auto copy_pa = receiver.memory().Translate(copy);
  EXPECT_EQ(receiver.taint().GetMemTaintByte(*copy_pa), 0u);
}

TEST_F(HubEndToEnd, RetryDeadlineOvercomesShortVisibilityLag) {
  // delay=2 with a 1-retry deadline: the first poll is one clock too early,
  // the retry lands exactly at visibility — no taint loss, propagation
  // intact.
  hub_.SetFaultModel({.visibility_delay = 2, .poll_retries = 1});
  ASSERT_TRUE(RunWithTaintedCell().completed);
  EXPECT_EQ(hub_.stats().hits, 1u);
  EXPECT_EQ(hub_.stats().taint_lost, 0u);
  EXPECT_EQ(hub_.stats().unavailable_polls, 1u);
  vm::Vm& receiver = cluster_.rank_vm(1);
  const GuestAddr copy = RelayProgram().DataAddr("copy");
  const auto copy_pa = receiver.memory().Translate(copy);
  EXPECT_NE(receiver.taint().GetMemTaintByte(*copy_pa), 0u)
      << "taint must propagate once the retry hits";
}

TEST_F(HubEndToEnd, StatsAndTransfersResetBetweenJobs) {
  ASSERT_TRUE(RunWithTaintedCell().completed);
  ASSERT_TRUE(RunWithTaintedCell().completed);
  // Second job saw exactly one publish/hit of its own, not two accumulated.
  EXPECT_EQ(hub_.stats().publishes, 1u);
  EXPECT_EQ(hub_.stats().hits, 1u);
  EXPECT_EQ(hub_.transfers().size(), 1u);
}

/// The in-process hub, counting its clears.
class ClearCountingHub : public TaintHub {
 public:
  void Clear() override {
    ++clears;
    TaintHub::Clear();
  }
  int clears = 0;
};

// Arming a trial leaves the hub alone: the job start is the trial's one
// clear. (A remote hub skips a clear of an untouched session, so an extra
// one would not show in its command count.)
TEST(ChaserMpiHub, ArmingLeavesTheClearToTheJobStart) {
  mpi::Cluster cluster({.num_ranks = 2});
  ClearCountingHub hub;
  core::ChaserMpi chaser(cluster, core::Chaser::Options{}, &hub);
  core::InjectionCommand cmd;
  cmd.target_program = RelayProgram().name;
  for (int trial = 0; trial < 3; ++trial) {
    chaser.Arm(cmd, {0});
    EXPECT_EQ(hub.clears, trial) << "trial " << trial;
    cluster.Start(RelayProgram());
    EXPECT_EQ(hub.clears, trial + 1) << "trial " << trial;
    ASSERT_TRUE(cluster.Run().completed);
  }
}

}  // namespace
}  // namespace chaser::hub
