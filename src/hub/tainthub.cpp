#include "hub/tainthub.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"

namespace chaser::hub {

void TaintHub::AccountLoss(const MessageTaintRecord& record) {
  ++stats_.taint_lost;
  stats_.lost_taint_bytes += record.TaintedByteCount();
}

void TaintHub::Publish(MessageTaintRecord record) {
  static obs::Counter& publishes =
      obs::Registry::Global().GetCounter("hub_publish_total");
  publishes.Inc();
  ++clock_;
  ++stats_.publishes;
  if (fault_model_.Active()) {
    // A publish during the hard outage window never reaches the hub; outside
    // it, the drop tape may still lose it. Either way the taint is gone —
    // the receiver will see a definitive miss, indistinguishable from a
    // clean message (which is exactly the silent-loss mode being modelled).
    if (InOutage() || (fault_model_.publish_drop_prob > 0.0 &&
                       fault_rng_.Bernoulli(fault_model_.publish_drop_prob))) {
      ++stats_.publish_drops;
      AccountLoss(record);
      return;
    }
  }
  const std::uint64_t visible_at = clock_ + fault_model_.visibility_delay;
  records_[record.id.Key()] = Pending{std::move(record), visible_at};
}

PollAttempt TaintHub::TryPoll(const MessageId& id, const RecvContext& ctx) {
  static obs::Counter& polls =
      obs::Registry::Global().GetCounter("hub_poll_total");
  polls.Inc();
  ++clock_;
  ++stats_.polls;
  if (fault_model_.Active() && InOutage()) {
    ++stats_.unavailable_polls;
    return {PollStatus::kUnavailable, std::nullopt};
  }
  const auto it = records_.find(id.Key());
  if (it == records_.end()) return {PollStatus::kMiss, std::nullopt};
  if (it->second.visible_at > clock_) {
    // Published but still inside the hub's processing lag: the receiver can
    // retry (each attempt advances the clock toward visibility).
    ++stats_.unavailable_polls;
    return {PollStatus::kUnavailable, std::nullopt};
  }
  MessageTaintRecord record = std::move(it->second.record);
  records_.erase(it);
  ++stats_.hits;
  const std::uint64_t tainted = record.TaintedByteCount();
  stats_.applied_bytes += tainted;
  transfers_.push_back({.id = record.id,
                        .tainted_bytes = tainted,
                        .payload_bytes = record.byte_masks.size(),
                        .src_vaddr = record.src_vaddr,
                        .dest_vaddr = ctx.dest_vaddr,
                        .send_instret = record.send_instret,
                        .recv_instret = ctx.recv_instret,
                        .hub_seq = next_hub_seq_++});
  return {PollStatus::kHit, std::move(record)};
}

std::optional<MessageTaintRecord> HubService::Poll(const MessageId& id,
                                                   const RecvContext& ctx) {
  PollAttempt attempt = TryPoll(id, ctx);
  if (attempt.status != PollStatus::kHit) return std::nullopt;
  return std::move(attempt.record);
}

void TaintHub::AbandonPoll(const MessageId& id) {
  ++stats_.abandoned_polls;
  const auto it = records_.find(id.Key());
  if (it == records_.end()) return;  // clean message (or publish already lost)
  // The record existed but the receiver gave up waiting: real taint loss.
  // Evict it so it cannot alias a later message with a recycled identity.
  AccountLoss(it->second.record);
  records_.erase(it);
}

void TaintHub::SetFaultModel(const HubFaultModel& model) {
  fault_model_ = model;
  fault_rng_.Reseed(fault_model_.seed);
}

std::vector<TransferLogEntry> TaintHub::transfer_log() const {
  std::vector<TransferLogEntry> log = transfers_;
  std::sort(log.begin(), log.end(),
            [](const TransferLogEntry& a, const TransferLogEntry& b) {
              return a.hub_seq < b.hub_seq;
            });
  return log;
}

std::vector<TransferLogEntry> TaintHub::DrainTransferLog() {
  std::vector<TransferLogEntry> log = std::move(transfers_);
  transfers_.clear();
  std::sort(log.begin(), log.end(),
            [](const TransferLogEntry& a, const TransferLogEntry& b) {
              return a.hub_seq < b.hub_seq;
            });
  return log;
}

bool TaintHub::SawTransfer(Rank src, Rank dest) const {
  for (const TransferLogEntry& t : transfers_) {
    if (t.id.src == src && t.id.dest == dest) return true;
  }
  return false;
}

void TaintHub::Clear() {
  records_.clear();
  transfers_.clear();
  next_hub_seq_ = 0;
  stats_ = HubStats{};
  // Restart the hub clock and the drop tape: every trial (the campaign
  // drivers Clear() via MessageHooks::OnJobStart) sees the same
  // deterministic degradation, which keeps serial == parallel bit-identity.
  clock_ = 0;
  fault_rng_.Reseed(fault_model_.seed);
}

TaintHub::Checkpoint TaintHub::Capture() const {
  // Pending records, logged transfers and drawn drop decisions all start
  // with a publish.
  if (stats_.publishes != 0) {
    throw ConfigError(
        "TaintHub::Capture: a message was published since the last Clear");
  }
  Checkpoint ck;
  ForEachPart(ck, *this, [](const char*, auto& part, const auto& live) { part = live; });
  return ck;
}

void TaintHub::Restore(const Checkpoint& ck) {
  ForEachPart(ck, *this, [](const char*, const auto& part, auto& live) { live = part; });
}

}  // namespace chaser::hub
