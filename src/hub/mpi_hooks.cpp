#include "hub/mpi_hooks.h"

#include <algorithm>

#include "obs/profiler.h"

namespace chaser::hub {

void ChaserMpiHooks::OnSend(vm::Vm& sender, const mpi::Envelope& env,
                            GuestAddr buf) {
  auto& taint = sender.taint();
  if (!taint.enabled()) return;
  // Elastic early-out: with no taint anywhere in the process every mask is
  // zero, so the whole scan (and the hub) can be skipped exactly.
  if (!taint.Active()) return;

  const obs::ScopedPhase obs_scope(obs::Phase::kTaintPropagate);
  std::vector<std::uint8_t> masks;
  if (!mpi::ReadGuestMemTaint(sender, buf, env.payload.size(), &masks)) {
    return;  // clean message: no hub operation at all
  }

  MessageTaintRecord record;
  record.id = {env.src, env.dest, env.tag, env.seq};
  record.byte_masks = std::move(masks);
  record.src_vaddr = buf;
  record.send_instret = sender.instret();
  const obs::ScopedPhase obs_publish(obs::Phase::kHubPublish);
  hub_->Publish(std::move(record));
}

void ChaserMpiHooks::OnRecvComplete(vm::Vm& receiver, const mpi::Envelope& env,
                                    GuestAddr buf) {
  if (!receiver.taint().enabled()) return;

  const MessageId id{env.src, env.dest, env.tag, env.seq};
  const RecvContext ctx{.dest_vaddr = buf, .recv_instret = receiver.instret()};
  // Bounded poll deadline: an unavailable hub (outage / visibility lag) is
  // retried up to the fault model's budget; a definitive miss never is.
  PollAttempt attempt = [&] {
    const obs::ScopedPhase obs_poll(obs::Phase::kHubPoll);
    PollAttempt a = hub_->TryPoll(id, ctx);
    for (std::uint64_t retry = hub_->fault_model().poll_retries;
         a.status == PollStatus::kUnavailable && retry > 0; --retry) {
      a = hub_->TryPoll(id, ctx);
    }
    return a;
  }();
  if (attempt.status == PollStatus::kUnavailable) {
    // Deadline exhausted: proceed untainted — the payload bytes arrived, but
    // their shadow is lost. The hub accounts the loss (RunRecord::taint_lost).
    hub_->AbandonPoll(id);
    return;
  }
  if (attempt.status == PollStatus::kMiss) return;  // message was clean

  const obs::ScopedPhase obs_scope(obs::Phase::kTaintPropagate);
  const MessageTaintRecord& record = *attempt.record;
  mpi::ApplyGuestMemTaint(
      receiver, buf, record.byte_masks.data(),
      std::min<std::uint64_t>(record.byte_masks.size(), env.payload.size()));
}

}  // namespace chaser::hub
