#include "core/chaser_mpi.h"

namespace chaser::core {

ChaserMpi::ChaserMpi(mpi::Cluster& cluster) : ChaserMpi(cluster, Chaser::Options{}) {}

ChaserMpi::ChaserMpi(mpi::Cluster& cluster, Chaser::Options options,
                     hub::HubService* external_hub)
    : cluster_(cluster),
      hub_(external_hub != nullptr ? external_hub : &owned_hub_),
      hooks_(hub_) {
  cluster_.SetMessageHooks(&hooks_);
  chasers_.reserve(static_cast<std::size_t>(cluster_.num_ranks()));
  for (Rank r = 0; r < cluster_.num_ranks(); ++r) {
    auto chaser = std::make_unique<Chaser>(cluster_.rank_vm(r), options);
    chaser->set_rank(r);
    chasers_.push_back(std::move(chaser));
  }
}

void ChaserMpi::Arm(const InjectionCommand& cmd, const std::set<Rank>& inject_ranks) {
  // One copy for every rank. Assigning over the previous trial's command
  // reuses its storage, so re-arming allocates nothing.
  cmd_ = cmd;
  for (Rank r = 0; r < cluster_.num_ranks(); ++r) {
    const std::uint64_t seed =
        cmd.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(r);
    // Non-target ranks arm trace-only.
    const bool injects = inject_ranks.empty() || inject_ranks.count(r) != 0;
    chasers_[static_cast<std::size_t>(r)]->Arm(cmd_, seed, injects);
  }
}

std::uint64_t ChaserMpi::total_injections() const {
  std::uint64_t n = 0;
  for (const auto& c : chasers_) n += c->injections().size();
  return n;
}

std::uint64_t ChaserMpi::total_tainted_reads() const {
  std::uint64_t n = 0;
  for (const auto& c : chasers_) n += c->trace_log().tainted_reads();
  return n;
}

std::uint64_t ChaserMpi::total_tainted_writes() const {
  std::uint64_t n = 0;
  for (const auto& c : chasers_) n += c->trace_log().tainted_writes();
  return n;
}

bool ChaserMpi::FaultPropagatedFrom(Rank src) const {
  for (const hub::TransferLogEntry& t : hub_->transfer_log()) {
    if (t.id.src == src && t.id.dest != src) return true;
  }
  return false;
}

bool ChaserMpi::FaultPropagatedAcrossNodes() const {
  for (const hub::TransferLogEntry& t : hub_->transfer_log()) {
    if (cluster_.node_of(t.id.src) != cluster_.node_of(t.id.dest)) return true;
  }
  return false;
}

}  // namespace chaser::core
