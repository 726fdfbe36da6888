// ChaserMpi: supervise a whole MPI job.
//
// Attaches one Chaser per rank VM, wires the cluster's MPI hooks to a
// TaintHub, and injects faults only into the designated ranks (the paper's
// Matvec campaign injects into the master node only). All ranks trace, so
// faults that cross rank boundaries keep propagating on the receiving side.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "core/chaser.h"
#include "hub/mpi_hooks.h"
#include "hub/tainthub.h"
#include "mpi/cluster.h"

namespace chaser::core {

class ChaserMpi {
 public:
  explicit ChaserMpi(mpi::Cluster& cluster);
  /// `external_hub`, when non-null, replaces the in-process TaintHub (e.g. a
  /// hub::remote::RemoteTaintHub talking to chaser_hubd). The caller keeps
  /// ownership and must outlive this ChaserMpi.
  ChaserMpi(mpi::Cluster& cluster, Chaser::Options options,
            hub::HubService* external_hub = nullptr);

  ChaserMpi(const ChaserMpi&) = delete;
  ChaserMpi& operator=(const ChaserMpi&) = delete;

  /// Arm injection on `inject_ranks` (empty set = all ranks); every other
  /// rank is armed trace-only so propagation is observed end to end.
  /// Each injecting rank derives its own seed from cmd.seed. The hub is left
  /// alone: Cluster::Start clears it, once per trial.
  void Arm(const InjectionCommand& cmd, const std::set<Rank>& inject_ranks);

  Chaser& rank_chaser(Rank r) { return *chasers_[static_cast<std::size_t>(r)]; }
  const Chaser& rank_chaser(Rank r) const { return *chasers_[static_cast<std::size_t>(r)]; }
  hub::HubService& hub() { return *hub_; }
  /// The in-process hub, or null when an external hub is in use.
  hub::TaintHub* local_hub() { return hub_ == &owned_hub_ ? &owned_hub_ : nullptr; }
  mpi::Cluster& cluster() { return cluster_; }

  // ---- Aggregates across all ranks ------------------------------------------
  std::uint64_t total_injections() const;
  std::uint64_t total_tainted_reads() const;
  std::uint64_t total_tainted_writes() const;
  /// True if any tainted message crossed from `src` to a different rank.
  bool FaultPropagatedFrom(Rank src) const;
  /// True if any tainted message crossed between different *nodes*.
  bool FaultPropagatedAcrossNodes() const;

 private:
  mpi::Cluster& cluster_;
  hub::TaintHub owned_hub_;     // used unless an external hub is supplied
  hub::HubService* hub_;        // the hub everything actually talks to
  hub::ChaserMpiHooks hooks_;
  std::vector<std::unique_ptr<Chaser>> chasers_;
};

}  // namespace chaser::core
