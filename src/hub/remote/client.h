// RemoteTaintHub: the HubService implementation that speaks the wire
// protocol to one or more chaser_hubd servers.
//
// Transport is invisible above the interface — ChaserMpiHooks and the
// campaign drivers run unchanged against it. Determinism contract: with a
// single endpoint, every hub operation reaches the server in the exact order
// the hooks issue it (publishes are batched on the wire but flushed, in
// order, before any other command), so the server session's clock, drop
// tape, and hub_seq numbering match the in-process TaintHub operation for
// operation — campaigns over a remote hub are byte-identical to local runs.
//
// With several endpoints, message keys shard across them by hash; each
// shard keeps its own clock, so fault-model degradation is per-shard (noted
// in DESIGN.md §5.7 — use one endpoint when byte-identity matters).
//
// The transfer log is mirrored client-side: each poll hit appends an entry
// with a client-assigned hub_seq, so transfer_log() needs no network round
// trip and cross-shard ordering matches issue order.
//
// A shard whose session nothing has reached since its last clear (a fresh
// session counts as cleared) is skipped by Clear(), stats() and
// DrainTransferLog(): TaintHub::Clear() zeroes the stats, the clock, the
// drop tape and the transfer log, so such a session already equals a
// cleared one. A trial that makes no hub call then costs no round trip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hub/tainthub.h"
#include "net/frame.h"
#include "net/socket.h"

namespace chaser::hub::remote {

/// Result of a one-shot hub clock probe (Cristian's algorithm over the
/// hello handshake): `offset_us` is what to add to this process's
/// system_clock to get the hub's, `rtt_us` bounds the error.
struct HubClockProbe {
  bool ok = false;          ///< server answered with a clock (v1.1+ hubd)
  std::int64_t offset_us = 0;
  std::uint64_t rtt_us = 0;
};

/// Connect to `endpoint` ("host:port"), run one hello handshake, and
/// estimate the server-vs-local clock offset as
/// server_time - (t_send + rtt/2). Fleet workers call this once at startup
/// so their trace anchors land on the hub's clock; a hubd predating the
/// clock field yields ok=false (offset 0). Throws ConfigError on
/// connect/hello failure.
HubClockProbe ProbeHubClock(const std::string& endpoint);

class RemoteTaintHub : public HubService {
 public:
  /// Connect to every endpoint ("host:port") and exchange hellos. Throws
  /// ConfigError on connect/hello failure.
  explicit RemoteTaintHub(const std::vector<std::string>& endpoints);
  ~RemoteTaintHub() override;

  void Publish(MessageTaintRecord record) override;
  PollAttempt TryPoll(const MessageId& id, const RecvContext& ctx = {}) override;
  void AbandonPoll(const MessageId& id) override;
  void SetFaultModel(const HubFaultModel& model) override;
  const HubFaultModel& fault_model() const override { return fault_model_; }
  std::vector<TransferLogEntry> transfer_log() const override;
  std::vector<TransferLogEntry> DrainTransferLog() override;
  /// Sum of every shard's server-side counters.
  HubStats stats() const override;
  void Clear() override;

  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    net::TcpSocket sock;
    net::FrameDecoder decoder;
    std::string batch;             // encoded pending publish records
    std::uint64_t batch_count = 0;
    /// Some command other than clear, stats or drain reached (or is batched
    /// for) the session since its last clear.
    bool touched = false;
  };

  std::size_t ShardOf(const MessageId& id) const;
  /// Send one command frame on a shard and return the ok-response body
  /// (throws ConfigError on transport errors or an error status).
  std::string Call(Shard& shard, const std::string& request) const;
  void FlushBatch(Shard& shard);
  void FlushAllBatches();

  // Shards are mutated by logically-const queries (stats() must flush
  // batches and round-trip); the hub interface is single-threaded.
  mutable std::vector<Shard> shards_;
  HubFaultModel fault_model_;
  std::vector<TransferLogEntry> transfers_;  // client-side mirror
  std::uint64_t next_hub_seq_ = 0;
};

}  // namespace chaser::hub::remote
