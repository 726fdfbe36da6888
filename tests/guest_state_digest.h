// A trial's final guest state, digested: the identity oracle for trials
// that start from different golden checkpoints or on different engines.
//
// Records say what a trial computed in summary; the digest covers the
// machine it left behind. Per rank: CPU env and pc, run state, termination,
// signal, exit code, instret, heap break, every output stream, the mapped
// regions and the bytes of every non-zero page, the taint shadow's
// tainted-byte count, the rank's MPI state and its Chaser's targeted-
// execution count; then the job's MPI state and the in-process hub's clock
// and stats. Host state — the TB index, the TLB, the host counters — is
// left out: two runs of one trial may differ there and still have computed
// the same thing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "common/strings.h"
#include "vm/memory.h"
#include "vm/vm.h"

namespace chaser::digest {

/// FNV-1a, 64-bit.
class Fnv {
 public:
  Fnv& Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Fnv& Add(const std::string& s) {
    Add(s.size());
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  Fnv& Add(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Byte(p[i]);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Guest memory: the MapRegion calls in order (they fix every paddr) and
/// each page holding a non-zero byte, by vpage. Every other mapped byte is
/// zero.
inline std::uint64_t MemoryDigest(const vm::GuestMemory& memory) {
  const vm::GuestMemory::Checkpoint ck = memory.Capture(nullptr);
  Fnv h;
  for (const auto& [first, last] : ck.regions) h.Add(first).Add(last);
  std::vector<const vm::GuestMemory::Checkpoint::Page*> pages;
  for (const auto& page : ck.pages) pages.push_back(&page);
  std::sort(pages.begin(), pages.end(),
            [](const auto* a, const auto* b) { return a->vpage < b->vpage; });
  const auto& zero = vm::GuestMemory::Checkpoint::ZeroChunk();
  for (const auto* page : pages) {
    const bool all_zero =
        std::all_of(page->chunks->begin(), page->chunks->end(),
                    [&](const auto& chunk) { return chunk == zero; });
    if (all_zero) continue;
    h.Add(page->vpage);
    for (const auto& chunk : *page->chunks) h.Add(chunk->data(), chunk->size());
  }
  return h.value();
}

/// One line per rank, then one for the job and the hub. Small values are
/// spelled out and bulk state is hashed, so a mismatch names its part.
inline std::vector<std::string> GuestStateDigest(campaign::TrialEngine& engine) {
  const mpi::Cluster& cluster = engine.cluster();
  core::ChaserMpi& chaser = engine.chaser();
  std::vector<std::string> lines;
  for (Rank r = 0; r < cluster.num_ranks(); ++r) {
    const vm::Vm& v = cluster.rank_vm(r);
    Fnv env;
    for (const std::uint64_t slot : v.cpu().env) env.Add(slot);
    Fnv outputs;
    for (const auto& [fd, bytes] : v.outputs()) outputs.Add(fd).Add(bytes);
    const mpi::RankMpiState& mpi = cluster.rank_mpi(r);
    Fnv mpi_state;
    mpi_state.Add(mpi.mpi_initialized).Add(mpi.mpi_finalized)
        .Add(mpi.barriers_done).Add(mpi.barrier_arrived)
        .Add(mpi.allreduce_sent);
    for (const mpi::Envelope& e : mpi.inbox) {
      mpi_state.Add(e.src).Add(e.dest).Add(e.tag).Add(e.count)
          .Add(e.datatype).Add(e.seq)
          .Add(e.payload.data(), e.payload.size()).Add(e.payload.size());
    }
    lines.push_back(StrFormat(
        "rank %d: pc %llu env %016llx state %d termination %s signal %s "
        "exit %lld instret %llu brk %llx outputs %016llx memory %016llx "
        "tainted bytes %llu mpi %016llx targeted execs %llu",
        r, static_cast<unsigned long long>(v.cpu().pc),
        static_cast<unsigned long long>(env.value()),
        static_cast<int>(v.run_state()),
        vm::TerminationKindName(v.termination()),
        vm::GuestSignalName(v.signal()), static_cast<long long>(v.exit_code()),
        static_cast<unsigned long long>(v.instret()),
        static_cast<unsigned long long>(v.heap_break()),
        static_cast<unsigned long long>(outputs.value()),
        static_cast<unsigned long long>(MemoryDigest(v.memory())),
        static_cast<unsigned long long>(v.taint().CountTaintedBytes()),
        static_cast<unsigned long long>(mpi_state.value()),
        static_cast<unsigned long long>(
            chaser.rank_chaser(r).targeted_executions())));
  }
  const mpi::JobMpiState& job = cluster.job_mpi();
  Fnv seqs;
  for (const mpi::JobMpiState::SendSeq& s : job.send_seq) {
    seqs.Add(std::get<0>(s.channel)).Add(std::get<1>(s.channel))
        .Add(std::get<2>(s.channel)).Add(s.next);
  }
  lines.push_back(StrFormat(
      "job: send seqs %016llx barriers %llu arrived %d delivered %llu",
      static_cast<unsigned long long>(seqs.value()),
      static_cast<unsigned long long>(job.barrier_completed),
      job.barrier_arrived_count,
      static_cast<unsigned long long>(job.messages_delivered)));
  if (const hub::TaintHub* hub = chaser.local_hub()) {
    const hub::HubStats s = hub->stats();
    lines.push_back(StrFormat(
        "hub: clock %llu publishes %llu polls %llu hits %llu applied %llu "
        "drops %llu unavailable %llu abandoned %llu lost %llu lost bytes %llu",
        static_cast<unsigned long long>(hub->clock()),
        static_cast<unsigned long long>(s.publishes),
        static_cast<unsigned long long>(s.polls),
        static_cast<unsigned long long>(s.hits),
        static_cast<unsigned long long>(s.applied_bytes),
        static_cast<unsigned long long>(s.publish_drops),
        static_cast<unsigned long long>(s.unavailable_polls),
        static_cast<unsigned long long>(s.abandoned_polls),
        static_cast<unsigned long long>(s.taint_lost),
        static_cast<unsigned long long>(s.lost_taint_bytes)));
  }
  return lines;
}

}  // namespace chaser::digest
