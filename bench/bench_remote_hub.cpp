// Bench — the cost of moving TaintHub out of process.
//
// Three hub transports drive the same publish/poll workload (and a small
// end-to-end campaign), so the wire protocol's overhead is visible next to
// the in-process baseline it must stay byte-identical to:
//
//   in-process        TaintHub, direct calls
//   loopback          RemoteTaintHub -> HubServer over 127.0.0.1, batched
//                     publishes (the shard-worker configuration)
//   loopback-flushed  same, but every publish flushed immediately — what the
//                     protocol would cost without the batch
//
// `--json` emits the summary for tools/bench_to_json.sh.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "hub/remote/client.h"
#include "hub/remote/server.h"
#include "hub/tainthub.h"

namespace chaser {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload pass: publish `n` records and poll each back.
void PublishPollPass(hub::HubService& hub, std::uint64_t n,
                     std::size_t payload_bytes, bool flush_each) {
  hub.Clear();
  for (std::uint64_t k = 0; k < n; ++k) {
    hub::MessageTaintRecord rec;
    rec.id = {0, 1, static_cast<std::int64_t>(k % 7), k};
    rec.byte_masks.assign(payload_bytes,
                          static_cast<std::uint8_t>(0x80 | (k & 0x7f)));
    rec.src_vaddr = 0x1000 + k;
    rec.send_instret = k;
    hub.Publish(std::move(rec));
    if (flush_each) {
      // stats() round-trips, forcing the pending batch onto the wire —
      // the unbatched protocol cost.
      (void)hub.stats();
    }
  }
  for (std::uint64_t k = 0; k < n; ++k) {
    const hub::PollAttempt a =
        hub.TryPoll({0, 1, static_cast<std::int64_t>(k % 7), k}, {});
    if (a.status != hub::PollStatus::kHit) {
      std::fprintf(stderr, "bench_remote_hub: lost record %llu\n",
                   static_cast<unsigned long long>(k));
      std::exit(1);
    }
  }
}

struct Transport {
  const char* name;
  hub::HubService* hub;
  bool flush_each;
};

}  // namespace
}  // namespace chaser

int main(int argc, char** argv) {
  using namespace chaser;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  constexpr std::uint64_t kRecords = 2000;
  constexpr std::size_t kPayload = 256;
  constexpr int kReps = 5;

  hub::TaintHub local;
  hub::remote::HubServer server({});
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.port());
  hub::remote::RemoteTaintHub batched({endpoint});
  hub::remote::RemoteTaintHub flushed({endpoint});

  const Transport transports[] = {
      {"in-process", &local, false},
      {"loopback", &batched, false},
      {"loopback-flushed", &flushed, true},
  };

  double secs[3] = {0, 0, 0};
  for (int t = 0; t < 3; ++t) {
    PublishPollPass(*transports[t].hub, 100, kPayload,
                    transports[t].flush_each);  // warm-up
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      PublishPollPass(*transports[t].hub, kRecords, kPayload,
                      transports[t].flush_each);
    }
    secs[t] = SecondsSince(t0);
  }

  // End-to-end: a small matvec campaign on each transport (the number that
  // matters to a shard worker deciding whether a remote hub is affordable).
  double campaign_secs[2] = {0, 0};
  for (int t = 0; t < 2; ++t) {
    campaign::CampaignConfig config;
    config.runs = 30;
    config.seed = 7;
    if (t == 1) config.hub_endpoints = {endpoint};
    const auto t0 = Clock::now();
    campaign::Campaign c(apps::BuildMatvec({}), config);
    (void)c.Run();
    campaign_secs[t] = SecondsSince(t0);
  }

  const double ops = static_cast<double>(kRecords) * 2 * kReps;
  if (json) {
    std::printf(
        "{\"bench\": \"remote_hub\", \"records\": %llu, "
        "\"payload_bytes\": %zu,\n"
        " \"publish_poll_us_per_op\": {\"in_process\": %.3f, "
        "\"loopback\": %.3f, \"loopback_flushed\": %.3f},\n"
        " \"campaign_s\": {\"in_process\": %.3f, \"loopback\": %.3f}}\n",
        static_cast<unsigned long long>(kRecords), kPayload,
        1e6 * secs[0] / ops, 1e6 * secs[1] / ops, 1e6 * secs[2] / ops,
        campaign_secs[0], campaign_secs[1]);
  } else {
    std::printf("remote hub: %llu records x %d reps, %zu-byte masks\n",
                static_cast<unsigned long long>(kRecords), kReps, kPayload);
    for (int t = 0; t < 3; ++t) {
      std::printf("  %-18s %8.3f us/op  (%.2fx in-process)\n",
                  transports[t].name, 1e6 * secs[t] / ops,
                  secs[t] / secs[0]);
    }
    std::printf("  matvec campaign, 30 runs: in-process %.3fs, loopback "
                "%.3fs (%.2fx)\n",
                campaign_secs[0], campaign_secs[1],
                campaign_secs[1] / campaign_secs[0]);
  }
  server.Stop();
  return 0;
}
