#include "hub/remote/client.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"
#include "hub/remote/protocol.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace chaser::hub::remote {

namespace {

using net::AppendFrame;
using net::AppendVarint;

/// Flush the batch when it would cross this many encoded bytes or records —
/// well under net::kMaxFramePayload, and large enough that a publish-heavy
/// trial amortizes round trips ~64x.
constexpr std::uint64_t kBatchMaxRecords = 64;
constexpr std::size_t kBatchMaxBytes = net::kMaxFramePayload / 4;

std::uint64_t MixKey(const MessageId& id) {
  // splitmix64-style finalizer over the packed identity: stable across runs,
  // spreads sequential seqs across shards.
  std::uint64_t h = static_cast<std::uint64_t>(id.src) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(id.dest) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= static_cast<std::uint64_t>(id.tag) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= id.seq + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// The hub_client_* byte counters a session's round trips feed.
struct WireBytes {
  obs::Counter& sent;
  obs::Counter& recv;
};

/// Send `request` as one frame and read until one response frame is whole;
/// returns its payload. `who` opens the error messages (ConfigError on a
/// corrupt stream or a closed connection); `bytes`, when given, counts the
/// traffic.
std::string RoundTrip(net::TcpSocket& sock, net::FrameDecoder& decoder,
                      const std::string& request, const char* who,
                      const WireBytes* bytes) {
  std::string wire;
  AppendFrame(&wire, request);
  sock.SendAll(wire.data(), wire.size());
  if (bytes != nullptr) bytes->sent.Inc(wire.size());
  std::string payload;
  for (;;) {
    const net::FrameDecoder::Result r = decoder.Next(&payload);
    if (r == net::FrameDecoder::Result::kFrame) return payload;
    if (r == net::FrameDecoder::Result::kError) {
      throw ConfigError(std::string(who) + ": response stream corrupt: " +
                        decoder.error());
    }
    char buf[64 * 1024];
    const std::size_t n = sock.Recv(buf, sizeof(buf));
    if (n == 0) {
      throw ConfigError(std::string(who) + ": server closed the connection");
    }
    if (bytes != nullptr) bytes->recv.Inc(n);
    decoder.Feed(buf, n);
  }
}

}  // namespace

HubClockProbe ProbeHubClock(const std::string& endpoint) {
  const net::Endpoint ep = net::ParseEndpoint(endpoint);
  net::TcpSocket sock = net::TcpSocket::Connect(ep.host, ep.port);
  net::FrameDecoder decoder;
  const auto now_us = [] {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  };
  const std::int64_t t0 = now_us();
  const std::string payload =
      RoundTrip(sock, decoder, EncodeHello(), "hub clock probe", nullptr);
  const std::int64_t t1 = now_us();
  std::size_t pos = 0;
  std::uint64_t status = 0;
  if (net::DecodeVarint(payload.data(), payload.size(), &pos, &status) !=
          net::DecodeStatus::kOk ||
      static_cast<Status>(status) != Status::kOk) {
    throw ConfigError("hub clock probe: hello rejected by " + endpoint);
  }
  HubClockProbe probe;
  probe.rtt_us = static_cast<std::uint64_t>(t1 - t0);
  std::uint64_t version = 0;
  std::uint64_t server_us = 0;
  if (net::DecodeVarint(payload.data(), payload.size(), &pos, &version) !=
          net::DecodeStatus::kOk ||
      net::DecodeVarint(payload.data(), payload.size(), &pos, &server_us) !=
          net::DecodeStatus::kOk) {
    return probe;  // hubd predates the hello clock field: ok=false
  }
  probe.ok = true;
  // Cristian: the server stamped its clock roughly mid-flight, so compare
  // against our send time plus half the measured round trip.
  probe.offset_us = static_cast<std::int64_t>(server_us) -
                    (t0 + static_cast<std::int64_t>(probe.rtt_us / 2));
  return probe;
}

RemoteTaintHub::RemoteTaintHub(const std::vector<std::string>& endpoints) {
  if (endpoints.empty()) {
    throw ConfigError("remote hub: no endpoints given");
  }
  shards_.reserve(endpoints.size());
  for (const std::string& spec : endpoints) {
    const net::Endpoint ep = net::ParseEndpoint(spec);
    Shard shard;
    shard.sock = net::TcpSocket::Connect(ep.host, ep.port);
    shards_.push_back(std::move(shard));
    // Hello handshake: reuse Call's response path (hello's ok body carries
    // the server version, which kProtocolVersion already vouched for).
    Call(shards_.back(), EncodeHello());
  }
}

RemoteTaintHub::~RemoteTaintHub() = default;

std::size_t RemoteTaintHub::ShardOf(const MessageId& id) const {
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(MixKey(id) % shards_.size());
}

std::string RemoteTaintHub::Call(Shard& shard, const std::string& request) const {
  static obs::Histogram& call_ns = obs::Registry::Global().GetHistogram(
      "hub_client_call_ns", obs::LatencyBoundsNs());
  static const WireBytes bytes{
      obs::Registry::Global().GetCounter("hub_client_bytes_sent_total"),
      obs::Registry::Global().GetCounter("hub_client_bytes_recv_total")};
  const std::uint64_t t0 = obs::MonotonicNanos();
  const std::string payload =
      RoundTrip(shard.sock, shard.decoder, request, "remote hub", &bytes);
  call_ns.Observe(obs::MonotonicNanos() - t0);
  std::size_t pos = 0;
  std::uint64_t status = 0;
  if (net::DecodeVarint(payload.data(), payload.size(), &pos, &status) !=
      net::DecodeStatus::kOk) {
    throw ConfigError("remote hub: malformed response");
  }
  if (static_cast<Status>(status) != Status::kOk) {
    std::uint64_t len = 0;
    std::string message = "unspecified server error";
    if (net::DecodeVarint(payload.data(), payload.size(), &pos, &len) ==
            net::DecodeStatus::kOk &&
        payload.size() - pos >= len) {
      message.assign(payload.data() + pos, len);
    }
    throw ConfigError("remote hub: " + message);
  }
  return payload.substr(pos);
}

void RemoteTaintHub::FlushBatch(Shard& shard) {
  if (shard.batch_count == 0) return;
  static obs::Histogram& batch_records = obs::Registry::Global().GetHistogram(
      "hub_client_batch_records", {1, 4, 16, 64, 256, 1024});
  batch_records.Observe(shard.batch_count);
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kPublishBatch));
  AppendVarint(&request, shard.batch_count);
  request.append(shard.batch);
  shard.batch.clear();
  shard.batch_count = 0;
  Call(shard, request);
}

void RemoteTaintHub::FlushAllBatches() {
  for (Shard& shard : shards_) FlushBatch(shard);
}

void RemoteTaintHub::Publish(MessageTaintRecord record) {
  Shard& shard = shards_[ShardOf(record.id)];
  shard.touched = true;
  EncodeRecord(&shard.batch, record);
  ++shard.batch_count;
  if (shard.batch_count >= kBatchMaxRecords ||
      shard.batch.size() >= kBatchMaxBytes) {
    FlushBatch(shard);
  }
}

PollAttempt RemoteTaintHub::TryPoll(const MessageId& id, const RecvContext& ctx) {
  // Order fence: every buffered publish reaches its server before this poll,
  // preserving the in-process operation order (and the hub clock with it).
  FlushAllBatches();
  Shard& shard = shards_[ShardOf(id)];
  shard.touched = true;
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kTryPoll));
  EncodeMessageId(&request, id);
  EncodeRecvContext(&request, ctx);
  const std::string body = Call(shard, request);
  std::size_t pos = 0;
  std::uint64_t status = 0;
  if (net::DecodeVarint(body.data(), body.size(), &pos, &status) !=
      net::DecodeStatus::kOk) {
    throw ConfigError("remote hub: malformed poll response");
  }
  PollAttempt attempt;
  attempt.status = static_cast<PollStatus>(status);
  if (attempt.status != PollStatus::kHit) return attempt;
  MessageTaintRecord record;
  if (!DecodeRecord(body, &pos, &record)) {
    throw ConfigError("remote hub: malformed poll record");
  }
  // Mirror the transfer log client-side with a client-assigned sequence:
  // polls are issued one at a time, so this numbering matches what an
  // in-process hub would have assigned.
  transfers_.push_back({.id = record.id,
                        .tainted_bytes = record.TaintedByteCount(),
                        .payload_bytes = record.byte_masks.size(),
                        .src_vaddr = record.src_vaddr,
                        .dest_vaddr = ctx.dest_vaddr,
                        .send_instret = record.send_instret,
                        .recv_instret = ctx.recv_instret,
                        .hub_seq = next_hub_seq_++});
  attempt.record = std::move(record);
  return attempt;
}

void RemoteTaintHub::AbandonPoll(const MessageId& id) {
  FlushAllBatches();
  Shard& shard = shards_[ShardOf(id)];
  shard.touched = true;
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kAbandonPoll));
  EncodeMessageId(&request, id);
  Call(shard, request);
}

void RemoteTaintHub::SetFaultModel(const HubFaultModel& model) {
  FlushAllBatches();
  fault_model_ = model;
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kSetFaultModel));
  EncodeFaultModel(&request, model);
  for (Shard& shard : shards_) {
    shard.touched = true;
    Call(shard, request);
  }
}

std::vector<TransferLogEntry> RemoteTaintHub::transfer_log() const {
  std::vector<TransferLogEntry> log = transfers_;
  std::sort(log.begin(), log.end(),
            [](const TransferLogEntry& a, const TransferLogEntry& b) {
              return a.hub_seq < b.hub_seq;
            });
  return log;
}

std::vector<TransferLogEntry> RemoteTaintHub::DrainTransferLog() {
  FlushAllBatches();
  // Release the servers' copies (session memory), then hand out the
  // client-side mirror — its hub_seq numbering is the deterministic one.
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kDrainTransferLog));
  for (Shard& shard : shards_) {
    if (shard.touched) Call(shard, request);
  }
  std::vector<TransferLogEntry> log = std::move(transfers_);
  transfers_.clear();
  std::sort(log.begin(), log.end(),
            [](const TransferLogEntry& a, const TransferLogEntry& b) {
              return a.hub_seq < b.hub_seq;
            });
  return log;
}

HubStats RemoteTaintHub::stats() const {
  HubStats total;
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kStats));
  for (Shard& shard : shards_) {
    if (!shard.touched) continue;  // a cleared session's stats are zeros
    const_cast<RemoteTaintHub*>(this)->FlushBatch(shard);
    const std::string body = Call(shard, request);
    HubStats s;
    std::size_t pos = 0;
    if (!DecodeStats(body, &pos, &s)) {
      throw ConfigError("remote hub: malformed stats response");
    }
    total.publishes += s.publishes;
    total.polls += s.polls;
    total.hits += s.hits;
    total.applied_bytes += s.applied_bytes;
    total.publish_drops += s.publish_drops;
    total.unavailable_polls += s.unavailable_polls;
    total.abandoned_polls += s.abandoned_polls;
    total.taint_lost += s.taint_lost;
    total.lost_taint_bytes += s.lost_taint_bytes;
  }
  return total;
}

void RemoteTaintHub::Clear() {
  // Pending batched publishes belong to the state being discarded: drop them
  // client-side instead of paying a round trip to publish-then-clear.
  for (Shard& shard : shards_) {
    shard.batch.clear();
    shard.batch_count = 0;
  }
  transfers_.clear();
  next_hub_seq_ = 0;
  std::string request;
  AppendVarint(&request, static_cast<std::uint64_t>(Command::kClear));
  for (Shard& shard : shards_) {
    if (!shard.touched) continue;
    Call(shard, request);
    shard.touched = false;
  }
}

}  // namespace chaser::hub::remote
