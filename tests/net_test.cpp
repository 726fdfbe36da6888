// Tests for src/net and src/hub/remote: the frame codec must reject torn
// and bit-flipped streams without ever yielding a corrupt payload (the
// journal_test fuzz discipline, applied to a live socket), the HubServer
// must drop a misbehaving connection — never abort — while other clients
// keep working, and a RemoteTaintHub over loopback must be operation-for-
// operation identical to the in-process TaintHub it proxies.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "common/error.h"
#include "common/rng.h"
#include "hub/remote/client.h"
#include "hub/remote/protocol.h"
#include "hub/remote/server.h"
#include "hub/tainthub.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace chaser {
namespace {

using hub::HubFaultModel;
using hub::HubStats;
using hub::MessageId;
using hub::MessageTaintRecord;
using hub::PollAttempt;
using hub::PollStatus;
using hub::RecvContext;
using hub::TaintHub;
using hub::TransferLogEntry;
using hub::remote::HubServer;
using hub::remote::RemoteTaintHub;
using net::AppendFrame;
using net::AppendVarint;
using net::DecodeStatus;
using net::DecodeVarint;
using net::FrameDecoder;

// ---- varint ----------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,       1,        127,        128,
                                  16383,   16384,    (1u << 21), 0xffffffffull,
                                  1ull << 63, ~0ull};
  for (const std::uint64_t v : values) {
    std::string buf;
    AppendVarint(&buf, v);
    std::size_t pos = 0;
    std::uint64_t out = 0;
    ASSERT_EQ(DecodeVarint(buf.data(), buf.size(), &pos, &out),
              DecodeStatus::kOk);
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncationIsNeedMoreNotError) {
  std::string buf;
  AppendVarint(&buf, ~0ull);  // 10 bytes
  for (std::size_t len = 0; len < buf.size(); ++len) {
    std::size_t pos = 0;
    std::uint64_t out = 0;
    EXPECT_EQ(DecodeVarint(buf.data(), len, &pos, &out),
              DecodeStatus::kNeedMore);
    EXPECT_EQ(pos, 0u) << "pos must stay put for a retry";
  }
}

TEST(Varint, RunawayContinuationIsMalformed) {
  const std::string buf(11, '\x80');  // 11 continuation bytes: not a varint
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_EQ(DecodeVarint(buf.data(), buf.size(), &pos, &out),
            DecodeStatus::kMalformed);
}

TEST(Varint, RoundTripFuzz) {
  Rng rng(42);
  std::vector<std::uint64_t> values;
  std::string buf;
  for (int i = 0; i < 5000; ++i) {
    // Mix magnitudes so every LEB128 length is exercised.
    const unsigned bits = static_cast<unsigned>(rng.UniformU64(0, 64));
    const std::uint64_t v =
        bits == 0 ? 0 : rng.UniformU64(0, ~0ull >> (64 - bits));
    values.push_back(v);
    AppendVarint(&buf, v);
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    const auto got = DecodeVarint(buf, &pos);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, NonCanonicalAndOverflowingEncodingsAreMalformed) {
  // Overlong forms of small values — a continuation byte followed by a
  // terminal 0x00 contributes no bits — must be rejected, not silently
  // canonicalized: the CTR layout is deterministic only if every value has
  // exactly one encoding.
  for (const std::string& bad :
       {std::string("\x80\x00", 2), std::string("\x81\x00", 2),
        std::string("\xff\x80\x00", 3),
        // A tenth byte carrying bits beyond 2^64.
        std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10)}) {
    std::size_t pos = 0;
    std::uint64_t out = 0;
    EXPECT_EQ(DecodeVarint(bad.data(), bad.size(), &pos, &out),
              DecodeStatus::kMalformed);
    EXPECT_EQ(pos, 0u);
    EXPECT_FALSE(DecodeVarint(bad, &pos).has_value());
  }
  // The buffer overload reports a truncated varint as absent too.
  std::size_t pos = 0;
  EXPECT_FALSE(DecodeVarint(std::string("\x80", 1), &pos).has_value());
}

TEST(Varint, ZigZagRoundTripsSignedValues) {
  const std::int64_t values[] = {0, -1, 1, -2, 1000, -1000,
                                 std::int64_t{1} << 62, -(std::int64_t{1} << 62),
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(net::ZigZagDecode(net::ZigZagEncode(v)), v);
  }
  EXPECT_EQ(net::ZigZagEncode(0), 0u);
  EXPECT_EQ(net::ZigZagEncode(-1), 1u);
  EXPECT_EQ(net::ZigZagEncode(1), 2u);
}

// ---- frame codec ------------------------------------------------------------

std::vector<std::string> SamplePayloads() {
  return {std::string("x"), std::string("hello hub"),
          std::string(1000, '\xab'), std::string("\x00\xff\x01", 3)};
}

TEST(FrameCodec, RoundTripsWholeStream) {
  std::string stream;
  for (const std::string& p : SamplePayloads()) AppendFrame(&stream, p);
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  for (const std::string& p : SamplePayloads()) {
    std::string payload;
    ASSERT_EQ(dec.Next(&payload), FrameDecoder::Result::kFrame);
    EXPECT_EQ(payload, p);
  }
  std::string payload;
  EXPECT_EQ(dec.Next(&payload), FrameDecoder::Result::kNeedMore);
}

TEST(FrameCodec, RoundTripsByteAtATime) {
  std::string stream;
  for (const std::string& p : SamplePayloads()) AppendFrame(&stream, p);
  FrameDecoder dec;
  std::vector<std::string> got;
  for (const char c : stream) {
    dec.Feed(&c, 1);
    std::string payload;
    while (dec.Next(&payload) == FrameDecoder::Result::kFrame) {
      got.push_back(payload);
    }
  }
  EXPECT_EQ(got, SamplePayloads());
}

TEST(FrameCodec, EveryTruncationIsNeedMoreNeverError) {
  std::string stream;
  AppendFrame(&stream, std::string(300, 'q'));
  for (std::size_t len = 0; len < stream.size(); ++len) {
    FrameDecoder dec;
    dec.Feed(stream.data(), len);
    std::string payload;
    EXPECT_EQ(dec.Next(&payload), FrameDecoder::Result::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(FrameCodec, BitFlipsNeverYieldACorruptPayload) {
  const std::string original(137, 'z');
  std::string stream;
  AppendFrame(&stream, original);
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = stream;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      FrameDecoder dec;
      dec.Feed(flipped.data(), flipped.size());
      std::string payload;
      const FrameDecoder::Result r = dec.Next(&payload);
      // A flip may leave the frame undecodable (error), starve it (the
      // length grew: need more), but must never pass off a different
      // payload as valid.
      if (r == FrameDecoder::Result::kFrame) {
        EXPECT_EQ(payload, original)
            << "byte " << byte << " bit " << bit
            << " produced a corrupt frame that passed the CRC";
      }
    }
  }
}

TEST(FrameCodec, ZeroLengthFrameIsAnError) {
  std::string stream;
  AppendVarint(&stream, 0);
  stream.append(4, '\0');  // CRC of nothing — irrelevant, rejected earlier
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  std::string payload;
  EXPECT_EQ(dec.Next(&payload), FrameDecoder::Result::kError);
  EXPECT_FALSE(dec.error().empty());
}

TEST(FrameCodec, OversizedFrameIsAnErrorNotAnAllocation) {
  std::string stream;
  AppendVarint(&stream, net::kMaxFramePayload + 1);
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  std::string payload;
  EXPECT_EQ(dec.Next(&payload), FrameDecoder::Result::kError);
}

TEST(FrameCodec, ErrorIsSticky) {
  std::string bad;
  AppendVarint(&bad, 0);
  std::string good;
  AppendFrame(&good, "ok");
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  dec.Feed(good.data(), good.size());
  std::string payload;
  EXPECT_EQ(dec.Next(&payload), FrameDecoder::Result::kError);
  EXPECT_EQ(dec.Next(&payload), FrameDecoder::Result::kError)
      << "a poisoned stream must not recover";
}

// ---- endpoint parsing -------------------------------------------------------

TEST(Endpoint, ParsesHostPort) {
  const net::Endpoint ep = net::ParseEndpoint("127.0.0.1:7707");
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7707);
  EXPECT_THROW(net::ParseEndpoint("no-port"), ConfigError);
  EXPECT_THROW(net::ParseEndpoint("host:0"), ConfigError);
  EXPECT_THROW(net::ParseEndpoint("host:99999"), ConfigError);
}

// ---- server robustness ------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HubServer>(HubServer::Options{});
    server_->Start();
    endpoint_ = "127.0.0.1:" + std::to_string(server_->port());
  }

  /// Raw client socket that has NOT sent a hello.
  net::TcpSocket RawConnect() {
    return net::TcpSocket::Connect("127.0.0.1", server_->port());
  }

  /// Send `payload` as one frame and return true if the server closed the
  /// connection (EOF or reset) afterwards.
  bool SendAndExpectDrop(net::TcpSocket& sock, const std::string& payload) {
    std::string stream;
    AppendFrame(&stream, payload);
    try {
      sock.SendAll(stream.data(), stream.size());
      // Drain whatever the server says until EOF; an error frame may precede
      // the close (hello rejections reply before dropping).
      char buf[4096];
      for (;;) {
        if (sock.Recv(buf, sizeof buf) == 0) return true;
      }
    } catch (const ConfigError&) {
      return true;  // a reset counts as dropped
    }
  }

  std::unique_ptr<HubServer> server_;
  std::string endpoint_;
};

TEST_F(ServerTest, BadHelloDropsOnlyThatConnection) {
  net::TcpSocket bad = RawConnect();
  EXPECT_TRUE(SendAndExpectDrop(bad, "CHSNOPE"));
  // A well-behaved client on the same server still works.
  RemoteTaintHub good({endpoint_});
  MessageTaintRecord rec;
  rec.id = {0, 1, 5, 0};
  rec.byte_masks = {0xff, 0x00, 0x01};
  good.Publish(std::move(rec));
  const PollAttempt attempt = good.TryPoll({0, 1, 5, 0}, {});
  EXPECT_EQ(attempt.status, PollStatus::kHit);
  // Bad hellos land in their own counter — conn_errors stays reserved for
  // protocol violations AFTER a successful hello.
  EXPECT_GE(server_->stats().hello_errors, 1u);
  EXPECT_EQ(server_->stats().conn_errors, 0u);
}

TEST_F(ServerTest, VersionMismatchIsRejectedExplicitly) {
  net::TcpSocket sock = RawConnect();
  std::string hello = hub::remote::kHelloMagic;  // right magic...
  AppendVarint(&hello, hub::remote::kProtocolVersion + 41);  // ...wrong version
  EXPECT_TRUE(SendAndExpectDrop(sock, hello));
  EXPECT_GE(server_->stats().hello_errors, 1u);
  EXPECT_EQ(server_->stats().conn_errors, 0u);
}

TEST_F(ServerTest, OversizedFrameDropsConnectionNotServer) {
  net::TcpSocket sock = RawConnect();
  std::string stream;
  AppendVarint(&stream, net::kMaxFramePayload + 7);  // lying length prefix
  bool dropped = false;
  try {
    sock.SendAll(stream.data(), stream.size());
    char buf[256];
    dropped = sock.Recv(buf, sizeof buf) == 0;  // EOF
  } catch (const ConfigError&) {
    dropped = true;  // reset
  }
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(server_->running());
  EXPECT_GE(server_->stats().conn_errors, 1u);
  RemoteTaintHub still_fine({endpoint_});
  EXPECT_EQ(still_fine.stats().publishes, 0u);
}

TEST_F(ServerTest, UnknownCommandGetsAnErrorFrameWithoutADrop) {
  net::TcpSocket sock = RawConnect();
  std::string stream;
  AppendFrame(&stream, hub::remote::EncodeHello());
  std::string cmd;
  AppendVarint(&cmd, 99);  // a command this build does not know
  AppendFrame(&stream, cmd);
  sock.SendAll(stream.data(), stream.size());
  // Expect two response frames (hello ok + command error) and no EOF.
  FrameDecoder dec;
  std::vector<std::string> responses;
  char buf[4096];
  while (responses.size() < 2) {
    const std::size_t n = sock.Recv(buf, sizeof buf);
    ASSERT_GT(n, 0u) << "server closed instead of answering";
    dec.Feed(buf, n);
    std::string payload;
    while (dec.Next(&payload) == FrameDecoder::Result::kFrame) {
      responses.push_back(payload);
    }
  }
  // Second response opens with status kError.
  std::size_t pos = 0;
  std::uint64_t status = 0;
  ASSERT_EQ(DecodeVarint(responses[1].data(), responses[1].size(), &pos,
                         &status),
            DecodeStatus::kOk);
  EXPECT_EQ(status, 1u);
  EXPECT_EQ(server_->stats().conn_errors, 0u)
      << "unknown commands are forward-compat, not protocol errors";
}

// ---- remote-vs-in-process identity ------------------------------------------

MessageTaintRecord MakeRecord(Rank src, Rank dest, std::int64_t tag,
                              std::uint64_t seq, std::uint64_t salt) {
  MessageTaintRecord rec;
  rec.id = {src, dest, tag, seq};
  Rng rng(salt);
  rec.byte_masks.resize(1 + (salt % 64));
  for (auto& m : rec.byte_masks) {
    m = static_cast<std::uint8_t>(rng.UniformU64(0, 255));
  }
  rec.src_vaddr = 0x1000 + salt;
  rec.send_instret = 40 + salt;
  return rec;
}

void ExpectSameStats(const HubStats& a, const HubStats& b) {
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.polls, b.polls);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.applied_bytes, b.applied_bytes);
  EXPECT_EQ(a.publish_drops, b.publish_drops);
  EXPECT_EQ(a.unavailable_polls, b.unavailable_polls);
  EXPECT_EQ(a.abandoned_polls, b.abandoned_polls);
  EXPECT_EQ(a.taint_lost, b.taint_lost);
  EXPECT_EQ(a.lost_taint_bytes, b.lost_taint_bytes);
}

void ExpectSameTransfers(const std::vector<TransferLogEntry>& a,
                         const std::vector<TransferLogEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id.Key(), b[i].id.Key());
    EXPECT_EQ(a[i].tainted_bytes, b[i].tainted_bytes);
    EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes);
    EXPECT_EQ(a[i].src_vaddr, b[i].src_vaddr);
    EXPECT_EQ(a[i].dest_vaddr, b[i].dest_vaddr);
    EXPECT_EQ(a[i].send_instret, b[i].send_instret);
    EXPECT_EQ(a[i].recv_instret, b[i].recv_instret);
    EXPECT_EQ(a[i].hub_seq, b[i].hub_seq);
  }
}

/// Drive the same operation script against both hubs and compare every
/// observable after every step.
void RunIdentityScript(hub::HubService& local, hub::HubService& remote,
                       const HubFaultModel& fault) {
  // An empty round first: a session no command has reached since its last
  // clear (fresh, or cleared after an earlier script's traffic) answers
  // stats and drains without a round trip, and must still read as the
  // in-process hub does.
  local.Clear();
  remote.Clear();
  ExpectSameStats(local.stats(), remote.stats());
  ExpectSameTransfers(local.DrainTransferLog(), remote.DrainTransferLog());

  local.SetFaultModel(fault);
  remote.SetFaultModel(fault);
  local.Clear();
  remote.Clear();

  for (std::uint64_t round = 0; round < 3; ++round) {
    // Publish a clutch of records (varied sizes), poll some back, abandon
    // one, leave one unpolled.
    for (std::uint64_t k = 0; k < 6; ++k) {
      const auto rec = MakeRecord(/*src=*/static_cast<Rank>(k % 3),
                                  /*dest=*/static_cast<Rank>((k + 1) % 3),
                                  /*tag=*/static_cast<std::int64_t>(k) - 2,
                                  /*seq=*/round, /*salt=*/round * 17 + k);
      local.Publish(rec);
      remote.Publish(rec);
    }
    for (std::uint64_t k = 0; k < 4; ++k) {
      const MessageId id{static_cast<Rank>(k % 3),
                         static_cast<Rank>((k + 1) % 3),
                         static_cast<std::int64_t>(k) - 2, round};
      const RecvContext ctx{0x2000 + k, 90 + k};
      const PollAttempt a = local.TryPoll(id, ctx);
      const PollAttempt b = remote.TryPoll(id, ctx);
      ASSERT_EQ(a.status, b.status) << "round " << round << " poll " << k;
      ASSERT_EQ(a.record.has_value(), b.record.has_value());
      if (a.record.has_value()) {
        EXPECT_EQ(a.record->byte_masks, b.record->byte_masks);
        EXPECT_EQ(a.record->src_vaddr, b.record->src_vaddr);
        EXPECT_EQ(a.record->send_instret, b.record->send_instret);
      }
    }
    {
      const MessageId id{static_cast<Rank>(1), static_cast<Rank>(2), 2, round};
      local.AbandonPoll(id);
      remote.AbandonPoll(id);
    }
    ExpectSameStats(local.stats(), remote.stats());
    ExpectSameTransfers(local.transfer_log(), remote.transfer_log());
    EXPECT_EQ(local.SawTransfer(0, 1), remote.SawTransfer(0, 1));
    EXPECT_EQ(local.SawTransfer(2, 0), remote.SawTransfer(2, 0));
  }
  ExpectSameTransfers(local.DrainTransferLog(), remote.DrainTransferLog());
  EXPECT_TRUE(local.transfer_log().empty());
  EXPECT_TRUE(remote.transfer_log().empty());
}

TEST_F(ServerTest, RemoteHubMatchesInProcessHealthy) {
  TaintHub local;
  RemoteTaintHub remote({endpoint_});
  RunIdentityScript(local, remote, HubFaultModel{});
}

TEST_F(ServerTest, RemoteHubMatchesInProcessUnderFaultModel) {
  TaintHub local;
  RemoteTaintHub remote({endpoint_});
  HubFaultModel fault;
  fault.publish_drop_prob = 0.4;
  fault.visibility_delay = 2;
  fault.outage_start = 10;
  fault.outage_end = 14;
  fault.poll_retries = 1;
  fault.seed = 99;
  RunIdentityScript(local, remote, fault);
  // Clear() must reseed the drop tape identically on both sides: a second
  // pass of the same script sees the same drops again.
  RunIdentityScript(local, remote, fault);
}

TEST_F(ServerTest, TwoEndpointClientShardsTheKeySpace) {
  HubServer second({});
  second.Start();
  RemoteTaintHub remote(
      {endpoint_, "127.0.0.1:" + std::to_string(second.port())});
  EXPECT_EQ(remote.num_shards(), 2u);
  std::uint64_t published = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    remote.Publish(MakeRecord(0, 1, static_cast<std::int64_t>(k), k, k));
    ++published;
  }
  EXPECT_EQ(remote.stats().publishes, published)
      << "stats() must sum across shards";
  // Every record is pollable wherever it was sharded to.
  for (std::uint64_t k = 0; k < 32; ++k) {
    const PollAttempt a =
        remote.TryPoll({0, 1, static_cast<std::int64_t>(k), k}, {});
    EXPECT_EQ(a.status, PollStatus::kHit) << "key " << k;
  }
  const std::uint64_t total_published =
      server_->stats().records_published + second.stats().records_published;
  EXPECT_EQ(total_published, published);
  EXPECT_GT(server_->stats().records_published, 0u);
  EXPECT_GT(second.stats().records_published, 0u)
      << "32 mixed keys should land on both shards";
}

// A 1-rank lud trial sends no hub traffic of its own, so its session stays
// cleared: the reset at job start and the stats read at classification need
// no round trip, and the trial costs the hub no command at all.
TEST_F(ServerTest, ACampaignTrialSendsNoHubCommands) {
  const auto commands = [&](std::uint64_t runs) {
    const std::uint64_t before = server_->stats().commands;
    campaign::CampaignConfig config;
    config.runs = runs;
    config.seed = 11;
    config.hub_endpoints = {endpoint_};
    campaign::Campaign(apps::BuildLud({}), config).Run();
    return server_->stats().commands - before;
  };
  const std::uint64_t ten = commands(10);
  EXPECT_EQ(commands(20), ten);
}

// A 4-rank matvec trial whose fault reaches a message touches its session:
// on top of its own publishes and polls, classification reads the stats and
// the next job start clears the session. Pinned for trials 11-20 at seed 11
// (6 clears, 5 stats reads, 8 publish batches, 75 polls), so a command added
// per touched trial shows.
TEST_F(ServerTest, ATouchingCampaignTrialPaysOneClearAndOneStatsRead) {
  struct Counts {
    std::uint64_t commands = 0;
    double clears = 0;
    double stats = 0;
  };
  const auto run = [&](std::uint64_t runs) {
    obs::Registry::Global().Reset();
    const std::uint64_t before = server_->stats().commands;
    campaign::CampaignConfig config;
    config.runs = runs;
    config.seed = 11;
    config.hub_endpoints = {endpoint_};
    campaign::Campaign(apps::BuildMatvec({}), config).Run();
    Counts c;
    c.commands = server_->stats().commands - before;
    const std::string text = obs::Registry::Global().ToPrometheus();
    EXPECT_TRUE(
        obs::PrometheusValue(text, "hub_cmd_ns_count{cmd=\"clear\"}", &c.clears));
    EXPECT_TRUE(
        obs::PrometheusValue(text, "hub_cmd_ns_count{cmd=\"stats\"}", &c.stats));
    return c;
  };
  const Counts ten = run(10);
  const Counts twenty = run(20);
  EXPECT_EQ(twenty.commands - ten.commands, 94u);
  EXPECT_EQ(twenty.clears - ten.clears, 6.0);
  EXPECT_EQ(twenty.stats - ten.stats, 5.0);
  obs::Registry::Global().Reset();
}

// ---- wire instrumentation and the hub clock ---------------------------------

TEST_F(ServerTest, WireMetricsLandInTheGlobalRegistry) {
  obs::Registry& reg = obs::Registry::Global();
  reg.Reset();
  {
    RemoteTaintHub client({endpoint_});
    MessageTaintRecord rec;
    rec.id = {0, 1, 9, 0};
    rec.byte_masks = {0x0f, 0xf0};
    client.Publish(std::move(rec));
    const PollAttempt attempt = client.TryPoll({0, 1, 9, 0}, {});
    EXPECT_EQ(attempt.status, PollStatus::kHit);
  }
  const std::string text = reg.ToPrometheus();
  double v = 0.0;
  ASSERT_TRUE(obs::PrometheusValue(text, "hub_bytes_in_total", &v)) << text;
  EXPECT_GT(v, 0.0);
  ASSERT_TRUE(obs::PrometheusValue(text, "hub_bytes_out_total", &v));
  EXPECT_GT(v, 0.0);
  ASSERT_TRUE(obs::PrometheusValue(text, "hub_client_bytes_sent_total", &v));
  EXPECT_GT(v, 0.0);
  ASSERT_TRUE(obs::PrometheusValue(text, "hub_client_bytes_recv_total", &v));
  EXPECT_GT(v, 0.0);
  // Per-command latency histograms carry the cmd label; the publish and
  // poll paths must each have observed at least one round trip.
  ASSERT_TRUE(obs::PrometheusValue(
      text, "hub_cmd_ns_count{cmd=\"publish-batch\"}", &v))
      << text;
  EXPECT_GE(v, 1.0);
  ASSERT_TRUE(
      obs::PrometheusValue(text, "hub_cmd_ns_count{cmd=\"try-poll\"}", &v));
  EXPECT_GE(v, 1.0);
  ASSERT_TRUE(
      obs::PrometheusValue(text, "hub_publish_batch_records_count", &v));
  EXPECT_GE(v, 1.0);
  reg.Reset();
}

TEST_F(ServerTest, ProbeHubClockYieldsAPlausibleOffset) {
  const hub::remote::HubClockProbe probe =
      hub::remote::ProbeHubClock(endpoint_);
  ASSERT_TRUE(probe.ok) << "a same-build hubd must advertise its clock";
  // Same host, same clock: the measured offset is bounded by the RTT plus
  // scheduling noise. A loose 5s bound still catches unit mixups (ns vs us)
  // and sign errors.
  EXPECT_LT(probe.offset_us, 5'000'000);
  EXPECT_GT(probe.offset_us, -5'000'000);
  EXPECT_LT(probe.rtt_us, 5'000'000u);
  EXPECT_THROW(hub::remote::ProbeHubClock("127.0.0.1:1"), ConfigError);
}

}  // namespace
}  // namespace chaser
