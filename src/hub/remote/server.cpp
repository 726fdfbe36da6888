#include "hub/remote/server.h"

#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

#include "hub/remote/protocol.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace chaser::hub::remote {

namespace {

using net::AppendFrame;
using net::AppendVarint;

const char* CommandLabel(std::uint64_t cmd) {
  switch (static_cast<Command>(cmd)) {
    case Command::kPublishBatch: return "publish-batch";
    case Command::kTryPoll: return "try-poll";
    case Command::kAbandonPoll: return "abandon-poll";
    case Command::kSetFaultModel: return "set-fault-model";
    case Command::kClear: return "clear";
    case Command::kStats: return "stats";
    case Command::kDrainTransferLog: return "drain-transfer-log";
  }
  return "unknown";
}

/// Per-command dispatch latency. Handles are cached per command value
/// (atomics: several servers' loop threads may race the first lookup, and
/// GetHistogram returns the same histogram for the same name either way) —
/// the registry mutex is only walked on the first frame of each kind.
obs::Histogram& CommandHistogram(std::uint64_t cmd) {
  static std::atomic<obs::Histogram*> cached[8] = {};
  const std::size_t slot = (cmd >= 1 && cmd <= 7) ? cmd : 0;
  obs::Histogram* h = cached[slot].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &obs::Registry::Global().GetHistogram(
        obs::LabeledName("hub_cmd_ns", "cmd", CommandLabel(slot)),
        obs::LatencyBoundsNs());
    cached[slot].store(h, std::memory_order_release);
  }
  return *h;
}

/// Powers-of-four record counts: batch sizing is about order of magnitude.
std::vector<std::uint64_t> BatchBounds() {
  return {1, 4, 16, 64, 256, 1024};
}

void AppendOkFrame(std::string* out, const std::string& body) {
  std::string payload;
  AppendVarint(&payload, static_cast<std::uint64_t>(Status::kOk));
  payload.append(body);
  AppendFrame(out, payload);
}

void AppendErrorFrame(std::string* out, const std::string& message) {
  std::string payload;
  AppendVarint(&payload, static_cast<std::uint64_t>(Status::kError));
  AppendVarint(&payload, message.size());
  payload.append(message);
  AppendFrame(out, payload);
}

obs::Gauge& OpenConnections() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("hub_connections_open");
  return gauge;
}

obs::Gauge& QueuedOutBytes() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("hub_out_buffer_bytes");
  return gauge;
}

}  // namespace

HubServer::HubServer(Options options)
    : options_(std::move(options)), loop_(options_.host, options_.port, this) {}

HubServer::~HubServer() { Stop(); }

void HubServer::Stop() {
  if (!running()) return;
  loop_.Stop();
  // Retire this server's contribution to the shared gauges: the loop closed
  // the connections still open without reporting them.
  const ServerStats s = stats();
  OpenConnections().Add(-static_cast<std::int64_t>(s.connections_accepted -
                                                   s.connections_dropped));
  QueuedOutBytes().Add(-published_out_bytes_);
  published_out_bytes_ = 0;
}

ServerStats HubServer::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::unique_ptr<net::Connection> HubServer::OnConnect() {
  OpenConnections().Add(1);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_accepted;
  }
  return std::make_unique<Session>();
}

bool HubServer::OnRecv(net::Connection& c, const char* data, std::size_t n) {
  static obs::Counter& bytes_in =
      obs::Registry::Global().GetCounter("hub_bytes_in_total");
  Session& conn = static_cast<Session&>(c);
  bytes_in.Inc(n);
  conn.decoder.Feed(data, n);
  std::string payload;
  for (;;) {
    const net::FrameDecoder::Result r = conn.decoder.Next(&payload);
    if (r == net::FrameDecoder::Result::kNeedMore) return true;
    if (r == net::FrameDecoder::Result::kError || !HandleFrame(conn, payload)) {
      conn.protocol_error = true;
      return false;
    }
    if (conn.close_when_drained) return true;  // a rejected hello
    if (conn.out.size() > options_.max_out_bytes) {
      conn.protocol_error = true;  // response queue overflow: not reading
      return false;
    }
  }
}

void HubServer::OnSent(net::Connection&, std::size_t n) {
  static obs::Counter& bytes_out =
      obs::Registry::Global().GetCounter("hub_bytes_out_total");
  bytes_out.Inc(n);
}

void HubServer::OnClose(net::Connection& c) {
  static obs::Counter& conn_errors =
      obs::Registry::Global().GetCounter("hub_conn_errors");
  // A rejected hello was counted in hello_errors when it was rejected, so
  // it closes without protocol_error: the two counters partition the drops.
  const bool protocol_error = static_cast<Session&>(c).protocol_error;
  if (protocol_error) conn_errors.Inc();
  OpenConnections().Add(-1);
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.connections_dropped;
  if (protocol_error) ++stats_.conn_errors;
}

void HubServer::OnRoundEnd(std::size_t queued) {
  // Backpressure visibility: this server's queued-but-unsent response
  // bytes, published as a delta against the shared gauge.
  const auto total = static_cast<std::int64_t>(queued);
  QueuedOutBytes().Add(total - published_out_bytes_);
  published_out_bytes_ = total;
}

bool HubServer::HandleFrame(Session& conn, const std::string& payload) {
  if (!conn.hello_done) {
    std::string error;
    if (!DecodeHello(payload, &error)) {
      // Version or deploy skew, not corruption: counted apart from
      // conn_errors, and the client is told why before the close.
      static obs::Counter& hello_errors =
          obs::Registry::Global().GetCounter("hub_hello_errors");
      hello_errors.Inc();
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.hello_errors;
      }
      AppendErrorFrame(&conn.out, error);
      conn.close_when_drained = true;
      return true;
    }
    conn.hello_done = true;
    std::string body;
    AppendVarint(&body, kProtocolVersion);
    // Server wall clock at hello time: the client pairs this with its own
    // send/receive timestamps (Cristian's algorithm) to place its trace on
    // the hub's clock. Clients older than that field ignore the extra varint.
    AppendVarint(&body,
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()));
    AppendOkFrame(&conn.out, body);
    conn.hub.SetFaultModel(options_.default_fault);
    return true;
  }

  std::size_t pos = 0;
  std::uint64_t cmd = 0;
  if (net::DecodeVarint(payload.data(), payload.size(), &pos, &cmd) !=
      net::DecodeStatus::kOk) {
    return false;  // missing command byte
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.commands;
  }
  const std::uint64_t t0 = obs::MonotonicNanos();
  const bool ok = DispatchCommand(conn, payload, pos, cmd);
  CommandHistogram(cmd).Observe(obs::MonotonicNanos() - t0);
  return ok;
}

bool HubServer::DispatchCommand(Session& conn, const std::string& payload,
                                std::size_t pos, std::uint64_t cmd) {
  switch (static_cast<Command>(cmd)) {
    case Command::kPublishBatch: {
      // Every record takes at least one byte, so a count past the bytes
      // left is malformed; it must not size the allocation below.
      std::uint64_t count = 0;
      if (net::DecodeVarint(payload.data(), payload.size(), &pos, &count) !=
              net::DecodeStatus::kOk ||
          count > payload.size() - pos) {
        return false;  // malformed publish batch
      }
      std::vector<MessageTaintRecord> records;
      records.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        MessageTaintRecord record;
        if (!DecodeRecord(payload, &pos, &record)) {
          return false;  // malformed publish record
        }
        records.push_back(std::move(record));
      }
      for (MessageTaintRecord& record : records) {
        conn.hub.Publish(std::move(record));
      }
      static obs::Histogram& batch_records =
          obs::Registry::Global().GetHistogram("hub_publish_batch_records",
                                               BatchBounds());
      batch_records.Observe(count);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.records_published += count;
      }
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kTryPoll: {
      MessageId id;
      RecvContext ctx;
      if (!DecodeMessageId(payload, &pos, &id) ||
          !DecodeRecvContext(payload, &pos, &ctx)) {
        return false;  // malformed poll
      }
      PollAttempt attempt = conn.hub.TryPoll(id, ctx);
      std::string body;
      AppendVarint(&body, static_cast<std::uint64_t>(attempt.status));
      if (attempt.status == PollStatus::kHit) {
        EncodeRecord(&body, *attempt.record);
      }
      AppendOkFrame(&conn.out, body);
      return true;
    }
    case Command::kAbandonPoll: {
      MessageId id;
      if (!DecodeMessageId(payload, &pos, &id)) {
        return false;  // malformed abandon
      }
      conn.hub.AbandonPoll(id);
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kSetFaultModel: {
      HubFaultModel model;
      if (!DecodeFaultModel(payload, &pos, &model)) {
        return false;  // malformed fault model
      }
      conn.hub.SetFaultModel(model);
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kClear: {
      conn.hub.Clear();
      AppendOkFrame(&conn.out, "");
      return true;
    }
    case Command::kStats: {
      std::string body;
      EncodeStats(&body, conn.hub.stats());
      AppendOkFrame(&conn.out, body);
      return true;
    }
    case Command::kDrainTransferLog: {
      const std::vector<TransferLogEntry> log = conn.hub.DrainTransferLog();
      std::string body;
      AppendVarint(&body, log.size());
      for (const TransferLogEntry& entry : log) EncodeTransferEntry(&body, entry);
      AppendOkFrame(&conn.out, body);
      return true;
    }
  }
  // Unknown commands get a per-command error (forward compatibility) rather
  // than a dropped connection: the framing is intact, only the verb is new.
  AppendErrorFrame(&conn.out, "unknown command " + std::to_string(cmd));
  return true;
}

}  // namespace chaser::hub::remote
