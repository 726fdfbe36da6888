#include "campaign/journal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/error.h"
#include "common/strings.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace chaser::campaign {

namespace {

constexpr char kJournalMagic[8] = {'C', 'H', 'S', 'J', 'R', 'N', 'L', '1'};
constexpr std::uint64_t kJournalVersion = 6;

using net::AppendVarint;
using net::DecodeVarint;
using net::ZigZagDecode;
using net::ZigZagEncode;

std::string EncodeRecord(const RunRecord& rec) {
  std::string payload;
  AppendVarint(&payload, rec.run_seed);
  AppendVarint(&payload, static_cast<std::uint64_t>(rec.outcome));
  AppendVarint(&payload, static_cast<std::uint64_t>(rec.kind));
  AppendVarint(&payload, static_cast<std::uint64_t>(rec.signal));
  AppendVarint(&payload, ZigZagEncode(rec.inject_rank));
  AppendVarint(&payload, ZigZagEncode(rec.failure_rank));
  AppendVarint(&payload, (rec.deadlock ? 1u : 0u) |
                             (rec.propagated_cross_rank ? 2u : 0u) |
                             (rec.propagated_cross_node ? 4u : 0u));
  for (const std::uint64_t v :
       {rec.injections, rec.tainted_reads, rec.tainted_writes,
        rec.peak_tainted_bytes, rec.tainted_output_bytes, rec.trigger_nth,
        std::uint64_t{rec.flip_bits}, rec.instructions, rec.trace_dropped,
        rec.taint_lost, std::uint64_t{rec.retries}, rec.inject_pc,
        static_cast<std::uint64_t>(rec.inject_class)}) {
    AppendVarint(&payload, v);
  }
  // The weight round-trips as its IEEE-754 bit pattern, the exact double.
  std::uint64_t weight_bits = 0;
  std::memcpy(&weight_bits, &rec.sample_weight, sizeof(weight_bits));
  AppendVarint(&payload, weight_bits);
  for (const std::string* s : {&rec.injector, &rec.fault_class, &rec.infra_error}) {
    AppendVarint(&payload, s->size());
    payload.append(*s);
  }
  return payload;
}

std::optional<RunRecord> DecodeRecord(const std::string& payload) {
  std::size_t pos = 0;
  RunRecord r;
  const auto u64 = [&](std::uint64_t* v) {
    const auto d = DecodeVarint(payload, &pos);
    if (d) *v = *d;
    return d.has_value();
  };
  const auto str = [&](std::string* s) {
    std::uint64_t len = 0;
    if (!u64(&len) || len > payload.size() - pos) return false;
    s->assign(payload, pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
  };
  std::uint64_t outcome = 0, kind = 0, signal = 0, inject = 0, failure = 0,
                flags = 0, flip_bits = 0, retries = 0, cls = 0, weight_bits = 0;
  if (!u64(&r.run_seed) || !u64(&outcome) || !u64(&kind) || !u64(&signal) ||
      !u64(&inject) || !u64(&failure) || !u64(&flags) || !u64(&r.injections) ||
      !u64(&r.tainted_reads) || !u64(&r.tainted_writes) ||
      !u64(&r.peak_tainted_bytes) || !u64(&r.tainted_output_bytes) ||
      !u64(&r.trigger_nth) || !u64(&flip_bits) || !u64(&r.instructions) ||
      !u64(&r.trace_dropped) || !u64(&r.taint_lost) || !u64(&retries) ||
      !u64(&r.inject_pc) || !u64(&cls) || !u64(&weight_bits) ||
      !str(&r.injector) || !str(&r.fault_class) || !str(&r.infra_error) ||
      pos != payload.size()) {
    return std::nullopt;
  }
  if (outcome > static_cast<std::uint64_t>(Outcome::kCrashed) ||
      kind > static_cast<std::uint64_t>(vm::TerminationKind::kMpiError) ||
      signal > static_cast<std::uint64_t>(vm::GuestSignal::kCrash) ||
      cls > static_cast<std::uint64_t>(guest::InstrClass::kSys)) {
    return std::nullopt;
  }
  r.outcome = static_cast<Outcome>(outcome);
  r.kind = static_cast<vm::TerminationKind>(kind);
  r.signal = static_cast<vm::GuestSignal>(signal);
  r.inject_rank = static_cast<Rank>(ZigZagDecode(inject));
  r.failure_rank = static_cast<Rank>(ZigZagDecode(failure));
  r.deadlock = (flags & 1) != 0;
  r.propagated_cross_rank = (flags & 2) != 0;
  r.propagated_cross_node = (flags & 4) != 0;
  r.flip_bits = static_cast<unsigned>(flip_bits);
  r.retries = static_cast<unsigned>(retries);
  r.inject_class = static_cast<guest::InstrClass>(cls);
  std::memcpy(&r.sample_weight, &weight_bits, sizeof(r.sample_weight));
  return r;
}

/// Replay the journal at `path` into `replayed` and return the offset one
/// past its last intact record. Throws ConfigError unless the header is an
/// intact v6 header of this campaign; a torn record region is not an error.
std::uint64_t ReplayJournal(const std::string& path, std::uint64_t campaign_seed,
                            const std::string& app,
                            std::vector<RunRecord>* replayed) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("TrialJournal: cannot open '" + path + "'");
  const std::string buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  if (buf.size() < sizeof(kJournalMagic) ||
      std::memcmp(buf.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    throw ConfigError("TrialJournal: '" + path + "' is not a Chaser trial journal");
  }
  std::size_t pos = sizeof(kJournalMagic);
  const auto header_u64 = [&] {
    const auto d = DecodeVarint(buf, &pos);
    if (!d) throw ConfigError("TrialJournal: '" + path + "' has a corrupt header");
    return *d;
  };
  const std::uint64_t version = header_u64();
  const std::uint64_t found_seed = header_u64();
  const std::uint64_t app_len = header_u64();
  if (version != kJournalVersion || app_len > buf.size() - pos) {
    throw ConfigError("TrialJournal: '" + path + "' is not a v6 journal");
  }
  const std::string found_app = buf.substr(pos, app_len);
  pos += app_len;
  header_u64();  // shard index
  header_u64();  // shard count
  if (found_seed != campaign_seed || found_app != app) {
    throw ConfigError(StrFormat(
        "TrialJournal: '%s' belongs to campaign (app '%s', seed %llu), not "
        "(app '%s', seed %llu) — refusing to mix trial sets",
        path.c_str(), found_app.c_str(),
        static_cast<unsigned long long>(found_seed), app.c_str(),
        static_cast<unsigned long long>(campaign_seed)));
  }

  // Record region: serve intact frames, stop at the first one that is
  // short, malformed, fails its checksum or does not decode.
  net::FrameDecoder frames;
  frames.Feed(buf.data() + pos, buf.size() - pos);
  std::uint64_t valid_bytes = pos;
  std::string payload;
  while (frames.Next(&payload) == net::FrameDecoder::Result::kFrame) {
    std::optional<RunRecord> rec = DecodeRecord(payload);
    if (!rec) break;
    if (replayed != nullptr) replayed->push_back(std::move(*rec));
    valid_bytes = buf.size() - frames.buffered();
  }
  return valid_bytes;
}

}  // namespace

TrialJournal::TrialJournal(const std::string& path, std::uint64_t campaign_seed,
                           const std::string& app,
                           std::vector<RunRecord>* replayed)
    : path_(path) {
  if (replayed != nullptr) replayed->clear();
  std::error_code ec;
  const bool exists = std::filesystem::exists(path_, ec) &&
                      std::filesystem::file_size(path_, ec) > 0;
  if (exists) {
    const std::uint64_t valid_bytes =
        ReplayJournal(path_, campaign_seed, app, replayed);
    // Cut a crash-torn tail off *before* appending: new frames written after
    // garbage would be unreachable to the prefix-disciplined reader.
    std::filesystem::resize_file(path_, valid_bytes, ec);
    if (ec) {
      throw ConfigError("TrialJournal: cannot truncate torn tail of '" + path_ +
                        "': " + ec.message());
    }
  }

  file_ = std::fopen(path_.c_str(), exists ? "ab" : "wb");
  if (file_ == nullptr) {
    throw ConfigError("TrialJournal: cannot open '" + path_ + "' for append");
  }
  if (!exists) {
    std::string header(kJournalMagic, sizeof(kJournalMagic));
    AppendVarint(&header, kJournalVersion);
    AppendVarint(&header, campaign_seed);
    AppendVarint(&header, app.size());
    header.append(app);
    AppendVarint(&header, 0);  // shard index
    AppendVarint(&header, 1);  // shard count
    if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
        std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      throw ConfigError("TrialJournal: cannot write header of '" + path_ + "'");
    }
  }
}

TrialJournal::~TrialJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void TrialJournal::Append(const RunRecord& rec) {
  std::string frame;
  net::AppendFrame(&frame, EncodeRecord(rec));

  static obs::Counter& appends =
      obs::Registry::Global().GetCounter("journal_appends_total");
  const obs::ScopedPhase obs_scope(obs::Phase::kJournalFsync);
  // One fwrite per frame keeps frames contiguous; fsync makes the record
  // durable before Append returns.
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw ConfigError("TrialJournal: append failed on '" + path_ + "'");
  }
  appends.Inc();
}

}  // namespace chaser::campaign
