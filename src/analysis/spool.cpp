#include "analysis/spool.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/strings.h"
#include "net/frame.h"

namespace chaser::analysis {

using net::AppendVarint;
using net::DecodeVarint;
using net::ZigZagDecode;
using net::ZigZagEncode;

namespace {

constexpr char kHeaderMagic[8] = {'C', 'H', 'S', 'P', 'O', 'O', 'L', '1'};
constexpr char kTrailerMagic[8] = {'C', 'H', 'S', 'P', 'O', 'O', 'L', 'F'};
constexpr std::uint8_t kFooterTag = 0xFE;

void AppendU64Le(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t ReadU64Le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

// ---- Writer -------------------------------------------------------------------

struct TraceSpool::Segment {
  std::ofstream out;
  std::string path;
  SegmentFooter footer;
  std::uint64_t prev_event_instret = 0;
  std::uint64_t prev_sample_instret = 0;
  bool any_instret = false;

  void NoteInstret(std::uint64_t instret) {
    if (!any_instret) {
      footer.min_instret = footer.max_instret = instret;
      any_instret = true;
      return;
    }
    footer.min_instret = std::min(footer.min_instret, instret);
    footer.max_instret = std::max(footer.max_instret, instret);
  }
};

TraceSpool::TraceSpool(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw ConfigError("TraceSpool: cannot create directory '" + dir_ +
                      "': " + ec.message());
  }
}

TraceSpool::~TraceSpool() {
  try {
    Finish();
  } catch (...) {
    // Destructor path: a failed flush leaves a truncated segment, which the
    // reader handles; never throw out of a destructor.
  }
}

TraceSpool::Segment& TraceSpool::SegmentFor(Rank rank, bool hub) {
  if (finished_) throw ConfigError("TraceSpool: record added after Finish()");
  const auto key = std::make_pair(hub, hub ? Rank{-1} : rank);
  auto it = segments_.find(key);
  if (it == segments_.end()) {
    auto seg = std::make_unique<Segment>();
    seg->path = dir_ + (hub ? std::string("/hub.seg")
                            : StrFormat("/rank-%d.seg", rank));
    seg->out.open(seg->path, std::ios::binary | std::ios::trunc);
    if (!seg->out) {
      throw ConfigError("TraceSpool: cannot open segment '" + seg->path + "'");
    }
    std::string header(kHeaderMagic, sizeof(kHeaderMagic));
    header.push_back(hub ? '\1' : '\0');
    AppendVarint(&header, ZigZagEncode(hub ? -1 : rank));
    seg->out.write(header.data(), static_cast<std::streamsize>(header.size()));
    it = segments_.emplace(key, std::move(seg)).first;
  }
  return *it->second;
}

void TraceSpool::OnTraceEvent(const core::TraceEvent& event) {
  Segment& seg = SegmentFor(event.rank, /*hub=*/false);
  std::string rec;
  rec.push_back(static_cast<char>(SpoolRecord::Type::kEvent));
  rec.push_back(static_cast<char>(event.kind));
  AppendVarint(&rec, ZigZagEncode(static_cast<std::int64_t>(event.instret) -
                                  static_cast<std::int64_t>(seg.prev_event_instret)));
  AppendVarint(&rec, event.pc);
  AppendVarint(&rec, event.vaddr);
  AppendVarint(&rec, event.paddr);
  AppendVarint(&rec, event.size);
  AppendVarint(&rec, event.value);
  AppendVarint(&rec, event.taint);
  AppendVarint(&rec, ZigZagEncode(event.fd));
  AppendVarint(&rec, event.stream_off);
  seg.out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  seg.prev_event_instret = event.instret;
  seg.NoteInstret(event.instret);
  ++seg.footer.records;
  ++seg.footer.events;
  ++seg.footer.kind_counts[static_cast<std::size_t>(event.kind)];
  ++total_records_;
}

void TraceSpool::AddSample(const core::TaintSample& sample) {
  Segment& seg = SegmentFor(sample.rank, /*hub=*/false);
  std::string rec;
  rec.push_back(static_cast<char>(SpoolRecord::Type::kSample));
  AppendVarint(&rec, ZigZagEncode(static_cast<std::int64_t>(sample.instret) -
                                  static_cast<std::int64_t>(seg.prev_sample_instret)));
  AppendVarint(&rec, sample.tainted_bytes);
  seg.out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  seg.prev_sample_instret = sample.instret;
  seg.NoteInstret(sample.instret);
  ++seg.footer.records;
  ++seg.footer.samples;
  ++total_records_;
}

void TraceSpool::AddTransfer(const hub::TransferLogEntry& entry) {
  Segment& seg = SegmentFor(-1, /*hub=*/true);
  std::string rec;
  rec.push_back(static_cast<char>(SpoolRecord::Type::kTransfer));
  AppendVarint(&rec, ZigZagEncode(entry.id.src));
  AppendVarint(&rec, ZigZagEncode(entry.id.dest));
  AppendVarint(&rec, ZigZagEncode(entry.id.tag));
  AppendVarint(&rec, entry.id.seq);
  AppendVarint(&rec, entry.tainted_bytes);
  AppendVarint(&rec, entry.payload_bytes);
  AppendVarint(&rec, entry.src_vaddr);
  AppendVarint(&rec, entry.dest_vaddr);
  AppendVarint(&rec, entry.send_instret);
  AppendVarint(&rec, entry.recv_instret);
  AppendVarint(&rec, entry.hub_seq);
  seg.out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  ++seg.footer.records;
  ++seg.footer.transfers;
  ++total_records_;
}

void TraceSpool::SetMeta(const std::string& key, const std::string& value) {
  if (finished_) throw ConfigError("TraceSpool: SetMeta after Finish()");
  meta_[key] = value;
}

void TraceSpool::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [key, seg] : segments_) {
    const std::uint64_t footer_off =
        static_cast<std::uint64_t>(seg->out.tellp());
    std::string tail;
    tail.push_back(static_cast<char>(kFooterTag));
    AppendVarint(&tail, seg->footer.records);
    AppendVarint(&tail, seg->footer.events);
    AppendVarint(&tail, seg->footer.samples);
    AppendVarint(&tail, seg->footer.transfers);
    for (const std::uint64_t c : seg->footer.kind_counts) AppendVarint(&tail, c);
    AppendVarint(&tail, seg->footer.min_instret);
    AppendVarint(&tail, seg->footer.max_instret);
    AppendU64Le(&tail, footer_off);
    tail.append(kTrailerMagic, sizeof(kTrailerMagic));
    seg->out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
    seg->out.close();
    if (!seg->out) {
      throw ConfigError("TraceSpool: failed writing segment '" + seg->path + "'");
    }
  }
  std::ofstream meta(dir_ + "/meta.txt", std::ios::trunc);
  for (const auto& [k, v] : meta_) meta << k << '=' << v << '\n';
  meta.close();
  if (!meta) throw ConfigError("TraceSpool: failed writing '" + dir_ + "/meta.txt'");
}

// ---- Reader -------------------------------------------------------------------

SegmentReader::SegmentReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("SegmentReader: cannot open '" + path + "'");
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  buf_ = std::move(buf);

  if (buf_.size() < sizeof(kHeaderMagic) + 2 ||
      std::memcmp(buf_.data(), kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    throw ConfigError("SegmentReader: '" + path + "' is not a Chaser spool segment");
  }
  pos_ = sizeof(kHeaderMagic);
  is_hub_ = buf_[pos_++] != '\0';
  const auto rank_raw = DecodeVarint(buf_, &pos_);
  if (!rank_raw) {
    throw ConfigError("SegmentReader: '" + path + "' has a corrupt header");
  }
  rank_ = static_cast<Rank>(ZigZagDecode(*rank_raw));

  // Locate the footer through the fixed-size trailer; fall back to truncated
  // mode (decode as far as the bytes go) when it is missing or implausible.
  end_ = buf_.size();
  truncated_ = true;
  const std::size_t trailer_size = 8 + sizeof(kTrailerMagic);
  if (buf_.size() >= pos_ + trailer_size &&
      std::memcmp(buf_.data() + buf_.size() - sizeof(kTrailerMagic),
                  kTrailerMagic, sizeof(kTrailerMagic)) == 0) {
    const std::uint64_t footer_off =
        ReadU64Le(buf_.data() + buf_.size() - trailer_size);
    if (footer_off >= pos_ && footer_off < buf_.size() - trailer_size &&
        static_cast<std::uint8_t>(buf_[footer_off]) == kFooterTag) {
      std::size_t fpos = static_cast<std::size_t>(footer_off) + 1;
      SegmentFooter f;
      bool ok = true;
      const auto field = [&](std::uint64_t* out) {
        const auto v = DecodeVarint(buf_, &fpos);
        if (!v) { ok = false; return; }
        *out = *v;
      };
      field(&f.records);
      field(&f.events);
      field(&f.samples);
      field(&f.transfers);
      for (std::uint64_t& c : f.kind_counts) field(&c);
      field(&f.min_instret);
      field(&f.max_instret);
      if (ok) {
        footer_ = f;
        end_ = static_cast<std::size_t>(footer_off);
        truncated_ = false;
      }
    }
  }
}

bool SegmentReader::Next(SpoolRecord* out) {
  if (pos_ >= end_) return false;
  const std::size_t start = pos_;
  const auto fail = [&]() {
    truncated_ = true;
    footer_.reset();
    pos_ = start;
    end_ = start;  // stop iteration at the first undecodable record
    return false;
  };
  const auto tag = static_cast<std::uint8_t>(buf_[pos_++]);
  const auto u64 = [&](std::uint64_t* v) {
    const auto d = DecodeVarint(buf_, &pos_);
    if (!d) return false;
    *v = *d;
    return true;
  };
  switch (tag) {
    case static_cast<std::uint8_t>(SpoolRecord::Type::kEvent): {
      if (pos_ >= end_) return fail();
      const auto kind = static_cast<std::uint8_t>(buf_[pos_++]);
      if (kind >= core::kNumTraceEventKinds) return fail();
      core::TraceEvent e;
      e.kind = static_cast<core::TraceEventKind>(kind);
      e.rank = rank_;
      std::uint64_t delta = 0, size = 0, fd = 0;
      if (!u64(&delta) || !u64(&e.pc) || !u64(&e.vaddr) || !u64(&e.paddr) ||
          !u64(&size) || !u64(&e.value) || !u64(&e.taint) || !u64(&fd) ||
          !u64(&e.stream_off)) {
        return fail();
      }
      e.instret = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(prev_event_instret_) + ZigZagDecode(delta));
      e.size = static_cast<std::uint32_t>(size);
      e.fd = static_cast<int>(ZigZagDecode(fd));
      prev_event_instret_ = e.instret;
      out->type = SpoolRecord::Type::kEvent;
      out->event = e;
      return true;
    }
    case static_cast<std::uint8_t>(SpoolRecord::Type::kSample): {
      core::TaintSample s;
      s.rank = rank_;
      std::uint64_t delta = 0;
      if (!u64(&delta) || !u64(&s.tainted_bytes)) return fail();
      s.instret = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(prev_sample_instret_) + ZigZagDecode(delta));
      prev_sample_instret_ = s.instret;
      out->type = SpoolRecord::Type::kSample;
      out->sample = s;
      return true;
    }
    case static_cast<std::uint8_t>(SpoolRecord::Type::kTransfer): {
      hub::TransferLogEntry t;
      std::uint64_t src = 0, dest = 0, tag_field = 0;
      if (!u64(&src) || !u64(&dest) || !u64(&tag_field) || !u64(&t.id.seq) ||
          !u64(&t.tainted_bytes) || !u64(&t.payload_bytes) ||
          !u64(&t.src_vaddr) || !u64(&t.dest_vaddr) || !u64(&t.send_instret) ||
          !u64(&t.recv_instret) || !u64(&t.hub_seq)) {
        return fail();
      }
      t.id.src = static_cast<Rank>(ZigZagDecode(src));
      t.id.dest = static_cast<Rank>(ZigZagDecode(dest));
      t.id.tag = ZigZagDecode(tag_field);
      out->type = SpoolRecord::Type::kTransfer;
      out->transfer = t;
      return true;
    }
    default:
      return fail();
  }
}

// ---- Trial loader -------------------------------------------------------------

bool IsTrialSpoolDir(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".seg") return true;
  }
  return false;
}

TrialSpool ReadTrialSpool(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> seg_paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".seg") {
      seg_paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw ConfigError("ReadTrialSpool: cannot list '" + dir + "': " + ec.message());
  }
  if (seg_paths.empty()) {
    throw ConfigError("ReadTrialSpool: no .seg files in '" + dir + "'");
  }

  std::vector<SegmentReader> readers;
  readers.reserve(seg_paths.size());
  for (const std::string& p : seg_paths) readers.emplace_back(p);
  // Deterministic merge order: rank segments ascending, hub last.
  std::sort(readers.begin(), readers.end(),
            [](const SegmentReader& a, const SegmentReader& b) {
              if (a.is_hub() != b.is_hub()) return !a.is_hub();
              return a.rank() < b.rank();
            });

  TrialSpool trial;
  for (SegmentReader& r : readers) {
    SpoolRecord rec;
    while (r.Next(&rec)) {
      switch (rec.type) {
        case SpoolRecord::Type::kEvent: trial.events.push_back(rec.event); break;
        case SpoolRecord::Type::kSample: trial.samples.push_back(rec.sample); break;
        case SpoolRecord::Type::kTransfer:
          trial.transfers.push_back(rec.transfer);
          break;
      }
    }
    trial.truncated = trial.truncated || r.truncated();
  }
  std::sort(trial.transfers.begin(), trial.transfers.end(),
            [](const hub::TransferLogEntry& a, const hub::TransferLogEntry& b) {
              return a.hub_seq < b.hub_seq;
            });

  std::ifstream meta(dir + "/meta.txt");
  std::string line;
  while (std::getline(meta, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    trial.meta[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return trial;
}

}  // namespace chaser::analysis
