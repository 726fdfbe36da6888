#include "store/ctr.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "common/crc32.h"
#include "common/error.h"
#include "common/strings.h"
#include "net/frame.h"

namespace chaser::store {

namespace fs = std::filesystem;

using net::AppendVarint;
using net::DecodeVarint;
using net::ZigZagDecode;
using net::ZigZagEncode;

namespace {

constexpr char kCtrMagic[8] = {'C', 'H', 'S', 'C', 'T', 'R', '0', '1'};

// Frame payload tags.
constexpr char kTagHeader = 0x01;
constexpr char kTagBlock = 0x02;
constexpr char kTagFooter = 0x03;

// Column payload modes.
constexpr char kModeRaw = 0;
constexpr char kModeConst = 1;
constexpr char kModeDelta = 2;
constexpr char kModePacked = 3;
constexpr char kModePackedDelta = 4;

/// Upper bound on one frame: the hub wire's. A block of 512 records is a
/// few KiB even with pathological strings in the dictionary prelude;
/// anything larger is a corrupt length varint.
constexpr std::uint64_t kMaxCtrFrame = net::kMaxFramePayload;

// FNV-1a over the 8 LE bytes of each run_seed, chained across every record
// of the store. Footers carry the running value so a resume can verify the
// re-derived seed sequence against the stored prefix without decoding
// anything but this one column.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvStep(std::uint64_t h, std::uint64_t seed) {
  for (int i = 0; i < 8; ++i) {
    h ^= (seed >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// sample_weight is stored as its IEEE-754 bit pattern XORed with the bits of
// 1.0: the overwhelmingly common weight 1.0 becomes 0 and const-collapses,
// while any other weight round-trips exactly (resume and estimators need the
// identical double).
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ull;

std::uint64_t WeightToBits(double w) {
  std::uint64_t b = 0;
  std::memcpy(&b, &w, sizeof(b));
  return b ^ kOneBits;
}

double BitsToWeight(std::uint64_t b) {
  b ^= kOneBits;
  double w = 0.0;
  std::memcpy(&w, &b, sizeof(w));
  return w;
}

void AppendU64Le(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t ReadU32Le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> ReadU64Le(const std::string& buf,
                                       std::size_t* pos) {
  if (buf.size() - *pos < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(buf[*pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  *pos += 8;
  return v;
}

/// Slurp a whole file in one read (istreambuf_iterator pulls a character at
/// a time — at segment sizes that dominates the entire scan).
void ReadWholeFile(std::ifstream& in, std::string* out) {
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  out->resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  if (!out->empty()) in.read(out->data(), static_cast<std::streamsize>(size));
  if (in.gcount() != size) out->resize(static_cast<std::size_t>(in.gcount()));
}

/// Extract the next intact frame's payload. False when the tail from `*pos`
/// is torn: short, overlong, or failing its CRC — the caller serves the
/// intact prefix before it.
bool NextFrame(const std::string& buf, std::size_t* pos, std::string* payload) {
  std::size_t p = *pos;
  const auto len = DecodeVarint(buf, &p);
  if (!len || *len == 0 || *len > kMaxCtrFrame || *len > buf.size() - p ||
      buf.size() - p - *len < 4) {
    return false;
  }
  const std::size_t n = static_cast<std::size_t>(*len);
  if (Crc32(buf.data() + p, n) != ReadU32Le(buf.data() + p + n)) return false;
  payload->assign(buf, p, n);
  *pos = p + n + 4;
  return true;
}

unsigned BitWidth(std::uint64_t v) {
  unsigned w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// LSB-first fixed-width packing: value i occupies bits [i*w, (i+1)*w); the
/// last byte is zero-padded. The 128-bit accumulator keeps the byte shifts
/// in range for every width up to 64.
void PackBits(std::string* out, const std::vector<std::uint64_t>& v,
              unsigned w) {
  const std::uint64_t mask = w >= 64 ? ~0ull : (1ull << w) - 1;
  unsigned __int128 acc = 0;
  unsigned nbits = 0;
  for (std::uint64_t x : v) {
    acc |= static_cast<unsigned __int128>(x & mask) << nbits;
    nbits += w;
    while (nbits >= 8) {
      out->push_back(static_cast<char>(static_cast<std::uint64_t>(acc) & 0xff));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) {
    out->push_back(static_cast<char>(static_cast<std::uint64_t>(acc) & 0xff));
  }
}

/// Append `count` w-bit values from `payload` to `*out`. The packed run must
/// extend exactly to `end` — widths and counts are fixed, so any other
/// length is corruption.
bool UnpackBits(const std::string& payload, std::size_t* pos, std::size_t end,
                std::uint64_t count, unsigned w,
                std::vector<std::uint64_t>* out) {
  const std::uint64_t need = (count * w + 7) / 8;
  if (end - *pos != need) return false;
  const auto* p =
      reinterpret_cast<const unsigned char*>(payload.data()) + *pos;
  const std::uint64_t mask = w >= 64 ? ~0ull : (1ull << w) - 1;
  // Byte-order-independent little-endian 64-bit load; compilers fold the
  // shift chain into a single load on little-endian targets.
  const auto le64 = [](const unsigned char* q) {
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(q[k]) << (8 * k);
    return v;
  };
  if (w == 64) {
    for (std::uint64_t i = 0; i < count; ++i) out->push_back(le64(p + 8 * i));
  } else if (w <= 56) {
    // A value at bit offset b spans at most ceil((56+7)/8)=8 bytes, so one
    // windowed 64-bit load covers it; the tail loop handles offsets whose
    // window would read past `need`.
    std::uint64_t bit = 0;
    std::uint64_t i = 0;
    for (; i < count; ++i, bit += w) {
      const std::size_t byte = static_cast<std::size_t>(bit >> 3);
      if (byte + 8 > need) break;
      out->push_back((le64(p + byte) >> (bit & 7)) & mask);
    }
    for (; i < count; ++i, bit += w) {
      const std::size_t byte = static_cast<std::size_t>(bit >> 3);
      std::uint64_t window = 0;
      const std::size_t lim = static_cast<std::size_t>(need);
      for (std::size_t k = byte; k < lim && k < byte + 8; ++k) {
        window |= static_cast<std::uint64_t>(p[k]) << (8 * (k - byte));
      }
      out->push_back((window >> (bit & 7)) & mask);
    }
  } else {
    // 57..63 bits: a value plus its bit offset can exceed 64 bits, so keep
    // the wide accumulator for these rare widths.
    unsigned __int128 acc = 0;
    unsigned nbits = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      while (nbits < w) {
        acc |= static_cast<unsigned __int128>(*p++) << nbits;
        nbits += 8;
      }
      out->push_back(static_cast<std::uint64_t>(acc) & mask);
      acc >>= w;
      nbits -= w;
    }
  }
  *pos += static_cast<std::size_t>(need);
  return true;
}

/// The writer's deterministic column encoding: const when every value is
/// equal; otherwise the smallest of raw varints, first+zigzag-delta varints,
/// fixed-width bit packing, and bit-packed deltas — ties resolve to the
/// earliest candidate, so the choice is a pure function of the values.
void EncodeColumn(std::string* out, const std::vector<std::uint64_t>& v) {
  bool all_equal = true;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] != v[0]) {
      all_equal = false;
      break;
    }
  }
  std::string payload;
  char mode = kModeRaw;
  if (all_equal) {
    mode = kModeConst;
    AppendVarint(&payload, v.empty() ? 0 : v[0]);
  } else {
    std::string raw;
    unsigned raw_width = 0;
    for (std::uint64_t x : v) {
      AppendVarint(&raw, x);
      raw_width = std::max(raw_width, BitWidth(x));
    }
    // Unsigned subtraction wraps mod 2^64; the decoder adds it back the
    // same way, so any value sequence round-trips.
    std::vector<std::uint64_t> zz(v.size() - 1);
    std::string delta;
    unsigned delta_width = 0;
    AppendVarint(&delta, v[0]);
    for (std::size_t i = 1; i < v.size(); ++i) {
      zz[i - 1] = ZigZagEncode(static_cast<std::int64_t>(v[i] - v[i - 1]));
      AppendVarint(&delta, zz[i - 1]);
      delta_width = std::max(delta_width, BitWidth(zz[i - 1]));
    }
    std::string packed;
    AppendVarint(&packed, raw_width);
    PackBits(&packed, v, raw_width);
    std::string packed_delta;
    AppendVarint(&packed_delta, delta_width);
    AppendVarint(&packed_delta, v[0]);
    PackBits(&packed_delta, zz, delta_width);

    payload = std::move(raw);
    if (delta.size() < payload.size()) {
      mode = kModeDelta;
      payload = std::move(delta);
    }
    if (packed.size() < payload.size()) {
      mode = kModePacked;
      payload = std::move(packed);
    }
    if (packed_delta.size() < payload.size()) {
      mode = kModePackedDelta;
      payload = std::move(packed_delta);
    }
  }
  out->push_back(mode);
  AppendVarint(out, payload.size());
  out->append(payload);
}

/// Decode (or skip, when !wanted) one column payload of `count` values.
bool DecodeColumn(const std::string& payload, std::size_t* pos,
                  std::uint64_t count, bool wanted,
                  std::vector<std::uint64_t>* out) {
  if (*pos >= payload.size()) return false;
  const char mode = payload[(*pos)++];
  const auto len = DecodeVarint(payload, pos);
  if (!len || *len > payload.size() - *pos) return false;
  const std::size_t end = *pos + static_cast<std::size_t>(*len);
  if (!wanted) {
    *pos = end;
    return true;
  }
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  if (mode == kModeConst) {
    const auto v = DecodeVarint(payload, pos);
    if (!v) return false;
    out->assign(static_cast<std::size_t>(count), *v);
  } else if (mode == kModeRaw) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto v = DecodeVarint(payload, pos);
      if (!v) return false;
      out->push_back(*v);
    }
  } else if (mode == kModeDelta) {
    const auto first = DecodeVarint(payload, pos);
    if (!first) return false;
    out->push_back(*first);
    std::uint64_t prev = *first;
    for (std::uint64_t i = 1; i < count; ++i) {
      const auto d = DecodeVarint(payload, pos);
      if (!d) return false;
      prev += static_cast<std::uint64_t>(ZigZagDecode(*d));
      out->push_back(prev);
    }
  } else if (mode == kModePacked) {
    const auto w = DecodeVarint(payload, pos);
    if (!w || *w == 0 || *w > 64) return false;
    if (!UnpackBits(payload, pos, end, count, static_cast<unsigned>(*w),
                    out)) {
      return false;
    }
  } else if (mode == kModePackedDelta) {
    const auto w = DecodeVarint(payload, pos);
    if (!w || *w == 0 || *w > 64) return false;
    const auto first = DecodeVarint(payload, pos);
    if (!first) return false;
    out->push_back(*first);
    if (!UnpackBits(payload, pos, end, count - 1, static_cast<unsigned>(*w),
                    out)) {
      return false;
    }
    std::uint64_t prev = *first;
    for (std::uint64_t i = 1; i < count; ++i) {
      prev += static_cast<std::uint64_t>(ZigZagDecode((*out)[i]));
      (*out)[i] = prev;
    }
  } else {
    return false;
  }
  return *pos == end;
}

/// Decode a data-block payload (past the tag byte): record count, dict
/// prelude (appended to `*dict`), then the kNumColumns column payloads,
/// decoding only those in `mask`.
bool DecodeBlockPayload(const std::string& payload, ColumnMask mask,
                        std::vector<std::string>* dict,
                        std::vector<std::uint64_t> cols[kNumColumns],
                        std::uint64_t* count) {
  std::size_t pos = 1;  // past the tag
  const auto n = DecodeVarint(payload, &pos);
  if (!n || *n == 0 || *n > kMaxCtrFrame) return false;
  const auto new_entries = DecodeVarint(payload, &pos);
  if (!new_entries || *new_entries > payload.size() - pos) return false;
  for (std::uint64_t i = 0; i < *new_entries; ++i) {
    const auto len = DecodeVarint(payload, &pos);
    if (!len || *len > payload.size() - pos) return false;
    dict->push_back(payload.substr(pos, static_cast<std::size_t>(*len)));
    pos += static_cast<std::size_t>(*len);
  }
  for (unsigned c = 0; c < kNumColumns; ++c) {
    if (!DecodeColumn(payload, &pos, *n, (mask >> c) & 1u, &cols[c])) {
      return false;
    }
  }
  if (pos != payload.size()) return false;
  *count = *n;
  return true;
}

struct DecodedHeader {
  CtrStoreInfo info;
  std::uint64_t segment_index = 0;
  std::uint64_t base_records = 0;
};

bool DecodeHeaderPayload(const std::string& payload, DecodedHeader* out) {
  if (payload.empty() || payload[0] != kTagHeader) return false;
  std::size_t pos = 1;
  const auto u64 = [&](std::uint64_t* v) {
    const auto d = DecodeVarint(payload, &pos);
    if (!d) return false;
    *v = *d;
    return true;
  };
  std::uint64_t policy = 0, app_len = 0;
  if (!u64(&out->info.format_version) || !u64(&out->info.campaign_seed) ||
      !u64(&app_len) || app_len > payload.size() - pos) {
    return false;
  }
  out->info.app = payload.substr(pos, static_cast<std::size_t>(app_len));
  pos += static_cast<std::size_t>(app_len);
  if (!u64(&policy) ||
      policy > static_cast<std::uint64_t>(
                   campaign::SamplePolicy::kStratified) ||
      !u64(&out->info.shard_index) || !u64(&out->info.shard_count) ||
      !u64(&out->segment_index) || !u64(&out->base_records) ||
      pos != payload.size()) {
    return false;
  }
  out->info.sample_policy = static_cast<campaign::SamplePolicy>(policy);
  return true;
}

std::string EncodeHeaderPayload(const CtrStoreInfo& info,
                                std::uint64_t segment_index,
                                std::uint64_t base_records) {
  std::string payload(1, kTagHeader);
  AppendVarint(&payload, info.format_version);
  AppendVarint(&payload, info.campaign_seed);
  AppendVarint(&payload, info.app.size());
  payload.append(info.app);
  AppendVarint(&payload, static_cast<std::uint64_t>(info.sample_policy));
  AppendVarint(&payload, info.shard_index);
  AppendVarint(&payload, info.shard_count);
  AppendVarint(&payload, segment_index);
  AppendVarint(&payload, base_records);
  return payload;
}

struct DecodedFooter {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  std::uint64_t fnv = 0;
  std::uint64_t dict_count = 0;
};

bool DecodeFooterPayload(const std::string& payload, DecodedFooter* out) {
  if (payload.empty() || payload[0] != kTagFooter) return false;
  std::size_t pos = 1;
  const auto records = DecodeVarint(payload, &pos);
  if (!records) return false;
  const auto blocks = DecodeVarint(payload, &pos);
  if (!blocks) return false;
  const auto fnv = ReadU64Le(payload, &pos);
  if (!fnv) return false;
  const auto dict = DecodeVarint(payload, &pos);
  if (!dict || pos != payload.size()) return false;
  out->records = *records;
  out->blocks = *blocks;
  out->fnv = *fnv;
  out->dict_count = *dict;
  return true;
}

std::string SegmentName(std::uint64_t index) {
  return StrFormat("seg-%06llu.ctr", static_cast<unsigned long long>(index));
}

std::vector<std::string> ListSegments(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (StartsWith(name, "seg-") && name.size() > 8 &&
        name.substr(name.size() - 4) == ".ctr") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Everything the writer's resume path recovers from one segment file: the
/// decoded header, the intact frame prefix, the record count and run_seed
/// sequence of that prefix, the rebuilt dictionary, and the footer when the
/// segment is sealed.
struct SegmentScan {
  bool header_ok = false;  // magic + header frame intact
  DecodedHeader header;
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> dict{""};
  bool sealed = false;
  DecodedFooter footer;
  std::uint64_t intact_bytes = 0;  // offset one past the last intact frame
  // State just before the last intact block, so a resume can drop a partial
  // trailing block (see the writer constructor).
  std::uint64_t last_block_count = 0;
  std::uint64_t bytes_before_last_block = 0;
  std::size_t dict_before_last_block = 1;
};

/// Refuse a segment of any format but this build's: an older store's
/// blocks hold other columns, so reading or appending to one would corrupt
/// every record.
void CheckFormatVersion(std::uint64_t found, const char* who,
                        const std::string& path) {
  if (found != kCtrFormatVersion) {
    throw ConfigError(StrFormat(
        "%s: '%s' is format v%llu; this build reads and writes only v%llu",
        who, path.c_str(), static_cast<unsigned long long>(found),
        static_cast<unsigned long long>(kCtrFormatVersion)));
  }
}

SegmentScan ScanSegmentFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("CtrStore: cannot open '" + path + "'");
  std::string buf;
  ReadWholeFile(in, &buf);

  SegmentScan scan;
  if (buf.size() < sizeof(kCtrMagic) ||
      std::memcmp(buf.data(), kCtrMagic, sizeof(kCtrMagic)) != 0) {
    return scan;  // header_ok stays false
  }
  std::size_t pos = sizeof(kCtrMagic);
  std::string payload;
  if (!NextFrame(buf, &pos, &payload) ||
      !DecodeHeaderPayload(payload, &scan.header)) {
    return scan;
  }
  CheckFormatVersion(scan.header.info.format_version, "CtrStore", path);
  scan.header_ok = true;
  scan.intact_bytes = pos;

  while (pos < buf.size()) {
    if (!NextFrame(buf, &pos, &payload)) break;  // torn tail
    if (!payload.empty() && payload[0] == kTagBlock) {
      scan.bytes_before_last_block = scan.intact_bytes;
      scan.dict_before_last_block = scan.dict.size();
      std::vector<std::uint64_t> cols[kNumColumns];
      std::uint64_t count = 0;
      if (!DecodeBlockPayload(payload, MaskOf(kColRunSeed), &scan.dict, cols,
                              &count)) {
        throw ConfigError("CtrStore: '" + path +
                          "' has a corrupt data block behind a valid CRC");
      }
      scan.seeds.insert(scan.seeds.end(), cols[kColRunSeed].begin(),
                        cols[kColRunSeed].end());
      scan.records += count;
      scan.last_block_count = count;
      ++scan.blocks;
      scan.intact_bytes = pos;
    } else if (!payload.empty() && payload[0] == kTagFooter) {
      if (!DecodeFooterPayload(payload, &scan.footer)) {
        throw ConfigError("CtrStore: '" + path + "' has a corrupt footer");
      }
      if (pos != buf.size()) {
        throw ConfigError("CtrStore: '" + path + "' has data after its footer");
      }
      scan.sealed = true;
      scan.intact_bytes = pos;
    } else {
      throw ConfigError("CtrStore: '" + path + "' has an unknown frame tag");
    }
  }
  return scan;
}

void CheckIdentity(const CtrStoreInfo& found, const CtrStoreInfo& want,
                   const std::string& path) {
  if (found.campaign_seed != want.campaign_seed || found.app != want.app ||
      found.sample_policy != want.sample_policy ||
      found.shard_index != want.shard_index ||
      found.shard_count != want.shard_count) {
    throw ConfigError(StrFormat(
        "CtrStore: '%s' belongs to campaign (app '%s', seed %llu, policy %s, "
        "shard %llu/%llu), not (app '%s', seed %llu, policy %s, shard "
        "%llu/%llu) — refusing to mix trial sets",
        path.c_str(), found.app.c_str(),
        static_cast<unsigned long long>(found.campaign_seed),
        campaign::SamplePolicyName(found.sample_policy),
        static_cast<unsigned long long>(found.shard_index),
        static_cast<unsigned long long>(found.shard_count), want.app.c_str(),
        static_cast<unsigned long long>(want.campaign_seed),
        campaign::SamplePolicyName(want.sample_policy),
        static_cast<unsigned long long>(want.shard_index),
        static_cast<unsigned long long>(want.shard_count)));
  }
}

}  // namespace

bool IsCtrStorePath(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) return !ListSegments(path).empty();
  if (!fs::is_regular_file(path, ec)) return false;
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kCtrMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kCtrMagic, sizeof(kCtrMagic)) == 0;
}

// ---- Writer -----------------------------------------------------------------

CtrStoreWriter::CtrStoreWriter(std::string dir, const CtrStoreInfo& identity,
                               CtrWriterOptions options)
    : dir_(std::move(dir)), info_(identity), options_(options), fnv_(kFnvBasis) {
  info_.format_version = kCtrFormatVersion;
  if (options_.block_records == 0) {
    throw ConfigError("CtrStoreWriter: block_records must be > 0");
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw ConfigError("CtrStoreWriter: cannot create '" + dir_ +
                      "': " + ec.message());
  }

  const std::vector<std::string> segs = ListSegments(dir_);
  if (!options_.resume) {
    for (const std::string& p : segs) {
      fs::remove(p, ec);
      if (ec) {
        throw ConfigError("CtrStoreWriter: cannot remove stale segment '" + p +
                          "': " + ec.message());
      }
    }
    return;
  }
  if (segs.empty()) return;

  std::uint64_t running = kFnvBasis;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const bool last = (i + 1 == segs.size());
    SegmentScan scan = ScanSegmentFile(segs[i]);
    if (!scan.header_ok) {
      // A crash can leave a half-created *last* segment with no intact
      // header; it holds no records, so drop it and continue from the
      // previous one. Anywhere else it is corruption.
      if (last) {
        fs::remove(segs[i], ec);
        break;
      }
      throw ConfigError("CtrStoreWriter: '" + segs[i] +
                        "' has no intact header");
    }
    CheckIdentity(scan.header.info, info_, segs[i]);
    if (scan.header.segment_index != i || scan.header.base_records != total) {
      throw ConfigError("CtrStoreWriter: '" + segs[i] +
                        "' is out of sequence with its store");
    }
    if (last && !scan.sealed && scan.blocks > 0 &&
        scan.last_block_count != options_.block_records) {
      // A partial block below a footer only exists when a crash cut Finish()
      // down mid-seal. Mid-run, the uninterrupted writer would have filled
      // that block further, so keeping it would skew every later block
      // boundary off the deterministic layout. Drop it — its records are
      // simply re-written — and the resumed byte stream converges again.
      scan.intact_bytes = scan.bytes_before_last_block;
      scan.records -= scan.last_block_count;
      scan.seeds.resize(scan.seeds.size() -
                        static_cast<std::size_t>(scan.last_block_count));
      --scan.blocks;
      scan.dict.resize(scan.dict_before_last_block);
    }
    for (std::uint64_t seed : scan.seeds) running = FnvStep(running, seed);
    total += scan.records;
    if (!last) {
      if (!scan.sealed) {
        throw ConfigError("CtrStoreWriter: unsealed segment '" + segs[i] +
                          "' is not the last segment of its store");
      }
      if (scan.footer.records != scan.records || scan.footer.fnv != running) {
        throw ConfigError("CtrStoreWriter: '" + segs[i] +
                          "' footer disagrees with its blocks");
      }
      continue;
    }
    if (scan.sealed) {
      if (scan.footer.records != scan.records || scan.footer.fnv != running) {
        throw ConfigError("CtrStoreWriter: '" + segs[i] +
                          "' footer disagrees with its blocks");
      }
      segment_index_ = i + 1;
      base_records_ = total;
    } else {
      // Cut the torn tail off before appending: new frames after garbage
      // would be unreachable to a prefix-disciplined reader.
      fs::resize_file(segs[i], scan.intact_bytes, ec);
      if (ec) {
        throw ConfigError("CtrStoreWriter: cannot truncate torn tail of '" +
                          segs[i] + "': " + ec.message());
      }
      file_ = std::fopen(segs[i].c_str(), "ab");
      if (file_ == nullptr) {
        throw ConfigError("CtrStoreWriter: cannot reopen '" + segs[i] +
                          "' for append");
      }
      segment_index_ = i;
      base_records_ = total - scan.records;
      segment_bytes_ = scan.intact_bytes;
      segment_records_ = scan.records;
      segment_blocks_ = scan.blocks;
      for (std::size_t id = 1; id < scan.dict.size(); ++id) {
        dict_map_.emplace(scan.dict[id], id);
      }
      dict_size_ = scan.dict.size();
    }
  }
  stored_count_ = total;
  recovered_fnv_ = running;
}

CtrStoreWriter::~CtrStoreWriter() {
  try {
    Finish();
  } catch (...) {
    // Destructor cleanup must not throw; an explicit Finish() surfaces
    // errors to callers that care.
  }
  if (file_ != nullptr) std::fclose(file_);
}

std::uint64_t CtrStoreWriter::DictId(const std::string& s) {
  if (s.empty()) return 0;
  const auto it = dict_map_.find(s);
  if (it != dict_map_.end()) return it->second;
  const std::uint64_t id = dict_size_++;
  dict_map_.emplace(s, id);
  new_dict_entries_.push_back(s);
  return id;
}

void CtrStoreWriter::Add(const campaign::RunRecord& rec) {
  if (finished_) {
    throw ConfigError("CtrStoreWriter: Add after Finish on '" + dir_ + "'");
  }
  fnv_ = FnvStep(fnv_, rec.run_seed);
  ++added_;
  if (added_ <= stored_count_) {
    // Skip-verify: this record is already on disk. The hash chain is checked
    // once, at the boundary — any divergence in the skipped prefix lands
    // there, before a single new byte is written.
    if (added_ == stored_count_ && fnv_ != recovered_fnv_) {
      throw ConfigError(
          "CtrStoreWriter: resumed store '" + dir_ +
          "' holds a different trial sequence than this campaign (seed-hash "
          "mismatch) — refusing to append");
    }
    return;
  }

  std::uint64_t v[kNumColumns];
  v[kColRunSeed] = rec.run_seed;
  v[kColOutcome] = static_cast<std::uint64_t>(rec.outcome);
  v[kColKind] = static_cast<std::uint64_t>(rec.kind);
  v[kColSignal] = static_cast<std::uint64_t>(rec.signal);
  v[kColInjectRank] = ZigZagEncode(rec.inject_rank);
  v[kColFailureRank] = ZigZagEncode(rec.failure_rank);
  v[kColFlags] = (rec.deadlock ? 1u : 0u) |
                 (rec.propagated_cross_rank ? 2u : 0u) |
                 (rec.propagated_cross_node ? 4u : 0u);
  v[kColInjections] = rec.injections;
  v[kColTaintedReads] = rec.tainted_reads;
  v[kColTaintedWrites] = rec.tainted_writes;
  v[kColPeakTaintedBytes] = rec.peak_tainted_bytes;
  v[kColTaintedOutputBytes] = rec.tainted_output_bytes;
  v[kColTriggerNth] = rec.trigger_nth;
  v[kColFlipBits] = rec.flip_bits;
  v[kColInstructions] = rec.instructions;
  v[kColTraceDropped] = rec.trace_dropped;
  v[kColTaintLost] = rec.taint_lost;
  v[kColRetries] = rec.retries;
  v[kColInjectPc] = rec.inject_pc;
  v[kColInjectClass] = static_cast<std::uint64_t>(rec.inject_class);
  v[kColSampleWeight] = WeightToBits(rec.sample_weight);
  v[kColInjector] = DictId(rec.injector);
  v[kColFaultClass] = DictId(rec.fault_class);
  v[kColInfraError] = DictId(rec.infra_error);
  for (unsigned c = 0; c < kNumColumns; ++c) cols_[c].push_back(v[c]);

  if (cols_[0].size() >= options_.block_records) FlushBlock();
}

void CtrStoreWriter::EnsureSegmentOpen() {
  if (file_ != nullptr) return;
  const std::string path = dir_ + "/" + SegmentName(segment_index_);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw ConfigError("CtrStoreWriter: cannot create '" + path + "'");
  }
  if (std::fwrite(kCtrMagic, 1, sizeof(kCtrMagic), file_) !=
      sizeof(kCtrMagic)) {
    throw ConfigError("CtrStoreWriter: cannot write magic of '" + path + "'");
  }
  segment_bytes_ = sizeof(kCtrMagic);
  WriteFrame(EncodeHeaderPayload(info_, segment_index_, base_records_));
}

void CtrStoreWriter::WriteFrame(const std::string& payload) {
  std::string frame;
  net::AppendFrame(&frame, payload);
  // One fwrite per frame keeps frames contiguous; the fsync bounds how much
  // a crash can tear to the current frame. A resumed campaign reruns the
  // trials of a block torn off here: they are pure functions of their seed.
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw ConfigError("CtrStoreWriter: write failed in '" + dir_ + "'");
  }
  segment_bytes_ += frame.size();
}

void CtrStoreWriter::FlushBlock() {
  const std::uint64_t n = cols_[0].size();
  if (n == 0) return;
  EnsureSegmentOpen();
  std::string payload(1, kTagBlock);
  AppendVarint(&payload, n);
  AppendVarint(&payload, new_dict_entries_.size());
  for (const std::string& s : new_dict_entries_) {
    AppendVarint(&payload, s.size());
    payload.append(s);
  }
  for (unsigned c = 0; c < kNumColumns; ++c) {
    EncodeColumn(&payload, cols_[c]);
    cols_[c].clear();
  }
  new_dict_entries_.clear();
  WriteFrame(payload);
  ++segment_blocks_;
  segment_records_ += n;
  if (segment_bytes_ >= options_.segment_cap_bytes) SealSegment();
}

void CtrStoreWriter::SealSegment() {
  if (file_ == nullptr) return;
  std::string payload(1, kTagFooter);
  AppendVarint(&payload, segment_records_);
  AppendVarint(&payload, segment_blocks_);
  AppendU64Le(&payload, fnv_);
  AppendVarint(&payload, dict_size_);
  WriteFrame(payload);
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    throw ConfigError("CtrStoreWriter: close failed in '" + dir_ + "'");
  }
  file_ = nullptr;
  base_records_ += segment_records_;
  ++segment_index_;
  segment_bytes_ = 0;
  segment_records_ = 0;
  segment_blocks_ = 0;
  dict_map_.clear();
  dict_size_ = 1;
}

void CtrStoreWriter::Finish() {
  if (finished_) return;
  if (added_ < stored_count_) {
    throw ConfigError(StrFormat(
        "CtrStoreWriter: '%s' already holds %llu records but this campaign "
        "produced only %llu — it belongs to a longer run",
        dir_.c_str(), static_cast<unsigned long long>(stored_count_),
        static_cast<unsigned long long>(added_)));
  }
  FlushBlock();
  // A fresh, empty campaign still materializes one sealed (header + footer)
  // segment so the store is well-formed and scannable.
  if (file_ == nullptr && segment_index_ == 0 && stored_count_ == 0) {
    EnsureSegmentOpen();
  }
  SealSegment();
  finished_ = true;
}

campaign::RecordStream CtrStoreWriter::Replay() const {
  if (stored_count_ == 0) return nullptr;
  auto scanner = std::make_shared<CtrStoreScanner>(dir_);
  return [scanner](campaign::RunRecord* out) { return scanner->Next(out); };
}

// ---- Scanner ----------------------------------------------------------------

CtrStoreScanner::CtrStoreScanner(const std::string& path, ColumnMask mask)
    : mask_(mask) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    segment_paths_ = ListSegments(path);
    if (segment_paths_.empty()) {
      throw ConfigError("CtrStoreScanner: '" + path + "' has no segments");
    }
  } else if (fs::is_regular_file(path, ec)) {
    segment_paths_.push_back(path);
  } else {
    throw ConfigError("CtrStoreScanner: no CTR store at '" + path + "'");
  }
  fnv_ = kFnvBasis;
  if (!LoadNextSegment()) {
    // A store whose very first segment has no intact header serves nothing.
    if (!truncated_) {
      throw ConfigError("CtrStoreScanner: '" + path + "' has no readable data");
    }
  }
}

bool CtrStoreScanner::LoadNextSegment() {
  if (truncated_ || done_) return false;
  if (next_segment_ >= segment_paths_.size()) {
    done_ = true;
    return false;
  }
  const std::string& path = segment_paths_[next_segment_];
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("CtrStoreScanner: cannot open '" + path + "'");
  ReadWholeFile(in, &buf_);

  if (buf_.size() < sizeof(kCtrMagic) ||
      std::memcmp(buf_.data(), kCtrMagic, sizeof(kCtrMagic)) != 0) {
    if (have_info_) {
      // A torn final segment (crash during creation): serve the prefix.
      truncated_ = true;
      sealed_ = false;
      return false;
    }
    throw ConfigError("CtrStoreScanner: '" + path +
                      "' is not a CTR store segment");
  }
  pos_ = sizeof(kCtrMagic);
  std::string payload;
  DecodedHeader header;
  if (!NextFrame(buf_, &pos_, &payload) ||
      !DecodeHeaderPayload(payload, &header)) {
    if (have_info_) {
      truncated_ = true;
      sealed_ = false;
      return false;
    }
    throw ConfigError("CtrStoreScanner: '" + path + "' has no intact header");
  }
  CheckFormatVersion(header.info.format_version, "CtrStoreScanner", path);
  if (!have_info_) {
    info_ = header.info;
    have_info_ = true;
  } else if (header.info.campaign_seed != info_.campaign_seed ||
             header.info.app != info_.app ||
             header.info.sample_policy != info_.sample_policy ||
             header.info.shard_index != info_.shard_index ||
             header.info.shard_count != info_.shard_count) {
    throw ConfigError("CtrStoreScanner: '" + path +
                      "' belongs to a different campaign than its store");
  }
  if (header.segment_index != next_segment_ || header.base_records != rows_) {
    throw ConfigError("CtrStoreScanner: '" + path +
                      "' is out of sequence with its store");
  }
  ++next_segment_;
  in_segment_ = true;
  segment_sealed_ = false;
  segment_records_ = 0;
  segment_blocks_ = 0;
  dict_.assign(1, "");
  return true;
}

bool CtrStoreScanner::DecodeNextBlock() {
  for (;;) {
    if (!in_segment_) {
      if (!LoadNextSegment()) return false;
    }
    if (pos_ >= buf_.size()) {
      // Segment ends without a footer: the writer died after its last
      // intact block. Everything decoded so far is served; nothing after
      // this segment can exist in a well-formed store.
      in_segment_ = false;
      sealed_ = false;
      if (next_segment_ < segment_paths_.size()) truncated_ = true;
      done_ = true;
      return false;
    }
    std::string payload;
    if (!NextFrame(buf_, &pos_, &payload)) {
      in_segment_ = false;
      sealed_ = false;
      truncated_ = true;
      done_ = true;
      return false;
    }
    if (payload[0] == kTagBlock) {
      std::uint64_t count = 0;
      if (!DecodeBlockPayload(payload, mask_, &dict_, cols_, &count)) {
        throw ConfigError("CtrStoreScanner: corrupt data block behind a valid "
                          "CRC in '" + segment_paths_[next_segment_ - 1] + "'");
      }
      if ((mask_ >> kColRunSeed) & 1u) {
        for (std::uint64_t seed : cols_[kColRunSeed]) fnv_ = FnvStep(fnv_, seed);
      }
      segment_records_ += count;
      ++segment_blocks_;
      block_size_ = count;
      row_in_block_ = 0;
      return true;
    }
    if (payload[0] == kTagFooter) {
      DecodedFooter footer;
      if (!DecodeFooterPayload(payload, &footer) ||
          footer.records != segment_records_ ||
          footer.blocks != segment_blocks_ ||
          footer.dict_count != dict_.size() ||
          (((mask_ >> kColRunSeed) & 1u) && footer.fnv != fnv_)) {
        throw ConfigError("CtrStoreScanner: footer disagrees with its blocks "
                          "in '" + segment_paths_[next_segment_ - 1] + "'");
      }
      if (pos_ != buf_.size()) {
        throw ConfigError("CtrStoreScanner: data after the footer in '" +
                          segment_paths_[next_segment_ - 1] + "'");
      }
      sealed_ = true;
      in_segment_ = false;
      continue;  // next segment
    }
    throw ConfigError("CtrStoreScanner: unknown frame tag in '" +
                      segment_paths_[next_segment_ - 1] + "'");
  }
}

bool CtrStoreScanner::Next(campaign::RunRecord* out) {
  while (row_in_block_ >= block_size_) {
    if (!DecodeNextBlock()) return false;
  }
  const std::size_t i = static_cast<std::size_t>(row_in_block_);
  // Fill `*out` in place: unmasked fields are reset to their defaults (the
  // documented contract) rather than materializing a fresh RunRecord and
  // copying it out — at scan rates that copy costs more than the decode, and
  // assign/clear on the string fields reuses their capacity across rows.
  campaign::RunRecord& r = *out;
  const auto bad = [this](const char* what) -> ConfigError {
    return ConfigError(std::string("CtrStoreScanner: out-of-range ") + what +
                       " in '" + segment_paths_[next_segment_ - 1] + "'");
  };
  r.run_seed = (mask_ >> kColRunSeed) & 1u ? cols_[kColRunSeed][i] : 0;
  r.outcome = campaign::Outcome::kBenign;
  if ((mask_ >> kColOutcome) & 1u) {
    const std::uint64_t v = cols_[kColOutcome][i];
    if (v >= kNumOutcomes) throw bad("outcome");
    r.outcome = static_cast<campaign::Outcome>(v);
  }
  r.kind = vm::TerminationKind::kExited;
  if ((mask_ >> kColKind) & 1u) {
    const std::uint64_t v = cols_[kColKind][i];
    if (v > static_cast<std::uint64_t>(vm::TerminationKind::kMpiError)) {
      throw bad("termination kind");
    }
    r.kind = static_cast<vm::TerminationKind>(v);
  }
  r.signal = vm::GuestSignal::kNone;
  if ((mask_ >> kColSignal) & 1u) {
    const std::uint64_t v = cols_[kColSignal][i];
    if (v > static_cast<std::uint64_t>(vm::GuestSignal::kCrash)) {
      throw bad("signal");
    }
    r.signal = static_cast<vm::GuestSignal>(v);
  }
  r.inject_rank =
      (mask_ >> kColInjectRank) & 1u
          ? static_cast<Rank>(ZigZagDecode(cols_[kColInjectRank][i]))
          : 0;
  r.failure_rank =
      (mask_ >> kColFailureRank) & 1u
          ? static_cast<Rank>(ZigZagDecode(cols_[kColFailureRank][i]))
          : -1;
  {
    std::uint64_t v = 0;
    if ((mask_ >> kColFlags) & 1u) {
      v = cols_[kColFlags][i];
      if (v > 7) throw bad("flags");
    }
    r.deadlock = (v & 1) != 0;
    r.propagated_cross_rank = (v & 2) != 0;
    r.propagated_cross_node = (v & 4) != 0;
  }
  r.injections = (mask_ >> kColInjections) & 1u ? cols_[kColInjections][i] : 0;
  r.tainted_reads =
      (mask_ >> kColTaintedReads) & 1u ? cols_[kColTaintedReads][i] : 0;
  r.tainted_writes =
      (mask_ >> kColTaintedWrites) & 1u ? cols_[kColTaintedWrites][i] : 0;
  r.peak_tainted_bytes = (mask_ >> kColPeakTaintedBytes) & 1u
                             ? cols_[kColPeakTaintedBytes][i]
                             : 0;
  r.tainted_output_bytes = (mask_ >> kColTaintedOutputBytes) & 1u
                               ? cols_[kColTaintedOutputBytes][i]
                               : 0;
  r.trigger_nth = (mask_ >> kColTriggerNth) & 1u ? cols_[kColTriggerNth][i] : 0;
  r.flip_bits = (mask_ >> kColFlipBits) & 1u
                    ? static_cast<unsigned>(cols_[kColFlipBits][i])
                    : 0;
  r.instructions =
      (mask_ >> kColInstructions) & 1u ? cols_[kColInstructions][i] : 0;
  r.trace_dropped =
      (mask_ >> kColTraceDropped) & 1u ? cols_[kColTraceDropped][i] : 0;
  r.taint_lost = (mask_ >> kColTaintLost) & 1u ? cols_[kColTaintLost][i] : 0;
  r.retries = (mask_ >> kColRetries) & 1u
                  ? static_cast<unsigned>(cols_[kColRetries][i])
                  : 0;
  r.inject_pc = (mask_ >> kColInjectPc) & 1u ? cols_[kColInjectPc][i] : 0;
  r.inject_class = guest::InstrClass::kMov;
  if ((mask_ >> kColInjectClass) & 1u) {
    const std::uint64_t v = cols_[kColInjectClass][i];
    if (v > static_cast<std::uint64_t>(guest::InstrClass::kSys)) {
      throw bad("instruction class");
    }
    r.inject_class = static_cast<guest::InstrClass>(v);
  }
  r.sample_weight = (mask_ >> kColSampleWeight) & 1u
                        ? BitsToWeight(cols_[kColSampleWeight][i])
                        : 1.0;
  const auto dict_at = [&](Column c) -> const std::string& {
    const std::uint64_t id = cols_[c][i];
    if (id >= dict_.size()) throw bad("dictionary id");
    return dict_[static_cast<std::size_t>(id)];
  };
  if ((mask_ >> kColInjector) & 1u) {
    r.injector.assign(dict_at(kColInjector));
  } else {
    r.injector.clear();
  }
  if ((mask_ >> kColFaultClass) & 1u) {
    r.fault_class.assign(dict_at(kColFaultClass));
  } else {
    r.fault_class.clear();
  }
  if ((mask_ >> kColInfraError) & 1u) {
    r.infra_error.assign(dict_at(kColInfraError));
  } else {
    r.infra_error.clear();
  }
  ++row_in_block_;
  ++rows_;
  return true;
}

}  // namespace chaser::store
