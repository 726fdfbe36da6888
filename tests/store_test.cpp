// Tests for src/store: the CTR columnar trial store must round-trip every
// RunRecord field, survive truncation at any byte and random bit rot by
// serving the intact block prefix, converge back to the uninterrupted byte
// stream on resume — a resumed campaign replaying what its store holds and
// rerunning only the rest — and export a records CSV byte-identical to
// WriteRecordsCsv — the property that lets CSV retire to an export format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/fleet.h"
#include "campaign/report.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "guest/builder.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "record_oracle.h"
#include "scratch_path.h"
#include "store/ctr.h"
#include "store/query.h"

namespace chaser::store {
namespace {

namespace fs = std::filesystem;

using campaign::Outcome;
using campaign::RunRecord;

using testutil::SameRecord;
using testutil::SameRecords;
using testutil::ScratchPath;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CtrStoreInfo TestIdentity() {
  CtrStoreInfo info;
  info.campaign_seed = 42;
  info.app = "accum";
  return info;
}

/// A deterministic spread of records covering every encoder path: const
/// columns, delta-friendly counters, random seeds, signed ranks, all flags,
/// dictionary strings (injector/fault_class/infra_error), and non-unit
/// sample weights.
std::vector<RunRecord> SampleRecords(std::size_t n) {
  std::vector<RunRecord> recs;
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    RunRecord r;
    r.run_seed = rng.UniformU64(0, ~0ull);
    r.outcome = static_cast<Outcome>(i % kNumOutcomes);
    r.kind = static_cast<vm::TerminationKind>(i % 3);
    r.signal = i % 7 == 0 ? vm::GuestSignal::kSegv : vm::GuestSignal::kNone;
    r.inject_rank = static_cast<Rank>(i % 4);
    r.failure_rank = i % 5 == 2 ? static_cast<Rank>(i % 4) : -1;
    r.deadlock = i % 11 == 3;
    r.propagated_cross_rank = i % 3 == 0;
    r.propagated_cross_node = i % 9 == 0;
    r.injections = 1;
    r.tainted_reads = i % 5 == 0 ? 0 : 100 + (i % 50);
    r.tainted_writes = i % 5 == 0 ? 0 : 90 + (i % 40);
    r.peak_tainted_bytes = 8 * (i % 100);
    r.tainted_output_bytes = i % 5 == 2 ? 16 : 0;
    r.trigger_nth = rng.UniformU64(1, 100000);
    r.flip_bits = 1 + (i % 2);
    r.instructions = 1000000 + (i % 997);
    // Host counters: set, and never stored.
    r.tb_chain_hits = 50000 + (i % 321);
    r.tlb_hits = 300000 + (i % 555);
    r.tlb_misses = 40 + (i % 7);
    r.trace_dropped = i % 17 == 0 ? 12 : 0;
    r.taint_lost = i % 23 == 0 ? 2 : 0;
    r.retries = i % 29 == 0 ? 1 : 0;
    r.inject_pc = 0x1000 + 8 * (i % 37);
    r.inject_class = i % 2 == 0 ? guest::InstrClass::kFadd
                                : guest::InstrClass::kFmul;
    r.sample_weight = i % 13 == 0 ? 1.0 / 3.0 : 1.0;
    r.injector = i % 3 == 0 ? "stuckat" : (i % 3 == 1 ? "multibit" : "");
    r.fault_class = i % 3 == 0 ? "stuck-at" : (i % 3 == 1 ? "burst" : "");
    if (i % 31 == 30) {
      r.outcome = Outcome::kInfra;
      r.infra_error = "TrialEngine: simulated failure, attempt 2";
    }
    recs.push_back(r);
  }
  return recs;
}

void WriteStore(const std::string& dir, const std::vector<RunRecord>& recs,
                CtrWriterOptions options = {}) {
  CtrStoreWriter writer(dir, TestIdentity(), options);
  for (const RunRecord& r : recs) writer.Add(r);
  writer.Finish();
}

/// The names in `dir`, sorted.
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<RunRecord> ScanAll(const std::string& path,
                               ColumnMask mask = kAllColumns,
                               bool* truncated = nullptr,
                               bool* sealed = nullptr) {
  CtrStoreScanner scanner(path, mask);
  std::vector<RunRecord> out;
  RunRecord r;
  while (scanner.Next(&r)) out.push_back(r);
  if (truncated != nullptr) *truncated = scanner.truncated();
  if (sealed != nullptr) *sealed = scanner.sealed();
  return out;
}

/// Offset one past the header frame: 8-byte magic, then LEB128 payload
/// length, payload, 4-byte CRC.
std::size_t HeaderEnd(const std::string& bytes) {
  std::size_t pos = 8;
  std::uint64_t len = 0;
  unsigned shift = 0;
  while (true) {
    const auto b = static_cast<unsigned char>(bytes.at(pos++));
    len |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return pos + static_cast<std::size_t>(len) + 4;
}

// ---- Round trip --------------------------------------------------------------

TEST(CtrStore, RoundTripAllFieldsAcrossBlocks) {
  const std::string dir = ScratchPath("roundtrip");
  const std::vector<RunRecord> recs = SampleRecords(43);
  CtrWriterOptions options;
  options.block_records = 8;  // 5 full blocks + a partial one
  WriteStore(dir, recs, options);

  bool truncated = true, sealed = false;
  const std::vector<RunRecord> back =
      ScanAll(dir, kAllColumns, &truncated, &sealed);
  EXPECT_FALSE(truncated);
  EXPECT_TRUE(sealed);
  EXPECT_TRUE(SameRecords(back, recs));
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].tb_chain_hits + back[i].tlb_hits + back[i].tlb_misses,
              0u)
        << "record " << i << ": a host counter was stored";
  }
}

TEST(CtrStore, ByteStreamIsDeterministic) {
  const std::string a = ScratchPath("det_a");
  const std::string b = ScratchPath("det_b");
  const std::vector<RunRecord> recs = SampleRecords(20);
  CtrWriterOptions options;
  options.block_records = 6;
  WriteStore(a, recs, options);
  WriteStore(b, recs, options);
  EXPECT_EQ(ReadFileBytes(a + "/seg-000000.ctr"),
            ReadFileBytes(b + "/seg-000000.ctr"));
}

// ---- The format, pinned ------------------------------------------------------

/// Three records in which every field holds values no other field holds, so
/// a field stored in another's column, or in another encoding, changes the
/// store's bytes. retries and infra_error are set as well (campaigns
/// rarely set them), the three flags differ from row to row, and every
/// string is new, so the dictionary hands out ids in column order. The
/// host counters are set too: no column holds them.
std::vector<RunRecord> DistinctFieldRecords() {
  std::vector<RunRecord> recs(3);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    RunRecord& r = recs[i];
    const auto k = static_cast<unsigned>(i);
    r.run_seed = 0x1111111111111111ull * (k + 1);
    r.outcome = k == 1 ? Outcome::kBenign : Outcome::kTerminated;
    r.kind = k == 1 ? vm::TerminationKind::kAssertFailed
                    : vm::TerminationKind::kSignaled;
    r.signal = static_cast<vm::GuestSignal>(5 + k);  // abort, kill, crash
    r.inject_class = static_cast<guest::InstrClass>(8 + k);  // fadd..fother
    r.deadlock = k != 1;
    r.propagated_cross_rank = k != 0;
    r.propagated_cross_node = k != 2;
    r.inject_rank = static_cast<Rank>(32 + k);
    r.failure_rank = -static_cast<Rank>(35 + k);
    r.injections = 17 + k;
    r.flip_bits = 20 + k;
    r.trace_dropped = 23 + k;
    r.taint_lost = 26 + k;
    r.retries = 29 + k;
    r.tainted_reads = 1000 + k;
    r.tainted_writes = 2000 + 2 * k;
    r.peak_tainted_bytes = 3000 + 3 * k;
    r.tainted_output_bytes = 4000 + 4 * k;
    r.trigger_nth = 5000 + 5 * k;
    r.instructions = 6'000'000 + 6 * k;
    r.inject_pc = 0x7000 + 8 * k;
    r.sample_weight = 0.5 / (k + 1);
    r.injector = "injector-" + std::to_string(k);
    r.fault_class = "fault-class-" + std::to_string(k);
    r.infra_error = "infra-error-" + std::to_string(k);
    r.tb_chain_hits = 9000 + k;
    r.tlb_hits = 9100 + k;
    r.tlb_misses = 9200 + k;
  }
  return recs;
}

std::string Hex(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    out += StrFormat("%02x", static_cast<unsigned>(static_cast<unsigned char>(c)));
  }
  return out;
}

// The store's bytes for DistinctFieldRecords in blocks of two: the header,
// a full block, a partial one and the footer. Format v2 stores exactly
// these; a change to any column's order, encoding or dictionary order is a
// format change and fails here.
TEST(CtrStore, FormatBytesArePinned) {
  const std::string dir = ScratchPath("pinned");
  CtrWriterOptions options;
  options.block_records = 2;
  WriteStore(dir, DistinctFieldRecords(), options);
  EXPECT_EQ(Hex(ReadFileBytes(dir + "/seg-000000.ctr")),
            "43485343545230310e01022a05616363756d0000010000694eeea1d701020206"
            "0a696e6a6563746f722d300d6661756c742d636c6173732d300d696e6672612d"
            "6572726f722d300a696e6a6563746f722d310d6661756c742d636c6173732d31"
            "0d696e6672612d6572726f722d3103113e111111111111119188888888888888"
            "08000201000002020300020506000240420002454700020506000211120203e8"
            "07020203d00f040203b817060203a01f08020388270a000214150205809bee02"
            "0c0002171800021a1b00021d1e020480e0011000020809030f36000000000000"
            "100000000000000800020104000202050002030623ee91d38b010201030a696e"
            "6a6563746f722d320d6661756c742d636c6173732d320d696e6672612d657272"
            "6f722d320109b3e6cc99b3e6cc99330101010101020101070101440101490101"
            "030101130102ea070102d40f0102be170102a81f0102922701011601048c9bee"
            "0201011901011c01011f010390e00101010a0108d5aad5aad5aad51a01010701"
            "0108010109af945b0f0c030302f50c629225823d990af7ab8174");
}

/// A one-record segment with column `column` holding `value` instead, behind
/// a valid CRC. Each column of a one-record block is a const column: mode
/// byte 1, payload length, the value as a varint.
std::string WithColumnValue(const std::string& segment, Column column,
                            std::uint64_t value) {
  const auto varint = [](const std::string& s, std::size_t* pos) {
    const std::optional<std::uint64_t> v = net::DecodeVarint(s, pos);
    EXPECT_TRUE(v.has_value());
    return static_cast<std::size_t>(v.value_or(0));
  };
  const std::size_t block_at = HeaderEnd(segment);
  std::size_t pos = block_at;
  const std::size_t len = varint(segment, &pos);
  const std::string block = segment.substr(pos, len);
  const std::string rest = segment.substr(pos + len + 4);
  std::size_t at = 1;  // past the tag
  EXPECT_EQ(varint(block, &at), 1u) << "not a one-record block";
  for (std::size_t n = varint(block, &at); n > 0; --n) {
    at += varint(block, &at);  // a new dictionary entry
  }
  for (unsigned c = 0; c < column; ++c) {
    ++at;  // mode
    at += varint(block, &at);
  }
  EXPECT_EQ(block.at(at), '\x01') << "not a const column";
  std::size_t end = at + 1;
  end += varint(block, &end);
  std::string payload;
  net::AppendVarint(&payload, value);
  std::string patched = block.substr(0, at + 1);
  net::AppendVarint(&patched, payload.size());
  patched += payload + block.substr(end);
  std::string out = segment.substr(0, block_at);
  net::AppendFrame(&out, patched);
  return out + rest;
}

// A stored value past its field's range is refused, with an error naming
// the field, by each reader that decodes its column. Add stores an
// out-of-range enum as given; a flags value or dictionary id past its
// range is written into the bytes.
TEST(CtrStore, OutOfRangeValuesAreRefusedByEveryReader) {
  struct Case {
    const char* what;
    std::function<void(RunRecord*)> set;  // or, unset, patch the bytes:
    Column column = kColRunSeed;
    std::uint64_t value = 0;
    std::optional<QueryOptions> query;  // one that reads the column
  };
  QueryOptions by_kind;
  by_kind.filter.kind = vm::TerminationKind::kExited;
  QueryOptions by_signal;
  by_signal.filter.signal = vm::GuestSignal::kNone;
  QueryOptions by_site;
  by_site.top_k = 1;
  QueryOptions by_injector;
  by_injector.group_by = GroupBy::kInjector;
  const std::vector<Case> cases = {
      {"outcome",
       [](RunRecord* r) { r->outcome = static_cast<Outcome>(kNumOutcomes); },
       kColRunSeed, 0, QueryOptions{}},
      {"termination kind",
       [](RunRecord* r) {
         r->kind = static_cast<vm::TerminationKind>(
             static_cast<unsigned>(vm::TerminationKind::kMpiError) + 1);
       },
       kColRunSeed, 0, by_kind},
      {"signal",
       [](RunRecord* r) {
         r->signal = static_cast<vm::GuestSignal>(
             static_cast<unsigned>(vm::GuestSignal::kCrash) + 1);
       },
       kColRunSeed, 0, by_signal},
      {"instruction class",
       [](RunRecord* r) {
         r->inject_class = static_cast<guest::InstrClass>(
             static_cast<unsigned>(guest::InstrClass::kSys) + 1);
       },
       kColRunSeed, 0, by_site},
      // No query reads the flags column.
      {"flags", nullptr, kColFlags, 8, std::nullopt},
      {"dictionary id", nullptr, kColInjector, 3, by_injector},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string dir = ScratchPath("out_of_range");
    if (c.set) {
      std::vector<RunRecord> recs = SampleRecords(3);
      c.set(&recs[1]);
      WriteStore(dir, recs);
    } else {
      // One record: its dictionary holds "", "stuckat" and "stuck-at".
      WriteStore(dir, SampleRecords(1));
      const std::string seg = dir + "/seg-000000.ctr";
      const std::string bytes = ReadFileBytes(seg);
      // The last value in range is served, so the patch is well-formed.
      WriteFileBytes(seg, WithColumnValue(bytes, c.column, c.value - 1));
      ASSERT_EQ(ScanAll(dir).size(), 1u);
      WriteFileBytes(seg, WithColumnValue(bytes, c.column, c.value));
    }
    const std::string want = std::string("out-of-range ") + c.what;
    const auto expect_refused = [&](const char* reader,
                                    const std::function<void()>& read) {
      SCOPED_TRACE(reader);
      try {
        read();
        ADD_FAILURE() << "the record was served";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    };
    expect_refused("scanner", [&] { ScanAll(dir); });
    if (c.query) expect_refused("query", [&] { RunQuery(dir, *c.query); });
    expect_refused("export", [&] {
      std::ostringstream out;
      ExportCsv(dir, out);
    });
    fs::remove_all(dir);
  }
}

TEST(CtrStore, SegmentRollOverPreservesOrderAndSeeds) {
  const std::string dir = ScratchPath("rollover");
  const std::vector<RunRecord> recs = SampleRecords(64);
  CtrWriterOptions options;
  options.block_records = 4;
  options.segment_cap_bytes = 1;  // roll after every flushed block
  {
    CtrStoreWriter writer(dir, TestIdentity(), options);
    for (const RunRecord& r : recs) writer.Add(r);
    writer.Finish();
    EXPECT_GT(writer.segments(), 4u);
  }
  EXPECT_TRUE(SameRecords(ScanAll(dir), recs));
}

TEST(CtrStore, ColumnMaskDecodesOnlySelectedColumns) {
  const std::string dir = ScratchPath("mask");
  const std::vector<RunRecord> recs = SampleRecords(10);
  WriteStore(dir, recs);
  const ColumnMask mask = MaskOf(kColRunSeed) | MaskOf(kColOutcome) |
                          MaskOf(kColInjector);
  const std::vector<RunRecord> back = ScanAll(dir, mask);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].run_seed, recs[i].run_seed);
    EXPECT_EQ(back[i].outcome, recs[i].outcome);
    EXPECT_EQ(back[i].injector, recs[i].injector);
    // Unselected columns keep their defaults (skipped by length prefix).
    EXPECT_EQ(back[i].instructions, 0u);
    EXPECT_EQ(back[i].trigger_nth, 0u);
    EXPECT_EQ(back[i].fault_class, "");
  }
}

TEST(CtrStore, EmptyStoreSealsAndScansEmpty) {
  const std::string dir = ScratchPath("empty");
  WriteStore(dir, {});
  bool truncated = true, sealed = false;
  EXPECT_TRUE(ScanAll(dir, kAllColumns, &truncated, &sealed).empty());
  EXPECT_FALSE(truncated);
  EXPECT_TRUE(sealed);
}

TEST(CtrStore, IdentityMismatchRefusesResume) {
  const std::string dir = ScratchPath("identity");
  WriteStore(dir, SampleRecords(5));
  CtrWriterOptions resume;
  resume.resume = true;
  CtrStoreInfo other = TestIdentity();
  other.campaign_seed = 43;
  EXPECT_THROW(CtrStoreWriter(dir, other, resume), ConfigError);
  other = TestIdentity();
  other.app = "matvec";
  EXPECT_THROW(CtrStoreWriter(dir, other, resume), ConfigError);
  other = TestIdentity();
  other.shard_count = 4;
  EXPECT_THROW(CtrStoreWriter(dir, other, resume), ConfigError);
  // A different slice of the same sharded campaign is a different trial set.
  CtrStoreInfo shard = TestIdentity();
  shard.shard_count = 2;
  const std::string sharded = ScratchPath("identity_shard");
  CtrStoreWriter(sharded, shard, {}).Finish();
  other = shard;
  other.shard_index = 1;
  EXPECT_THROW(CtrStoreWriter(sharded, other, resume), ConfigError);
  EXPECT_NO_THROW(CtrStoreWriter(sharded, shard, resume));
}

// A store of another format version — v1 carried the host-counter
// columns — is refused by every reader and by a resuming writer, with an
// error naming both versions, and left as it was.
TEST(CtrStore, OtherFormatVersionIsRefusedAndLeftUntouched) {
  const std::string dir = ScratchPath("v1");
  WriteStore(dir, SampleRecords(20));
  const std::string seg = dir + "/seg-000000.ctr";
  std::string bytes = ReadFileBytes(seg);
  // Magic, a one-byte payload length, the header tag, then the version.
  ASSERT_LT(static_cast<unsigned char>(bytes.at(8)), 0x80u);
  ASSERT_EQ(bytes.at(9), '\x01');
  ASSERT_EQ(static_cast<unsigned char>(bytes.at(10)), kCtrFormatVersion);
  ASSERT_EQ(kCtrFormatVersion, 2u);
  bytes[10] = 1;
  // A valid CRC, so the version is all a reader can object to.
  const std::size_t end = HeaderEnd(bytes);
  const std::uint32_t crc = Crc32(bytes.data() + 9, end - 4 - 9);
  for (int k = 0; k < 4; ++k) {
    bytes[end - 4 + static_cast<std::size_t>(k)] =
        static_cast<char>(crc >> (8 * k));
  }
  WriteFileBytes(seg, bytes);

  const auto expect_refused = [&](const char* what,
                                  const std::function<void()>& read) {
    SCOPED_TRACE(what);
    try {
      read();
      ADD_FAILURE() << "a v1 store was accepted";
    } catch (const ConfigError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("v1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
    }
    EXPECT_EQ(ReadFileBytes(seg), bytes) << "the store was modified";
    EXPECT_EQ(ListDir(dir), std::vector<std::string>{"seg-000000.ctr"});
  };
  expect_refused("scanner", [&] { ScanAll(dir); });
  expect_refused("export", [&] {
    std::ostringstream out;
    ExportCsv(dir, out);
  });
  expect_refused("query", [&] { RunQuery(dir, QueryOptions{}); });
  expect_refused("resuming writer", [&] {
    CtrWriterOptions resume;
    resume.resume = true;
    CtrStoreWriter writer(dir, TestIdentity(), resume);
    writer.Add(SampleRecords(1)[0]);
    writer.Finish();
  });
}

TEST(CtrStore, ResumedStoreFromLongerRunRefusesToFinishShort) {
  const std::string dir = ScratchPath("longer");
  const std::vector<RunRecord> recs = SampleRecords(12);
  CtrWriterOptions options;
  options.block_records = 4;
  WriteStore(dir, recs, options);
  options.resume = true;
  CtrStoreWriter writer(dir, TestIdentity(), options);
  for (std::size_t i = 0; i < 6; ++i) writer.Add(recs[i]);
  EXPECT_THROW(writer.Finish(), ConfigError);
}

TEST(CtrStore, ResumeWithDivergentTrialSequenceThrowsAtBoundary) {
  const std::string dir = ScratchPath("diverge");
  const std::vector<RunRecord> recs = SampleRecords(9);
  CtrWriterOptions options;
  options.block_records = 4;
  WriteStore(dir, recs, options);
  options.resume = true;
  CtrStoreWriter writer(dir, TestIdentity(), options);
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i < recs.size(); ++i) {
          RunRecord r = recs[i];
          r.run_seed ^= 1;  // a different campaign's seed sequence
          writer.Add(r);
        }
      },
      ConfigError);
}

// ---- Crash discipline --------------------------------------------------------

TEST(CtrStore, TruncationAtEveryByteServesPrefixAndResumeConverges) {
  const std::string src = ScratchPath("cut_src");
  const std::vector<RunRecord> recs = SampleRecords(11);
  CtrWriterOptions options;
  options.block_records = 4;  // 2 full blocks + a partial block of 3
  WriteStore(src, recs, options);
  const std::string seg = src + "/seg-000000.ctr";
  const std::string full = ReadFileBytes(seg);
  const std::size_t header_end = HeaderEnd(full);

  const std::string cut = ScratchPath("cut_copy");
  std::size_t prev_served = 0;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    fs::create_directories(cut);
    WriteFileBytes(cut + "/seg-000000.ctr", full.substr(0, len));

    // The scanner serves the intact block prefix, bit-exact; below an
    // intact header the store is structurally unreadable and throws.
    std::optional<std::vector<RunRecord>> served;
    bool truncated = false, sealed = false;
    try {
      served = ScanAll(cut, kAllColumns, &truncated, &sealed);
    } catch (const ConfigError&) {
      EXPECT_LT(len, header_end) << "cut at byte " << len;
    }
    if (served.has_value()) {
      ASSERT_LE(served->size(), recs.size()) << "cut at byte " << len;
      for (std::size_t i = 0; i < served->size(); ++i) {
        EXPECT_TRUE(SameRecord((*served)[i], recs[i])) << "record " << i;
      }
      // Served records only grow with the intact prefix, and only the full
      // file is sealed and untruncated.
      EXPECT_GE(served->size(), prev_served) << "cut at byte " << len;
      prev_served = served->size();
      if (len == full.size()) {
        EXPECT_EQ(served->size(), recs.size());
        EXPECT_TRUE(sealed);
        EXPECT_FALSE(truncated);
      } else {
        EXPECT_TRUE(!sealed || truncated) << "cut at byte " << len;
      }
    }

    // Resuming over the cut and re-adding the full record stream must
    // converge to the uninterrupted byte stream, whatever the cut point —
    // including cuts inside the header (segment rebuilt from scratch) and
    // cuts that leave Finish()'s partial block without its footer (the
    // partial block is dropped and re-written).
    CtrWriterOptions resume = options;
    resume.resume = true;
    {
      CtrStoreWriter writer(cut, TestIdentity(), resume);
      for (const RunRecord& r : recs) writer.Add(r);
      writer.Finish();
    }
    EXPECT_EQ(ReadFileBytes(cut + "/seg-000000.ctr"), full)
        << "resume after cut at byte " << len;
    fs::remove_all(cut);
  }
}

TEST(CtrStore, BitFlipFuzzNeverServesCorruptRecords) {
  const std::string src = ScratchPath("flip_src");
  const std::vector<RunRecord> recs = SampleRecords(11);
  CtrWriterOptions options;
  options.block_records = 4;
  WriteStore(src, recs, options);
  const std::string full = ReadFileBytes(src + "/seg-000000.ctr");
  const std::size_t header_end = HeaderEnd(full);
  const std::string flipped = ScratchPath("flip_copy");

  Rng rng(2026);
  for (int trial = 0; trial < 500; ++trial) {
    // Flip one random bit past the header (header corruption is a
    // legitimate hard error, covered above). The frame CRC must catch the
    // flip at the frame it lands in: whatever is served is a bit-exact
    // record prefix, never garbage.
    std::string bytes = full;
    const std::size_t byte = static_cast<std::size_t>(
        rng.UniformU64(header_end, bytes.size() - 1));
    bytes[byte] = static_cast<char>(
        bytes[byte] ^ static_cast<char>(1u << rng.UniformU64(0, 7)));
    fs::create_directories(flipped);
    WriteFileBytes(flipped + "/seg-000000.ctr", bytes);

    std::vector<RunRecord> served;
    ASSERT_NO_THROW(served = ScanAll(flipped)) << "flip in byte " << byte;
    ASSERT_LE(served.size(), recs.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_TRUE(SameRecord(served[i], recs[i])) << "record " << i;
    }
    fs::remove_all(flipped);
  }
}

TEST(CtrStore, HalfCreatedLastSegmentIsDroppedOnResume) {
  const std::string dir = ScratchPath("halfseg");
  const std::vector<RunRecord> recs = SampleRecords(16);
  CtrWriterOptions options;
  options.block_records = 4;
  options.segment_cap_bytes = 1;  // several sealed segments
  WriteStore(dir, recs, options);
  const std::size_t segments = ScanAll(dir).size();
  ASSERT_EQ(segments, recs.size());
  // Simulate a crash right after the next segment's file was created but
  // before its header landed.
  const std::vector<std::string> names = [&] {
    std::vector<std::string> v;
    for (const auto& e : fs::directory_iterator(dir)) {
      v.push_back(e.path().string());
    }
    std::sort(v.begin(), v.end());
    return v;
  }();
  WriteFileBytes(dir + "/seg-009999.ctr", "CH");  // torn mid-magic
  CtrWriterOptions resume = options;
  resume.resume = true;
  {
    CtrStoreWriter writer(dir, TestIdentity(), resume);
    for (const RunRecord& r : recs) writer.Add(r);
    writer.Finish();
    EXPECT_EQ(writer.stored(), recs.size());
  }
  EXPECT_FALSE(fs::exists(dir + "/seg-009999.ctr"));
  const std::vector<RunRecord> back = ScanAll(dir);
  ASSERT_EQ(back.size(), recs.size());
}

// ---- CSV export identity -----------------------------------------------------

std::string ReferenceCsv(const std::vector<RunRecord>& recs,
                         campaign::SamplePolicy policy) {
  std::ostringstream out;
  campaign::WriteRecordsCsv(recs, out, policy);
  return out.str();
}

std::string ExportedCsv(const std::string& dir) {
  std::ostringstream out;
  ExportCsv(dir, out);
  return out.str();
}

TEST(CtrExport, ByteIdenticalToWriteRecordsCsvAcrossVersions) {
  // v9: custom injectors present.
  {
    const std::string dir = ScratchPath("export_v9");
    const std::vector<RunRecord> recs = SampleRecords(37);
    CtrWriterOptions options;
    options.block_records = 8;
    WriteStore(dir, recs, options);
    EXPECT_EQ(ExportedCsv(dir),
              ReferenceCsv(recs, campaign::SamplePolicy::kUniform));
  }
  // v7: uniform policy, no injectors — the version probe must not be fooled
  // by the empty dictionary column.
  {
    const std::string dir = ScratchPath("export_v7");
    std::vector<RunRecord> recs = SampleRecords(21);
    for (RunRecord& r : recs) {
      r.injector.clear();
      r.fault_class.clear();
    }
    WriteStore(dir, recs);
    EXPECT_EQ(ExportedCsv(dir),
              ReferenceCsv(recs, campaign::SamplePolicy::kUniform));
  }
  // v8: non-uniform policy, still no injectors.
  {
    const std::string dir = ScratchPath("export_v8");
    std::vector<RunRecord> recs = SampleRecords(21);
    for (RunRecord& r : recs) {
      r.injector.clear();
      r.fault_class.clear();
    }
    CtrStoreInfo info = TestIdentity();
    info.sample_policy = campaign::SamplePolicy::kStratified;
    CtrStoreWriter writer(ScratchPath("export_v8"), info, {});
    for (const RunRecord& r : recs) writer.Add(r);
    writer.Finish();
    EXPECT_EQ(ExportedCsv(dir),
              ReferenceCsv(recs, campaign::SamplePolicy::kStratified));
  }
}

TEST(CtrExport, ShardStreamMergeMatchesRecordMerge) {
  // Partition records over 3 shards by index % 3 (exactly the fleet
  // partition), write each shard's store, and stream-merge: the result must
  // render identically to the merge of the same records held in memory and
  // to a plain tally of them, and the sink must see the global seed order.
  const std::uint64_t runs = 30;
  const std::uint64_t seed = 99;
  const std::vector<std::uint64_t> seeds =
      campaign::Campaign::DeriveTrialSeeds(seed, runs);
  std::vector<RunRecord> all = SampleRecords(runs);
  for (std::size_t i = 0; i < all.size(); ++i) all[i].run_seed = seeds[i];

  std::vector<std::string> dirs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    const std::string dir = ScratchPath("merge_shard" + std::to_string(s));
    dirs.push_back(dir);
    CtrStoreInfo info = TestIdentity();
    info.campaign_seed = seed;
    info.shard_index = s;
    info.shard_count = 3;
    CtrStoreWriter writer(dir, info, {});
    for (std::size_t i = s; i < all.size(); i += 3) writer.Add(all[i]);
    writer.Finish();
  }

  campaign::MergePlan plan;
  plan.app = "accum";
  plan.runs = runs;
  plan.seed = seed;
  campaign::CampaignResult tally;
  tally.runs = runs;
  for (const RunRecord& r : all) tally.Accumulate(r, /*keep_record=*/true);
  std::vector<std::vector<RunRecord>> sets(3);
  for (std::size_t i = 0; i < all.size(); ++i) sets[i % 3].push_back(all[i]);
  std::vector<campaign::RecordStream> held;
  for (const std::vector<RunRecord>& set : sets) {
    held.push_back([&set, next = std::size_t{0}](RunRecord* out) mutable {
      if (next == set.size()) return false;
      *out = set[next++];
      return true;
    });
  }
  const campaign::CampaignResult by_records =
      campaign::MergeShardStreams(plan, std::move(held));

  std::vector<std::unique_ptr<CtrStoreScanner>> scanners;
  std::vector<campaign::RecordStream> streams;
  for (const std::string& dir : dirs) {
    scanners.push_back(std::make_unique<CtrStoreScanner>(dir));
    streams.push_back([s = scanners.back().get()](RunRecord* out) {
      return s->Next(out);
    });
  }
  std::vector<std::uint64_t> sink_seeds;
  const campaign::CampaignResult by_streams = campaign::MergeShardStreams(
      plan, std::move(streams),
      [&](const RunRecord& r) { sink_seeds.push_back(r.run_seed); });
  EXPECT_EQ(by_streams.Render("accum"), by_records.Render("accum"));
  EXPECT_EQ(by_streams.Render("accum"), tally.Render("accum"));
  EXPECT_EQ(sink_seeds, seeds);
}

// ---- Campaign resume ---------------------------------------------------------

/// Steerable single-process app: `iters` fadds accumulating into memory,
/// the result written to fd 3.
apps::AppSpec AccumulatorApp(std::uint64_t iters = 50) {
  guest::ProgramBuilder b("accum");
  const GuestAddr out = b.Bss("out", 8);
  b.FmovI(guest::F(0), 0.0);
  b.FmovI(guest::F(1), 1.0);
  b.MovI(guest::R(1), 0);
  auto loop = b.Here("loop");
  b.Fadd(guest::F(0), guest::F(0), guest::F(1));
  b.AddI(guest::R(1), guest::R(1), 1);
  b.CmpI(guest::R(1), static_cast<std::int64_t>(iters));
  b.Br(guest::Cond::kLt, loop);
  b.MovI(guest::R(9), static_cast<std::int64_t>(out));
  b.Fst(guest::R(9), 0, guest::F(0));
  b.MovI(guest::R(4), static_cast<std::int64_t>(out));
  b.MovI(guest::R(5), 8);
  b.Write(3, guest::R(4), guest::R(5));
  b.Exit(0);
  apps::AppSpec spec;
  spec.name = "accum";
  spec.program = b.Finalize();
  spec.num_ranks = 1;
  spec.fault_classes = {guest::InstrClass::kFadd};
  return spec;
}

std::string RenderPlusCsv(const campaign::CampaignResult& result) {
  std::ostringstream csv;
  campaign::WriteRecordsCsv(result.records, csv);
  return result.Render("accum") + "\n" + csv.str();
}

/// Store layout of the resume tests: blocks of 4 records, so a dozen trials
/// span several blocks.
CtrWriterOptions ResumeOptions(bool resume) {
  CtrWriterOptions options;
  options.block_records = 4;
  options.resume = resume;
  return options;
}

/// What a campaign run into a CTR store produced.
struct StoreRun {
  campaign::CampaignResult result;
  std::uint64_t executed = 0;  // trials that ran, not replayed
  std::uint64_t stored = 0;    // records the store held when reopened
};

/// Run `config` on `jobs` workers with its records streaming into the store
/// at `dir`, as chaser_run --out does: with `resume`, the
/// store is reopened and the records it holds are replayed.
StoreRun RunIntoStore(const std::string& dir, campaign::CampaignConfig config,
                      unsigned jobs, bool resume) {
  CtrStoreInfo identity;
  identity.campaign_seed = config.seed;
  identity.app = "accum";
  CtrStoreWriter writer(dir, identity, ResumeOptions(resume));
  config.record_sink = [&](const RunRecord& r) { writer.Add(r); };
  std::atomic<std::uint64_t> executed{0};
  config.trial_chaos = [&](std::uint64_t, unsigned) { ++executed; };
  campaign::Campaign campaign(AccumulatorApp(50), config, jobs);
  StoreRun run;
  run.result = campaign.Run(writer.Replay());
  writer.Finish();
  run.executed = executed.load();
  run.stored = writer.stored();
  return run;
}

/// Simulate a run killed after its first `n` records: the store holds them
/// (the last block partial when `n` is not a whole number of blocks) and a
/// seal torn in half, as a kill inside Finish() leaves it.
void WriteKilledStore(const std::string& dir, std::uint64_t seed,
                      const std::vector<RunRecord>& records, std::size_t n) {
  CtrStoreInfo identity;
  identity.campaign_seed = seed;
  identity.app = "accum";
  {
    CtrStoreWriter writer(dir, identity, ResumeOptions(false));
    for (std::size_t i = 0; i < n; ++i) writer.Add(records[i]);
    writer.Finish();
  }
  const std::string seg = dir + "/seg-000000.ctr";
  fs::resize_file(seg, fs::file_size(seg) - 1);
}

TEST(StoreResume, SerialResumeIsByteIdenticalAndRunsOnlyMissingSeeds) {
  campaign::CampaignConfig config;
  config.runs = 12;
  config.seed = 321;
  const std::string ref_dir = ScratchPath("resume_ref");
  const StoreRun reference = RunIntoStore(ref_dir, config, 1, false);
  const std::string expected = RenderPlusCsv(reference.result);
  const std::string ref_bytes = ReadFileBytes(ref_dir + "/seg-000000.ctr");

  // Killed with 0, 1 or 3 whole blocks on disk, or inside the seal of the
  // last, partial block (which is then dropped and rerun).
  for (const auto& [killed_at, replayed] :
       std::vector<std::pair<std::size_t, std::uint64_t>>{
           {0, 0}, {4, 4}, {12, 12}, {11, 8}}) {
    SCOPED_TRACE(killed_at);
    const std::string dir = ScratchPath("resume_serial");
    WriteKilledStore(dir, config.seed, reference.result.records, killed_at);
    const StoreRun resumed = RunIntoStore(dir, config, 1, true);
    EXPECT_EQ(resumed.stored, replayed);
    EXPECT_EQ(resumed.executed, config.runs - replayed)
        << "resume re-ran trials the store already held";
    EXPECT_EQ(RenderPlusCsv(resumed.result), expected);
    // The resumed store converges to the uninterrupted one, byte for byte.
    EXPECT_EQ(ReadFileBytes(dir + "/seg-000000.ctr"), ref_bytes);
  }
}

TEST(StoreResume, ParallelResumeIsByteIdenticalAcrossWorkerCounts) {
  campaign::CampaignConfig config;
  config.runs = 16;
  config.seed = 4242;
  const std::string ref_dir = ScratchPath("resume_par_ref");
  const StoreRun reference = RunIntoStore(ref_dir, config, 1, false);
  const std::string expected = RenderPlusCsv(reference.result);
  const std::string ref_bytes = ReadFileBytes(ref_dir + "/seg-000000.ctr");

  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    const std::string dir = ScratchPath("resume_par");
    WriteKilledStore(dir, config.seed, reference.result.records, 8);
    const StoreRun resumed = RunIntoStore(dir, config, jobs, true);
    EXPECT_EQ(resumed.executed, config.runs - 8);
    EXPECT_EQ(RenderPlusCsv(resumed.result), expected);
    EXPECT_EQ(ReadFileBytes(dir + "/seg-000000.ctr"), ref_bytes);
  }
}

TEST(StoreResume, TornStoreResumesFromItsIntactBlocks) {
  campaign::CampaignConfig config;
  config.runs = 8;
  config.seed = 77;
  const StoreRun reference =
      RunIntoStore(ScratchPath("resume_torn_ref"), config, 1, false);

  const std::string dir = ScratchPath("resume_torn");
  WriteKilledStore(dir, config.seed, reference.result.records, 4);
  {
    // The kill -9 landed mid-write of the next block.
    std::ofstream out(dir + "/seg-000000.ctr", std::ios::binary | std::ios::app);
    out << "\x33half-written-frame";
  }
  const StoreRun resumed = RunIntoStore(dir, config, 1, true);
  EXPECT_EQ(resumed.executed, 4u);  // the intact block's 4 trials replayed
  EXPECT_EQ(RenderPlusCsv(resumed.result), RenderPlusCsv(reference.result));
}

TEST(StoreResume, ReplayingAnotherCampaignsRecordsThrows) {
  campaign::CampaignConfig config;
  config.runs = 4;
  config.seed = 5;
  const std::vector<RunRecord> own = RunIntoStore(ScratchPath("replay_own"), config,
                                                  1, false)
                                         .result.records;
  const auto stream_of = [](std::vector<RunRecord> records) {
    return [records = std::move(records), next = std::size_t{0}](
               RunRecord* out) mutable {
      if (next == records.size()) return false;
      *out = records[next++];
      return true;
    };
  };
  // Another seed's trials, and more trials than the campaign plans.
  std::vector<RunRecord> other = own;
  other[1].run_seed ^= 1;
  campaign::Campaign wrong_seed(AccumulatorApp(50), config);
  EXPECT_THROW(wrong_seed.Run(stream_of(other)), ConfigError);
  std::vector<RunRecord> longer = own;
  longer.push_back(own.back());
  campaign::Campaign too_long(AccumulatorApp(50), config);
  EXPECT_THROW(too_long.Run(stream_of(longer)), ConfigError);
  // Its own records replay as the whole campaign.
  campaign::Campaign replayed(AccumulatorApp(50), config);
  EXPECT_EQ(replayed.Run(stream_of(own)).Render("accum"),
            campaign::Campaign(AccumulatorApp(50), config).Run().Render("accum"));
}

// ---- Query engine ------------------------------------------------------------

TEST(CtrQuery, FilterGroupAndTopKMatchDirectTallies) {
  const std::string dir = ScratchPath("query");
  const std::vector<RunRecord> recs = SampleRecords(60);
  CtrWriterOptions options;
  options.block_records = 16;
  WriteStore(dir, recs, options);

  QueryOptions q;
  q.filter = ParseTrialFilter("injector=stuckat");
  q.group_by = GroupBy::kOutcome;
  q.top_k = 3;
  const QueryResult res = RunQuery(dir, q);

  std::uint64_t expect_matched = 0;
  double expect_weight = 0.0;
  for (const RunRecord& r : recs) {
    if (r.injector != "stuckat") continue;
    ++expect_matched;
    expect_weight += r.sample_weight;
  }
  EXPECT_EQ(res.scanned, recs.size());
  EXPECT_EQ(res.matched, expect_matched);
  EXPECT_EQ(res.total.trials, expect_matched);
  EXPECT_DOUBLE_EQ(res.total.weight, expect_weight);
  std::uint64_t group_sum = 0;
  for (const auto& [label, agg] : res.groups) group_sum += agg.trials;
  EXPECT_EQ(group_sum, expect_matched);
  ASSERT_LE(res.top_sites.size(), 3u);
  for (std::size_t i = 1; i < res.top_sites.size(); ++i) {
    EXPECT_GE(res.top_sites[i - 1].trials, res.top_sites[i].trials);
  }
}

TEST(CtrQuery, WhereParserRejectsUnknownKeysAndValues) {
  EXPECT_THROW(ParseTrialFilter("bogus=1"), ConfigError);
  EXPECT_THROW(ParseTrialFilter("outcome=nosuch"), ConfigError);
  EXPECT_THROW(ParseTrialFilter("rank=notanumber"), ConfigError);
  // Past Rank's range: no wrap to rank 0 or to a negative rank.
  EXPECT_THROW(ParseTrialFilter("rank=4294967296"), ConfigError);
  EXPECT_THROW(ParseTrialFilter("rank=2147483648"), ConfigError);
  const TrialFilter f = ParseTrialFilter("outcome=sdc,inject_class=fadd");
  ASSERT_TRUE(f.outcome.has_value());
  EXPECT_EQ(*f.outcome, Outcome::kSdc);
  ASSERT_TRUE(f.inject_class.has_value());
  EXPECT_EQ(*f.inject_class, guest::InstrClass::kFadd);
}

// ---- The outcome table reaches every surface --------------------------------

// Outcome i is sent i+1 times through every surface that counts outcomes;
// each must show i+1 for every outcome. The test iterates the table, so an
// outcome added to it is covered without editing this test.
TEST(OutcomeTable, EveryOutcomeReachesEverySurfaceWithItsCount) {
  std::vector<RunRecord> recs;
  for (const OutcomeInfo& o : kOutcomes) {
    for (std::size_t n = 0; n <= static_cast<std::size_t>(o.outcome); ++n) {
      RunRecord r;
      r.outcome = o.outcome;
      r.run_seed = recs.size() + 1;
      recs.push_back(r);
    }
  }
  const auto want = [](const OutcomeInfo& o) {
    return static_cast<std::uint64_t>(o.outcome) + 1;
  };

  campaign::CampaignResult result;
  for (const RunRecord& r : recs) result.Accumulate(r, /*keep_record=*/false);

  // Commit-side telemetry: status.json and the registry counters.
  const std::string dir = ScratchPath("outcome_table");
  fs::create_directories(dir);
  obs::Registry::Global().Reset();
  {
    obs::Telemetry telemetry({.status_path = dir + "/status.json"});
    telemetry.BeginCampaign("table", recs.size());
    for (const RunRecord& r : recs) {
      telemetry.OnTrialCommitted(campaign::ToTrialStats(r, /*replayed=*/false));
    }
    telemetry.Finish();
  }
  const campaign::ShardStatus status =
      campaign::ParseShardStatus(ReadFileBytes(dir + "/status.json"));
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(status.done, recs.size());

  // The fleet rollup over two shards reporting that status.
  const campaign::FleetRollup rollup = campaign::RollUpShards({status, status});

  // The CTR store, read back through the query engine.
  WriteStore(dir + "/store", recs);
  QueryOptions q;
  q.group_by = GroupBy::kOutcome;
  const QueryResult query = RunQuery(dir + "/store", q);

  // The store's records CSV export: each row's outcome column.
  std::stringstream csv;
  ExportCsv(dir + "/store", csv);
  OutcomeArray<std::uint64_t> from_csv;
  std::string line;
  std::getline(csv, line);  // version line
  std::getline(csv, line);  // column header
  while (std::getline(csv, line)) {
    Outcome outcome{};
    ASSERT_TRUE(ParseOutcome(Split(line, ',')[1], &outcome)) << line;
    ++from_csv[outcome];
  }

  double rate_sum = 0.0;
  for (const OutcomeInfo& o : kOutcomes) {
    SCOPED_TRACE(o.name);
    EXPECT_EQ(result.count(o.outcome), want(o));
    EXPECT_EQ(status.outcomes[o.outcome], want(o));
    EXPECT_EQ(obs::Registry::Global()
                  .GetCounter(std::string("campaign_outcome_") + o.name)
                  .Value(),
              want(o));
    EXPECT_EQ(rollup.outcomes[o.outcome], 2 * want(o));
    EXPECT_DOUBLE_EQ(rollup.rates[o.outcome],
                     static_cast<double>(want(o)) /
                         static_cast<double>(recs.size()));
    rate_sum += rollup.rates[o.outcome];
    EXPECT_EQ(query.total.outcomes[o.outcome], want(o));
    const auto group = std::find_if(
        query.groups.begin(), query.groups.end(),
        [&](const auto& g) { return g.first == o.name; });
    ASSERT_NE(group, query.groups.end());
    EXPECT_EQ(group->second.trials, want(o));
    EXPECT_EQ(from_csv[o.outcome], want(o));
  }
  EXPECT_DOUBLE_EQ(rate_sum, 1.0);
  EXPECT_EQ(query.groups.size(), kNumOutcomes);
  obs::Registry::Global().Reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace chaser::store
