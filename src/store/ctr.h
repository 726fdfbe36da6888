// CTR segments: the compact append-only columnar trial store.
//
// A million-trial campaign cannot live in a records CSV: ~130 bytes per row,
// parsed field-by-field on every query. A CTR store holds the same
// RunRecords as per-column blocks of LEB128 varints — near-constant columns
// collapse to a few bytes per block, strings (injector, fault_class,
// infra_error) go through a per-segment dictionary, and a query that needs
// three columns decodes exactly three columns, skipping the rest by their
// length prefixes.
//
// On-disk layout. A store is a directory of numbered segment files
// (`seg-000000.ctr`, `seg-000001.ctr`, ...); a single `.ctr` file is also a
// valid store. Each segment is:
//
//   magic    8 bytes "CHSCTR01"
//   frame*   varint payload_len | payload | CRC-32 of the payload as 4 LE
//            bytes — net/frame.h's frame, the hub wire protocol's, so one
//            checksum covers every framed stream in the tree.
//
// The first frame's payload is the header (tag 0x01): format version,
// campaign identity (seed, app, sample policy, shard spec), this segment's
// index and the record count of all prior segments. Then data blocks (tag
// 0x02): a record count, a dictionary prelude listing strings first seen in
// this block (ids are assigned in first-appearance order, per segment, with
// id 0 reserved for ""), then kNumColumns column payloads, each
//
//   mode byte | varint payload_len | payload
//
// where mode 0 is raw varints, mode 1 is a single value shared by every
// record in the block (the big win: most columns of a fault campaign are
// near-constant), mode 2 is the first value raw followed by zigzag-delta
// varints, mode 3 is fixed-width bit packing (varint width, then LSB-first
// packed values — what tiny-cardinality columns like outcome or dict ids
// compress to), and mode 4 is bit-packed deltas (varint width, first value
// as a varint, then packed zigzag deltas — clustered counters like
// instructions or tainted_reads). The writer picks the smallest encoding
// deterministically, so the byte stream is a pure function of the record
// stream. The final frame is
// the footer (tag 0x03): segment record/block counts, the cumulative FNV-1a
// hash of every run_seed since record 0 of segment 0, and the dictionary
// size — a sealed segment is one whose last frame is a footer.
//
// Crash rules: blocks are fsync'd as written, a reader serves the intact
// frame prefix and reports truncated() past it, and a writer re-opening an
// unsealed segment truncates the torn tail before appending. Because block
// boundaries (every block_records records), dict id assignment, mode choice
// and segment roll-over are all deterministic in the record stream, a
// resumed store converges to the uninterrupted byte stream. The store is
// the campaign's resume log: `chaser_run --resume` replays its intact
// prefix and reruns the trials after it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sampling.h"

namespace chaser::store {

/// Bump when the segment layout changes. Stamped into every segment header
/// and into BENCH_columnar_store.json by tools/bench_to_json.sh.
/// v2 dropped v1's host-counter columns (tb_chain_hits, tlb_hits,
/// tlb_misses); a store of any other version is refused, never reused.
inline constexpr std::uint64_t kCtrFormatVersion = 2;

/// Column order inside a data block (fixed; new columns append at the end
/// under a format-version bump). Ranks are zigzag-encoded, the three bool
/// flags pack into one column, sample_weight is stored as IEEE-754 bits
/// XORed with the bits of 1.0 (so the overwhelmingly common weight 1.0
/// encodes as 0 and const-collapses), and the string columns hold dict ids.
enum Column : unsigned {
  kColRunSeed = 0,
  kColOutcome,
  kColKind,
  kColSignal,
  kColInjectRank,
  kColFailureRank,
  kColFlags,
  kColInjections,
  kColTaintedReads,
  kColTaintedWrites,
  kColPeakTaintedBytes,
  kColTaintedOutputBytes,
  kColTriggerNth,
  kColFlipBits,
  kColInstructions,
  kColTraceDropped,
  kColTaintLost,
  kColRetries,
  kColInjectPc,
  kColInjectClass,
  kColSampleWeight,
  kColInjector,
  kColFaultClass,
  kColInfraError,
};
inline constexpr unsigned kNumColumns = 24;

/// Which columns a scanner decodes; unselected columns are skipped by their
/// length prefix and the materialized RunRecord keeps their defaults.
using ColumnMask = std::uint32_t;
inline constexpr ColumnMask kAllColumns = (1u << kNumColumns) - 1;
inline constexpr ColumnMask MaskOf(Column c) { return 1u << c; }

/// Campaign identity stamped into every segment header: resuming or merging
/// against the wrong campaign fails loudly.
struct CtrStoreInfo {
  std::uint64_t format_version = kCtrFormatVersion;
  std::uint64_t campaign_seed = 0;
  std::string app;
  campaign::SamplePolicy sample_policy = campaign::SamplePolicy::kUniform;
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
};

/// True if `path` looks like a CTR store: a directory holding at least one
/// seg-*.ctr file, or a regular file starting with the segment magic.
bool IsCtrStorePath(const std::string& path);

struct CtrWriterOptions {
  /// Re-open an existing store: validate its identity, truncate the unsealed
  /// tail segment to its intact prefix, then skip-verify the records already
  /// stored (each Add below the stored count only checks the run_seed hash
  /// chain instead of re-writing). false deletes any existing segments.
  bool resume = false;
  /// Roll to a new segment once the current one reaches this many bytes
  /// (checked after each block flush). Bounds both writer and scanner
  /// memory: a scanner holds one segment at a time.
  std::uint64_t segment_cap_bytes = 64ull << 20;
  /// Records per data block. Part of the deterministic layout: run and
  /// resume must use the same value.
  std::uint64_t block_records = 512;
};

/// Streaming writer. Feed it every RunRecord in campaign seed order (the
/// driver's record_sink does exactly that); call Finish() to seal. Not
/// thread-safe — the driver serializes record_sink calls under its commit
/// lock.
class CtrStoreWriter {
 public:
  /// Creates `dir` (and parents). Throws ConfigError on identity mismatch
  /// with an existing store (resume) or filesystem failure.
  CtrStoreWriter(std::string dir, const CtrStoreInfo& identity,
                 CtrWriterOptions options = {});
  ~CtrStoreWriter();  // Finish()es, swallowing errors

  CtrStoreWriter(const CtrStoreWriter&) = delete;
  CtrStoreWriter& operator=(const CtrStoreWriter&) = delete;

  /// Append one record (or, while below the resumed store's record count,
  /// verify it against the stored seed-hash chain and skip the write).
  /// Throws ConfigError after Finish, on hash mismatch, or on I/O failure.
  void Add(const campaign::RunRecord& rec);

  /// Flush the partial block, write the footer, fsync, close. Idempotent.
  void Finish();

  /// The records the store held when it was reopened, as the seed-order
  /// stream Campaign::Run replays (scanned from disk as it is pulled); null
  /// when it held none. Pull it before the first Add that writes.
  campaign::RecordStream Replay() const;

  const std::string& dir() const { return dir_; }
  /// Records passed to Add (skipped + written).
  std::uint64_t added() const { return added_; }
  /// Records that were already in the store when it was (re)opened.
  std::uint64_t stored() const { return stored_count_; }
  std::uint64_t segments() const { return segment_index_ + (file_ ? 1 : 0); }

 private:
  void EnsureSegmentOpen();
  void FlushBlock();
  void SealSegment();
  void WriteFrame(const std::string& payload);
  std::uint64_t DictId(const std::string& s);

  std::string dir_;
  CtrStoreInfo info_;
  CtrWriterOptions options_;
  std::FILE* file_ = nullptr;
  std::uint64_t segment_index_ = 0;    // index of the segment file_ writes
  std::uint64_t segment_bytes_ = 0;    // bytes written to the open segment
  std::uint64_t segment_records_ = 0;  // records flushed into it
  std::uint64_t segment_blocks_ = 0;
  std::uint64_t base_records_ = 0;  // records in sealed earlier segments

  // Current block, column-major.
  std::vector<std::uint64_t> cols_[kNumColumns];
  std::map<std::string, std::uint64_t> dict_map_;  // per segment; ""->0
  std::uint64_t dict_size_ = 1;
  std::vector<std::string> new_dict_entries_;  // first seen this block

  std::uint64_t added_ = 0;
  std::uint64_t stored_count_ = 0;  // records recovered on resume
  std::uint64_t fnv_ = 0;           // cumulative seed hash, record 0 onward
  std::uint64_t recovered_fnv_ = 0;  // hash of the stored prefix (resume)
  bool finished_ = false;
};

/// Streaming scanner: pulls RunRecords back out in stored (campaign seed)
/// order, one segment in memory at a time, decoding only the columns in
/// `mask`. Throws ConfigError on a missing store, bad magic/header, or
/// structural corruption behind a valid CRC; a torn tail (crashed writer)
/// is served as the intact record prefix with truncated() set — never an
/// error.
class CtrStoreScanner {
 public:
  explicit CtrStoreScanner(const std::string& path,
                           ColumnMask mask = kAllColumns);

  /// Decode the next record. False at the end of the intact data.
  bool Next(campaign::RunRecord* out);

  /// Header of the first segment (available from construction).
  const CtrStoreInfo& info() const { return info_; }
  /// A frame failed its CRC / framing before a footer — records past it
  /// (and any later segments) were not served.
  bool truncated() const { return truncated_; }
  /// The last scanned segment carried a footer (the writer Finish()ed).
  bool sealed() const { return sealed_; }
  std::uint64_t rows() const { return rows_; }

 private:
  bool LoadNextSegment();
  bool DecodeNextBlock();

  std::vector<std::string> segment_paths_;
  std::size_t next_segment_ = 0;
  ColumnMask mask_;
  CtrStoreInfo info_;
  bool have_info_ = false;

  std::string buf_;       // current segment bytes
  std::size_t pos_ = 0;   // frame cursor into buf_
  bool in_segment_ = false;
  bool segment_sealed_ = false;
  std::uint64_t segment_records_ = 0;
  std::uint64_t segment_blocks_ = 0;
  std::vector<std::string> dict_;  // per segment, id-indexed

  // Current decoded block, column-major (only masked columns filled).
  std::vector<std::uint64_t> cols_[kNumColumns];
  std::uint64_t block_size_ = 0;
  std::uint64_t row_in_block_ = 0;

  std::uint64_t rows_ = 0;
  std::uint64_t fnv_ = 0;  // running seed hash (verified against footers)
  bool truncated_ = false;
  bool sealed_ = false;
  bool done_ = false;
};

}  // namespace chaser::store
