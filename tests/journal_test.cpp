// Tests for src/campaign/journal, the fsync-per-record log perfbench's
// traced pass still probes: reopening a journal must replay exactly the
// records appended, and survive truncation at any byte and random bit rot by
// recovering the intact record prefix. (Campaigns resume from their CTR
// store; store_test covers that.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "common/error.h"
#include "common/rng.h"
#include "scratch_path.h"

namespace chaser::campaign {
namespace {

namespace fs = std::filesystem;

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

/// A spread of records covering every encoder path: zero everything, signed
/// ranks, all flags, huge counters, a sampled trial, a rank crash, and a
/// quarantined infra record with free-form exception text.
std::vector<RunRecord> SampleRecords() {
  std::vector<RunRecord> recs;
  {
    RunRecord r;
    r.run_seed = 1;
    recs.push_back(r);
  }
  {
    RunRecord r;
    r.run_seed = 0xFFFFFFFFFFFFFFFFull;
    r.outcome = Outcome::kTerminated;
    r.kind = vm::TerminationKind::kSignaled;
    r.signal = vm::GuestSignal::kSegv;
    r.inject_rank = 3;
    r.failure_rank = -1;
    r.deadlock = true;
    r.propagated_cross_rank = true;
    r.propagated_cross_node = true;
    r.injections = 2;
    r.tainted_reads = 123456789;
    r.tainted_writes = 987654321;
    r.peak_tainted_bytes = 1 << 20;
    r.tainted_output_bytes = 4096;
    r.trigger_nth = 777;
    r.flip_bits = 64;
    r.instructions = 0x123456789ABCDEFull;
    r.trace_dropped = 42;
    r.taint_lost = 7;
    r.retries = 2;
    recs.push_back(r);
  }
  {
    RunRecord r;
    r.run_seed = 555;
    r.outcome = Outcome::kSdc;
    r.tainted_output_bytes = 16;
    // A sampled-campaign record: the v3 fields must survive the round trip
    // bit-exactly (resume feeds the estimator this very weight).
    r.inject_pc = 0xABCDEFull;
    r.inject_class = guest::InstrClass::kFmul;
    r.sample_weight = 1.0 / 3.0;
    recs.push_back(r);
  }
  {
    // A rank-crash campaign's record: injector identity and the kCrashed
    // outcome / kCrash signal.
    RunRecord r;
    r.run_seed = 42;
    r.outcome = Outcome::kCrashed;
    r.kind = vm::TerminationKind::kSignaled;
    r.signal = vm::GuestSignal::kCrash;
    r.injector = "rank-crash";
    r.fault_class = "process-crash";
    recs.push_back(r);
  }
  {
    RunRecord r;
    r.run_seed = 999;
    r.outcome = Outcome::kInfra;
    r.retries = 3;
    r.infra_error = "TrialEngine: simulated device failure, attempt 4";
    recs.push_back(r);
  }
  return recs;
}

void ExpectRecordEq(const RunRecord& a, const RunRecord& b, std::size_t i) {
  EXPECT_EQ(a.run_seed, b.run_seed) << "record " << i;
  EXPECT_EQ(a.outcome, b.outcome) << "record " << i;
  EXPECT_EQ(a.kind, b.kind) << "record " << i;
  EXPECT_EQ(a.signal, b.signal) << "record " << i;
  EXPECT_EQ(a.inject_rank, b.inject_rank) << "record " << i;
  EXPECT_EQ(a.failure_rank, b.failure_rank) << "record " << i;
  EXPECT_EQ(a.deadlock, b.deadlock) << "record " << i;
  EXPECT_EQ(a.propagated_cross_rank, b.propagated_cross_rank) << "record " << i;
  EXPECT_EQ(a.propagated_cross_node, b.propagated_cross_node) << "record " << i;
  EXPECT_EQ(a.injections, b.injections) << "record " << i;
  EXPECT_EQ(a.tainted_reads, b.tainted_reads) << "record " << i;
  EXPECT_EQ(a.tainted_writes, b.tainted_writes) << "record " << i;
  EXPECT_EQ(a.peak_tainted_bytes, b.peak_tainted_bytes) << "record " << i;
  EXPECT_EQ(a.tainted_output_bytes, b.tainted_output_bytes) << "record " << i;
  EXPECT_EQ(a.trigger_nth, b.trigger_nth) << "record " << i;
  EXPECT_EQ(a.flip_bits, b.flip_bits) << "record " << i;
  EXPECT_EQ(a.instructions, b.instructions) << "record " << i;
  EXPECT_EQ(a.trace_dropped, b.trace_dropped) << "record " << i;
  EXPECT_EQ(a.taint_lost, b.taint_lost) << "record " << i;
  EXPECT_EQ(a.retries, b.retries) << "record " << i;
  EXPECT_EQ(a.infra_error, b.infra_error) << "record " << i;
  EXPECT_EQ(a.inject_pc, b.inject_pc) << "record " << i;
  EXPECT_EQ(a.inject_class, b.inject_class) << "record " << i;
  EXPECT_EQ(a.sample_weight, b.sample_weight) << "record " << i;
  EXPECT_EQ(a.injector, b.injector) << "record " << i;
  EXPECT_EQ(a.fault_class, b.fault_class) << "record " << i;
}

// ---- Round trip --------------------------------------------------------------

/// The records a reopen of `path` replays (the reopen also cuts a torn tail).
std::vector<RunRecord> Replay(const std::string& path, std::uint64_t seed) {
  std::vector<RunRecord> replayed;
  TrialJournal journal(path, seed, "accum", &replayed);
  return replayed;
}

TEST(Journal, AppendReplayRoundTrip) {
  const std::string path = ScratchPath("roundtrip");
  const std::vector<RunRecord> recs = SampleRecords();
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 42, "accum", &replayed);
    EXPECT_TRUE(replayed.empty());
    for (const RunRecord& r : recs) journal.Append(r);
  }
  const auto size = fs::file_size(path);
  const std::vector<RunRecord> back = Replay(path, 42);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) ExpectRecordEq(recs[i], back[i], i);
  EXPECT_EQ(fs::file_size(path), size) << "an intact journal must not be cut";
}

TEST(Journal, ReopenReplaysAndContinues) {
  const std::string path = ScratchPath("reopen");
  const std::vector<RunRecord> recs = SampleRecords();
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 7, "accum", &replayed);
    journal.Append(recs[0]);
    journal.Append(recs[1]);
  }
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 7, "accum", &replayed);
    ASSERT_EQ(replayed.size(), 2u);
    ExpectRecordEq(recs[0], replayed[0], 0);
    ExpectRecordEq(recs[1], replayed[1], 1);
    journal.Append(recs[2]);
  }
  const std::vector<RunRecord> back = Replay(path, 7);
  ASSERT_EQ(back.size(), 3u);
  ExpectRecordEq(recs[2], back[2], 2);
}

TEST(Journal, MismatchedCampaignIdentityThrows) {
  const std::string path = ScratchPath("identity");
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 42, "accum", &replayed);
    journal.Append(SampleRecords()[0]);
  }
  std::vector<RunRecord> replayed;
  EXPECT_THROW(TrialJournal(path, 43, "accum", &replayed), ConfigError);
  EXPECT_THROW(TrialJournal(path, 42, "matvec", &replayed), ConfigError);
}

TEST(Journal, NonJournalFileThrows) {
  const std::string path = ScratchPath("notjournal");
  WriteFileBytes(path, "run_seed,outcome,this is a csv not a journal\n");
  std::vector<RunRecord> replayed;
  EXPECT_THROW(TrialJournal(path, 1, "accum", &replayed), ConfigError);
}

// ---- Crash discipline --------------------------------------------------------

TEST(Journal, TruncationAtEveryByteRecoversIntactPrefix) {
  const std::string path = ScratchPath("truncate_src");
  const std::vector<RunRecord> recs = SampleRecords();
  std::uint64_t header_end = 0;
  // Where each intact prefix ends, so expectations are exact.
  std::vector<std::uint64_t> frame_ends;
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 11, "accum", &replayed);
    header_end = fs::file_size(path);
    for (const RunRecord& r : recs) {
      journal.Append(r);
      frame_ends.push_back(fs::file_size(path));
    }
  }
  const std::string full = ReadFileBytes(path);

  const std::string cut = ScratchPath("truncate_cut");
  for (std::size_t len = header_end; len <= full.size(); ++len) {
    WriteFileBytes(cut, full.substr(0, len));
    const std::vector<RunRecord> back = Replay(cut, 11);
    // Number of whole frames that fit in `len` bytes.
    std::size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= len) ++expect;
    ASSERT_EQ(back.size(), expect) << "cut at byte " << len;
    for (std::size_t i = 0; i < expect; ++i) ExpectRecordEq(recs[i], back[i], i);
    // The reopen cut the torn tail back to the last whole frame.
    EXPECT_EQ(fs::file_size(cut), expect == 0 ? header_end : frame_ends[expect - 1])
        << "cut at byte " << len;
  }
}

TEST(Journal, BitFlipFuzzNeverThrowsAndNeverServesCorruptRecords) {
  const std::string path = ScratchPath("bitflip_src");
  const std::vector<RunRecord> recs = SampleRecords();
  std::uint64_t header_end = 0;
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 99, "accum", &replayed);
    header_end = fs::file_size(path);
    for (const RunRecord& r : recs) journal.Append(r);
  }
  const std::string full = ReadFileBytes(path);
  const std::string flipped_path = ScratchPath("bitflip_cut");

  Rng rng(2026);
  for (int trial = 0; trial < 500; ++trial) {
    // Flip one random bit in the record region (header corruption is a
    // legitimate hard error — covered by NonJournalFileThrows).
    std::string bytes = full;
    const std::size_t byte = static_cast<std::size_t>(
        rng.UniformU64(header_end, bytes.size() - 1));
    bytes[byte] = static_cast<char>(
        bytes[byte] ^ static_cast<char>(1u << rng.UniformU64(0, 7)));
    WriteFileBytes(flipped_path, bytes);

    std::vector<RunRecord> back;
    ASSERT_NO_THROW(back = Replay(flipped_path, 99)) << "flip in byte " << byte;
    // Whatever survives must be a prefix of the originals, bit-exact: the
    // CRC must catch the flip at the frame it lands in.
    ASSERT_LE(back.size(), recs.size());
    for (std::size_t i = 0; i < back.size(); ++i) ExpectRecordEq(recs[i], back[i], i);
  }
}

TEST(Journal, TornTailIsDiscardedOnReopenAndAppendStaysReadable) {
  const std::string path = ScratchPath("torn");
  const std::vector<RunRecord> recs = SampleRecords();
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 5, "accum", &replayed);
    journal.Append(recs[0]);
    journal.Append(recs[1]);
  }
  // Simulate a kill -9 mid-append: half a frame of garbage at the tail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x40garbage-torn-frame";
  }
  {
    std::vector<RunRecord> replayed;
    TrialJournal journal(path, 5, "accum", &replayed);
    ASSERT_EQ(replayed.size(), 2u);  // torn tail dropped, prefix preserved
    journal.Append(recs[2]);
    journal.Append(recs[3]);
  }
  const std::vector<RunRecord> back = Replay(path, 5);
  ASSERT_EQ(back.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) ExpectRecordEq(recs[i], back[i], i);
}

}  // namespace
}  // namespace chaser::campaign
