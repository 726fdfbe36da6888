// Tests for the campaign post-analysis module: the exact bytes of the
// records CSV export and the offline propagation statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "core/trace.h"

namespace chaser::campaign {
namespace {

RunRecord SampleRecord(std::uint64_t seed) {
  RunRecord r;
  r.run_seed = seed;
  r.outcome = Outcome::kTerminated;
  r.kind = vm::TerminationKind::kSignaled;
  r.signal = vm::GuestSignal::kSegv;
  r.inject_rank = 0;
  r.failure_rank = 2;
  r.deadlock = false;
  r.propagated_cross_rank = true;
  r.propagated_cross_node = true;
  r.injections = 1;
  r.tainted_reads = 123;
  r.tainted_writes = 45;
  r.peak_tainted_bytes = 678;
  r.trigger_nth = 999;
  r.flip_bits = 2;
  r.instructions = 1'000'000;
  r.trace_dropped = 41;
  return r;
}

TEST(Report, AppendBufferWriterIsByteExact) {
  // The writer formats rows into one preallocated append buffer instead of
  // per-field ostream inserts; pin the exact bytes so any future formatter
  // change that would perturb archived CSVs (or the CTR export identity)
  // fails here first.
  std::stringstream ss;
  WriteRecordsCsv({SampleRecord(1)}, ss);
  EXPECT_EQ(ss.str(),
            "#chaser-records-csv v7\n"
            "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
            "propagated_cross_rank,propagated_cross_node,injections,"
            "tainted_reads,tainted_writes,peak_tainted_bytes,"
            "tainted_output_bytes,trigger_nth,flip_bits,instructions,"
            "trace_dropped,taint_lost,retries,infra_error\n"
            "1,terminated,os-exception,SIGSEGV,0,2,0,1,1,1,123,45,678,0,999,2,"
            "1000000,41,0,0,\n");

  // And the streamed output is exactly header + per-row appends, including
  // across the 64 KiB chunked-flush boundary.
  std::vector<RunRecord> many;
  for (std::uint64_t i = 0; i < 1500; ++i) many.push_back(SampleRecord(i));
  std::stringstream streamed;
  WriteRecordsCsv(many, streamed);
  std::string expected;
  AppendRecordsCsvHeader(&expected, 7);
  for (const RunRecord& r : many) AppendRecordsCsvRow(&expected, r, 7);
  EXPECT_GT(expected.size(), std::size_t{1} << 16);
  EXPECT_EQ(streamed.str(), expected);

  // Every column of every layout, each holding a value no neighbour holds:
  // a field written into another's column, or in another format, changes
  // these bytes. The flags alternate, and flip between the rows, so each is
  // set in some row. infra_error and injector need sanitizing, failure_rank
  // is negative, and 0.1 prints exactly only with %.17g. The host counters
  // are set too: no layout has a column for them.
  RunRecord rec;
  rec.run_seed = 12345678901234567890ull;
  rec.outcome = Outcome::kTerminated;
  rec.kind = vm::TerminationKind::kSignaled;
  rec.signal = vm::GuestSignal::kSegv;
  rec.inject_rank = 3;
  rec.failure_rank = -7;
  rec.deadlock = true;
  rec.propagated_cross_node = true;
  rec.injections = 4;
  rec.tainted_reads = 123;
  rec.tainted_writes = 45;
  rec.peak_tainted_bytes = 678;
  rec.tainted_output_bytes = 321;
  rec.trigger_nth = 999;
  rec.flip_bits = 2;
  rec.instructions = 1'000'000;
  rec.trace_dropped = 41;
  rec.taint_lost = 5;
  rec.retries = 6;
  rec.infra_error = "line one\nwith,commas\rand returns";
  rec.tb_chain_hits = 4096;
  rec.tlb_hits = 777;
  rec.tlb_misses = 13;
  rec.inject_pc = 4242;
  rec.inject_class = guest::InstrClass::kFmul;
  rec.sample_weight = 0.1;
  const std::string v7_cells =
      "12345678901234567890,terminated,os-exception,SIGSEGV,3,-7,1,0,1,4,123,"
      "45,678,321,999,2,1000000,41,5,6,line one with commas and returns";
  std::stringstream v7;
  WriteRecordsCsv({rec}, v7);
  EXPECT_EQ(v7.str(),
            "#chaser-records-csv v7\n"
            "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
            "propagated_cross_rank,propagated_cross_node,injections,"
            "tainted_reads,tainted_writes,peak_tainted_bytes,"
            "tainted_output_bytes,trigger_nth,flip_bits,instructions,"
            "trace_dropped,taint_lost,retries,infra_error\n" +
                v7_cells + "\n");

  RunRecord flipped = rec;
  flipped.deadlock = false;
  flipped.propagated_cross_rank = true;
  flipped.propagated_cross_node = false;
  std::stringstream v8;
  WriteRecordsCsv({flipped}, v8, SamplePolicy::kWeighted);
  EXPECT_EQ(v8.str(),
            "#chaser-records-csv v8\n"
            "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
            "propagated_cross_rank,propagated_cross_node,injections,"
            "tainted_reads,tainted_writes,peak_tainted_bytes,"
            "tainted_output_bytes,trigger_nth,flip_bits,instructions,"
            "trace_dropped,taint_lost,retries,infra_error,inject_pc,"
            "inject_class,sample_weight\n"
            "12345678901234567890,terminated,os-exception,SIGSEGV,3,-7,0,1,0,"
            "4,123,45,678,321,999,2,1000000,41,5,6,line one with commas and "
            "returns,4242,fmul,0.10000000000000001\n");

  rec.injector = "multi,bit";
  rec.fault_class = "transient\nbitflip";
  std::stringstream v9;
  WriteRecordsCsv({rec}, v9);
  EXPECT_EQ(v9.str(),
            "#chaser-records-csv v9\n"
            "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
            "propagated_cross_rank,propagated_cross_node,injections,"
            "tainted_reads,tainted_writes,peak_tainted_bytes,"
            "tainted_output_bytes,trigger_nth,flip_bits,instructions,"
            "trace_dropped,taint_lost,retries,infra_error,inject_pc,"
            "inject_class,sample_weight,injector,fault_class\n" +
                v7_cells + ",4242,fmul,0.10000000000000001,multi bit,"
                           "transient bitflip\n");
}

// ---- Format versioning --------------------------------------------------------

TEST(Report, WriterEmitsVersionLine) {
  // Uniform campaigns write the narrow v7 layout; sampled campaigns opt into
  // v8, and only custom-injector campaigns (any record naming its injector)
  // write the current (v9) format.
  std::stringstream uniform;
  WriteRecordsCsv({SampleRecord(1)}, uniform);
  EXPECT_EQ(uniform.str().rfind("#chaser-records-csv v7\n", 0), 0u)
      << "uniform campaigns carry no sampling or injector columns";

  std::stringstream sampled;
  WriteRecordsCsv({SampleRecord(1)}, sampled, SamplePolicy::kWeighted);
  EXPECT_EQ(sampled.str().rfind("#chaser-records-csv v8\n", 0), 0u)
      << "sampled default-injector campaigns carry no injector columns";

  RunRecord custom = SampleRecord(1);
  custom.injector = "multibit";
  custom.fault_class = "transient-bitflip";
  std::stringstream injected;
  WriteRecordsCsv({custom}, injected);
  const std::string expect =
      "#chaser-records-csv v" + std::to_string(kRecordsCsvVersion) + "\n";
  EXPECT_EQ(injected.str().rfind(expect, 0), 0u)
      << "files must self-identify with the shared kRecordsCsvVersion so "
         "their readers can tell the layouts apart";
}

TEST(Report, TimelineCsvFormat) {
  std::vector<core::TaintSample> samples{{0, 100, 5}, {1, 200, 7}};
  std::stringstream ss;
  WriteTimelineCsv(samples, ss);
  EXPECT_EQ(ss.str(), "rank,instret,tainted_bytes\n0,100,5\n1,200,7\n");
}

TEST(Report, TraceLogCsv) {
  core::TraceLog log;
  log.Add({.kind = core::TraceEventKind::kTaintedRead, .rank = 1, .instret = 9,
           .pc = 2, .vaddr = 0x10, .paddr = 0x20, .size = 8, .value = 0xab,
           .taint = 0xff});
  std::stringstream ss;
  log.WriteCsv(ss);
  const std::string csv = ss.str();
  EXPECT_NE(csv.find("kind,rank,instret"), std::string::npos);
  EXPECT_NE(csv.find("T-READ,1,9,0x0000000000400008"), std::string::npos);
}

TEST(Report, AnalyzePropagationMatchesHandCounts) {
  std::vector<RunRecord> records(4);
  records[0].tainted_reads = 10;
  records[0].tainted_writes = 5;   // more reads
  records[1].tainted_reads = 3;
  records[1].tainted_writes = 0;   // only reads (and more reads)
  records[2].tainted_reads = 0;
  records[2].tainted_writes = 9;   // only writes
  records[3].tainted_reads = 2;
  records[3].tainted_writes = 2;   // balanced
  const PropagationStats stats = AnalyzePropagation(records);
  EXPECT_EQ(stats.runs, 4u);
  EXPECT_EQ(stats.total_tainted_reads, 15u);
  EXPECT_EQ(stats.total_tainted_writes, 16u);
  EXPECT_EQ(stats.max_tainted_reads, 10u);
  EXPECT_EQ(stats.max_tainted_writes, 9u);
  EXPECT_DOUBLE_EQ(stats.pct_more_reads_than_writes, 50.0);
  EXPECT_DOUBLE_EQ(stats.pct_only_reads, 25.0);
  EXPECT_DOUBLE_EQ(stats.pct_only_writes, 25.0);
}

TEST(Report, AnalyzeEmptyIsSafe) {
  const PropagationStats stats = AnalyzePropagation({});
  EXPECT_EQ(stats.runs, 0u);
  EXPECT_DOUBLE_EQ(stats.pct_only_reads, 0.0);
}

TEST(Report, SdcPredictionHandCounts) {
  std::vector<RunRecord> records(5);
  records[0].kind = vm::TerminationKind::kExited;
  records[0].outcome = Outcome::kSdc;
  records[0].tainted_output_bytes = 8;   // tp
  records[1].kind = vm::TerminationKind::kExited;
  records[1].outcome = Outcome::kBenign;
  records[1].tainted_output_bytes = 8;   // fp (over-approximation)
  records[2].kind = vm::TerminationKind::kExited;
  records[2].outcome = Outcome::kSdc;
  records[2].tainted_output_bytes = 0;   // fn (control-flow-only propagation)
  records[3].kind = vm::TerminationKind::kExited;
  records[3].outcome = Outcome::kBenign;
  records[3].tainted_output_bytes = 0;   // tn
  records[4].kind = vm::TerminationKind::kSignaled;  // terminated: excluded
  records[4].outcome = Outcome::kTerminated;
  const SdcPredictionStats p = AnalyzeSdcPrediction(records);
  EXPECT_EQ(p.completed_runs, 4u);
  EXPECT_EQ(p.true_positives, 1u);
  EXPECT_EQ(p.false_positives, 1u);
  EXPECT_EQ(p.false_negatives, 1u);
  EXPECT_EQ(p.true_negatives, 1u);
  EXPECT_DOUBLE_EQ(p.precision, 0.5);
  EXPECT_DOUBLE_EQ(p.recall, 0.5);
}

TEST(Report, SdcPredictionEmptySafe) {
  const SdcPredictionStats p = AnalyzeSdcPrediction({});
  EXPECT_EQ(p.completed_runs, 0u);
  EXPECT_DOUBLE_EQ(p.precision, 0.0);
}

}  // namespace
}  // namespace chaser::campaign
