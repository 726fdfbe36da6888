// Campaign post-analysis: the records CSV export and offline statistics.
//
// The paper's workflow logs fault-propagation data during the runs and
// analyses it afterwards (Figs. 7-9 are produced from those logs). The
// durable log is the CTR store (store/ctr.h); this module formats records as
// the CSV the store exports (chaser_analyze export-csv) and computes the
// distribution statistics the paper reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "core/trace.h"

namespace chaser::campaign {

/// The newest records-CSV format this build writes (the
/// `#chaser-records-csv vN` lead line): the version RecordsCsvVersionFor
/// gives a custom-injector campaign. report_test and tools/bench_to_json.sh
/// (which greps this line to stamp its JSON) read it; bump it with the
/// writer.
inline constexpr unsigned kRecordsCsvVersion = 9;

/// Write one row per run. The columns are RunRecord::ForEachField's fields,
/// in its order, that the file's layout has: v7's (uniform campaigns), v7's
/// and v8's (sampled campaigns, `policy` != kUniform), or all of them (v9:
/// any record carrying an injector name). (v4/v5/v6 were the same three
/// layouts with the host counters tb_chain_hits, tlb_hits and tlb_misses
/// after infra_error.) The file leads with a `#chaser-records-csv vN`
/// version line, then the column header, then the rows; string cells are
/// sanitized (',' and newlines become spaces) so rows stay one line wide.
/// This is the reference the CTR store's export-csv is tested against.
void WriteRecordsCsv(const std::vector<RunRecord>& records, std::ostream& out,
                     SamplePolicy policy = SamplePolicy::kUniform);

/// The version WriteRecordsCsv picks for a record set: v9 when any record
/// carries an injector name, else v8 for sampled policies, else v7. The CTR
/// store's export-csv path shares this rule so its output is byte-identical
/// to WriteRecordsCsv's for the same records.
unsigned RecordsCsvVersionFor(bool any_injector, SamplePolicy policy);

/// Append the `#chaser-records-csv vN` version line plus the column header
/// for `version` (7, 8 or 9) to `*out`.
void AppendRecordsCsvHeader(std::string* out, unsigned version);

/// Append one record row (newline included) in the `version` layout. This is
/// the one row formatter behind WriteRecordsCsv and the CTR store's
/// streaming export — appends into a caller-owned buffer instead of going
/// through an ostream, so a million-row export never pays per-field stream
/// state churn.
void AppendRecordsCsvRow(std::string* out, const RunRecord& r,
                         unsigned version);

/// Write a tainted-bytes timeline (Fig. 7 series) as CSV.
void WriteTimelineCsv(const std::vector<core::TaintSample>& samples,
                      std::ostream& out);

/// Offline statistics over a set of run records (what the Fig. 8/9 analysis
/// computes from the logs).
struct PropagationStats {
  std::uint64_t runs = 0;
  std::uint64_t total_tainted_reads = 0;
  std::uint64_t total_tainted_writes = 0;
  std::uint64_t max_tainted_reads = 0;
  std::uint64_t max_tainted_writes = 0;
  double pct_more_reads_than_writes = 0.0;  // paper SIV-C: 47.1%
  double pct_only_reads = 0.0;              // paper SIV-C: 3.97%
  double pct_only_writes = 0.0;             // paper SIV-C: 14.93%
};

PropagationStats AnalyzePropagation(const std::vector<RunRecord>& records);

/// Trace-only SDC prediction: a completed run whose trace shows tainted
/// bytes reaching the output stream is predicted to be an SDC — no golden
/// run needed. This quantifies how well the propagation trace alone
/// anticipates the bit-wise output comparison.
struct SdcPredictionStats {
  std::uint64_t completed_runs = 0;
  std::uint64_t true_positives = 0;   // predicted SDC, actually SDC
  std::uint64_t false_positives = 0;  // predicted SDC, actually benign
  std::uint64_t false_negatives = 0;  // unpredicted SDC
  std::uint64_t true_negatives = 0;
  double precision = 0.0;
  double recall = 0.0;
};

SdcPredictionStats AnalyzeSdcPrediction(const std::vector<RunRecord>& records);

}  // namespace chaser::campaign
