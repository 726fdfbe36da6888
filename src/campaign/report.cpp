#include "campaign/report.h"

#include <ostream>

#include "common/strings.h"

namespace chaser::campaign {

namespace {

constexpr const char* kVersionLinePrefix = "#chaser-records-csv v";

// The v7 columns; v8 appends the sampling columns and v9 the injector ones,
// in the order AppendRecordsCsvRow writes them.
constexpr const char* kColumnsV7 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions,trace_dropped,taint_lost,retries,infra_error";
constexpr const char* kColumnsAddedV8 = ",inject_pc,inject_class,sample_weight";
constexpr const char* kColumnsAddedV9 = ",injector,fault_class";

/// Decimal append without a temporary std::string per field. 20 digits is
/// enough for 2^64-1.
void AppendU64(std::string* out, std::uint64_t v) {
  char buf[20];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out->append(p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

void AppendI64(std::string* out, std::int64_t v) {
  if (v < 0) {
    out->push_back('-');
    AppendU64(out, static_cast<std::uint64_t>(-(v + 1)) + 1);
  } else {
    AppendU64(out, static_cast<std::uint64_t>(v));
  }
}

/// infra_error/injector/fault_class are free-form text; flatten anything
/// that would break the one-line-per-record framing or the comma split.
void AppendSanitized(std::string* out, const std::string& s) {
  for (char c : s) {
    out->push_back((c == ',' || c == '\n' || c == '\r') ? ' ' : c);
  }
}

}  // namespace

unsigned RecordsCsvVersionFor(bool any_injector, SamplePolicy policy) {
  // Uniform campaigns never populate the sampling columns, so they write
  // the narrow v7. Only sampled campaigns opt into the wider v8 layout, and
  // only campaigns run with a non-default injector (the one way records
  // gain an injector name) opt into v9, which carries both the sampling and
  // the injector columns.
  if (any_injector) return 9;
  if (policy != SamplePolicy::kUniform) return 8;
  return 7;
}

void AppendRecordsCsvHeader(std::string* out, unsigned version) {
  out->append(kVersionLinePrefix);
  AppendU64(out, version);
  out->push_back('\n');
  out->append(kColumnsV7);
  if (version >= 8) out->append(kColumnsAddedV8);
  if (version >= 9) out->append(kColumnsAddedV9);
  out->push_back('\n');
}

void AppendRecordsCsvRow(std::string* out, const RunRecord& r,
                         unsigned version) {
  AppendU64(out, r.run_seed);
  out->push_back(',');
  out->append(OutcomeName(r.outcome));
  out->push_back(',');
  out->append(vm::TerminationKindName(r.kind));
  out->push_back(',');
  out->append(vm::GuestSignalName(r.signal));
  out->push_back(',');
  AppendI64(out, r.inject_rank);
  out->push_back(',');
  AppendI64(out, r.failure_rank);
  out->push_back(',');
  out->push_back(r.deadlock ? '1' : '0');
  out->push_back(',');
  out->push_back(r.propagated_cross_rank ? '1' : '0');
  out->push_back(',');
  out->push_back(r.propagated_cross_node ? '1' : '0');
  out->push_back(',');
  AppendU64(out, r.injections);
  out->push_back(',');
  AppendU64(out, r.tainted_reads);
  out->push_back(',');
  AppendU64(out, r.tainted_writes);
  out->push_back(',');
  AppendU64(out, r.peak_tainted_bytes);
  out->push_back(',');
  AppendU64(out, r.tainted_output_bytes);
  out->push_back(',');
  AppendU64(out, r.trigger_nth);
  out->push_back(',');
  AppendU64(out, r.flip_bits);
  out->push_back(',');
  AppendU64(out, r.instructions);
  out->push_back(',');
  AppendU64(out, r.trace_dropped);
  out->push_back(',');
  AppendU64(out, r.taint_lost);
  out->push_back(',');
  AppendU64(out, r.retries);
  out->push_back(',');
  AppendSanitized(out, r.infra_error);
  if (version >= 8) {
    out->push_back(',');
    AppendU64(out, r.inject_pc);
    out->push_back(',');
    out->append(guest::ClassName(r.inject_class));
    out->push_back(',');
    out->append(StrFormat("%.17g", r.sample_weight));
  }
  if (version >= 9) {
    out->push_back(',');
    AppendSanitized(out, r.injector);
    out->push_back(',');
    AppendSanitized(out, r.fault_class);
  }
  out->push_back('\n');
}

void WriteRecordsCsv(const std::vector<RunRecord>& records, std::ostream& out,
                     SamplePolicy policy) {
  bool custom = false;
  for (const RunRecord& r : records) {
    if (!r.injector.empty()) {
      custom = true;
      break;
    }
  }
  const unsigned version = RecordsCsvVersionFor(custom, policy);
  // One preallocated append buffer instead of per-field ostream inserts:
  // rows are ~120-150 bytes, so reserve generously and flush in chunks to
  // keep the buffer out of large-allocation territory on million-row files.
  std::string buf;
  buf.reserve(1 << 16);
  AppendRecordsCsvHeader(&buf, version);
  for (const RunRecord& r : records) {
    AppendRecordsCsvRow(&buf, r, version);
    if (buf.size() >= (1 << 16) - 256) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void WriteTimelineCsv(const std::vector<core::TaintSample>& samples,
                      std::ostream& out) {
  out << "rank,instret,tainted_bytes\n";
  for (const core::TaintSample& s : samples) {
    out << s.rank << ',' << s.instret << ',' << s.tainted_bytes << '\n';
  }
}

PropagationStats AnalyzePropagation(const std::vector<RunRecord>& records) {
  PropagationStats stats;
  stats.runs = records.size();
  std::uint64_t more_reads = 0, only_reads = 0, only_writes = 0;
  for (const RunRecord& r : records) {
    stats.total_tainted_reads += r.tainted_reads;
    stats.total_tainted_writes += r.tainted_writes;
    stats.max_tainted_reads = std::max(stats.max_tainted_reads, r.tainted_reads);
    stats.max_tainted_writes = std::max(stats.max_tainted_writes, r.tainted_writes);
    if (r.tainted_reads > r.tainted_writes) ++more_reads;
    if (r.tainted_reads > 0 && r.tainted_writes == 0) ++only_reads;
    if (r.tainted_writes > 0 && r.tainted_reads == 0) ++only_writes;
  }
  if (stats.runs > 0) {
    const double n = static_cast<double>(stats.runs);
    stats.pct_more_reads_than_writes = 100.0 * static_cast<double>(more_reads) / n;
    stats.pct_only_reads = 100.0 * static_cast<double>(only_reads) / n;
    stats.pct_only_writes = 100.0 * static_cast<double>(only_writes) / n;
  }
  return stats;
}

SdcPredictionStats AnalyzeSdcPrediction(const std::vector<RunRecord>& records) {
  SdcPredictionStats stats;
  for (const RunRecord& r : records) {
    if (r.kind != vm::TerminationKind::kExited) continue;  // only completed runs
    ++stats.completed_runs;
    const bool predicted = r.tainted_output_bytes > 0;
    const bool actual = r.outcome == Outcome::kSdc;
    if (predicted && actual) ++stats.true_positives;
    if (predicted && !actual) ++stats.false_positives;
    if (!predicted && actual) ++stats.false_negatives;
    if (!predicted && !actual) ++stats.true_negatives;
  }
  const double tp = static_cast<double>(stats.true_positives);
  if (stats.true_positives + stats.false_positives > 0) {
    stats.precision =
        tp / static_cast<double>(stats.true_positives + stats.false_positives);
  }
  if (stats.true_positives + stats.false_negatives > 0) {
    stats.recall =
        tp / static_cast<double>(stats.true_positives + stats.false_negatives);
  }
  return stats;
}

}  // namespace chaser::campaign
