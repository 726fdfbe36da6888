#include "campaign/report.h"

#include <cstdlib>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/strings.h"

namespace chaser::campaign {

namespace {

// Format history. A bare (versionless) first line is how v1/v2 files start;
// v3 onward leads with an explicit `#chaser-records-csv vN` line so future
// column growth cannot silently misparse old files again.
constexpr const char* kVersionLinePrefix = "#chaser-records-csv v";


constexpr const char* kRecordsHeaderV1 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions";
constexpr const char* kRecordsHeaderV2 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions,trace_dropped";
constexpr const char* kRecordsHeaderV3 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions,trace_dropped,taint_lost,retries,infra_error";
constexpr const char* kRecordsHeaderV4 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions,trace_dropped,taint_lost,retries,infra_error,"
    "tb_chain_hits,tlb_hits,tlb_misses";

constexpr const char* kRecordsHeaderV5 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions,trace_dropped,taint_lost,retries,infra_error,"
    "tb_chain_hits,tlb_hits,tlb_misses,inject_pc,inject_class,sample_weight";

constexpr const char* kRecordsHeaderV6 =
    "run_seed,outcome,kind,signal,inject_rank,failure_rank,deadlock,"
    "propagated_cross_rank,propagated_cross_node,injections,tainted_reads,"
    "tainted_writes,peak_tainted_bytes,tainted_output_bytes,trigger_nth,"
    "flip_bits,instructions,trace_dropped,taint_lost,retries,infra_error,"
    "tb_chain_hits,tlb_hits,tlb_misses,inject_pc,inject_class,sample_weight,"
    "injector,fault_class";

constexpr std::size_t kFieldsV1 = 17;
constexpr std::size_t kFieldsV2 = 18;
constexpr std::size_t kFieldsV3 = 21;
constexpr std::size_t kFieldsV4 = 24;
constexpr std::size_t kFieldsV5 = 27;
constexpr std::size_t kFieldsV6 = 29;

const char* HeaderFor(unsigned version) {
  return version == 1   ? kRecordsHeaderV1
         : version == 2 ? kRecordsHeaderV2
         : version == 3 ? kRecordsHeaderV3
         : version == 4 ? kRecordsHeaderV4
         : version == 5 ? kRecordsHeaderV5
                        : kRecordsHeaderV6;
}

std::size_t FieldsFor(unsigned version) {
  return version == 1   ? kFieldsV1
         : version == 2 ? kFieldsV2
         : version == 3 ? kFieldsV3
         : version == 4 ? kFieldsV4
         : version == 5 ? kFieldsV5
                        : kFieldsV6;
}

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
  // Uniform campaigns never populate the sampling columns, so they keep
  // writing v4 — byte for byte what earlier builds produced. Only sampled
  // campaigns opt into the wider v5 layout, and only campaigns run with a
  // non-default injector (the one way records gain an injector name) opt
  // into v6, which carries both the sampling and the injector columns.
  if (any_injector) return 6;
  if (policy != SamplePolicy::kUniform) return 5;
  return 4;
}

void AppendRecordsCsvHeader(std::string* out, unsigned version) {
  if (version >= 3) {
    out->append(kVersionLinePrefix);
    AppendU64(out, version);
    out->push_back('\n');
  }
  out->append(HeaderFor(version));
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
  if (version >= 2) {
    out->push_back(',');
    AppendU64(out, r.trace_dropped);
  }
  if (version >= 3) {
    out->push_back(',');
    AppendU64(out, r.taint_lost);
    out->push_back(',');
    AppendU64(out, r.retries);
    out->push_back(',');
    AppendSanitized(out, r.infra_error);
  }
  if (version >= 4) {
    out->push_back(',');
    AppendU64(out, r.tb_chain_hits);
    out->push_back(',');
    AppendU64(out, r.tlb_hits);
    out->push_back(',');
    AppendU64(out, r.tlb_misses);
  }
  if (version >= 5) {
    out->push_back(',');
    AppendU64(out, r.inject_pc);
    out->push_back(',');
    out->append(guest::ClassName(r.inject_class));
    out->push_back(',');
    out->append(StrFormat("%.17g", r.sample_weight));
  }
  if (version >= 6) {
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

namespace {

std::uint64_t ParseNum(const std::string& s) {
  std::uint64_t v = 0;
  if (!ParseU64(s, &v)) throw ConfigError("ReadRecordsCsv: bad number '" + s + "'");
  return v;
}

std::int64_t ParseSigned(const std::string& s) {
  if (!s.empty() && s[0] == '-') return -static_cast<std::int64_t>(ParseNum(s.substr(1)));
  return static_cast<std::int64_t>(ParseNum(s));
}

}  // namespace

RecordsCsvReader::RecordsCsvReader(std::istream& in) : in_(in) {
  std::string line;
  if (!std::getline(in_, line)) {
    throw ConfigError("ReadRecordsCsv: missing or unexpected header");
  }

  // Versioned files lead with `#chaser-records-csv vN`; versionless files
  // are identified by which historical bare header their first line matches.
  const std::string prefix = kVersionLinePrefix;
  if (line.rfind(prefix, 0) == 0) {
    std::uint64_t v = 0;
    if (!ParseU64(line.substr(prefix.size()), &v) || v == 0) {
      throw ConfigError("ReadRecordsCsv: malformed version line '" + line + "'");
    }
    if (v > kRecordsCsvVersion) {
      throw ConfigError(StrFormat(
          "ReadRecordsCsv: file is format v%llu but this build reads up to "
          "v%u — regenerate or upgrade",
          static_cast<unsigned long long>(v), kRecordsCsvVersion));
    }
    version_ = static_cast<unsigned>(v);
    if (!std::getline(in_, line)) {
      throw ConfigError("ReadRecordsCsv: version line without a header");
    }
    if (line != HeaderFor(version_)) {
      throw ConfigError(StrFormat(
          "ReadRecordsCsv: header does not match format v%u", version_));
    }
  } else if (line == kRecordsHeaderV2) {
    version_ = 2;
  } else if (line == kRecordsHeaderV1) {
    version_ = 1;
  } else {
    throw ConfigError("ReadRecordsCsv: missing or unexpected header");
  }
  fields_ = FieldsFor(version_);
}

bool RecordsCsvReader::Next(RunRecord* out) {
  while (std::getline(in_, line_)) {
    if (line_.empty()) continue;
    const std::vector<std::string> f = Split(line_, ',');
    if (f.size() != fields_) {
      throw ConfigError(StrFormat(
          "ReadRecordsCsv: expected %zu fields (format v%u), got %zu", fields_,
          version_, f.size()));
    }
    RunRecord r;
    r.run_seed = ParseNum(f[0]);
    const auto unknown = [](const std::string& what, const std::string& s) {
      return ConfigError("ReadRecordsCsv: unknown " + what + " '" + s + "'");
    };
    if (!ParseOutcome(f[1], &r.outcome)) throw unknown("outcome", f[1]);
    if (!vm::ParseTerminationKind(f[2], &r.kind)) {
      throw unknown("termination kind", f[2]);
    }
    if (!vm::ParseGuestSignal(f[3], &r.signal)) throw unknown("signal", f[3]);
    r.inject_rank = static_cast<Rank>(ParseSigned(f[4]));
    r.failure_rank = static_cast<Rank>(ParseSigned(f[5]));
    r.deadlock = ParseNum(f[6]) != 0;
    r.propagated_cross_rank = ParseNum(f[7]) != 0;
    r.propagated_cross_node = ParseNum(f[8]) != 0;
    r.injections = ParseNum(f[9]);
    r.tainted_reads = ParseNum(f[10]);
    r.tainted_writes = ParseNum(f[11]);
    r.peak_tainted_bytes = ParseNum(f[12]);
    r.tainted_output_bytes = ParseNum(f[13]);
    r.trigger_nth = ParseNum(f[14]);
    r.flip_bits = static_cast<unsigned>(ParseNum(f[15]));
    r.instructions = ParseNum(f[16]);
    if (version_ >= 2) r.trace_dropped = ParseNum(f[17]);
    if (version_ >= 3) {
      r.taint_lost = ParseNum(f[18]);
      r.retries = static_cast<unsigned>(ParseNum(f[19]));
      r.infra_error = f[20];
    }
    if (version_ >= 4) {
      r.tb_chain_hits = ParseNum(f[21]);
      r.tlb_hits = ParseNum(f[22]);
      r.tlb_misses = ParseNum(f[23]);
    }
    if (version_ >= 5) {
      r.inject_pc = ParseNum(f[24]);
      if (!guest::ParseInstrClass(f[25], &r.inject_class)) {
        throw ConfigError("ReadRecordsCsv: unknown instruction class '" +
                          f[25] + "'");
      }
      char* end = nullptr;
      r.sample_weight = std::strtod(f[26].c_str(), &end);
      if (end == f[26].c_str() || *end != '\0' || r.sample_weight < 0.0) {
        throw ConfigError("ReadRecordsCsv: bad sample_weight '" + f[26] + "'");
      }
    }
    if (version_ >= 6) {
      r.injector = f[27];
      r.fault_class = f[28];
    }
    ++rows_;
    *out = r;
    return true;
  }
  return false;
}

std::vector<RunRecord> ReadRecordsCsv(std::istream& in) {
  RecordsCsvReader reader(in);
  std::vector<RunRecord> records;
  RunRecord r;
  while (reader.Next(&r)) records.push_back(r);
  return records;
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
