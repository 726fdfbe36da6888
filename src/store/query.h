// Streaming query engine over CTR trial stores.
//
// `chaser_analyze query` runs here: equality filters (`--where
// outcome=sdc,injector=stuckat`), grouped outcome tallies (`--group-by
// outcome|injector|fault_class|inject_class|rank`) and a top-K over
// injection sites (pc × instruction class) — all computed in one pass over
// a CtrStoreScanner that decodes only the columns the query touches and
// never materializes the record set. `export-csv` reproduces the records
// CSV byte-for-byte (shared row formatter with WriteRecordsCsv), demoting
// CSV from the storage format to an export.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "store/ctr.h"

namespace chaser::store {

/// Conjunction of equality predicates over a RunRecord; unset fields match
/// everything.
struct TrialFilter {
  std::optional<campaign::Outcome> outcome;
  std::optional<vm::TerminationKind> kind;
  std::optional<vm::GuestSignal> signal;
  std::optional<guest::InstrClass> inject_class;
  std::optional<Rank> inject_rank;
  std::optional<std::string> injector;
  std::optional<std::string> fault_class;
};

/// Parse a `--where` spec: comma-separated key=value pairs over the keys
/// outcome, kind, signal, inject_class, rank, injector, fault_class. Values
/// use the same names the CSV prints ("sdc", "fadd", ...); `injector=` with
/// an empty value matches the default injector. Throws ConfigError on an
/// unknown key or unparsable value.
TrialFilter ParseTrialFilter(const std::string& spec);

bool MatchesFilter(const TrialFilter& f, const campaign::RunRecord& r);

/// The columns a scan must decode to evaluate `f`.
ColumnMask FilterColumns(const TrialFilter& f);

enum class GroupBy : std::uint8_t {
  kNone,
  kOutcome,
  kInjector,
  kFaultClass,
  kInjectClass,
  kRank,
};

/// Parse "outcome"/"injector"/"fault_class"/"inject_class"/"rank".
bool ParseGroupBy(const std::string& name, GroupBy* out);

/// Per-group streaming aggregate.
struct GroupAgg {
  std::uint64_t trials = 0;
  OutcomeArray<std::uint64_t> outcomes;
  /// sample_weight sums (total and SDC share): the weighted SDC rate of a
  /// sampled campaign, exact under importance weights.
  double weight = 0.0;
  double sdc_weight = 0.0;
};

/// One injection site for --top-k: a static pc with its instruction class.
struct SiteAgg {
  std::uint64_t pc = 0;
  guest::InstrClass cls = guest::InstrClass::kMov;
  std::uint64_t trials = 0;
  std::uint64_t sdc = 0;
};

struct QueryOptions {
  TrialFilter filter;
  GroupBy group_by = GroupBy::kNone;
  /// > 0: also report the top-K sites by matched-trial count (ties broken by
  /// ascending pc). State is one map entry per *site*, bounded by the static
  /// program, not the trial count.
  unsigned top_k = 0;
};

struct QueryResult {
  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  GroupAgg total;
  /// Group label -> aggregate, label-sorted (deterministic output). Labels
  /// are the CSV cell values; the empty injector/fault_class prints as
  /// "(default)" / "(none)".
  std::vector<std::pair<std::string, GroupAgg>> groups;
  std::vector<SiteAgg> top_sites;
  CtrStoreInfo info;
  bool truncated = false;
  bool sealed = true;
};

/// One streaming pass over the store at `path`, decoding only the columns
/// the options touch. Throws ConfigError on a missing/corrupt store.
QueryResult RunQuery(const std::string& path, const QueryOptions& options);

/// Human-readable rendering of a query result (chaser_analyze's default
/// output; --json renders tool-side).
std::string RenderQueryResult(const QueryResult& result,
                              const QueryOptions& options);

struct ExportStats {
  std::uint64_t rows = 0;
  unsigned csv_version = 0;
  bool truncated = false;
  bool sealed = true;
};

/// Stream the store back out as a records CSV, byte-identical to what
/// WriteRecordsCsv produces for the same records and sample policy: pass 1
/// scans the injector column alone to pick the format version, pass 2
/// streams every row through the shared formatter. A truncated store exports
/// its intact prefix (flagged in the returned stats).
ExportStats ExportCsv(const std::string& path, std::ostream& out);

}  // namespace chaser::store
