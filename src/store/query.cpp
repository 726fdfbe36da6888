#include "store/query.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "campaign/report.h"
#include "common/error.h"
#include "common/strings.h"

namespace chaser::store {

namespace {

using campaign::Outcome;
using campaign::RunRecord;

}  // namespace

TrialFilter ParseTrialFilter(const std::string& spec) {
  TrialFilter f;
  std::vector<KeyVal> pairs;
  std::string bad;
  if (!ParseKeyValList(spec, &pairs, &bad)) {
    throw ConfigError("--where: bad token '" + bad +
                      "' (expected key=value[,key=value...])");
  }
  for (const KeyVal& kv : pairs) {
    const auto unknown = [&kv](const std::string& what) {
      return ConfigError("--where: unknown " + what + " '" + kv.value + "'");
    };
    if (kv.key == "outcome") {
      if (!ParseOutcome(kv.value, &f.outcome.emplace())) {
        throw unknown("outcome");
      }
    } else if (kv.key == "kind") {
      if (!vm::ParseTerminationKind(kv.value, &f.kind.emplace())) {
        throw unknown("termination kind");
      }
    } else if (kv.key == "signal") {
      if (!vm::ParseGuestSignal(kv.value, &f.signal.emplace())) {
        throw unknown("signal");
      }
    } else if (kv.key == "inject_class") {
      if (!guest::ParseInstrClass(kv.value, &f.inject_class.emplace())) {
        throw unknown("instruction class");
      }
    } else if (kv.key == "rank") {
      std::uint64_t r = 0;
      if (!ParseU64(kv.value, &r)) {
        throw ConfigError("--where: bad rank '" + kv.value + "'");
      }
      f.inject_rank = static_cast<Rank>(r);
    } else if (kv.key == "injector") {
      f.injector = kv.value;
    } else if (kv.key == "fault_class") {
      f.fault_class = kv.value;
    } else {
      throw ConfigError(
          "--where: unknown key '" + kv.key +
          "' (known: outcome, kind, signal, inject_class, rank, injector, "
          "fault_class)");
    }
  }
  return f;
}

bool MatchesFilter(const TrialFilter& f, const RunRecord& r) {
  if (f.outcome && r.outcome != *f.outcome) return false;
  if (f.kind && r.kind != *f.kind) return false;
  if (f.signal && r.signal != *f.signal) return false;
  if (f.inject_class && r.inject_class != *f.inject_class) return false;
  if (f.inject_rank && r.inject_rank != *f.inject_rank) return false;
  if (f.injector && r.injector != *f.injector) return false;
  if (f.fault_class && r.fault_class != *f.fault_class) return false;
  return true;
}

ColumnMask FilterColumns(const TrialFilter& f) {
  ColumnMask mask = 0;
  if (f.outcome) mask |= MaskOf(kColOutcome);
  if (f.kind) mask |= MaskOf(kColKind);
  if (f.signal) mask |= MaskOf(kColSignal);
  if (f.inject_class) mask |= MaskOf(kColInjectClass);
  if (f.inject_rank) mask |= MaskOf(kColInjectRank);
  if (f.injector) mask |= MaskOf(kColInjector);
  if (f.fault_class) mask |= MaskOf(kColFaultClass);
  return mask;
}

bool ParseGroupBy(const std::string& name, GroupBy* out) {
  if (name == "outcome") *out = GroupBy::kOutcome;
  else if (name == "injector") *out = GroupBy::kInjector;
  else if (name == "fault_class") *out = GroupBy::kFaultClass;
  else if (name == "inject_class") *out = GroupBy::kInjectClass;
  else if (name == "rank") *out = GroupBy::kRank;
  else return false;
  return true;
}

namespace {

ColumnMask GroupColumns(GroupBy g) {
  switch (g) {
    case GroupBy::kNone: return 0;
    case GroupBy::kOutcome: return MaskOf(kColOutcome);
    case GroupBy::kInjector: return MaskOf(kColInjector);
    case GroupBy::kFaultClass: return MaskOf(kColFaultClass);
    case GroupBy::kInjectClass: return MaskOf(kColInjectClass);
    case GroupBy::kRank: return MaskOf(kColInjectRank);
  }
  return 0;
}

std::string GroupLabel(GroupBy g, const RunRecord& r) {
  switch (g) {
    case GroupBy::kNone: return "";
    case GroupBy::kOutcome: return campaign::OutcomeName(r.outcome);
    case GroupBy::kInjector:
      return r.injector.empty() ? "(default)" : r.injector;
    case GroupBy::kFaultClass:
      return r.fault_class.empty() ? "(none)" : r.fault_class;
    case GroupBy::kInjectClass: return guest::ClassName(r.inject_class);
    case GroupBy::kRank: return StrFormat("%d", r.inject_rank);
  }
  return "";
}

void Tally(GroupAgg* agg, const RunRecord& r) {
  ++agg->trials;
  ++agg->outcomes[r.outcome];
  agg->weight += r.sample_weight;
  if (r.outcome == Outcome::kSdc) agg->sdc_weight += r.sample_weight;
}

}  // namespace

QueryResult RunQuery(const std::string& path, const QueryOptions& options) {
  // Aggregation always reads outcome + weight; the filter, group key and
  // site report add exactly the columns they touch. Everything else is
  // skipped by its length prefix on disk.
  ColumnMask mask = MaskOf(kColOutcome) | MaskOf(kColSampleWeight) |
                    FilterColumns(options.filter) |
                    GroupColumns(options.group_by);
  if (options.top_k > 0) {
    mask |= MaskOf(kColInjectPc) | MaskOf(kColInjectClass);
  }

  CtrStoreScanner scanner(path, mask);
  QueryResult result;
  result.info = scanner.info();

  std::map<std::string, GroupAgg> groups;
  std::map<std::pair<std::uint64_t, unsigned>, SiteAgg> sites;
  RunRecord r;
  while (scanner.Next(&r)) {
    ++result.scanned;
    if (!MatchesFilter(options.filter, r)) continue;
    ++result.matched;
    Tally(&result.total, r);
    if (options.group_by != GroupBy::kNone) {
      Tally(&groups[GroupLabel(options.group_by, r)], r);
    }
    if (options.top_k > 0) {
      SiteAgg& site = sites[{r.inject_pc,
                             static_cast<unsigned>(r.inject_class)}];
      site.pc = r.inject_pc;
      site.cls = r.inject_class;
      ++site.trials;
      if (r.outcome == Outcome::kSdc) ++site.sdc;
    }
  }
  result.truncated = scanner.truncated();
  result.sealed = scanner.sealed();
  result.groups.assign(groups.begin(), groups.end());
  if (options.top_k > 0) {
    std::vector<SiteAgg> all;
    all.reserve(sites.size());
    for (const auto& [key, site] : sites) all.push_back(site);
    std::sort(all.begin(), all.end(), [](const SiteAgg& a, const SiteAgg& b) {
      if (a.trials != b.trials) return a.trials > b.trials;
      if (a.pc != b.pc) return a.pc < b.pc;
      return static_cast<unsigned>(a.cls) < static_cast<unsigned>(b.cls);
    });
    if (all.size() > options.top_k) all.resize(options.top_k);
    result.top_sites = std::move(all);
  }
  return result;
}

namespace {

std::string AggLine(const GroupAgg& a) {
  std::string out =
      StrFormat("trials %llu  %s", static_cast<unsigned long long>(a.trials),
                FormatOutcomeCounts(a.outcomes, /*json=*/false).c_str());
  if (a.weight > 0.0) {
    out += StrFormat("  (weighted sdc %.2f%%)", 100.0 * a.sdc_weight / a.weight);
  }
  return out;
}

const char* GroupByLabel(GroupBy g) {
  switch (g) {
    case GroupBy::kNone: return "";
    case GroupBy::kOutcome: return "outcome";
    case GroupBy::kInjector: return "injector";
    case GroupBy::kFaultClass: return "fault_class";
    case GroupBy::kInjectClass: return "inject_class";
    case GroupBy::kRank: return "rank";
  }
  return "";
}

}  // namespace

std::string RenderQueryResult(const QueryResult& result,
                              const QueryOptions& options) {
  std::string out = StrFormat(
      "ctr store: app '%s', seed %llu, policy %s, shard %llu/%llu\n",
      result.info.app.c_str(),
      static_cast<unsigned long long>(result.info.campaign_seed),
      campaign::SamplePolicyName(result.info.sample_policy),
      static_cast<unsigned long long>(result.info.shard_index),
      static_cast<unsigned long long>(result.info.shard_count));
  if (result.truncated) {
    out += "  warning: store is truncated (writer died); results cover the "
           "intact prefix\n";
  } else if (!result.sealed) {
    out += "  warning: store is unsealed (campaign still running or killed); "
           "results cover the flushed prefix\n";
  }
  out += StrFormat("  %llu records scanned, %llu matched\n",
                   static_cast<unsigned long long>(result.scanned),
                   static_cast<unsigned long long>(result.matched));
  out += "  " + AggLine(result.total) + "\n";
  if (options.group_by != GroupBy::kNone) {
    out += StrFormat("  by %s:\n", GroupByLabel(options.group_by));
    for (const auto& [label, agg] : result.groups) {
      out += StrFormat("    %-16s %s\n", label.c_str(), AggLine(agg).c_str());
    }
  }
  if (options.top_k > 0) {
    out += StrFormat("  top %u sites by trials:\n", options.top_k);
    for (const SiteAgg& s : result.top_sites) {
      out += StrFormat("    pc %s  class %-7s trials %llu  sdc %llu\n",
                       Hex64(s.pc).c_str(), guest::ClassName(s.cls),
                       static_cast<unsigned long long>(s.trials),
                       static_cast<unsigned long long>(s.sdc));
    }
  }
  return out;
}

ExportStats ExportCsv(const std::string& path, std::ostream& out) {
  ExportStats stats;
  // Pass 1: the format version depends on whether *any* record names an
  // injector (WriteRecordsCsv's rule). One column decoded, everything else
  // skipped by its length prefix.
  bool any_injector = false;
  {
    CtrStoreScanner probe(path, MaskOf(kColInjector));
    RunRecord r;
    while (probe.Next(&r)) {
      if (!r.injector.empty()) {
        any_injector = true;
        break;
      }
    }
  }

  CtrStoreScanner scanner(path, kAllColumns);
  stats.csv_version = campaign::RecordsCsvVersionFor(
      any_injector, scanner.info().sample_policy);

  std::string buf;
  buf.reserve(1 << 16);
  campaign::AppendRecordsCsvHeader(&buf, stats.csv_version);
  RunRecord r;
  while (scanner.Next(&r)) {
    campaign::AppendRecordsCsvRow(&buf, r, stats.csv_version);
    ++stats.rows;
    if (buf.size() >= (1 << 16) - 256) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  stats.truncated = scanner.truncated();
  stats.sealed = scanner.sealed();
  return stats;
}

}  // namespace chaser::store
