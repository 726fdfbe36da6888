// Columnar store vs records CSV — the million-trial storage question. A
// synthetic campaign-shaped record stream (benign-majority outcomes, zero
// taint counters on clean trials, clustered instruction counts, a multi-
// injector v9 mix) is written into a CTR store and exported as the records
// CSV (chaser_analyze export-csv), then summarized and queried both ways,
// all streaming. The CTR store must hold ≥5x less disk than the CSV and
// aggregate ≥10x faster at 10^5+ records — the margins that make
// million-trial campaigns (ROADMAP: the defense-evaluation axis) routine
// instead of an I/O problem. Both paths stream record-at-a-time, so memory
// stays bounded regardless of record count; both must tally exactly what
// was generated.
//
// `--json` emits the table for tools/bench_to_json.sh
// (BENCH_columnar_store.json). Fixed seeds make every number reproducible.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "campaign/campaign.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "guest/isa.h"
#include "store/ctr.h"
#include "store/query.h"

namespace {

namespace fs = std::filesystem;
using namespace chaser;
using campaign::Outcome;
using campaign::RunRecord;

// One synthetic trial, shaped like a long-running injected campaign: ~10^9
// guest instructions, outcome mix near the paper's Fig. 6 (benign-heavy),
// taint counters zero unless the fault propagated, hot-path counters
// clustered around app-typical means, and three bundled injector families.
RunRecord SyntheticRecord(Rng& rng, std::uint64_t i) {
  RunRecord r;
  r.run_seed = rng.UniformU64(0, ~0ull);
  const std::uint64_t o = rng.UniformU64(0, 99);
  r.outcome = o < 72   ? Outcome::kBenign
              : o < 87 ? Outcome::kTerminated
              : o < 95 ? Outcome::kSdc
              : o < 99 ? Outcome::kCrashed
                       : Outcome::kInfra;
  const bool clean = r.outcome == Outcome::kBenign;
  r.kind = r.outcome == Outcome::kTerminated ? vm::TerminationKind::kSignaled
                                             : vm::TerminationKind::kExited;
  r.signal = r.outcome == Outcome::kTerminated ? vm::GuestSignal::kSegv
                                               : vm::GuestSignal::kNone;
  r.inject_rank = static_cast<Rank>(rng.UniformU64(0, 3));
  r.failure_rank = clean ? -1 : r.inject_rank;
  r.deadlock = false;
  r.propagated_cross_rank = !clean && rng.UniformU64(0, 3) == 0;
  r.propagated_cross_node = r.propagated_cross_rank && rng.UniformU64(0, 1) == 0;
  r.injections = 1;
  r.tainted_reads = clean ? 0 : 2000 + rng.UniformU64(0, 500);
  r.tainted_writes = clean ? 0 : 1500 + rng.UniformU64(0, 400);
  r.peak_tainted_bytes = clean ? 0 : 4096 + 8 * rng.UniformU64(0, 256);
  r.tainted_output_bytes = r.outcome == Outcome::kSdc ? 64 : 0;
  r.instructions = 1'000'000'000 + rng.UniformU64(0, 40'000);
  r.trigger_nth = rng.UniformU64(1, r.instructions);
  r.flip_bits = 1;
  r.trace_dropped = 0;
  r.taint_lost = 0;
  r.retries = 0;
  if (r.outcome == Outcome::kInfra) {
    r.infra_error = "TrialEngine: worker lost, attempt 1";
  }
  // A handful of hot injection sites, as golden-site dedup leaves behind.
  r.inject_pc = 0x401000 + 8 * rng.UniformU64(0, 63);
  r.inject_class =
      i % 2 == 0 ? guest::InstrClass::kFadd : guest::InstrClass::kFmul;
  r.sample_weight = 1.0;
  const std::uint64_t inj = rng.UniformU64(0, 2);
  r.injector = inj == 0 ? "bitflip" : (inj == 1 ? "stuckat" : "multibit");
  r.fault_class = inj == 0 ? "transient" : (inj == 1 ? "stuck-at" : "burst");
  return r;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    total += static_cast<std::uint64_t>(fs::file_size(e.path()));
  }
  return total;
}

struct Tally {
  std::uint64_t records = 0;
  OutcomeArray<std::uint64_t> outcomes;
  std::uint64_t matched = 0;
};

/// Stream the rows of an exported records CSV (v9: every record names an
/// injector) as records holding only the columns the tallies read, found by
/// name in the header row — a bench-local split with no validation.
template <typename Fn>
void ForEachCsvRow(const std::string& path, Fn&& fn) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);  // version line
  std::getline(in, line);  // column header
  const std::vector<std::string> header = Split(line, ',');
  const auto column = [&header](const char* name) {
    const auto it = std::find(header.begin(), header.end(), name);
    if (it == header.end()) {
      throw ConfigError(std::string("records CSV has no column ") + name);
    }
    return static_cast<std::size_t>(it - header.begin());
  };
  const std::size_t outcome = column("outcome");
  const std::size_t inject_pc = column("inject_pc");
  const std::size_t inject_class = column("inject_class");
  const std::size_t injector = column("injector");
  RunRecord r;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = Split(line, ',');
    ParseOutcome(cells[outcome], &r.outcome);
    ParseU64(cells[inject_pc], &r.inject_pc);
    guest::ParseInstrClass(cells[inject_class], &r.inject_class);
    r.injector = cells[injector];
    fn(r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  // CHASER_BENCH_RUNS scales the record count; the acceptance margin is
  // stated at >=1e5 records, so that is the default.
  const std::uint64_t n = bench::RunsFromEnv(100'000);

  if (!json) {
    bench::PrintHeader(
        "Columnar trial store vs records CSV at campaign scale",
        "storage/aggregation margins behind the million-trial query engine");
    std::printf("records: %llu (synthetic, fixed seed)\n\n",
                static_cast<unsigned long long>(n));
  }

  const std::string work =
      (fs::temp_directory_path() / "chaser_bench_columnar_store").string();
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string csv_path = work + "/records.csv";
  const std::string ctr_path = work + "/records.ctr";

  // ---- the store, written as a campaign writes it; the CSV, exported -------
  double csv_write_s, ctr_write_s;
  {
    Rng rng(2026);
    store::CtrStoreInfo identity;
    identity.campaign_seed = 2026;
    identity.app = "synthetic";
    store::CtrStoreWriter writer(ctr_path, identity, {});
    ctr_write_s = bench::TimeSecs([&] {
      for (std::uint64_t i = 0; i < n; ++i) {
        writer.Add(SyntheticRecord(rng, i));
      }
      writer.Finish();
    });
  }
  csv_write_s = bench::TimeSecs([&] {
    std::ofstream out(csv_path, std::ios::binary);
    store::ExportCsv(ctr_path, out);
  });
  const auto csv_bytes = static_cast<std::uint64_t>(fs::file_size(csv_path));
  const std::uint64_t ctr_bytes = DirBytes(ctr_path);
  const double size_ratio =
      static_cast<double>(csv_bytes) / static_cast<double>(ctr_bytes);

  // ---- summarize: the outcome tally behind `chaser_analyze summarize` -------
  Tally csv_sum, ctr_sum;
  const double csv_sum_s = bench::TimeSecs([&] {
    ForEachCsvRow(csv_path, [&](const RunRecord& r) {
      ++csv_sum.records;
      ++csv_sum.outcomes[r.outcome];
    });
  });
  const double ctr_sum_s = bench::TimeSecs([&] {
    store::CtrStoreScanner scanner(
        ctr_path, store::MaskOf(store::kColRunSeed) |
                      store::MaskOf(store::kColOutcome) |
                      store::MaskOf(store::kColFlags) |
                      store::MaskOf(store::kColSampleWeight));
    RunRecord r;
    while (scanner.Next(&r)) {
      ++ctr_sum.records;
      ++ctr_sum.outcomes[r.outcome];
    }
  });
  const double sum_speedup = csv_sum_s / ctr_sum_s;

  // ---- query: the same filtered group-by + top-k sites, CSV streaming vs
  // the store's column-masked scan ---------------------------------------------
  const store::TrialFilter filter =
      store::ParseTrialFilter("outcome=sdc,injector=stuckat");
  Tally csv_q;
  std::map<std::string, std::uint64_t> csv_groups;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> csv_sites;
  const double csv_q_s = bench::TimeSecs([&] {
    ForEachCsvRow(csv_path, [&](const RunRecord& r) {
      ++csv_q.records;
      if (!store::MatchesFilter(filter, r)) return;
      ++csv_q.matched;
      csv_groups[r.injector.empty() ? "(default)" : r.injector]++;
      csv_sites[{r.inject_pc, static_cast<std::uint64_t>(r.inject_class)}]++;
    });
  });
  store::QueryResult ctr_q;
  const double ctr_q_s = bench::TimeSecs([&] {
    store::QueryOptions opts;
    opts.filter = filter;
    opts.group_by = store::GroupBy::kInjector;
    opts.top_k = 10;
    ctr_q = store::RunQuery(ctr_path, opts);
  });
  const double query_speedup = csv_q_s / ctr_q_s;

  // ---- self-checks: both formats against the generated records -----------
  Tally truth;
  std::map<std::string, std::uint64_t> truth_groups;
  {
    Rng rng(2026);
    for (std::uint64_t i = 0; i < n; ++i) {
      const RunRecord r = SyntheticRecord(rng, i);
      ++truth.records;
      ++truth.outcomes[r.outcome];
      if (!store::MatchesFilter(filter, r)) continue;
      ++truth.matched;
      truth_groups[r.injector.empty() ? "(default)" : r.injector]++;
    }
  }
  bool pass = true;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench_columnar_store: FAIL %s\n", what);
      pass = false;
    }
  };
  check(csv_sum.records == n && ctr_sum.records == n,
        "both paths saw every record");
  check(csv_sum.outcomes.values == truth.outcomes.values &&
            ctr_sum.outcomes.values == truth.outcomes.values,
        "outcome tallies identical to the generated records");
  check(ctr_q.matched == truth.matched && csv_q.matched == truth.matched &&
            ctr_q.scanned == n,
        "query matched the generated records' filter count");
  check(ctr_q.groups.size() == truth_groups.size() &&
            csv_groups == truth_groups,
        "group-by buckets identical to the generated records");
  for (const auto& [label, agg] : ctr_q.groups) {
    const auto it = truth_groups.find(label);
    check(it != truth_groups.end() && it->second == agg.trials,
          "per-group trial counts identical to the generated records");
  }
  check(ctr_q.top_sites.size() == std::min<std::size_t>(10, csv_sites.size()),
        "top-k site count matches the CSV-side site map");
  check(size_ratio >= 5.0, "size ratio >= 5x");
  check(sum_speedup >= 10.0, "summarize speedup >= 10x");
  check(query_speedup >= 10.0, "query speedup >= 10x");

  if (json) {
    std::printf(
        "{\n  \"bench\": \"columnar_store\",\n  \"records\": %llu,\n"
        "  \"csv_bytes\": %llu,\n  \"ctr_bytes\": %llu,\n"
        "  \"size_ratio\": %.2f,\n"
        "  \"csv_write_s\": %.3f,\n  \"ctr_write_s\": %.3f,\n"
        "  \"csv_summarize_s\": %.3f,\n  \"ctr_summarize_s\": %.3f,\n"
        "  \"summarize_speedup\": %.1f,\n"
        "  \"csv_query_s\": %.3f,\n  \"ctr_query_s\": %.3f,\n"
        "  \"query_speedup\": %.1f,\n"
        "  \"streaming\": true,\n  \"pass\": %s\n}\n",
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(csv_bytes),
        static_cast<unsigned long long>(ctr_bytes), size_ratio, csv_write_s,
        ctr_write_s, csv_sum_s, ctr_sum_s, sum_speedup, csv_q_s, ctr_q_s,
        query_speedup, pass ? "true" : "false");
  } else {
    std::printf("on disk      csv %10llu B   ctr %10llu B   %.2fx smaller\n",
                static_cast<unsigned long long>(csv_bytes),
                static_cast<unsigned long long>(ctr_bytes), size_ratio);
    std::printf("write        csv %8.3f s   ctr %8.3f s\n", csv_write_s,
                ctr_write_s);
    std::printf("summarize    csv %8.3f s   ctr %8.3f s   %.1fx faster\n",
                csv_sum_s, ctr_sum_s, sum_speedup);
    std::printf("query        csv %8.3f s   ctr %8.3f s   %.1fx faster\n",
                csv_q_s, ctr_q_s, query_speedup);
    std::printf("=> %s\n", pass ? "PASS" : "FAIL");
  }
  fs::remove_all(work);
  return pass ? 0 : 1;
}
