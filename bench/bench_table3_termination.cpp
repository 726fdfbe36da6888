// Table III — Termination breakdown for the MPI application Matvec.
//
// Paper: among terminated runs (mov-operand faults injected into the master
// only), 89.77% are OS exceptions (SIGSEGV...), 9.94% MPI-runtime-detected
// errors, and 0.23% terminations surfacing on a slave node. Among the runs
// whose fault propagated master -> slave and terminated, 72.77% are OS
// exceptions and 27.23% MPI errors.
#include <cstdio>

#include "apps/app.h"
#include "bench_util.h"
#include "campaign/campaign.h"

int main() {
  using namespace chaser;
  bench::PrintHeader("Table III: Termination breakdown for MPI application Matvec",
                     "paper Table III");
  const std::uint64_t runs = bench::RunsFromEnv(1000);
  const unsigned jobs = bench::JobsFromEnv();

  campaign::CampaignConfig config;
  config.runs = runs;
  config.seed = 20200622;
  config.inject_ranks = {0};  // faults only on the master node (paper setup)

  // The table is produced by the parallel engine; a timed serial run of the
  // same campaign records the speedup and proves the outputs identical.
  campaign::CampaignResult r, serial;
  const double parallel_secs = bench::TimeSecs([&] {
    campaign::Campaign c(apps::BuildMatvec({}), config, jobs);
    r = c.Run();
  });
  const double serial_secs = bench::TimeSecs([&] {
    campaign::Campaign c(apps::BuildMatvec({}), config);
    serial = c.Run();
  });
  const bool identical = serial.terminated == r.terminated &&
                         serial.os_exception == r.os_exception &&
                         serial.mpi_error == r.mpi_error &&
                         serial.other_rank_failed == r.other_rank_failed &&
                         serial.propagated_runs == r.propagated_runs;

  std::printf("matvec: %llu runs, 4 ranks, mov-operand faults on the master\n",
              static_cast<unsigned long long>(runs));
  std::printf(
      "engine: parallel %u workers %.2fs, serial %.2fs, speedup %.2fx, "
      "serial/parallel identical: %s\n\n",
      jobs, parallel_secs, serial_secs,
      serial_secs / (parallel_secs > 0 ? parallel_secs : 1.0),
      identical ? "yes" : "NO (BUG)");
  std::printf("%s\n", r.Render("overall outcome distribution").c_str());

  const double term = static_cast<double>(r.terminated);
  const auto pct = [term](std::uint64_t n) {
    return term == 0 ? 0.0 : 100.0 * static_cast<double>(n) / term;
  };
  std::printf("%-14s %-18s %-22s %-18s\n", "Tests", "OS Exceptions",
              "MPI error detected", "Slave Node failed");
  std::printf("%s\n", std::string(76, '-').c_str());
  std::printf("%-14s %6.2f%%            %6.2f%%               %6.2f%%\n", "Total*",
              pct(r.os_exception), pct(r.mpi_error), pct(r.other_rank_failed));
  const double pterm = static_cast<double>(r.propagated_terminated);
  const auto ppct = [pterm](std::uint64_t n) {
    return pterm == 0 ? 0.0 : 100.0 * static_cast<double>(n) / pterm;
  };
  std::printf("%-14s %6.2f%%            %6.2f%%               %6.2f%%\n",
              "Propagation$", ppct(r.propagated_os_exception),
              ppct(r.propagated_mpi_error), 0.0);
  std::printf(
      "\n*: all terminated runs. $: terminated runs whose fault propagated\n"
      "   from the master to a slave (n=%llu of %llu propagated runs).\n",
      static_cast<unsigned long long>(r.propagated_terminated),
      static_cast<unsigned long long>(r.propagated_runs));
  std::printf(
      "paper:  Total        89.77%% / 9.94%% / 0.23%%\n"
      "        Propagation  72.77%% / 27.23%% / 0\n");
  return 0;
}
