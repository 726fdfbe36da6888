// Ablation — just-in-time selective instrumentation (Chaser) vs
// instrumenting every instruction (the F-SEFI strategy the paper replaces).
//
// Design claim (SII-C(a), SIII-A): because only targeted instructions carry
// the injection helper, and the helper is flushed out once the trigger
// expires, Chaser's instrumentation cost is a small fraction of
// whole-program instrumentation.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "apps/app.h"
#include "vm/vm.h"

namespace chaser {
namespace {

enum class Strategy { kNone, kSelective, kInstrumentAll };

/// Translation-cache key of the selective predicate; bit 63 keeps it clear
/// of the reserved keys, as in Chaser::Attach.
constexpr std::uint64_t kSelectiveKey = 1ull << 63;

apps::AppSpec MakeApp() {
  return apps::BuildKmeans({.points = 256, .dims = 4, .clusters = 4,
                            .iterations = 5});
}

std::uint64_t RunOnce(const apps::AppSpec& spec, Strategy strategy,
                      std::uint64_t* helper_calls) {
  vm::Vm vm;
  std::uint64_t calls = 0;
  vm.set_injector_hook(std::make_shared<const vm::Vm::InjectorHook>(
      [&calls](vm::Vm&, std::uint64_t) { ++calls; }));
  switch (strategy) {
    case Strategy::kNone:
      break;
    case Strategy::kSelective: {
      const std::set<guest::InstrClass> classes = spec.fault_classes;
      vm.SetInstrumentPredicate(
          [classes](const guest::Instruction& in, std::uint64_t) {
            return classes.count(guest::ClassOf(in.op)) != 0;
          },
          kSelectiveKey);
      break;
    }
    case Strategy::kInstrumentAll:
      vm.SetInstrumentAll(true);
      break;
  }
  vm.StartProcess(spec.program);
  vm.RunToCompletion();
  if (helper_calls != nullptr) *helper_calls = calls;
  return vm.instret();
}

void BM_Instrumentation(benchmark::State& state, Strategy strategy) {
  const apps::AppSpec spec = MakeApp();
  std::uint64_t calls = 0;
  for (auto _ : state) {
    RunOnce(spec, strategy, &calls);
  }
  state.counters["helper_calls"] = static_cast<double>(calls);
}

BENCHMARK_CAPTURE(BM_Instrumentation, none, Strategy::kNone);
BENCHMARK_CAPTURE(BM_Instrumentation, selective_fp, Strategy::kSelective);
BENCHMARK_CAPTURE(BM_Instrumentation, instrument_all, Strategy::kInstrumentAll);

}  // namespace
}  // namespace chaser

using chaser::Strategy;

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n=== Ablation summary: instrumentation strategy (kmeans) ===\n");
  const chaser::apps::AppSpec spec = chaser::MakeApp();
  double secs[3] = {};
  std::uint64_t calls[3] = {};
  for (int s = 0; s < 3; ++s) {
    chaser::RunOnce(spec, static_cast<Strategy>(s), &calls[s]);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 3; ++i) {
      chaser::RunOnce(spec, static_cast<Strategy>(s), nullptr);
    }
    secs[s] = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start).count() / 3.0;
  }
  const char* names[3] = {"no instrumentation", "selective (Chaser)",
                          "instrument-all (F-SEFI)"};
  for (int s = 0; s < 3; ++s) {
    std::printf("  %-26s %.3fx vs none, %llu helper calls\n", names[s],
                secs[s] / secs[0], static_cast<unsigned long long>(calls[s]));
  }
  return 0;
}
