// The trial outcome taxonomy (§IV-B) as one table, which every surface that
// counts or names outcomes iterates. kInfra is not a fault-injection outcome:
// the trial's harness failed even after the retry budget, and the trial was
// quarantined. kCrashed is one: the injected fault killed its guest rank
// outright (the rank-crash injector), unlike kTerminated, where the guest
// OS, runtime or checker detected the fault.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "common/strings.h"

namespace chaser {

enum class Outcome : std::uint8_t { kBenign, kTerminated, kSdc, kInfra,
                                    kCrashed };

struct OutcomeInfo {
  Outcome outcome;
  const char* name;  // the spelling of every surface: report, CSV, JSON keys
  bool rate_series;  // a benign/terminated/sdc rate the estimator tracks
};

/// In enum order.
inline constexpr OutcomeInfo kOutcomes[] = {
    {Outcome::kBenign, "benign", true},
    {Outcome::kTerminated, "terminated", true},
    {Outcome::kSdc, "sdc", true},
    {Outcome::kInfra, "infra", false},
    {Outcome::kCrashed, "crashed", false},
};
inline constexpr std::size_t kNumOutcomes = std::size(kOutcomes);

static_assert([] {
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    if (static_cast<std::size_t>(kOutcomes[i].outcome) != i) return false;
  }
  return true;
}(), "kOutcomes must list every Outcome in enum order");

constexpr const char* OutcomeName(Outcome o) {
  const auto i = static_cast<std::size_t>(o);
  return i < kNumOutcomes ? kOutcomes[i].name : "?";
}

/// Name -> outcome; false for a name no outcome has.
constexpr bool ParseOutcome(std::string_view name, Outcome* out) {
  for (const OutcomeInfo& o : kOutcomes) {
    if (name == o.name) {
      *out = o.outcome;
      return true;
    }
  }
  return false;
}

/// An outcome rate with its confidence interval.
struct WilsonInterval {
  double rate = 0.0;
  double lo = 0.0;
  double hi = 1.0;
  double width() const { return hi - lo; }
};

/// One T per outcome, indexed by Outcome.
template <typename T>
struct OutcomeArray {
  std::array<T, kNumOutcomes> values{};

  T& operator[](Outcome o) { return values[static_cast<std::size_t>(o)]; }
  const T& operator[](Outcome o) const {
    return values[static_cast<std::size_t>(o)];
  }
};

/// "benign 3, terminated 1, ..." in table order; with `json`,
/// "\"benign\": 3, \"terminated\": 1, ...".
inline std::string FormatOutcomeCounts(
    const OutcomeArray<std::uint64_t>& counts, bool json) {
  std::string out;
  for (const OutcomeInfo& o : kOutcomes) {
    out += StrFormat(json ? "%s\"%s\": %llu" : "%s%s %llu",
                     out.empty() ? "" : ", ", o.name,
                     static_cast<unsigned long long>(counts[o.outcome]));
  }
  return out;
}

}  // namespace chaser
