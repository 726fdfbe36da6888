#include "core/trigger.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace chaser::core {

DeterministicTrigger::DeterministicTrigger(std::uint64_t nth) : nth_(nth) {
  if (nth == 0) throw ConfigError("DeterministicTrigger: nth must be >= 1");
}

bool DeterministicTrigger::ShouldFire(std::uint64_t exec_count, Rng&) {
  if (fired_ || exec_count != nth_) {
    // Executions past nth without firing cannot happen (Chaser detaches on
    // expiry), but stay correct if the caller keeps counting.
    if (exec_count > nth_) fired_ = true;
    return false;
  }
  fired_ = true;
  return true;
}

bool DeterministicTrigger::SilentThrough(std::uint64_t execs,
                                         const SiteCounts*) const {
  // Executions before the nth leave no state behind, so the default
  // FastForward fits.
  return !fired_ && execs < nth_;
}

std::unique_ptr<Trigger> DeterministicTrigger::Clone() const {
  return std::make_unique<DeterministicTrigger>(nth_);
}

std::string DeterministicTrigger::Describe() const {
  return StrFormat("deterministic(n=%llu)", static_cast<unsigned long long>(nth_));
}

ProbabilisticTrigger::ProbabilisticTrigger(double probability,
                                           std::uint64_t max_injections)
    : probability_(probability), max_injections_(max_injections) {
  if (probability < 0.0 || probability > 1.0) {
    throw ConfigError("ProbabilisticTrigger: probability must be in [0,1]");
  }
}

bool ProbabilisticTrigger::ShouldFire(std::uint64_t, Rng& rng) {
  if (Expired()) return false;
  if (!rng.Bernoulli(probability_)) return false;
  ++fired_;
  return true;
}

std::unique_ptr<Trigger> ProbabilisticTrigger::Clone() const {
  return std::make_unique<ProbabilisticTrigger>(probability_, max_injections_);
}

std::string ProbabilisticTrigger::Describe() const {
  return StrFormat("probabilistic(p=%g,max=%llu)", probability_,
                   static_cast<unsigned long long>(max_injections_));
}

GroupTrigger::GroupTrigger(std::uint64_t first, std::uint64_t stride,
                           std::uint64_t max_injections)
    : first_(first), stride_(stride), max_injections_(max_injections) {
  if (first == 0) throw ConfigError("GroupTrigger: first must be >= 1");
  if (stride == 0) throw ConfigError("GroupTrigger: stride must be >= 1");
  if (max_injections == 0) throw ConfigError("GroupTrigger: max_injections must be >= 1");
}

bool GroupTrigger::ShouldFire(std::uint64_t exec_count, Rng&) {
  if (Expired() || exec_count < first_) return false;
  if ((exec_count - first_) % stride_ != 0) return false;
  ++fired_;
  return true;
}

std::unique_ptr<Trigger> GroupTrigger::Clone() const {
  return std::make_unique<GroupTrigger>(first_, stride_, max_injections_);
}

std::string GroupTrigger::Describe() const {
  return StrFormat("group(first=%llu,stride=%llu,max=%llu)",
                   static_cast<unsigned long long>(first_),
                   static_cast<unsigned long long>(stride_),
                   static_cast<unsigned long long>(max_injections_));
}

PcNthTrigger::PcNthTrigger(std::uint64_t pc, std::uint64_t nth)
    : pc_(pc), nth_(nth) {
  if (nth == 0) throw ConfigError("PcNthTrigger: nth must be >= 1");
}

bool PcNthTrigger::ShouldFire(std::uint64_t exec_count, Rng& rng) {
  return ShouldFireAt(exec_count, pc_, rng);
}

bool PcNthTrigger::ShouldFireAt(std::uint64_t, std::uint64_t pc, Rng&) {
  if (fired_ || pc != pc_) return false;
  ++seen_;
  if (seen_ != nth_) {
    // Past nth without firing cannot happen (Chaser detaches on expiry), but
    // stay correct if the caller keeps counting.
    if (seen_ > nth_) fired_ = true;
    return false;
  }
  fired_ = true;
  return true;
}

std::uint64_t PcNthTrigger::SeenIn(const SiteCounts& sites) const {
  const auto it = std::lower_bound(
      sites.begin(), sites.end(), pc_,
      [](const std::pair<std::uint64_t, std::uint64_t>& site,
         std::uint64_t pc) { return site.first < pc; });
  return it != sites.end() && it->first == pc_ ? it->second : 0;
}

bool PcNthTrigger::SilentThrough(std::uint64_t, const SiteCounts* sites) const {
  return sites != nullptr && !fired_ && SeenIn(*sites) < nth_;
}

bool PcNthTrigger::FastForward(std::uint64_t execs, const SiteCounts* sites) {
  if (!SilentThrough(execs, sites)) return false;
  seen_ = SeenIn(*sites);
  return true;
}

std::unique_ptr<Trigger> PcNthTrigger::Clone() const {
  return std::make_unique<PcNthTrigger>(pc_, nth_);
}

std::string PcNthTrigger::Describe() const {
  return StrFormat("pc-nth(pc=%llu,n=%llu)",
                   static_cast<unsigned long long>(pc_),
                   static_cast<unsigned long long>(nth_));
}

}  // namespace chaser::core
