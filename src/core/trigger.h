// Injection triggers — the paper's fi_trigger_st.
//
// The DECAF_inject_fault helper runs before every *targeted* instruction and
// bumps an execution counter; the trigger decides, from that counter (and
// optionally randomness), whether the fault injector fires now. A trigger
// also knows when it is exhausted so Chaser can detach the injector
// (fi_clean_cb) and flush the instrumentation out of the translation cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace chaser::core {

class Trigger {
 public:
  virtual ~Trigger() = default;

  /// Called once per execution of a targeted instruction with the 1-based
  /// execution count. Returns true when the injector must fire now.
  virtual bool ShouldFire(std::uint64_t exec_count, Rng& rng) = 0;

  /// Site-aware variant: Chaser calls this one, passing the pc of the
  /// targeted instruction about to execute. The default forwards to
  /// ShouldFire — existing triggers are pc-oblivious and keep their exact
  /// behavior; site-local triggers (PcNthTrigger) override it.
  virtual bool ShouldFireAt(std::uint64_t exec_count, std::uint64_t pc,
                            Rng& rng) {
    (void)pc;
    return ShouldFire(exec_count, rng);
  }

  /// True once no further firing is possible; Chaser detaches the injector.
  virtual bool Expired() const = 0;

  /// Per-pc targeted-execution counts, sorted by pc.
  using SiteCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  /// Golden-prefix query for a fresh trigger: a clean run made `execs`
  /// targeted executions (`sites` per pc, or null when the run did not
  /// profile sites) without consulting this trigger. True if the trigger
  /// provably would not have fired within them. The default cannot tell
  /// (random or multi-shot triggers): false.
  virtual bool SilentThrough(std::uint64_t execs, const SiteCounts* sites) const {
    (void)execs;
    (void)sites;
    return false;
  }

  /// Golden-prefix fast-forward: if SilentThrough(execs, sites), take the
  /// state the trigger would have after those executions and return true;
  /// otherwise return false, untouched. The default suits triggers whose
  /// executions before the firing one leave no state behind.
  virtual bool FastForward(std::uint64_t execs, const SiteCounts* sites) {
    return SilentThrough(execs, sites);
  }

  /// Fresh stateful copy (campaigns re-arm the same command per run).
  virtual std::unique_ptr<Trigger> Clone() const = 0;

  virtual std::string Describe() const = 0;
};

/// Deterministic fault model (Table I): fire exactly at the n-th execution.
class DeterministicTrigger final : public Trigger {
 public:
  explicit DeterministicTrigger(std::uint64_t nth);
  bool ShouldFire(std::uint64_t exec_count, Rng& rng) override;
  bool Expired() const override { return fired_; }
  bool SilentThrough(std::uint64_t execs, const SiteCounts* sites) const override;
  std::unique_ptr<Trigger> Clone() const override;
  std::string Describe() const override;

 private:
  std::uint64_t nth_;
  bool fired_ = false;
};

/// Probabilistic fault model (Table I): fire with probability p at each
/// execution, at most `max_injections` times.
class ProbabilisticTrigger final : public Trigger {
 public:
  ProbabilisticTrigger(double probability, std::uint64_t max_injections = 1);
  bool ShouldFire(std::uint64_t exec_count, Rng& rng) override;
  bool Expired() const override { return fired_ >= max_injections_; }
  std::unique_ptr<Trigger> Clone() const override;
  std::string Describe() const override;

 private:
  double probability_;
  std::uint64_t max_injections_;
  std::uint64_t fired_ = 0;
};

/// Group fault model (Table I): multiple faults — fire at every `stride`-th
/// execution starting at `first`, up to `max_injections` times.
class GroupTrigger final : public Trigger {
 public:
  GroupTrigger(std::uint64_t first, std::uint64_t stride,
               std::uint64_t max_injections);
  bool ShouldFire(std::uint64_t exec_count, Rng& rng) override;
  bool Expired() const override { return fired_ >= max_injections_; }
  std::unique_ptr<Trigger> Clone() const override;
  std::string Describe() const override;

 private:
  std::uint64_t first_;
  std::uint64_t stride_;
  std::uint64_t max_injections_;
  std::uint64_t fired_ = 0;
};

/// Site-local deterministic fault model (importance-sampled campaigns): fire
/// exactly at the n-th execution *of one pc*, counting only that pc's
/// executions. The global execution count is ignored — the sampler picks an
/// (equivalence class, invocation) pair, and the class is identified by its
/// pc, not by its position in the global targeted stream.
class PcNthTrigger final : public Trigger {
 public:
  PcNthTrigger(std::uint64_t pc, std::uint64_t nth);
  /// Pc-less call sites are assumed to be at the target pc (the trigger
  /// cannot tell otherwise); Chaser always uses ShouldFireAt.
  bool ShouldFire(std::uint64_t exec_count, Rng& rng) override;
  bool ShouldFireAt(std::uint64_t exec_count, std::uint64_t pc,
                    Rng& rng) override;
  bool Expired() const override { return fired_; }
  bool SilentThrough(std::uint64_t execs, const SiteCounts* sites) const override;
  bool FastForward(std::uint64_t execs, const SiteCounts* sites) override;
  std::unique_ptr<Trigger> Clone() const override;
  std::string Describe() const override;

 private:
  /// Executions of pc_ in `sites`.
  std::uint64_t SeenIn(const SiteCounts& sites) const;

  std::uint64_t pc_;
  std::uint64_t nth_;
  std::uint64_t seen_ = 0;  // executions of pc_ observed so far
  bool fired_ = false;
};

/// Never fires — used for profiling runs that only count targeted executions.
class NeverTrigger final : public Trigger {
 public:
  bool ShouldFire(std::uint64_t, Rng&) override { return false; }
  bool Expired() const override { return false; }
  std::unique_ptr<Trigger> Clone() const override {
    return std::make_unique<NeverTrigger>();
  }
  std::string Describe() const override { return "never"; }
};

}  // namespace chaser::core
