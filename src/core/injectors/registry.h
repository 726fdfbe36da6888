// The name-keyed injector registry behind `chaser_run --injector` (paper
// §III-B: users add custom fault injectors against Chaser's exported
// interfaces; Table II's claim is ~100 LOC per injector).
//
// An injector family registers once — a name, a fault-class label for the
// outcome taxonomy, a parameter spec, and a factory — and every campaign
// layer (trial engine, records CSV, CTR store, chaser_analyze) picks it up by
// name. The factory runs once per trial, after the trial's RNG draws, so a
// family can default its parameters from the campaign's per-trial bit-flip
// width and still be fully deterministic in the trial's run_seed.
//
// The bundled families and their fault classes:
//
//   probabilistic  transient-bitflip   random bits of a random operand
//   deterministic  transient-bitflip   exact mask on an exact operand
//   group          transient-bitflip   every FP source operand at once
//   multibit       transient-bitflip   contiguous bit burst in one operand
//   burst          spatial-burst       adjacent *registers* corrupted together
//   stuckat        stuck-at            bits pinned to 0/1 for the whole trial
//   iskip          instruction-skip    targeted instruction squashed
//   rank-crash     process-crash       the injected rank dies mid-run
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/injector.h"

namespace chaser::core {

/// A parsed `--injector name[:key=val,...]` spec. An empty name selects the
/// campaign's default fault model (the legacy probabilistic bit-flip path,
/// byte-identical to pre-registry output).
struct InjectorSpec {
  std::string name;
  std::vector<KeyVal> params;

  bool IsDefault() const { return name.empty(); }
};

/// What a factory receives when a trial builds its injector: the parsed
/// spec parameters plus the campaign's per-trial `flip_bits` draw, so
/// families that take a bit count default to the campaign's
/// --flip-bits-min/max behaviour when the spec does not pin one.
struct InjectorArgs {
  const std::vector<KeyVal>& params;
  unsigned flip_bits = 1;

  bool Has(const std::string& key) const;
  /// Value of `key` parsed as u64, or `def` when absent. Throws ConfigError
  /// naming the key on a malformed value.
  std::uint64_t U64(const std::string& key, std::uint64_t def) const;
};

class InjectorRegistry {
 public:
  struct ParamSpec {
    std::string key;
    std::string help;
  };
  using Factory =
      std::function<std::shared_ptr<FaultInjector>(const InjectorArgs&)>;

  struct Entry {
    std::string name;
    std::string fault_class;  // taxonomy bucket (see file comment)
    std::string help;         // one line for --injector error/usage text
    std::vector<ParamSpec> params;
    Factory factory;
  };

  /// The process-wide registry; the bundled families are pre-registered.
  static InjectorRegistry& Global();

  /// Throws ConfigError on a duplicate name.
  void Register(Entry entry);

  const Entry* Find(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Build one trial's injector. Throws ConfigError on an unknown name
  /// (listing every registered name) or an unknown parameter key (listing
  /// the family's valid keys). `flip_bits` is the trial's bit-width draw.
  std::shared_ptr<FaultInjector> Create(const InjectorSpec& spec,
                                        unsigned flip_bits) const;

 private:
  std::map<std::string, Entry> entries_;
};

/// Parse and validate "name[:key=val,...]" against the global registry.
/// Throws ConfigError naming the offending token and the valid choices.
InjectorSpec ParseInjectorSpec(const std::string& text);

/// Self-registration for out-of-tree injector plugins: place at namespace
/// scope in the plugin's .cpp (the README walkthrough uses this). Bundled
/// families register from registry.cpp instead — a static-library archive
/// only runs a TU's initializers when one of its symbols is referenced.
#define CHASER_REGISTER_INJECTOR(ident, ...)                              \
  static const bool chaser_injector_registered_##ident [[maybe_unused]] = \
      ([] {                                                               \
        ::chaser::core::InjectorRegistry::Global().Register(__VA_ARGS__); \
        return true;                                                      \
      })()

}  // namespace chaser::core
