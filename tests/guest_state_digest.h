// The identity oracle: did two runs leave the same guest state? A snapshot
// is what the ForEachPart walks of vm::Vm, mpi::Cluster, core::Chaser,
// hub::TaintHub and campaign::TrialEngine (which Capture and Restore walk
// too) visit on a live side, plus each VM's tainted-byte count, which is
// not checkpoint state. It names no part, so a part added to a walk is
// compared with no edit here. No walk holds host state (TB index, TLB,
// host counters): two runs may differ there and compute the same thing.
#pragma once

#include <gtest/gtest.h>

#include <any>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "tcg/shared_cache.h"

namespace chaser::digest {

/// What is compared of a part: the part, but memory as the guest sees it
/// (MapRegion calls, touched pages' bytes) and an image by content.
template <typename T>
T Value(const T& part) {
  return part;
}
inline auto Value(const vm::GuestMemory& memory) {
  const vm::GuestMemory::Checkpoint ck = memory.Capture(nullptr);
  std::vector<std::pair<std::uint64_t, std::string>> pages;
  for (const auto& page : ck.pages) {
    pages.emplace_back(page.vpage, "");
    for (const auto& chunk : *page.chunks) {
      pages.back().second.append(reinterpret_cast<const char*>(chunk->data()),
                                 chunk->size());
    }
  }
  return std::pair(ck.regions, pages);
}
inline std::uint64_t Value(const std::shared_ptr<const guest::Program>& image) {
  return image == nullptr ? 0 : tcg::SharedTbCache::HashProgram(*image);
}

/// A layer of state: a type with a walk over its own Checkpoint.
template <typename T>
concept Layer = requires(typename T::Checkpoint ck, const T& live) {
  T::ForEachPart(ck, live, [](auto&&...) {});
};

/// A part: where it sits ("cluster rank 1 vm memory"), its Value(), and
/// how two values of its type compare.
struct Part {
  std::string where;
  std::any value;
  bool (*same)(const std::any&, const std::any&);
};
using State = std::vector<Part>;

/// Appends each live part a walk visits to `state`, walking each layer
/// against a checkpoint of its own that nothing reads.
struct Snap {
  State* state;
  std::string scope;

  template <typename Ck, typename T>
  void operator()(const char* name, Ck&, const T& live) const {
    using V = decltype(Value(live));
    state->push_back({scope + name, Value(live), [](const auto& a, const auto& b) {
                        return std::any_cast<const V&>(a) == std::any_cast<const V&>(b);
                      }});
  }
  template <typename Ck, typename T>
    requires Layer<T>
  void operator()(const char* name, Ck& ck, const T& live) const {
    const Snap in{state, *name == '\0' ? scope : scope + name + " "};
    typename T::Checkpoint parts;
    T::ForEachPart(parts, live, in);
    if constexpr (std::is_same_v<T, vm::Vm>) {
      in("tainted bytes", ck, live.taint().CountTaintedBytes());
    }
  }
  template <typename Ck, typename T>
  void operator()(const char* name, Rank rank, Ck& ck, T& live) const {
    Snap{state, rank < 0 ? scope : scope + "rank " + std::to_string(rank) + " "}(
        name, ck, live);
  }
};

/// The guest state of a live Vm, Cluster or TrialEngine.
template <typename Live>
State Snapshot(const Live& live) {
  State state;
  int no_checkpoint = 0;
  Snap{&state, ""}("", no_checkpoint, live);
  return state;
}

/// Success when two snapshots hold the same guest state; a failure names
/// each part that differs.
inline testing::AssertionResult Same(const State& got, const State& want) {
  std::string differ = got.size() == want.size() ? "" : " [part count]";
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i].where != want[i].where ||
        !want[i].same(got[i].value, want[i].value)) {
      differ += " [" + want[i].where + "]";
    }
  }
  if (differ.empty()) return testing::AssertionSuccess();
  return testing::AssertionFailure() << "guest state differs in" << differ;
}

template <typename Live>
testing::AssertionResult SameState(const Live& got, const Live& want) {
  return Same(Snapshot(got), Snapshot(want));
}

}  // namespace chaser::digest
