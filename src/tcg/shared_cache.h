// Process-wide shared translation cache (the cross-trial JIT cache).
//
// Translation is a pure function of (program, instrument predicate,
// translator/optimizer options, pc) — see Translator::Translate — so TBs
// produced by one trial's VM are byte-for-byte the TBs every other trial
// would produce for the same key. Campaign drivers exploit that: every
// worker's VMs point at one SharedTbCache and a campaign translates each TB
// once, not once per trial.
//
// Concurrency model (what TSan is asked to watch):
//
//  * the read path is lock-free and wait-free: a fixed power-of-two array of
//    atomic bucket heads, each an insert-only singly linked chain. Readers
//    acquire-load the head and walk immutable nodes;
//  * writers serialise on one mutex, re-check the chain for a racing winner,
//    then publish a prepended node with a release store;
//  * published nodes are immutable forever.
//
// Capacity: an optional live-TB cap with QEMU's overflow semantics — when an
// insert would exceed the cap, the whole cache is flushed: every bucket head
// is stored null, unlinking every chain. Nothing is freed — retired nodes
// live until the cache is destroyed (campaign end), so no reader can observe
// a freed TB, and a reader still walking a chain it loaded before the flush
// may return a retired TB: a correct translation all the same. Evictions are
// surfaced in stats rather than happening silently.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "guest/program.h"
#include "tcg/ir.h"

namespace chaser::tcg {

class SharedTbCache {
 public:
  /// Full cache identity of one TB: which program image, which translation
  /// variant (instrument predicate + translator/optimizer options), which pc.
  struct Key {
    std::uint64_t program = 0;  // HashProgram() of the guest image
    std::uint64_t variant = 0;  // non-zero; 0 means "not shareable"
    std::uint64_t pc = 0;
  };

  struct Stats {
    std::uint64_t translations = 0;   // TBs inserted (translated by some VM)
    std::uint64_t reuses = 0;         // lookups served from the cache
    std::uint64_t epoch_flushes = 0;  // full flushes (incl. overflow)
    std::uint64_t evicted_tbs = 0;    // live TBs retired by those flushes
  };

  /// `max_tbs` caps the *live* TB count; 0 = unlimited. Overflow triggers a
  /// full flush, QEMU-style.
  explicit SharedTbCache(std::uint64_t max_tbs = 0) : max_tbs_(max_tbs) {}

  SharedTbCache(const SharedTbCache&) = delete;
  SharedTbCache& operator=(const SharedTbCache&) = delete;

  /// Lock-free lookup. Returns the canonical TB for `key`, or nullptr on
  /// miss. The pointer stays valid (and the TB immutable) for the cache's
  /// whole lifetime, across any number of flushes.
  const TranslationBlock* Lookup(const Key& key) const;

  /// Publish a freshly translated TB for `key` and return the canonical
  /// pointer — which is an earlier racing winner's TB if two workers
  /// translated the same key concurrently (the duplicate is discarded).
  const TranslationBlock* Insert(const Key& key, TranslationBlock tb);

  /// Live TBs: inserted since the last flush.
  std::uint64_t size() const;

  /// Nodes a lookup can reach, counted by walking every chain under the
  /// writer lock (cold path, for tests). Equals size(): a flush unlinks.
  std::uint64_t ChainedNodes() const;

  Stats stats() const;

  /// Fingerprint of a guest program image for Key::program. Field-by-field
  /// FNV over name/text/data/bss/entry (never raw struct bytes — padding).
  static std::uint64_t HashProgram(const guest::Program& prog);

 private:
  struct Node {
    Key key;
    TranslationBlock tb;
    Node* next = nullptr;  // chain link, immutable once published
  };

  static constexpr std::size_t kBuckets = 1024;  // power of two

  static std::size_t BucketOf(const Key& key);
  void FlushLocked();  // the full flush, under mutex_
  static bool KeyEq(const Key& a, const Key& b) {
    return a.program == b.program && a.variant == b.variant && a.pc == b.pc;
  }

  std::array<std::atomic<Node*>, kBuckets> buckets_{};
  mutable std::atomic<std::uint64_t> reuses_{0};

  mutable std::mutex mutex_;                   // guards everything below
  std::vector<std::unique_ptr<Node>> nodes_;   // owns every node ever made
  std::uint64_t max_tbs_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t translations_ = 0;
  std::uint64_t epoch_flushes_ = 0;
  std::uint64_t evicted_tbs_ = 0;
};

}  // namespace chaser::tcg
