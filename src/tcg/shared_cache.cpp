#include "tcg/shared_cache.h"

#include <bit>
#include <cstring>

namespace chaser::tcg {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t FnvU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t FnvBytes(std::uint64_t h, const void* data,
                              std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// Final avalanche (splitmix64) so near-identical keys spread across buckets.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t SharedTbCache::BucketOf(const Key& key) {
  std::uint64_t h = Mix64(key.program ^ Mix64(key.variant ^ Mix64(key.pc)));
  return static_cast<std::size_t>(h) & (kBuckets - 1);
}

const TranslationBlock* SharedTbCache::Lookup(const Key& key) const {
  const Node* node = buckets_[BucketOf(key)].load(std::memory_order_acquire);
  for (; node != nullptr; node = node->next) {
    if (KeyEq(node->key, key)) {
      reuses_.fetch_add(1, std::memory_order_relaxed);
      return &node->tb;
    }
  }
  return nullptr;
}

const TranslationBlock* SharedTbCache::Insert(const Key& key,
                                              TranslationBlock tb) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Another worker may have translated the same key while we were: keep the
  // first published TB canonical so every VM chains through identical nodes.
  std::atomic<Node*>& bucket = buckets_[BucketOf(key)];
  for (const Node* node = bucket.load(std::memory_order_relaxed);
       node != nullptr; node = node->next) {
    if (KeyEq(node->key, key)) {
      reuses_.fetch_add(1, std::memory_order_relaxed);
      return &node->tb;
    }
  }

  // QEMU overflow semantics: retire everything, restart into empty chains.
  if (max_tbs_ > 0 && live_ >= max_tbs_) FlushLocked();

  auto node = std::make_unique<Node>();
  node->key = key;
  node->tb = std::move(tb);
  node->next = bucket.load(std::memory_order_relaxed);
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  ++live_;
  ++translations_;
  bucket.store(raw, std::memory_order_release);
  return &raw->tb;
}

void SharedTbCache::FlushLocked() {
  for (std::atomic<Node*>& bucket : buckets_) {
    bucket.store(nullptr, std::memory_order_release);
  }
  evicted_tbs_ += live_;
  live_ = 0;
  ++epoch_flushes_;
}

std::uint64_t SharedTbCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

std::uint64_t SharedTbCache::ChainedNodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const std::atomic<Node*>& bucket : buckets_) {
    for (const Node* node = bucket.load(std::memory_order_relaxed);
         node != nullptr; node = node->next) {
      ++n;
    }
  }
  return n;
}

SharedTbCache::Stats SharedTbCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.translations = translations_;
  s.reuses = reuses_.load(std::memory_order_relaxed);
  s.epoch_flushes = epoch_flushes_;
  s.evicted_tbs = evicted_tbs_;
  return s;
}

std::uint64_t SharedTbCache::HashProgram(const guest::Program& prog) {
  std::uint64_t h = kFnvOffset;
  h = FnvBytes(h, prog.name.data(), prog.name.size());
  h = FnvU64(h, prog.entry);
  h = FnvU64(h, prog.text.size());
  for (const guest::Instruction& in : prog.text) {
    h = FnvU64(h, static_cast<std::uint64_t>(in.op));
    h = FnvU64(h, static_cast<std::uint64_t>(in.rd));
    h = FnvU64(h, static_cast<std::uint64_t>(in.rs1));
    h = FnvU64(h, static_cast<std::uint64_t>(in.rs2));
    h = FnvU64(h, static_cast<std::uint64_t>(in.cond));
    h = FnvU64(h, in.use_imm ? 1u : 0u);
    h = FnvU64(h, static_cast<std::uint64_t>(in.size));
    h = FnvU64(h, static_cast<std::uint64_t>(in.imm));
    h = FnvU64(h, std::bit_cast<std::uint64_t>(in.fimm));
  }
  h = FnvU64(h, prog.data.size());
  if (!prog.data.empty()) h = FnvBytes(h, prog.data.data(), prog.data.size());
  h = FnvU64(h, prog.bss_bytes);
  return h == 0 ? 1 : h;  // 0 is reserved for "no program"
}

}  // namespace chaser::tcg
