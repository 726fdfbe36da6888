// Heap allocations per campaign trial: a guard on the per-trial fixed cost.
//
// A campaign is thousands of short trials, so whatever a trial allocates
// outside its own guest work is paid thousands of times. This binary
// replaces the global operator new to count allocations, which is why it is
// a test binary of its own and is built without sanitizers (ASan and TSan
// bring their own allocators).
//
// Each case warms a TrialEngine with 200 trials (the shared translation
// cache, the frame pool and every container's capacity settle), then counts
// the allocations of the next 1000. Each pin is the count measured when it
// was set, plus 10% headroom: a change that adds per-trial allocations
// fails here and says how many. Matvec's pin fell from 24.4 to 11.8: the
// cluster recycles MPI payload vectors, and trials that restore a
// trial-captured slot skip the messages of their prefix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "tcg/shared_cache.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* CountedAllocOrThrow(std::size_t n, std::size_t align) {
  if (void* p = CountedAlloc(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace chaser::campaign {
namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kWarmTrials = 200;
constexpr std::size_t kCountedTrials = 1000;

/// Mean heap allocations per trial over the counted trials.
double AllocationsPerTrial(const apps::AppSpec& spec, CampaignConfig config) {
  config.seed = kSeed;
  // As the Campaign constructor does: one campaign-owned shared TB cache.
  tcg::SharedTbCache cache(config.tb_cache_cap);
  config.shared_tb_cache = &cache;
  const std::set<Rank> inject_ranks{0};
  TrialEngine engine(spec, config, inject_ranks);
  const GoldenProfile golden = engine.RunGolden();
  engine.AdoptGolden(golden);
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(kSeed, kWarmTrials + kCountedTrials);
  for (std::size_t i = 0; i < kWarmTrials; ++i) engine.RunTrial(seeds[i]);
  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t i = kWarmTrials; i < seeds.size(); ++i) {
    engine.RunTrial(seeds[i]);
  }
  g_counting.store(false);
  return static_cast<double>(g_allocations.load()) / kCountedTrials;
}

TEST(TrialAllocations, MatvecTrialStaysUnderItsPin) {
  const double per_trial = AllocationsPerTrial(apps::BuildMatvec({}), {});
  EXPECT_LE(per_trial, 11.8 * 1.1)
      << "heap allocations per matvec trial: " << per_trial;
}

TEST(TrialAllocations, WeightedLudTrialStaysUnderItsPin) {
  CampaignConfig config;
  config.sample_policy = SamplePolicy::kWeighted;
  const double per_trial = AllocationsPerTrial(apps::BuildLud({}), config);
  EXPECT_LE(per_trial, 10.2 * 1.1)
      << "heap allocations per weighted lud trial: " << per_trial;
}

}  // namespace
}  // namespace chaser::campaign
