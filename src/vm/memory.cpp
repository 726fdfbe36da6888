#include "vm/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

namespace chaser::vm {

namespace {

using ChunkBytes = GuestMemory::Checkpoint::ChunkBytes;
using PageChunks = GuestMemory::Checkpoint::PageChunks;
constexpr std::uint64_t kChunkSize = GuestMemory::Checkpoint::kChunkSize;

/// Free checkpoint chunk buffers. A process that runs campaign after
/// campaign takes each campaign's page copies from here instead of
/// faulting fresh heap pages in every time (the allocator returns the
/// previous campaign's to the OS). Never destroyed: a chunk may be released
/// by a checkpoint that outlives static destruction.
class ChunkPool {
 public:
  static ChunkPool& Global() {
    static ChunkPool* const pool = new ChunkPool;
    return *pool;
  }

  /// A copy of the chunk at `bytes`.
  std::shared_ptr<const ChunkBytes> Copy(const std::uint8_t* bytes) {
    ChunkBytes* chunk = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        chunk = free_.back().release();
        free_.pop_back();
      }
    }
    if (chunk == nullptr) chunk = new ChunkBytes;
    std::memcpy(chunk->data(), bytes, kChunkSize);
    return std::shared_ptr<ChunkBytes>(chunk,
                                       [](ChunkBytes* c) { Global().Give(c); });
  }

 private:
  static constexpr std::size_t kMaxFree = 8192;  // 4 MiB of chunk copies

  void Give(ChunkBytes* chunk) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.size() < kMaxFree) {
      free_.emplace_back(chunk);
    } else {
      delete chunk;
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<ChunkBytes>> free_;
};

/// The page at `frame` as chunks, sharing those of `prev` (the same page in
/// an earlier checkpoint, or null) whose bytes are equal — and `prev`
/// itself when all are.
std::shared_ptr<const PageChunks> CopyPage(
    const std::uint8_t* frame, const std::shared_ptr<const PageChunks>& prev) {
  const auto& zero = GuestMemory::Checkpoint::ZeroChunk();
  PageChunks chunks;
  bool changed = prev == nullptr;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::uint8_t* bytes = frame + c * kChunkSize;
    if (prev != nullptr &&
        std::memcmp((*prev)[c]->data(), bytes, kChunkSize) == 0) {
      chunks[c] = (*prev)[c];
      continue;
    }
    changed = true;
    chunks[c] = std::memcmp(zero->data(), bytes, kChunkSize) == 0
                    ? zero
                    : ChunkPool::Global().Copy(bytes);
  }
  return changed ? std::make_shared<const PageChunks>(std::move(chunks)) : prev;
}

}  // namespace

const std::shared_ptr<const ChunkBytes>& GuestMemory::Checkpoint::ZeroChunk() {
  static const std::shared_ptr<const ChunkBytes> zero =
      std::make_shared<const ChunkBytes>();
  return zero;
}

void GuestMemory::FreeSlab::operator()(std::uint8_t* slab) const {
  munmap(slab, bytes);
}

template <typename F>
void GuestMemory::ForEachSpan(std::uint64_t first, std::uint64_t last, F&& f) {
  for (std::uint64_t d = first >> kLeafBits; d <= last >> kLeafBits; ++d) {
    const std::uint64_t lo = d == first >> kLeafBits ? first & (kLeafPages - 1) : 0;
    const std::uint64_t hi =
        d == last >> kLeafBits ? last & (kLeafPages - 1) : kLeafPages - 1;
    Leaf& leaf = *dir_[d];
    f(leaf, leaf.frames.data() + lo, hi - lo + 1);
  }
}

void GuestMemory::MapRegion(GuestAddr vaddr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = vaddr >> kPageBits;
  const std::uint64_t last = (vaddr + bytes - 1) >> kPageBits;
  // Grow the directory and allocate leaves up front; then the page table is
  // read and written one leaf span at a time.
  const std::uint64_t last_leaf = last >> kLeafBits;
  if (last_leaf >= dir_.size()) dir_.resize(last_leaf + 1);
  for (std::uint64_t d = first >> kLeafBits; d <= last_leaf; ++d) {
    if (dir_[d] == nullptr) {
      dir_[d] = std::make_unique<Leaf>();
      dir_[d]->frames.fill(kNoFrame);
      leaves_.push_back(d);
    }
  }
  std::uint64_t fresh = 0;
  ForEachSpan(first, last, [&](Leaf&, const std::uint32_t* slots, std::uint64_t n) {
    fresh += static_cast<std::uint64_t>(std::count(slots, slots + n, kNoFrame));
  });
  if (fresh == 0) return;
  regions_.emplace_back(first, last);
  const std::uint64_t need = mapped_ + fresh;
  if (need > frames_.size()) {
    // One zeroed slab for the pages the pool cannot cover; per-page heap
    // allocation here used to be a top entry in campaign profiles. An
    // anonymous mapping, not new[] or calloc: it arrives as untouched zero
    // pages from the kernel, so a fault-corrupted brk of hundreds of MiB
    // costs the pages the guest touches, not a host-side zero fill of the
    // whole region. calloc gave that only while the slab sat above malloc's
    // mmap threshold, which glibc raises once a program frees a larger
    // mapped block — from then on every new VM zero-filled its ~1 MiB stack
    // slab (a long-running process's golden runs took ~0.45 ms longer).
    const std::uint64_t grow = need - frames_.size();
    const std::size_t slab_bytes = static_cast<std::size_t>(grow * kPageSize);
    void* mapped = mmap(nullptr, slab_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapped == MAP_FAILED) throw std::bad_alloc();
    Slab slab{std::unique_ptr<std::uint8_t[], FreeSlab>(
                  static_cast<std::uint8_t*>(mapped), FreeSlab{slab_bytes}),
              static_cast<std::uint32_t>(frames_.size())};
    std::uint8_t* next = slab.storage.get();
    slabs_.push_back(std::move(slab));
    for (std::uint64_t i = 0; i < grow; ++i, next += kPageSize) {
      frames_.push_back(next);
    }
    touched_.resize(frames_.size(), 0);
  }
  // Hand out frames in vpage order.
  ForEachSpan(first, last, [&](Leaf&, std::uint32_t* slots, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (slots[i] == kNoFrame) slots[i] = mapped_++;
    }
  });
  // No TLB flush: the TLB caches only positive entries, newly-mapped pages
  // cannot be cached yet, and frames never move (slab storage is stable), so
  // every cached translation stays valid. Reset() is the only unmap, and it
  // clears every slot a translation filled.
}

void GuestMemory::Reset() {
  tlb_hits_ = 0;
  tlb_misses_ = 0;
  if (mapped_ == 0) return;  // nothing mapped, so nothing touched or cached
  // Trim the pool to whole slabs inside the frames both this process and
  // the previous one mapped: identical trials reuse every frame, while a
  // one-off giant brk is freed now rather than after the next trial.
  const std::uint32_t keep = std::min(mapped_, prev_mapped_);
  prev_mapped_ = mapped_;
  while (frames_.size() > keep) {
    frames_.resize(slabs_.back().first_frame);
    slabs_.pop_back();
  }
  const std::size_t pool = frames_.size();
  touched_.resize(pool);
  // Re-zero the kept frames this process touched and drop their TLB slots
  // (only touched pages can occupy one).
  for (const std::uint64_t vpage : touched_vpages_) {
    tlb_[TlbSlot(vpage)] = TlbEntry{};
    const std::uint32_t frame = FrameIndex(vpage);
    if (frame < pool) {
      std::memset(frames_[frame], 0, kPageSize);
      touched_[frame] = 0;
    }
  }
  touched_vpages_.clear();
  // Unmap, noting which leaves still map a kept frame; the rest are freed.
  const auto kept = [pool](std::uint32_t frame) { return frame < pool; };
  for (const auto& [first, last] : regions_) {
    ForEachSpan(first, last, [&](Leaf& leaf, std::uint32_t* slots, std::uint64_t n) {
      if (!leaf.keep && std::any_of(slots, slots + n, kept)) leaf.keep = true;
      std::fill(slots, slots + n, kNoFrame);
    });
  }
  regions_.clear();
  std::erase_if(leaves_, [this](std::uint64_t d) {
    Leaf& leaf = *dir_[d];
    if (leaf.keep) {
      leaf.keep = false;
      return false;
    }
    dir_[d].reset();
    return true;
  });
  mapped_ = 0;
}

GuestMemory::Checkpoint GuestMemory::Capture(const Checkpoint* prev) const {
  Checkpoint ck;
  ck.regions = regions_;
  ck.pages.reserve(touched_vpages_.size());
  for (std::size_t i = 0; i < touched_vpages_.size(); ++i) {
    const std::uint64_t vpage = touched_vpages_[i];
    // Touches only append, so page i of an earlier checkpoint of this
    // process is the same vpage.
    ck.pages.push_back(
        {.vpage = vpage,
         .chunks = CopyPage(frames_[FrameIndex(vpage)],
                            prev != nullptr && i < prev->pages.size()
                                ? prev->pages[i].chunks
                                : nullptr)});
  }
  return ck;
}

void GuestMemory::Restore(const Checkpoint& ck) {
  Reset();
  // Replaying the MapRegion calls in order hands out the frames the captured
  // process got.
  for (const auto& [first, last] : ck.regions) {
    MapRegion(first << kPageBits, (last - first + 1) << kPageBits);
  }
  const auto& zero = Checkpoint::ZeroChunk();
  for (const Checkpoint::Page& page : ck.pages) {
    const std::uint32_t frame = FrameIndex(page.vpage);
    // The reset left every frame zero.
    for (std::size_t c = 0; c < page.chunks->size(); ++c) {
      const auto& chunk = (*page.chunks)[c];
      if (chunk == zero) continue;
      std::memcpy(frames_[frame] + c * kChunkSize, chunk->data(), kChunkSize);
    }
    touched_[frame] = 1;
    touched_vpages_.push_back(page.vpage);
  }
}

bool GuestMemory::IsMapped(GuestAddr vaddr) const {
  return FrameIndex(vaddr >> kPageBits) != kNoFrame;
}

bool GuestMemory::IsRangeMapped(GuestAddr vaddr, std::uint64_t n) const {
  if (n == 0) return true;
  const GuestAddr end = vaddr + (n - 1);
  if (end < vaddr) return false;  // wraps the address space
  for (std::uint64_t vp = vaddr >> kPageBits; vp <= end >> kPageBits; ++vp) {
    if (FrameIndex(vp) == kNoFrame) return false;
  }
  return true;
}

std::optional<PhysAddr> GuestMemory::TranslateSlow(GuestAddr vaddr,
                                                   std::uint64_t vpage) const {
  ++tlb_misses_;
  // Wild vpages (injected pointer corruption makes arbitrary 64-bit
  // addresses) fall out of the directory bounds check inside FrameIndex and
  // read as unmapped, exactly like a hash miss did.
  const std::uint32_t frame = FrameIndex(vpage);
  if (frame == kNoFrame) return std::nullopt;
  if (touched_[frame] == 0) {
    touched_[frame] = 1;
    touched_vpages_.push_back(vpage);
  }
  const PhysAddr frame_base = static_cast<PhysAddr>(frame) * kPageSize;
  tlb_[TlbSlot(vpage)] = TlbEntry{vpage, frame_base};
  return frame_base + (vaddr & kPageMask);
}

std::uint8_t* GuestMemory::FramePtr(PhysAddr paddr) {
  return frames_[paddr >> kPageBits] + (paddr & kPageMask);
}

const std::uint8_t* GuestMemory::FramePtr(PhysAddr paddr) const {
  return frames_[paddr >> kPageBits] + (paddr & kPageMask);
}

std::optional<std::uint64_t> GuestMemory::Load(GuestAddr vaddr,
                                               std::uint32_t size,
                                               PhysAddr* paddr_out) {
  const auto paddr = Translate(vaddr);
  if (!paddr) return std::nullopt;
  if (paddr_out != nullptr) *paddr_out = *paddr;
  // Fast path: the access does not cross a page boundary.
  if ((vaddr & kPageMask) + size <= kPageSize) {
    std::uint64_t v = 0;
    std::memcpy(&v, FramePtr(*paddr), size);
    return v;
  }
  // Slow path: byte-by-byte across pages.
  std::uint64_t v = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto pa = Translate(vaddr + i);
    if (!pa) return std::nullopt;
    v |= static_cast<std::uint64_t>(*FramePtr(*pa)) << (8 * i);
  }
  return v;
}

bool GuestMemory::Store(GuestAddr vaddr, std::uint32_t size,
                        std::uint64_t value, PhysAddr* paddr_out) {
  const auto paddr = Translate(vaddr);
  if (!paddr) return false;
  if (paddr_out != nullptr) *paddr_out = *paddr;
  if ((vaddr & kPageMask) + size <= kPageSize) {
    std::memcpy(FramePtr(*paddr), &value, size);
    return true;
  }
  // Verify all bytes are mapped before writing any (no partial stores).
  for (std::uint32_t i = 0; i < size; ++i) {
    if (!Translate(vaddr + i)) return false;
  }
  for (std::uint32_t i = 0; i < size; ++i) {
    *FramePtr(*Translate(vaddr + i)) = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return true;
}

bool GuestMemory::ReadBytes(GuestAddr vaddr, void* dst, std::uint64_t n) const {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::uint64_t done = 0;
  while (done < n) {
    const auto paddr = Translate(vaddr + done);
    if (!paddr) return false;
    const std::uint64_t in_page = kPageSize - ((vaddr + done) & kPageMask);
    const std::uint64_t chunk = std::min(in_page, n - done);
    std::memcpy(out + done, FramePtr(*paddr), chunk);
    done += chunk;
  }
  return true;
}

bool GuestMemory::WriteBytes(GuestAddr vaddr, const void* src, std::uint64_t n) {
  const auto* in = static_cast<const std::uint8_t*>(src);
  // Check the whole range first so a fault never leaves a partial write.
  if (!IsRangeMapped(vaddr, n)) return false;
  std::uint64_t done = 0;
  while (done < n) {
    const auto paddr = Translate(vaddr + done);
    const std::uint64_t in_page = kPageSize - ((vaddr + done) & kPageMask);
    const std::uint64_t chunk = std::min(in_page, n - done);
    std::memcpy(FramePtr(*paddr), in + done, chunk);
    done += chunk;
  }
  return true;
}

}  // namespace chaser::vm
