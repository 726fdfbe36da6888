#include "vm/memory.h"

#include <cstring>
#include <new>

namespace chaser::vm {

void GuestMemory::MapRegion(GuestAddr vaddr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = vaddr >> kPageBits;
  const std::uint64_t last = (vaddr + bytes - 1) >> kPageBits;
  // Grow the directory and allocate leaves up front so the insert loop below
  // is pure array stores.
  const std::uint64_t last_leaf = last >> kLeafBits;
  if (last_leaf >= dir_.size()) dir_.resize(last_leaf + 1);
  std::uint64_t fresh = 0;
  for (std::uint64_t d = first >> kLeafBits; d <= last_leaf; ++d) {
    if (dir_[d] == nullptr) {
      dir_[d] = std::make_unique<Leaf>();
      dir_[d]->frames.fill(kNoFrame);
    }
  }
  for (std::uint64_t vp = first; vp <= last; ++vp) {
    fresh += FrameIndex(vp) == kNoFrame ? 1 : 0;
  }
  if (fresh > 0) {
    // One zeroed slab for every new page in the region; per-page heap
    // allocation here used to be a top entry in campaign profiles. calloc,
    // not new[]: a large slab arrives as untouched zero pages from the
    // kernel, so a fault-corrupted brk of hundreds of MiB costs the pages
    // the guest touches, not a host-side zero fill of the whole region.
    std::unique_ptr<std::uint8_t[], FreeSlab> slab(
        static_cast<std::uint8_t*>(std::calloc(fresh, kPageSize)));
    if (slab == nullptr) throw std::bad_alloc();
    std::uint8_t* next = slab.get();
    slabs_.push_back(std::move(slab));
    frames_.reserve(frames_.size() + static_cast<std::size_t>(fresh));
    for (std::uint64_t vp = first; vp <= last; ++vp) {
      Leaf& leaf = *dir_[vp >> kLeafBits];
      std::uint32_t& slot = leaf.frames[vp & (kLeafPages - 1)];
      if (slot != kNoFrame) continue;
      frames_.push_back(next);
      next += kPageSize;
      slot = static_cast<std::uint32_t>(frames_.size() - 1);
    }
  }
  // No TLB flush: the TLB caches only positive entries, newly-mapped pages
  // cannot be cached yet, and frames never move (slab storage is stable), so
  // every cached translation stays valid. The moment unmap/remap exists this
  // must flush.
}

bool GuestMemory::IsMapped(GuestAddr vaddr) const {
  return FrameIndex(vaddr >> kPageBits) != kNoFrame;
}

std::optional<PhysAddr> GuestMemory::TranslateSlow(GuestAddr vaddr,
                                                   std::uint64_t vpage) const {
  ++tlb_misses_;
  // Wild vpages (injected pointer corruption makes arbitrary 64-bit
  // addresses) fall out of the directory bounds check inside FrameIndex and
  // read as unmapped, exactly like a hash miss did.
  const std::uint32_t frame = FrameIndex(vpage);
  if (frame == kNoFrame) return std::nullopt;
  const PhysAddr frame_base = static_cast<PhysAddr>(frame) * kPageSize;
  tlb_[vpage & (kTlbEntries - 1)] = TlbEntry{vpage, frame_base};
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
  for (std::uint64_t off = 0; off < n; off += kPageSize) {
    if (!IsMapped(vaddr + off)) return false;
  }
  if (n > 0 && !IsMapped(vaddr + n - 1)) return false;
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
