// Paged guest memory with a soft-MMU (QEMU's softmmu equivalent).
//
// Guest virtual pages map to physical frames allocated on demand by the
// loader / brk. Accesses to unmapped pages produce a page fault that the
// execution engine turns into the guest-visible SIGSEGV analogue — this is
// how injected pointer corruptions become "OS exception" terminations.
// Physical addresses are exposed because the taint shadow and the paper's
// propagation log are keyed by them.
//
// Frame storage outlives a process: Reset() unmaps everything but keeps the
// frames, and the next process's MapRegion calls hand them out again in
// index order. Every vaddr therefore gets the frame index (and so the paddr)
// it would get on a freshly constructed memory, while a campaign stops
// paying an allocation and zero fill per trial for pages it never touches.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace chaser::vm {

inline constexpr std::uint64_t kPageBits = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageBits;
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

class GuestMemory {
 public:
  GuestMemory() = default;

  // Non-copyable (owns frames), movable.
  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;
  GuestMemory(GuestMemory&&) = default;
  GuestMemory& operator=(GuestMemory&&) = default;

  /// Map all pages covering [vaddr, vaddr + bytes), zero-filled.
  /// Already-mapped pages are left untouched. Frames kept by Reset() are
  /// handed out first, in index order; only past them is storage allocated.
  void MapRegion(GuestAddr vaddr, std::uint64_t bytes);

  /// Unmap every page and keep the frame storage for the next process.
  /// Afterwards the memory is indistinguishable from a new one: every byte a
  /// later MapRegion exposes reads 0, the same mapping order yields the same
  /// paddrs, and the TLB is empty with both counters at 0. The cost scales
  /// with the pages mapped and touched since the previous reset: only
  /// touched frames are re-zeroed and only their TLB slots cleared. The pool
  /// keeps the frames that both this process and the previous one mapped,
  /// so a fault-corrupted brk's surplus (and the page-table leaves it used)
  /// is returned here rather than held for the rest of a campaign.
  void Reset();

  /// True if the byte at `vaddr` is mapped.
  bool IsMapped(GuestAddr vaddr) const;

  /// True if every byte of [vaddr, vaddr + n) is mapped. A page-table walk
  /// only: it fills no TLB slot and moves no counter.
  bool IsRangeMapped(GuestAddr vaddr, std::uint64_t n) const;

  /// Virtual -> physical translation; nullopt on unmapped page.
  ///
  /// Hot path: a small direct-mapped software TLB (QEMU's victim-TLB shape,
  /// minus the victim) sits in front of the radix page table. A hit costs
  /// one compare; misses fill the slot. The TLB caches only positive
  /// entries, so fault behaviour is exactly the page table's.
  std::optional<PhysAddr> Translate(GuestAddr vaddr) const {
    const std::uint64_t vpage = vaddr >> kPageBits;
    const TlbEntry& e = tlb_[vpage & (kTlbEntries - 1)];
    if (e.vpage == vpage) {
      ++tlb_hits_;
      return e.frame_base + (vaddr & kPageMask);
    }
    return TranslateSlow(vaddr, vpage);
  }

  /// Load `size` (1/2/4/8) bytes little-endian. Returns nullopt on fault
  /// (any byte unmapped); `paddr_out` receives the physical address of the
  /// first byte on success.
  ///
  /// Deliberately out of line: an earlier version inlined a fused
  /// TLB-probe + memcpy fast path into every interpreter load/store handler,
  /// and measurement showed the code bloat cost more than the saved call on
  /// every workload once the radix page table made TranslateSlow two array
  /// loads (lud campaigns ran ~15% slower with the fused path).
  std::optional<std::uint64_t> Load(GuestAddr vaddr, std::uint32_t size,
                                    PhysAddr* paddr_out);

  /// Store the low `size` bytes of `value`. False on fault; a faulting
  /// store writes nothing (no partial stores).
  bool Store(GuestAddr vaddr, std::uint32_t size, std::uint64_t value,
             PhysAddr* paddr_out);

  /// Bulk copy out of guest memory. False if any byte is unmapped.
  bool ReadBytes(GuestAddr vaddr, void* dst, std::uint64_t n) const;

  /// ReadBytes into `*out` resized to `n`, but only once the whole range is
  /// known to be mapped: a fault-corrupted length must not size (and
  /// zero-fill) a host buffer for a copy that is going to fault. On a fault
  /// `*out` is left alone, and the TLB sees the same translations the failed
  /// ReadBytes would have made, so the counters a trial records match.
  template <typename Buffer>
  bool ReadBuffer(GuestAddr vaddr, std::uint64_t n, Buffer* out) const {
    if (!IsRangeMapped(vaddr, n)) {
      TranslateUntilFault(vaddr, n);
      return false;
    }
    out->resize(n);
    return ReadBytes(vaddr, out->data(), n);
  }

  /// Bulk copy into guest memory. False if any byte is unmapped.
  bool WriteBytes(GuestAddr vaddr, const void* src, std::uint64_t n);

  /// Pages mapped since construction or the last Reset().
  std::uint64_t mapped_pages() const { return mapped_; }

  std::uint64_t tlb_hits() const { return tlb_hits_; }
  std::uint64_t tlb_misses() const { return tlb_misses_; }

  /// A process's memory at one point of its run: the MapRegion calls made
  /// since the reset (their order fixes every paddr), a copy of each touched
  /// page, which touched pages hold their TLB slot, and the TLB counters.
  /// Untouched mapped pages are all zero and need no copy.
  struct Checkpoint {
    /// A page is copied in chunks, each shared with the same page of the
    /// previous checkpoint while its bytes are unchanged — a stretch of a
    /// run mostly rewrites a small part of a page — and every all-zero
    /// chunk is the one ZeroChunk().
    static constexpr std::uint64_t kChunkSize = 512;
    static constexpr std::size_t kPageChunks = kPageSize / kChunkSize;
    using ChunkBytes = std::array<std::uint8_t, kChunkSize>;
    using PageChunks = std::array<std::shared_ptr<const ChunkBytes>, kPageChunks>;
    static const std::shared_ptr<const ChunkBytes>& ZeroChunk();
    struct Page {
      std::uint64_t vpage = 0;
      bool in_tlb = false;
      /// Shared with the previous checkpoint while no chunk changed.
      std::shared_ptr<const PageChunks> chunks;
      /// Compares the copies by address, so a page equals the previous
      /// checkpoint's only while it shares its copy.
      bool operator==(const Page&) const = default;
    };
    std::vector<std::pair<std::uint64_t, std::uint64_t>> regions;
    std::vector<Page> pages;  // first-touch order
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;

    bool operator==(const Checkpoint&) const = default;
  };

  /// Snapshot this memory. Chunks whose bytes equal the same chunk of
  /// `prev` (an earlier checkpoint of this process, or null) share its
  /// copy, and so do whole pages. Reads frames directly: no TLB slot,
  /// counter or touch record moves.
  Checkpoint Capture(const Checkpoint* prev) const;

  /// Reset(), then load `ck` by replaying its MapRegion calls. Afterwards
  /// the memory equals the captured one byte for byte, paddrs, TLB and
  /// counters included. Every frame and TLB slot the restore fills counts
  /// as touched, so the next Reset() re-zeroes it.
  void Restore(const Checkpoint& ck);

 private:
  struct TlbEntry {
    std::uint64_t vpage = ~0ull;  // ~0 never matches: vaddrs are < 2^52 pages
    PhysAddr frame_base = 0;      // paddr of the frame's first byte
  };
  // Power of two. 1024 slots cover lud-sized working sets (a few hundred
  // guest pages) without conflict thrash; at 16 B/entry the table still sits
  // comfortably in L2.
  static constexpr std::size_t kTlbEntries = 1024;

  /// The TLB-miss path, and the one place touches are recorded. Every byte
  /// access goes through Translate and Reset() empties the TLB, so each
  /// process's first access to a page lands here; nothing else may reach
  /// frame memory, or Reset() would hand out a dirty frame.
  std::optional<PhysAddr> TranslateSlow(GuestAddr vaddr,
                                        std::uint64_t vpage) const;
  /// Translate each page of [vaddr, vaddr + n) in ReadBytes's order, up to
  /// the first unmapped one.
  void TranslateUntilFault(GuestAddr vaddr, std::uint64_t n) const;

  std::uint8_t* FramePtr(PhysAddr paddr);
  const std::uint8_t* FramePtr(PhysAddr paddr) const;

  // vpage index -> frame index, as a two-level direct-mapped table (a radix
  // page table, not a hash): leaf arrays of 512 entries allocated on demand,
  // indexed by a growable directory. Guest addresses top out just above
  // kStackTop (~2^19 pages), so the directory stays tiny while lookups and
  // inserts are two array indexations — the former unordered_map here was a
  // top campaign-profile entry (trial engines remap guest memory thousands
  // of times, and every TLB miss lands here).
  // paddr = frame_index * kPageSize + offset.
  static constexpr std::uint64_t kLeafBits = 9;  // 512 pages = 2 MiB per leaf
  static constexpr std::uint64_t kLeafPages = 1ull << kLeafBits;
  static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};
  struct Leaf {
    std::array<std::uint32_t, kLeafPages> frames;
    bool keep = false;  // Reset() scratch: maps a frame the pool keeps
  };
  /// Frame index of `vpage`, or kNoFrame when unmapped.
  std::uint32_t FrameIndex(std::uint64_t vpage) const {
    const std::uint64_t d = vpage >> kLeafBits;
    if (d >= dir_.size() || dir_[d] == nullptr) return kNoFrame;
    return dir_[d]->frames[vpage & (kLeafPages - 1)];
  }
  /// Call f(leaf, slots, n) for each leaf's share of the vpages
  /// [first, last]: `slots` points at the n page-table slots of that span.
  /// Every leaf must exist.
  template <typename F>
  void ForEachSpan(std::uint64_t first, std::uint64_t last, F&& f);

  /// Slabs are anonymous mappings (see MapRegion), so they go back to
  /// munmap().
  struct FreeSlab {
    std::size_t bytes = 0;
    void operator()(std::uint8_t* slab) const;
  };

  struct Slab {
    std::unique_ptr<std::uint8_t[], FreeSlab> storage;
    std::uint32_t first_frame = 0;  // frame index of the slab's first page
  };

  std::vector<std::unique_ptr<Leaf>> dir_;
  std::vector<std::uint64_t> leaves_;  // dir_ indices holding a leaf
  /// The frame pool: frame index -> host storage, backed by slabs_ in index
  /// order. Frames [0, mapped_) are mapped; the rest are zero and waiting.
  std::vector<std::uint8_t*> frames_;
  std::vector<Slab> slabs_;
  std::uint32_t mapped_ = 0;
  /// Frames the process before the current one mapped (kNoFrame: none yet).
  std::uint32_t prev_mapped_ = kNoFrame;
  /// vpage ranges of the MapRegion calls since the last reset.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> regions_;
  /// Frames accessed since the last reset (flag per frame, plus their vpages
  /// in first-touch order). `mutable`: recorded by the const Translate.
  mutable std::vector<std::uint8_t> touched_;
  mutable std::vector<std::uint64_t> touched_vpages_;

  // Direct-mapped translation cache. `mutable` because Translate is
  // semantically const; the TLB is pure memoisation.
  mutable std::array<TlbEntry, kTlbEntries> tlb_{};
  mutable std::uint64_t tlb_hits_ = 0;
  mutable std::uint64_t tlb_misses_ = 0;
};

}  // namespace chaser::vm
