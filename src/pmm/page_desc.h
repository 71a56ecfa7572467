// Page descriptors: one per physical frame, allocated contiguously at boot and
// indexed by PFN — exactly the paper's Figure 3 layout. For PT pages the
// descriptor carries the locks both locking protocols use, the `stale` flag
// CortenMM_adv needs, and the lazily-allocated per-PTE metadata array that
// stores the state advanced memory semantics need outside the MMU (§3.3).
#ifndef SRC_PMM_PAGE_DESC_H_
#define SRC_PMM_PAGE_DESC_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/common/cpu.h"
#include "src/common/types.h"
#include "src/sync/bravo.h"
#include "src/sync/cna_lock.h"
#include "src/sync/spinlock.h"

namespace cortenmm {

enum class FrameType : uint8_t {
  kFree = 0,     // On a buddy free list.
  kReserved,     // Never allocatable (frame 0 etc.).
  kAnon,         // Anonymous user data page.
  kFileCache,    // Page-cache page of a simulated file.
  kPageTable,    // A PT page; PT-specific fields are live.
  kSlab,         // Backs the slab allocator.
  kKernel,       // Other kernel allocation (NR logs, swap buffers, ...).
  kCached,       // Parked in a per-CPU buddy cache: freed but not yet on a
                 // free list. Distinct from kFree so the leak checker can
                 // tell a cached frame from a genuinely free one.
};

// Per-PTE metadata entry: 8 bytes packed, one per PTE slot of a PT page,
// indexed by PTE offset (paper §3.3). Encodes the Status of the virtual pages
// the slot covers when that state is not representable in the hardware PTE
// (virtually-allocated, swapped, file-backed, ...). A meta entry on a
// *non-leaf* slot marks the slot's whole aligned span with a uniform status.
struct PteMeta {
  uint8_t tag = 0;     // StatusTag (see src/core/status.h); 0 = none.
  uint8_t perm = 0;    // Perm bits.
  uint16_t aux16 = 0;  // File id / swap device id.
  uint32_t aux32 = 0;  // Page offset within file / block number.

  bool empty() const { return tag == 0; }
  void Clear() { tag = 0; perm = 0; aux16 = 0; aux32 = 0; }
};
static_assert(sizeof(PteMeta) == 8);

// The metadata array hangs off the PT page's descriptor and is allocated on
// demand (it is exactly one frame: 512 entries x 8 B = 4 KiB).
struct PteMetaArray {
  PteMeta entries[kPtesPerPage];
};
static_assert(sizeof(PteMetaArray) == kPageSize);

// A frame's refcount and mapcount, read together (PageDescriptor::refs).
struct FrameRefs {
  uint32_t refcount = 0;
  uint32_t mapcount = 0;
  bool operator==(const FrameRefs&) const = default;
};

// Cache-line aligned so two descriptors never share a line: the fault path
// hammers refs/young on its own frame while neighbouring frames'
// descriptors are being written by frees and the reclaim clock on other CPUs.
struct alignas(kCacheLineSize) PageDescriptor {
  // --- Identity / allocator state -----------------------------------------
  std::atomic<FrameType> type{FrameType::kFree};
  uint8_t buddy_order = 0;              // Order of the block this frame heads.
  std::atomic<bool> buddy_free{false};  // Head of a free buddy block.
  Pfn free_next = kInvalidPfn;          // Buddy free-list links.
  Pfn free_prev = kInvalidPfn;

  // --- Shared refcounting ---------------------------------------------------
  // One word, two counts: the refcount (owners — address spaces / caches —
  // holding the frame) in the low 32 bits and the mapcount (PTEs across
  // address spaces mapping the frame; drives the COW "only mapper left" fast
  // path in the paper's Figure 8, map_count()) in the high 32. Fork's clone
  // and exit's teardown move both counts of a frame at once, so sharing the
  // word makes that one RMW instead of two. Neither half may underflow into
  // the other; every RMW returns the prior pair, so the caller sees exactly
  // the counts its own update consumed.
  std::atomic<uint64_t> refs{0};

  static constexpr uint64_t PackRefs(uint32_t refcount, uint32_t mapcount) {
    return static_cast<uint64_t>(mapcount) << 32 | refcount;
  }
  static constexpr FrameRefs UnpackRefs(uint64_t word) {
    return FrameRefs{static_cast<uint32_t>(word), static_cast<uint32_t>(word >> 32)};
  }

  // One-load snapshot: both counts as of the same instant.
  FrameRefs Counts() const { return UnpackRefs(refs.load(std::memory_order_acquire)); }
  uint32_t refcount() const { return Counts().refcount; }
  uint32_t mapcount() const { return Counts().mapcount; }

  // Adds |nrefs| references and |nmaps| mappings in one RMW; returns the
  // prior pair.
  FrameRefs AddRefs(uint32_t nrefs, uint32_t nmaps) {
    return UnpackRefs(refs.fetch_add(PackRefs(nrefs, nmaps), std::memory_order_acq_rel));
  }
  // Drops |nrefs| references and |nmaps| mappings in one RMW; returns the
  // prior pair. The caller whose drop took the refcount to zero
  // (prior.refcount == nrefs) owns the frame's disposal.
  FrameRefs DropRefs(uint32_t nrefs, uint32_t nmaps) {
    FrameRefs prior =
        UnpackRefs(refs.fetch_sub(PackRefs(nrefs, nmaps), std::memory_order_acq_rel));
    assert(prior.refcount >= nrefs && prior.mapcount >= nmaps);
    return prior;
  }
  // Plain store for a frame its allocator still owns exclusively.
  void InitRefs(uint32_t refcount, uint32_t mapcount) {
    refs.store(PackRefs(refcount, mapcount), std::memory_order_relaxed);
  }

  // --- PT-page fields (valid while type == kPageTable) ----------------------
  uint8_t pt_level = 0;                // 1 = leaf PT page, kPtLevels = root.
  std::atomic<bool> stale{false};      // Set by CortenMM_adv when unmapped.
  std::atomic<uint16_t> present_ptes{0};  // Populated-entry count, for pruning.
  CnaLock cna;                         // CortenMM_adv exclusive NUMA-aware lock.
  BravoRwLock rw;                      // CortenMM_rw BRAVO-pfq lock.
  std::atomic<PteMetaArray*> meta{nullptr};  // Lazy per-PTE metadata array.

  // --- Reverse mapping (valid for kAnon / kFileCache) ------------------------
  // Anonymous: owner = AddrSpace*, owner_key = mapping VA.
  // File cache: owner = SimFile*, owner_key = page index within the file.
  // Set as a pair under rmap_lock. Atomic (relaxed) because the pair is only a
  // hint: the reclaim clock reads it while the frame may be freed and
  // reallocated, and ResetForAlloc clears it without the lock.
  SpinLock rmap_lock;
  std::atomic<void*> owner{nullptr};
  std::atomic<uint64_t> owner_key{0};

  // --- Reclaim clock state (valid for kAnon) --------------------------------
  // Second-chance referenced bit: set on (re)allocation and on every software
  // fault that touches the frame; the reclaim clock hand clears it on the
  // first pass and only evicts frames it finds cold on the second.
  std::atomic<bool> young{true};

  // --- Pre-scrub state (valid on the HEAD frame of a parked block) ----------
  // True iff the whole block's contents are all-zero while it sits parked in
  // a magazine or depot shelf. Set only by the pre-scrubber (which owns the
  // block exclusively while zeroing; release store), consumed with an acquire
  // load + relaxed store on the allocation path (the block is exclusively the
  // allocator's once popped — no RMW needed), and cleared on every free/flush
  // entry. Deliberately NOT touched by ResetForAlloc: the consumer reads it
  // before resetting.
  std::atomic<bool> zeroed{false};

  void ResetForAlloc(FrameType t) {
    type.store(t, std::memory_order_relaxed);
    InitRefs(1, 0);
    stale.store(false, std::memory_order_relaxed);
    present_ptes.store(0, std::memory_order_relaxed);
    pt_level = 0;
    owner.store(nullptr, std::memory_order_relaxed);
    owner_key.store(0, std::memory_order_relaxed);
    young.store(true, std::memory_order_relaxed);
  }
};

}  // namespace cortenmm

#endif  // SRC_PMM_PAGE_DESC_H_
