// Binary buddy allocation over the simulated physical memory, following the
// Linux design the paper adopts (§4.5 "Physical memory management"): power-of-
// two blocks with split/coalesce, free-list links stored in page descriptors.
//
// NUMA layout (PR 10): physical memory is partitioned into one `BuddyArena`
// per NUMA node — contiguous, kMaxOrder-aligned PFN ranges, so a frame's home
// node is derivable from its PFN alone (NodeOfPfn). Each arena is a complete
// allocator: its own free lists and lock, its own per-order depots, its own
// per-CPU magazines. The public `BuddyAllocator` is a thin router: an
// allocation tries the caller's home-node arena first and walks the
// topology's nearest-first spill order on exhaustion (numa_local_allocs /
// numa_remote_allocs / numa_spills); a free routes by the frame's PFN to its
// HOME arena, so frames structurally cannot leak across nodes — the
// wf_checker's frame-on-home-arena-freelist invariant
// (CountMisplacedFreeFrames) pins that.
//
// The hot allocation paths never touch an arena's free lists in steady
// state: every order has a slab-style per-CPU *magazine* (a bounded stack of
// parked blocks), backed by the arena's per-order *depot* of full magazines.
// A magazine miss swaps one whole magazine with the depot; only a depot miss
// takes the arena's buddy lock, and then it refills an entire magazine under
// ONE acquisition. Freed blocks park in the magazine and spill — again a
// whole magazine at a time — to the depot, where the background pre-scrubber
// zeroes them so demand-zero faults can skip the inline memset (ScrubBatch /
// PageDescriptor::zeroed).
//
// Accounting: parked blocks count as ALLOCATED, and each arena's free_frames_
// moves only at magazine-batch boundaries (refill subtracts a whole magazine,
// flush adds one back) — the same reason Linux folds NR_FREE_PAGES through
// per-CPU vmstat deltas: a global counter RMW per allocation is the
// allocator's worst shared-write hot spot once the lock itself is gone. The
// watermarks (kept GLOBAL, over the summed free count, so reclaim and test
// semantics are node-count-independent) therefore see parked frames as
// consumed. Parked frames are typed FrameType::kCached so the leak checker
// can tell a parked frame from a genuinely free or leaked one.
#ifndef SRC_PMM_BUDDY_H_
#define SRC_PMM_BUDDY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/result.h"
#include "src/common/topology.h"
#include "src/common/types.h"
#include "src/pmm/page_desc.h"
#include "src/sync/spinlock.h"

namespace cortenmm {

class BuddyAllocator;

// One NUMA node's slice of physical memory: a self-contained buddy allocator
// (free lists + depots + per-CPU magazines) over [base, base+frames). Only
// the BuddyAllocator router constructs and calls these.
class BuddyArena {
 public:
  static constexpr int kMaxOrder = 10;  // Up to 4 MiB blocks.
  static constexpr uint32_t kMagSlots = 64;

  BuddyArena(BuddyAllocator* router, int node, Pfn base, uint64_t frames);
  BuddyArena(const BuddyArena&) = delete;
  BuddyArena& operator=(const BuddyArena&) = delete;

  int node() const { return node_; }
  Pfn base() const { return base_; }
  uint64_t frames() const { return frames_; }
  uint64_t FreeFrameCount() const {
    return free_frames_.load(std::memory_order_relaxed);
  }

  // Magazine-first allocation/free (no descriptor reset, no counters beyond
  // the magazine ones — the router layers policy on top).
  Result<Pfn> AllocRaw(int order, bool* prezeroed, bool* mag_hit);
  void FreeRaw(Pfn pfn, int order);

  void FlushCpuCaches();
  uint64_t ScrubBatch(uint64_t max_frames);

  // Free-list walk (under the arena lock): counts chained frames whose PFN
  // falls outside [base, base+frames) — always 0 unless routing is broken.
  uint64_t CountMisplacedFreeFrames();

  struct DepotStats {
    uint64_t clean_mags = 0, dirty_mags = 0;
    uint64_t clean_frames = 0, dirty_frames = 0;
  };
  DepotStats GetDepotStats();

 private:
  // A bounded stack of parked 2^order blocks. Moves by value between the
  // per-CPU slots and the depot shelves so no two locks are ever held at
  // once (lock order would otherwise be cpu -> depot -> arena).
  struct Magazine {
    uint32_t count = 0;
    Pfn pfns[kMagSlots];
  };

  struct CpuMags {
    SpinLock lock;  // Normally only touched by its own CPU; the lock makes
                    // flushes and CPU-id collisions safe.
    Magazine mags[kMaxOrder + 1];
  };

  struct Depot {
    SpinLock lock;
    std::vector<Magazine> clean;  // Every block pre-zeroed (head zeroed set).
    std::vector<Magazine> dirty;
  };

  // Per-order magazine capacity: deep for order 0 (anon pages + PT pages are
  // the fault path), shallow for huge runs (2 runs = 4 MiB parked per CPU,
  // matching the old huge cache), modest in between.
  static constexpr uint32_t MagCapacity(int order) {
    return order == 0 ? kMagSlots
           : order >= static_cast<int>(kHugeOrder) ? 2
                                                   : 8;
  }
  // Depot bound (clean + dirty shelves together), in magazines. The order-0
  // shelf is deep (128 mags = 32 MiB parked per node): the corridor between
  // depot-empty (an arena-lock refill) and depot-full (an arena-lock flush)
  // must absorb a whole multi-CPU allocation burst in each direction.
  static constexpr uint32_t DepotMaxMags(int order) {
    return order == 0 ? 128 : order >= static_cast<int>(kHugeOrder) ? 4 : 8;
  }

  Result<Pfn> AllocBlockLocked(int order);
  void FreeBlockLocked(Pfn pfn, int order);
  void PushFree(Pfn pfn, int order);
  void RemoveFree(Pfn pfn, int order);
  Pfn PopFree(int order);

  void PushDepotOrFlush(int order, const Magazine& mag);
  // Returns |mag|'s blocks to the free lists (re-counting them free).
  void FlushMagazineLocked(const Magazine& mag, int order);

  bool MagazinesEnabled() const;

  BuddyAllocator* router_;
  int node_;
  Pfn base_ = 0;
  uint64_t frames_ = 0;

  SpinLock lock_;
  Pfn free_heads_[kMaxOrder + 1];
  std::atomic<uint64_t> free_frames_{0};
  Depot depots_[kMaxOrder + 1];
  std::unique_ptr<CacheAligned<CpuMags>[]> cpu_mags_;  // [kMaxCpus]
};

// The process-wide physical allocator: routes to per-node arenas with a
// local-first / nearest-remote-fallback policy. Public API is node-agnostic —
// callers that want placement control get it implicitly by binding their
// thread to a CPU (the home node follows from the CPU id).
class BuddyAllocator {
 public:
  static constexpr int kMaxOrder = BuddyArena::kMaxOrder;
  static constexpr uint32_t kMagSlots = BuddyArena::kMagSlots;

  static BuddyAllocator& Instance();

  // Allocates a 2^order-frame block; returns the first PFN. |type| is what
  // every descriptor in the block is reset to — callers that know the final
  // type pass it here so the fault path resets each descriptor exactly once
  // instead of kKernel-then-retype.
  Result<Pfn> AllocBlock(int order, FrameType type = FrameType::kKernel);
  void FreeBlock(Pfn pfn, int order);

  // Single-frame fast path through the per-CPU magazines. AllocZeroedFrame
  // consumes a pre-scrubbed frame when one is available (skipping the inline
  // memset) and zeroes inline otherwise.
  Result<Pfn> AllocFrame(FrameType type = FrameType::kKernel);
  Result<Pfn> AllocZeroedFrame(FrameType type = FrameType::kKernel);
  void FreeFrame(Pfn pfn);

  // Order-kHugeOrder (2 MiB) run fast path through the same magazine layer.
  // Failure means fragmentation or exhaustion — the caller's cue to fall back
  // to 4 KiB pages. |prezeroed| (optional) reports whether the whole run is
  // already zero, letting the caller skip its 512-frame zero loop.
  Result<Pfn> AllocHugeRun(bool* prezeroed = nullptr,
                           FrameType type = FrameType::kKernel);
  void FreeHugeRun(Pfn head);

  uint64_t FreeFrameCount() const {
    uint64_t sum = 0;
    for (int n = 0; n < num_nodes_; ++n) {
      sum += arenas_[n]->FreeFrameCount();
    }
    return sum;
  }
  uint64_t TotalFrameCount() const { return total_frames_; }

  // --- NUMA topology over PFN space ----------------------------------------
  int NumNodes() const { return num_nodes_; }
  // A frame's home node, derivable from the PFN alone (arenas are contiguous
  // kMaxOrder-aligned ranges).
  int NodeOfPfn(Pfn pfn) const {
    int node = static_cast<int>(pfn / frames_per_node_);
    return node < num_nodes_ ? node : num_nodes_ - 1;
  }
  void NodePfnRange(int node, Pfn* begin, Pfn* end) const {
    *begin = arenas_[node]->base();
    *end = arenas_[node]->base() + arenas_[node]->frames();
  }
  uint64_t NodeFreeFrameCount(int node) const {
    return arenas_[node]->FreeFrameCount();
  }
  // Sums each arena's free-list walk; nonzero means a frame is chained on a
  // foreign node's free list (the invariant wf_checker enforces).
  uint64_t CountMisplacedFreeFrames();

  // --- Watermarks (reclaim integration) ------------------------------------
  // Linux-style zone watermarks over the GLOBAL free-frame count (summed
  // across arenas — reclaim targets and test semantics stay independent of
  // the node count). Defaults derive from the total at construction
  // (low = total/16, min = total/64); the reclaim subsystem or a test may
  // override them. Allocations never *fail* at a watermark — the watermarks
  // only drive the pressure hook and the policy decisions (kswapd wake,
  // fault throttling, THP suppression) made by the layers above pmm.
  void SetWatermarks(uint64_t low_frames, uint64_t min_frames) {
    low_watermark_.store(low_frames, std::memory_order_relaxed);
    min_watermark_.store(min_frames, std::memory_order_relaxed);
  }
  uint64_t LowWatermark() const { return low_watermark_.load(std::memory_order_relaxed); }
  uint64_t MinWatermark() const { return min_watermark_.load(std::memory_order_relaxed); }
  bool BelowLow() const { return FreeFrameCount() < LowWatermark(); }
  bool BelowMin() const { return FreeFrameCount() < MinWatermark(); }

  // Invoked (outside all buddy locks) after any allocation that leaves the
  // free count under the low watermark. pmm stays ignorant of reclaim: the
  // reclaim subsystem installs its kswapd wake here. Must be cheap,
  // non-blocking, and safe to call concurrently from any thread.
  using PressureHook = void (*)();
  void SetPressureHook(PressureHook hook) {
    pressure_hook_.store(hook, std::memory_order_release);
  }

  // --- Magazine layer -------------------------------------------------------
  // Kill switch for the whole magazine/depot layer (benches ablate against
  // the direct arena-lock path; reclaim never needs it). Disabling flushes
  // everything parked back to the free lists first.
  void SetMagazinesEnabled(bool enabled);
  bool MagazinesEnabled() const {
    return magazines_enabled_.load(std::memory_order_acquire);
  }

  // Returns every parked block — per-CPU magazines and depot shelves, every
  // arena — to the free lists, so no frame is stranded in a cache. Used by
  // the leak checker and by reclaim under watermark pressure (DrainMagazines
  // counts the pressure-driven case).
  void FlushCpuCaches();
  void DrainMagazines();

  // --- Pre-scrub integration -------------------------------------------------
  // Zeroes up to |max_frames| frames' worth of dirty depot magazines (whole
  // magazines at a time, owned exclusively while scrubbing) and moves them to
  // the clean shelf with their head descriptors' `zeroed` flag set. Returns
  // the number of frames zeroed; 0 means no dirty magazines (or an injected
  // kPreScrub fault — frames stay dirty, faults fall back to inline zeroing).
  // Round-robins across arenas so no node's shelf starves.
  uint64_t ScrubBatch(uint64_t max_frames);

  // Fired (outside all buddy locks) whenever a dirty magazine lands in a
  // depot — the pre-scrubber installs its wakeup here.
  using ScrubHook = void (*)();
  void SetScrubHook(ScrubHook hook) {
    scrub_hook_.store(hook, std::memory_order_release);
  }
  void FireScrubHook() {
    if (ScrubHook hook = scrub_hook_.load(std::memory_order_acquire)) {
      hook();
    }
  }

  // "faultpath" telemetry block: magazine switch plus current depot occupancy
  // (summed across arenas). "numa" block: topology shape and per-node free/
  // total frames. Both registered at construction; only state that is not a
  // Counter (the mag_*, prezero, numa_* and cna_* totals are already in the
  // snapshot's "counters" block).
  std::string DumpFaultpathJson();
  std::string DumpNumaJson();

 private:
  BuddyAllocator();
  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;

  // Local-first, nearest-remote-fallback. Counts numa_{local,remote}_allocs
  // and numa_spills.
  Result<Pfn> RouteAlloc(int order, bool* prezeroed, bool* mag_hit);
  // Routes by the frame's PFN to its home arena.
  void RouteFree(Pfn pfn, int order);

  // Fires the pressure hook when the free count has dropped under the low
  // watermark. Called at the tail of every successful allocation path.
  void NotePressure() {
    if (FreeFrameCount() < low_watermark_.load(std::memory_order_relaxed)) {
      if (PressureHook hook = pressure_hook_.load(std::memory_order_acquire)) {
        hook();
      }
    }
  }

  int num_nodes_ = 1;
  uint64_t frames_per_node_ = 0;
  uint64_t total_frames_ = 0;
  std::atomic<uint64_t> low_watermark_{0};
  std::atomic<uint64_t> min_watermark_{0};
  std::atomic<PressureHook> pressure_hook_{nullptr};
  std::atomic<ScrubHook> scrub_hook_{nullptr};
  std::atomic<bool> magazines_enabled_{true};
  std::unique_ptr<BuddyArena> arenas_[kMaxNodes];

  friend class BuddyArena;
};

}  // namespace cortenmm

#endif  // SRC_PMM_BUDDY_H_
