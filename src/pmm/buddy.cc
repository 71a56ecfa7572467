#include "src/pmm/buddy.h"

#include <cassert>
#include <sstream>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"

namespace cortenmm {

namespace {
// Magazine-occupancy histogram sample tick, 1-in-32 like the lock sampler but
// on its own counter so it never perturbs the acquisition-sampling cadence.
thread_local uint32_t mag_occupancy_tick = 0;
}  // namespace

// --- BuddyArena --------------------------------------------------------------

BuddyArena::BuddyArena(BuddyAllocator* router, int node, Pfn base,
                       uint64_t frames)
    : router_(router), node_(node), base_(base), frames_(frames) {
  assert(IsAligned(base_, 1ull << kMaxOrder));
  for (int order = 0; order <= kMaxOrder; ++order) {
    free_heads_[order] = kInvalidPfn;
  }
  cpu_mags_ = std::make_unique<CacheAligned<CpuMags>[]>(kMaxCpus);

  PhysMem& mem = PhysMem::Instance();
  const Pfn limit = base_ + frames_;

  // Frame 0 stays reserved so PFN 0 can double as a null sentinel in PTEs.
  Pfn pfn = base_;
  if (pfn == 0) {
    mem.Descriptor(0).type.store(FrameType::kReserved, std::memory_order_relaxed);
    pfn = 1;
  }

  // Seed the free lists with maximal aligned blocks. Arena bases are
  // kMaxOrder-aligned, so absolute PFN alignment and arena-relative
  // alignment coincide for every order we hand out.
  while (pfn < limit) {
    int order = kMaxOrder;
    while (order > 0 &&
           (!IsAligned(pfn, 1ull << order) || pfn + (1ull << order) > limit)) {
      --order;
    }
    PageDescriptor& desc = mem.Descriptor(pfn);
    desc.buddy_order = static_cast<uint8_t>(order);
    PushFree(pfn, order);
    free_frames_.fetch_add(1ull << order, std::memory_order_relaxed);
    pfn += 1ull << order;
  }
}

bool BuddyArena::MagazinesEnabled() const { return router_->MagazinesEnabled(); }

void BuddyArena::PushFree(Pfn pfn, int order) {
  PhysMem& mem = PhysMem::Instance();
  PageDescriptor& desc = mem.Descriptor(pfn);
  desc.type.store(FrameType::kFree, std::memory_order_relaxed);
  desc.buddy_order = static_cast<uint8_t>(order);
  desc.buddy_free.store(true, std::memory_order_relaxed);
  desc.free_prev = kInvalidPfn;
  desc.free_next = free_heads_[order];
  if (free_heads_[order] != kInvalidPfn) {
    mem.Descriptor(free_heads_[order]).free_prev = pfn;
  }
  free_heads_[order] = pfn;
}

void BuddyArena::RemoveFree(Pfn pfn, int order) {
  PhysMem& mem = PhysMem::Instance();
  PageDescriptor& desc = mem.Descriptor(pfn);
  assert(desc.buddy_free.load(std::memory_order_relaxed));
  if (desc.free_prev != kInvalidPfn) {
    mem.Descriptor(desc.free_prev).free_next = desc.free_next;
  } else {
    free_heads_[order] = desc.free_next;
  }
  if (desc.free_next != kInvalidPfn) {
    mem.Descriptor(desc.free_next).free_prev = desc.free_prev;
  }
  desc.buddy_free.store(false, std::memory_order_relaxed);
  desc.free_next = kInvalidPfn;
  desc.free_prev = kInvalidPfn;
}

Pfn BuddyArena::PopFree(int order) {
  Pfn head = free_heads_[order];
  if (head != kInvalidPfn) {
    RemoveFree(head, order);
  }
  return head;
}

Result<Pfn> BuddyArena::AllocBlockLocked(int order) {
  int found = order;
  while (found <= kMaxOrder && free_heads_[found] == kInvalidPfn) {
    ++found;
  }
  if (found > kMaxOrder) {
    return ErrCode::kNoMem;
  }
  Pfn block = PopFree(found);
  // Split down to the requested order, returning upper halves to free lists.
  while (found > order) {
    --found;
    Pfn upper_half = block + (1ull << found);
    PushFree(upper_half, found);
  }
  PhysMem::Instance().Descriptor(block).buddy_order = static_cast<uint8_t>(order);
  free_frames_.fetch_sub(1ull << order, std::memory_order_relaxed);
  return block;
}

void BuddyArena::FreeBlockLocked(Pfn pfn, int order) {
  PhysMem& mem = PhysMem::Instance();
  assert(pfn >= base_ && pfn < base_ + frames_);
  // A block on a free list is never pre-zeroed: split/coalesce would leave
  // the flag on the wrong head otherwise.
  mem.Descriptor(pfn).zeroed.store(false, std::memory_order_relaxed);
  // The freed→kFree transition happens here, under lock_: typing the frames
  // free before holding the lock would open a window where they are marked
  // free but still reachable (and not yet on any free list). Every frame of
  // the run is retyped, not just the head — a tail frame that kept its old
  // type (kAnon, say) would read as live-but-unreferenced to the well-
  // formedness checker's stranded-run scan.
  for (uint64_t f = 0; f < (1ull << order); ++f) {
    mem.Descriptor(pfn + f).type.store(FrameType::kFree, std::memory_order_relaxed);
  }
  free_frames_.fetch_add(1ull << order, std::memory_order_relaxed);
  // Coalesce with the buddy while possible. The buddy must live in THIS
  // arena: node boundaries are kMaxOrder-aligned so the XOR never crosses
  // one, but the guard keeps frame 0 and the arena edges out.
  while (order < kMaxOrder) {
    Pfn buddy = pfn ^ (1ull << order);
    if (buddy == 0 || buddy < base_ || buddy >= base_ + frames_) {
      break;
    }
    PageDescriptor& buddy_desc = mem.Descriptor(buddy);
    if (!buddy_desc.buddy_free.load(std::memory_order_relaxed) ||
        buddy_desc.buddy_order != order) {
      break;
    }
    RemoveFree(buddy, order);
    pfn = pfn < buddy ? pfn : buddy;
    ++order;
  }
  PushFree(pfn, order);
}

void BuddyArena::FlushMagazineLocked(const Magazine& mag, int order) {
  // Parked blocks are accounted allocated, so FreeBlockLocked's per-block
  // fetch_add is exactly the batch-boundary counter update.
  for (uint32_t b = 0; b < mag.count; ++b) {
    FreeBlockLocked(mag.pfns[b], order);
  }
}

void BuddyArena::PushDepotOrFlush(int order, const Magazine& mag) {
  if (mag.count == 0) {
    return;
  }
  CountEvent(Counter::kMagFlushes);
  bool pushed = false;
  {
    Depot& depot = depots_[order];
    SpinGuard guard(depot.lock);
    if (depot.clean.size() + depot.dirty.size() < DepotMaxMags(order)) {
      depot.dirty.push_back(mag);
      pushed = true;
    }
  }
  if (pushed) {
    // A dirty magazine just became scrubbable; wake the pre-scrubber.
    router_->FireScrubHook();
    return;
  }
  // Depot full: return the whole magazine under one arena-lock acquisition.
  CountEvent(Counter::kBuddyLockAcquisitions);
  SpinGuard guard(lock_);
  FlushMagazineLocked(mag, order);
}

Result<Pfn> BuddyArena::AllocRaw(int order, bool* prezeroed, bool* mag_hit) {
  PhysMem& mem = PhysMem::Instance();
  if (prezeroed) {
    *prezeroed = false;
  }
  if (mag_hit) {
    *mag_hit = false;
  }
  if (!MagazinesEnabled()) {
    CountEvent(Counter::kBuddyLockAcquisitions);
    SpinGuard guard(lock_);
    return AllocBlockLocked(order);
  }
  const uint32_t cap = MagCapacity(order);
  CpuMags& cm = cpu_mags_[CurrentCpu()].value;
  Pfn pfn = kInvalidPfn;
  uint32_t occupancy = 0;
  {
    SpinGuard guard(cm.lock);
    Magazine& mag = cm.mags[order];
    if (mag.count > 0) {
      pfn = mag.pfns[--mag.count];
      occupancy = mag.count;
    }
  }
  if (pfn != kInvalidPfn) {
    CountEvent(Counter::kMagHits);
    if (mag_hit) {
      *mag_hit = true;
    }
    if ((++mag_occupancy_tick & 31u) == 0) {
      Telemetry::Instance().RecordBatch(BatchStat::kMagOccupancy, occupancy);
    }
  } else {
    // Magazine empty: swap in a whole one from the depot, or build one under
    // a single arena-lock acquisition.
    if (FaultInjector::Instance().ShouldFail(FaultSite::kMagazineRefill)) {
      return ErrCode::kNoMem;
    }
    Magazine full;
    bool from_depot = false;
    {
      Depot& depot = depots_[order];
      SpinGuard guard(depot.lock);
      if (!depot.clean.empty()) {
        full = depot.clean.back();
        depot.clean.pop_back();
        from_depot = true;
      } else if (!depot.dirty.empty()) {
        full = depot.dirty.back();
        depot.dirty.pop_back();
        from_depot = true;
      }
    }
    if (!from_depot) {
      CountEvent(Counter::kBuddyLockAcquisitions);
      {
        SpinGuard guard(lock_);
        while (full.count < cap) {
          Result<Pfn> r = AllocBlockLocked(order);
          if (!r.ok()) {
            break;
          }
          full.pfns[full.count++] = *r;
        }
      }
      if (full.count == 0) {
        return ErrCode::kNoMem;
      }
      // Retype outside lock_ — nothing else can reach these blocks yet.
      for (uint32_t b = 0; b < full.count; ++b) {
        for (uint64_t f = 0; f < (1ull << order); ++f) {
          mem.Descriptor(full.pfns[b] + f)
              .type.store(FrameType::kCached, std::memory_order_relaxed);
        }
      }
    }
    CountEvent(Counter::kMagRefills);
    pfn = full.pfns[--full.count];
    if (full.count > 0) {
      SpinGuard guard(cm.lock);
      Magazine& mag = cm.mags[order];
      // A thread sharing this CPU id may have refilled meanwhile; merge what
      // fits and spill the rest.
      while (full.count > 0 && mag.count < cap) {
        mag.pfns[mag.count++] = full.pfns[--full.count];
      }
    }
    if (full.count > 0) {
      PushDepotOrFlush(order, full);
    }
  }
  // Consume the pre-scrub flag before the caller resets the descriptor.
  // Load-then-store, not exchange: the block is exclusively ours once it
  // leaves the magazine, so no atomic RMW is needed; the acquire load pairs
  // with the scrubber's release store to make the zeroed bytes visible.
  // Weak-memory audit (PR 9): TSO-safe — message passing, not store
  // buffering: the scrubber's zeroing stores drain FIFO-before its flag
  // store, and this side only loads. Model-checked by MakePrezeroLitmus
  // (src/verif/litmus_model.cc); PrezeroVariant::kFlagBeforeZero keeps the
  // flag-first counterexample as the regression.
  PageDescriptor& head = mem.Descriptor(pfn);
  if (head.zeroed.load(std::memory_order_acquire)) {
    head.zeroed.store(false, std::memory_order_relaxed);
    if (prezeroed) {
      *prezeroed = true;
    }
  }
  // No free_frames_ update: parked blocks are accounted allocated, so the
  // counter moved when the magazine was filled, not per block.
  return pfn;
}

void BuddyArena::FreeRaw(Pfn pfn, int order) {
  PhysMem& mem = PhysMem::Instance();
  // Whatever the caller did to the contents, they are dirty now.
  mem.Descriptor(pfn).zeroed.store(false, std::memory_order_relaxed);
  if (!MagazinesEnabled()) {
    CountEvent(Counter::kBuddyLockAcquisitions);
    SpinGuard guard(lock_);
    FreeBlockLocked(pfn, order);
    return;
  }
  CpuMags& cm = cpu_mags_[CurrentCpu()].value;
  Magazine overflow;
  {
    SpinGuard guard(cm.lock);
    Magazine& mag = cm.mags[order];
    if (mag.count >= MagCapacity(order)) {
      overflow = mag;
      mag.count = 0;
    }
    // Parked, not free: the WHOLE block is typed under the magazine lock so
    // the transition is atomic with becoming reachable from the magazine, and
    // as kCached (not kFree) so the leak checker can tell the difference.
    for (uint64_t f = 0; f < (1ull << order); ++f) {
      mem.Descriptor(pfn + f).type.store(FrameType::kCached,
                                         std::memory_order_relaxed);
    }
    mag.pfns[mag.count++] = pfn;
  }
  // No free_frames_ update: parking keeps the block accounted allocated until
  // a flush returns it to the free lists (batch-boundary accounting).
  if (overflow.count > 0) {
    PushDepotOrFlush(order, overflow);
  }
}

void BuddyArena::FlushCpuCaches() {
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    CpuMags& cm = cpu_mags_[cpu].value;
    Magazine taken[kMaxOrder + 1];
    bool any = false;
    {
      SpinGuard guard(cm.lock);
      for (int order = 0; order <= kMaxOrder; ++order) {
        if (cm.mags[order].count > 0) {
          taken[order] = cm.mags[order];
          cm.mags[order].count = 0;
          any = true;
        }
      }
    }
    if (any) {
      CountEvent(Counter::kBuddyLockAcquisitions);
      SpinGuard guard(lock_);
      for (int order = 0; order <= kMaxOrder; ++order) {
        FlushMagazineLocked(taken[order], order);
      }
    }
  }
  for (int order = 0; order <= kMaxOrder; ++order) {
    Depot& depot = depots_[order];
    std::vector<Magazine> all;
    {
      SpinGuard guard(depot.lock);
      all.swap(depot.dirty);
      all.insert(all.end(), depot.clean.begin(), depot.clean.end());
      depot.clean.clear();
    }
    if (!all.empty()) {
      CountEvent(Counter::kBuddyLockAcquisitions);
      SpinGuard guard(lock_);
      for (const Magazine& mag : all) {
        FlushMagazineLocked(mag, order);
      }
    }
  }
}

uint64_t BuddyArena::ScrubBatch(uint64_t max_frames) {
  PhysMem& mem = PhysMem::Instance();
  uint64_t zeroed = 0;
  for (int order = 0; order <= kMaxOrder && zeroed < max_frames; ++order) {
    Depot& depot = depots_[order];
    for (;;) {
      Magazine mag;
      {
        SpinGuard guard(depot.lock);
        if (depot.dirty.empty()) {
          break;
        }
        mag = depot.dirty.back();
        depot.dirty.pop_back();
      }
      // The magazine is off every shelf: the scrubber owns its blocks
      // exclusively while zeroing, so no lock is held across the memsets.
      for (uint32_t b = 0; b < mag.count; ++b) {
        PageDescriptor& head = mem.Descriptor(mag.pfns[b]);
        if (head.zeroed.load(std::memory_order_relaxed)) {
          continue;  // Clean-shelf leftover that cycled back: still zero.
        }
        for (uint64_t f = 0; f < (1ull << order); ++f) {
          mem.ZeroFrame(mag.pfns[b] + f);
        }
        head.zeroed.store(true, std::memory_order_release);
        zeroed += 1ull << order;
      }
      {
        SpinGuard guard(depot.lock);
        depot.clean.push_back(mag);
      }
      if (zeroed >= max_frames) {
        break;
      }
    }
  }
  return zeroed;
}

uint64_t BuddyArena::CountMisplacedFreeFrames() {
  PhysMem& mem = PhysMem::Instance();
  uint64_t misplaced = 0;
  SpinGuard guard(lock_);
  for (int order = 0; order <= kMaxOrder; ++order) {
    for (Pfn pfn = free_heads_[order]; pfn != kInvalidPfn;
         pfn = mem.Descriptor(pfn).free_next) {
      if (pfn < base_ || pfn >= base_ + frames_) {
        misplaced += 1ull << order;
      }
    }
  }
  return misplaced;
}

BuddyArena::DepotStats BuddyArena::GetDepotStats() {
  DepotStats s;
  for (int order = 0; order <= kMaxOrder; ++order) {
    Depot& depot = depots_[order];
    SpinGuard guard(depot.lock);
    s.clean_mags += depot.clean.size();
    s.dirty_mags += depot.dirty.size();
    for (const Magazine& m : depot.clean) {
      s.clean_frames += uint64_t(m.count) << order;
    }
    for (const Magazine& m : depot.dirty) {
      s.dirty_frames += uint64_t(m.count) << order;
    }
  }
  return s;
}

// --- BuddyAllocator (per-node router) ----------------------------------------

BuddyAllocator& BuddyAllocator::Instance() {
  static BuddyAllocator buddy;
  return buddy;
}

BuddyAllocator::BuddyAllocator() {
  PhysMem& mem = PhysMem::Instance();
  total_frames_ = mem.num_frames();

  num_nodes_ = NodeTopology::Instance().nodes();
  // Arena boundaries must be kMaxOrder-aligned so buddy XOR math never
  // crosses a node. The last node absorbs the rounding remainder. A machine
  // too small to give every node an aligned slice degrades to one arena.
  frames_per_node_ =
      (total_frames_ / num_nodes_) & ~((1ull << kMaxOrder) - 1);
  if (frames_per_node_ == 0) {
    num_nodes_ = 1;
    frames_per_node_ = total_frames_;
  }
  for (int n = 0; n < num_nodes_; ++n) {
    Pfn base = static_cast<Pfn>(n) * frames_per_node_;
    uint64_t frames =
        n == num_nodes_ - 1 ? total_frames_ - base : frames_per_node_;
    arenas_[n] = std::make_unique<BuddyArena>(this, n, base, frames);
  }

  // Default watermarks scale with the machine; reclaim or tests may override.
  low_watermark_.store(total_frames_ / 16, std::memory_order_relaxed);
  min_watermark_.store(total_frames_ / 64, std::memory_order_relaxed);

  Telemetry::Instance().AddJsonSection(
      "faultpath", [] { return BuddyAllocator::Instance().DumpFaultpathJson(); });
  Telemetry::Instance().AddJsonSection(
      "numa", [] { return BuddyAllocator::Instance().DumpNumaJson(); });
}

Result<Pfn> BuddyAllocator::RouteAlloc(int order, bool* prezeroed,
                                       bool* mag_hit) {
  int home = NodeTopology::Instance().NodeOfCpu(CurrentCpu());
  if (home >= num_nodes_) {
    home = num_nodes_ - 1;  // Degenerate-arena fallback (tiny machines).
  }
  Result<Pfn> r = arenas_[home]->AllocRaw(order, prezeroed, mag_hit);
  if (r.ok()) {
    CountEvent(Counter::kNumaLocalAllocs);
    return r;
  }
  if (num_nodes_ == 1) {
    return r;
  }
  // Home arena exhausted: walk the remote arenas nearest-first.
  CountEvent(Counter::kNumaSpills);
  int count = 0;
  const int* spill = NodeTopology::Instance().SpillOrder(home, &count);
  for (int i = 0; i < count; ++i) {
    if (spill[i] >= num_nodes_) {
      continue;
    }
    r = arenas_[spill[i]]->AllocRaw(order, prezeroed, mag_hit);
    if (r.ok()) {
      CountEvent(Counter::kNumaRemoteAllocs);
      return r;
    }
  }
  return ErrCode::kNoMem;
}

void BuddyAllocator::RouteFree(Pfn pfn, int order) {
  // Always the frame's HOME arena: a frame allocated remotely still returns
  // to the arena its PFN belongs to, so arenas cannot bleed into each other.
  arenas_[NodeOfPfn(pfn)]->FreeRaw(pfn, order);
}

Result<Pfn> BuddyAllocator::AllocBlock(int order, FrameType type) {
  assert(order >= 0 && order <= kMaxOrder);
  if (FaultInjector::Instance().ShouldFail(FaultSite::kBuddyAllocBlock)) {
    return ErrCode::kNoMem;
  }
  Result<Pfn> result = RouteAlloc(order, nullptr, nullptr);
  if (result.ok()) {
    // Reset every frame, not just the head: each descriptor in the run must
    // carry live type/refcount state or the run cannot be reclaimed
    // frame-by-frame after a split.
    for (uint64_t f = 0; f < (1ull << order); ++f) {
      PhysMem::Instance().Descriptor(*result + f).ResetForAlloc(type);
    }
    CountEvent(Counter::kFramesAllocated, 1ull << order);
    NotePressure();
  }
  return result;
}

void BuddyAllocator::FreeBlock(Pfn pfn, int order) {
  assert(order >= 0 && order <= kMaxOrder);
  CountEvent(Counter::kFramesFreed, 1ull << order);
  RouteFree(pfn, order);
}

Result<Pfn> BuddyAllocator::AllocHugeRun(bool* prezeroed, FrameType type) {
  // Same injection site as AllocBlock: chaos schedules that starve block
  // allocation starve huge fault-in too, which is exactly the fallback
  // ladder the policy layer must survive.
  if (FaultInjector::Instance().ShouldFail(FaultSite::kBuddyAllocBlock)) {
    CountEvent(Counter::kHugeAllocFailures);
    return ErrCode::kNoMem;
  }
  bool was_zeroed = false;
  bool mag_hit = false;
  Result<Pfn> r = RouteAlloc(static_cast<int>(kHugeOrder), &was_zeroed, &mag_hit);
  if (!r.ok()) {
    CountEvent(Counter::kHugeAllocFailures);
    return r;
  }
  if (mag_hit) {
    CountEvent(Counter::kHugeCacheHits);
  }
  PhysMem& mem = PhysMem::Instance();
  for (uint64_t f = 0; f < (1ull << kHugeOrder); ++f) {
    mem.Descriptor(*r + f).ResetForAlloc(type);
  }
  if (prezeroed) {
    *prezeroed = was_zeroed;
    if (was_zeroed) {
      CountEvent(Counter::kPrezeroHits, 1ull << kHugeOrder);
    }
  }
  CountEvent(Counter::kHugeAllocs);
  CountEvent(Counter::kFramesAllocated, 1ull << kHugeOrder);
  NotePressure();
  return r;
}

void BuddyAllocator::FreeHugeRun(Pfn head) {
  assert(IsAligned(head, 1ull << kHugeOrder));
  CountEvent(Counter::kHugeFrees);
  CountEvent(Counter::kFramesFreed, 1ull << kHugeOrder);
  RouteFree(head, static_cast<int>(kHugeOrder));
}

Result<Pfn> BuddyAllocator::AllocFrame(FrameType type) {
  if (FaultInjector::Instance().ShouldFail(FaultSite::kBuddyAllocFrame)) {
    return ErrCode::kNoMem;
  }
  Result<Pfn> r = RouteAlloc(0, nullptr, nullptr);
  if (r.ok()) {
    PhysMem::Instance().Descriptor(*r).ResetForAlloc(type);
    CountEvent(Counter::kFramesAllocated);
    NotePressure();
  }
  return r;
}

Result<Pfn> BuddyAllocator::AllocZeroedFrame(FrameType type) {
  if (FaultInjector::Instance().ShouldFail(FaultSite::kBuddyAllocFrame)) {
    return ErrCode::kNoMem;
  }
  bool was_zeroed = false;
  Result<Pfn> r = RouteAlloc(0, &was_zeroed, nullptr);
  if (!r.ok()) {
    return r;
  }
  PhysMem::Instance().Descriptor(*r).ResetForAlloc(type);
  if (was_zeroed) {
    // The pre-scrubber already zeroed this frame off the critical path.
    CountEvent(Counter::kPrezeroHits);
  } else {
    PhysMem::Instance().ZeroFrame(*r);
  }
  CountEvent(Counter::kFramesAllocated);
  NotePressure();
  return r;
}

void BuddyAllocator::FreeFrame(Pfn pfn) {
  CountEvent(Counter::kFramesFreed);
  RouteFree(pfn, 0);
}

void BuddyAllocator::SetMagazinesEnabled(bool enabled) {
  // Toggling is a quiesced operation (benches, tests): a racing free that
  // sampled the old value may still park one block, which the next flush
  // collects — nothing is lost, only deferred.
  bool was = magazines_enabled_.exchange(enabled, std::memory_order_acq_rel);
  if (was && !enabled) {
    FlushCpuCaches();
  }
}

void BuddyAllocator::FlushCpuCaches() {
  for (int n = 0; n < num_nodes_; ++n) {
    arenas_[n]->FlushCpuCaches();
  }
}

void BuddyAllocator::DrainMagazines() {
  CountEvent(Counter::kMagDrains);
  FlushCpuCaches();
}

uint64_t BuddyAllocator::ScrubBatch(uint64_t max_frames) {
  if (FaultInjector::Instance().ShouldFail(FaultSite::kPreScrub)) {
    // Graceful degradation: the frames stay on the dirty shelf and
    // demand-zero faults fall back to inline zeroing — nothing to roll back.
    FaultInjector::NoteSurvived();
    return 0;
  }
  uint64_t zeroed = 0;
  for (int n = 0; n < num_nodes_ && zeroed < max_frames; ++n) {
    zeroed += arenas_[n]->ScrubBatch(max_frames - zeroed);
  }
  if (zeroed > 0) {
    CountEvent(Counter::kPrescrubFramesZeroed, zeroed);
  }
  return zeroed;
}

uint64_t BuddyAllocator::CountMisplacedFreeFrames() {
  uint64_t misplaced = 0;
  for (int n = 0; n < num_nodes_; ++n) {
    misplaced += arenas_[n]->CountMisplacedFreeFrames();
  }
  return misplaced;
}

std::string BuddyAllocator::DumpFaultpathJson() {
  BuddyArena::DepotStats total;
  for (int n = 0; n < num_nodes_; ++n) {
    BuddyArena::DepotStats s = arenas_[n]->GetDepotStats();
    total.clean_mags += s.clean_mags;
    total.dirty_mags += s.dirty_mags;
    total.clean_frames += s.clean_frames;
    total.dirty_frames += s.dirty_frames;
  }
  std::ostringstream os;
  os << "{\"magazines_enabled\":" << (MagazinesEnabled() ? 1 : 0)
     << ",\"depot_clean_mags\":" << total.clean_mags
     << ",\"depot_dirty_mags\":" << total.dirty_mags
     << ",\"depot_clean_frames\":" << total.clean_frames
     << ",\"depot_dirty_frames\":" << total.dirty_frames << "}";
  return os.str();
}

std::string BuddyAllocator::DumpNumaJson() {
  std::ostringstream os;
  os << "{\"nodes\":" << num_nodes_
     << ",\"frames_per_node\":" << frames_per_node_
     << ",\"node_free_frames\":[";
  for (int n = 0; n < num_nodes_; ++n) {
    os << (n ? "," : "") << arenas_[n]->FreeFrameCount();
  }
  os << "],\"node_total_frames\":[";
  for (int n = 0; n < num_nodes_; ++n) {
    os << (n ? "," : "") << arenas_[n]->frames();
  }
  os << "]}";
  return os.str();
}

}  // namespace cortenmm
