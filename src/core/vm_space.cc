#include "src/core/vm_space.h"

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/stats.h"
#include "src/core/pressure.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"

namespace cortenmm {
namespace {

// Allocates an anonymous data frame destined for a mapping. The allocator
// resets the descriptor directly to kAnon (one reset, not kKernel-then-anon).
// The reverse-mapping hint is NOT recorded here: Map/MapHuge writes
// owner/owner_key under the rmap lock when the frame is installed, and until
// then the frame has mapcount 0, which excludes it from every rmap consumer
// (the reclaim clock requires mapcount == 1).
Result<Pfn> AllocAnonFrame(bool zeroed) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  return zeroed ? buddy.AllocZeroedFrame(FrameType::kAnon)
                : buddy.AllocFrame(FrameType::kAnon);
}

}  // namespace

VmSpace::VmSpace(const AddrSpace::Options& options) : space_(options) {
  if (MemPressureGovernor* governor = PressureGovernor()) {
    governor->OnSpaceCreated(this);
  }
}

VmSpace::VmSpace(const AddrSpace::Options& options, PageTable pt)
    : space_(options, std::move(pt)) {
  if (MemPressureGovernor* governor = PressureGovernor()) {
    governor->OnSpaceCreated(this);
  }
}

Result<std::unique_ptr<VmSpace>> VmSpace::Create(const AddrSpace::Options& options) {
  Result<PageTable> pt = PageTable::Create(options.arch);
  if (!pt.ok()) {
    return pt.error();
  }
  return std::unique_ptr<VmSpace>(new VmSpace(options, std::move(*pt)));
}

VmSpace::~VmSpace() {
  // Deregister from the reclaim tenant registry FIRST — before ~AddrSpace's
  // teardown transaction takes the whole-space lock. The governor waits out
  // any in-flight reclaimer pinning this space; doing that while holding the
  // whole-space cursor would deadlock against a reclaimer blocked on it.
  // Deregistration is also the full-mm teardown's precondition: afterwards
  // no other thread can reach the space, so ~AddrSpace drops every frame in
  // one walk after one ASID flush and frees the PT pages without RCU (the
  // walk releases the swap blocks of any Swapped marks too).
  if (MemPressureGovernor* governor = PressureGovernor()) {
    governor->OnSpaceDestroying(this);
  }
}

// ---------------------------------------------------------------------------
// mmap family (paper Figure 8, do_syscall_mmap)
// ---------------------------------------------------------------------------

Result<Vaddr> VmSpace::MmapAnon(uint64_t len, Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMmap);
  // Under the huge-page policy, regions big enough to hold a 2 MiB leaf are
  // placed on a 2 MiB boundary so their spans line up with level-2 slots —
  // otherwise no fault inside them could ever be huge-eligible.
  uint64_t align =
      (space_.options().huge_pages && len >= kHugePageSize) ? kHugePageSize : kPageSize;
  Result<Vaddr> va = space_.AllocVa(len, align);
  if (!va.ok()) {
    return va;
  }
  VoidResult r = MmapAnonAt(*va, len, perm);
  if (!r.ok()) {
    space_.FreeVa(*va, len);
    return r.error();
  }
  return va;
}

VoidResult VmSpace::MmapAnonAt(Vaddr va, uint64_t len, Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMmap);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  // MAP_FIXED semantics: whatever was there is replaced atomically — swapped
  // pages being replaced give their blocks back.
  RCursor cursor = space_.Lock(range);
  return cursor.Mark(range, Status::PrivateAnon(perm));
}

Result<Vaddr> VmSpace::MmapFilePrivate(SimFile* file, uint32_t first_page, uint64_t len,
                                       Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMmapFile);
  if (file == nullptr || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  Result<Vaddr> va = space_.AllocVa(len);
  if (!va.ok()) {
    return va;
  }
  VaRange range(*va, *va + len);
  {
    RCursor cursor = space_.Lock(range);
    VoidResult r = cursor.Mark(range, Status::PrivateFileMapped(file->id(), first_page, perm));
    if (!r.ok()) {
      space_.FreeVa(*va, len);
      return r.error();
    }
  }
  file->AddMapping(FileMapping{&space_, *va, first_page,
                               static_cast<uint32_t>(len >> kPageBits)});
  return va;
}

Result<Vaddr> VmSpace::MmapShared(SimFile* object, uint32_t first_page, uint64_t len,
                                  Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMmapFile);
  if (object == nullptr || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  Result<Vaddr> va = space_.AllocVa(len);
  if (!va.ok()) {
    return va;
  }
  VaRange range(*va, *va + len);
  {
    RCursor cursor = space_.Lock(range);
    VoidResult r = cursor.Mark(range, Status::SharedAnon(object->id(), first_page, perm));
    if (!r.ok()) {
      space_.FreeVa(*va, len);
      return r.error();
    }
  }
  object->AddMapping(FileMapping{&space_, *va, first_page,
                                 static_cast<uint32_t>(len >> kPageBits)});
  return va;
}

VoidResult VmSpace::Munmap(Vaddr va, uint64_t len) {
  ScopedOpTimer telemetry_timer(MmOp::kMunmap);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  {
    // Figure 8, do_syscall_munmap: one transaction, one Unmap (swapped pages
    // lose their blocks with their marks).
    RCursor cursor = space_.Lock(range);
    VoidResult r = cursor.Unmap(range);
    if (!r.ok()) {
      return r;
    }
  }
  space_.FreeVa(va, len);
  return VoidResult();
}

VoidResult VmSpace::Mprotect(Vaddr va, uint64_t len, Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMprotect);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  RCursor cursor = space_.Lock(range);
  return cursor.Protect(range, perm);
}

VoidResult VmSpace::Msync(Vaddr va, uint64_t len) {
  ScopedOpTimer telemetry_timer(MmOp::kMsync);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  // The simulated page cache *is* the file, so msync only needs to validate
  // that the range is a mapping and clear dirty state by re-protecting.
  RCursor cursor = space_.Lock(range);
  bool any = false;
  cursor.ForEachStatus(range, [&any](VaRange, const Status&) { any = true; });
  return any ? VoidResult() : VoidResult(ErrCode::kNoEnt);
}

VoidResult VmSpace::PkeyMprotect(Vaddr va, uint64_t len, int pkey) {
  ScopedOpTimer telemetry_timer(MmOp::kPkeyMprotect);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  RCursor cursor = space_.Lock(range);
  return cursor.SetPkey(range, pkey);
}

// ---------------------------------------------------------------------------
// Page faults (paper Figure 8, page_fault_handler)
// ---------------------------------------------------------------------------

VoidResult VmSpace::FaultInPage(RCursor& cursor, Vaddr page_va, const Status& status,
                                Access access) {
  bool want_write = access == Access::kWrite;
  switch (status.tag) {
    case StatusTag::kPrivateAnon: {
      // Demand-zero fill.
      if ((want_write && !status.perm.write()) ||
          (access == Access::kRead && !status.perm.read()) ||
          (access == Access::kExec && !status.perm.exec())) {
        return ErrCode::kFault;
      }
      Result<Pfn> frame = AllocAnonFrame(/*zeroed=*/true);
      if (!frame.ok()) {
        return frame.error();
      }
      CountEvent(Counter::kDemandZeroFills);
      VoidResult mapped = cursor.Map(page_va, *frame, status.perm);
      if (!mapped.ok()) {
        // The frame was never installed; dropping our reference restores the
        // space and the allocator to their pre-fault state.
        DropFrameRef(*frame);
        FaultInjector::NoteRolledBack();
      }
      return mapped;
    }

    case StatusTag::kPrivateFileMapped: {
      SimFile* file = FileRegistry::Instance().Get(status.object_id);
      if (file == nullptr) {
        return ErrCode::kFault;
      }
      Result<Pfn> cached = file->GetPage(status.page_offset);
      if (!cached.ok()) {
        return ErrCode::kFault;
      }
      if (want_write) {
        if (!status.perm.write()) {
          return ErrCode::kFault;
        }
        // Private write: copy the cache page into an exclusive anon frame.
        Result<Pfn> frame = AllocAnonFrame(/*zeroed=*/false);
        if (!frame.ok()) {
          return frame.error();
        }
        PhysMem::Instance().CopyFrame(*frame, *cached);
        VoidResult mapped = cursor.Map(page_va, *frame, status.perm);
        if (!mapped.ok()) {
          DropFrameRef(*frame);
          FaultInjector::NoteRolledBack();
        }
        return mapped;
      }
      // Private read: share the cache frame, hardware read-only + COW mark.
      AddFrameRef(*cached);
      Perm cow_perm = status.perm.With(Perm::kCow).Without(Perm::kWrite);
      VoidResult mapped = cursor.Map(page_va, *cached, cow_perm);
      if (!mapped.ok()) {
        DropFrameRef(*cached);
        FaultInjector::NoteRolledBack();
      }
      return mapped;
    }

    case StatusTag::kSharedAnon: {
      SimFile* segment = FileRegistry::Instance().Get(status.object_id);
      if (segment == nullptr) {
        return ErrCode::kFault;
      }
      Result<Pfn> cached = segment->GetPage(status.page_offset);
      if (!cached.ok()) {
        return ErrCode::kFault;
      }
      AddFrameRef(*cached);
      VoidResult mapped = cursor.Map(page_va, *cached, status.perm);
      if (!mapped.ok()) {
        DropFrameRef(*cached);
        FaultInjector::NoteRolledBack();
      }
      return mapped;
    }

    case StatusTag::kSwapped: {
      Result<Pfn> frame = AllocAnonFrame(/*zeroed=*/false);
      if (!frame.ok()) {
        return frame.error();
      }
      VoidResult read = SwapDevice::Instance().ReadBlock(
          status.page_offset, PhysMem::Instance().FrameData(*frame));
      if (!read.ok()) {
        DropFrameRef(*frame);
        FaultInjector::NoteRolledBack();
        return read;
      }
      // Map consumes the Swapped mark and the block reference it carried; a
      // failed map leaves both in place.
      VoidResult mapped = cursor.Map(page_va, *frame, status.perm);
      if (!mapped.ok()) {
        DropFrameRef(*frame);
        FaultInjector::NoteRolledBack();
      }
      return mapped;
    }

    default:
      return ErrCode::kFault;
  }
}

// Attempts the top rung of the fault-in ladder: one order-9 run backing one
// level-2 leaf over the whole slot. Eligibility is decided inside the
// transaction (so a racing map/munmap cannot invalidate it): every byte of
// the slot must be virtually-allocated private-anon with the faulting
// status's permissions, and nothing in it may already be mapped.
bool VmSpace::TryHugeFaultIn(RCursor& cursor, VaRange huge_range, const Status& status,
                             Access access) {
  if ((access == Access::kWrite && !status.perm.write()) ||
      (access == Access::kRead && !status.perm.read()) ||
      (access == Access::kExec && !status.perm.exec())) {
    return false;  // Not resolvable at any page size; the 4 KiB path SEGVs.
  }
  uint64_t covered = 0;
  bool uniform = true;
  cursor.ForEachStatus(huge_range, [&](VaRange run, const Status& s) {
    if (s.tag == StatusTag::kPrivateAnon && s.perm == status.perm) {
      covered += run.size();
    } else {
      uniform = false;
    }
  });
  if (!uniform || covered != kHugePageSize) {
    return false;
  }
  bool prezeroed = false;
  Result<Pfn> run = BuddyAllocator::Instance().AllocHugeRun(&prezeroed,
                                                            FrameType::kAnon);
  if (!run.ok()) {
    CountEvent(Counter::kHugeFallbacks);
    FaultInjector::NoteSurvived();
    return false;  // Fragmentation/exhaustion: drop to the 4 KiB rung.
  }
  PhysMem& mem = PhysMem::Instance();
  if (!prezeroed) {
    for (uint64_t f = 0; f < (1ull << kHugeOrder); ++f) {
      mem.ZeroFrame(*run + f);
    }
  }
  // No rmap hint here: MapHuge records owner/owner_key when it installs the
  // run (a mapcount-0 frame is invisible to rmap consumers until then).
  VoidResult mapped = cursor.MapHuge(huge_range.start, *run, status.perm, 2);
  if (!mapped.ok()) {
    // The run was never installed; dropping our references returns it to the
    // buddy whole and leaves the space exactly as it was.
    DropRunRef(PageRun(*run, static_cast<uint8_t>(kHugeOrder)));
    FaultInjector::NoteRolledBack();
    CountEvent(Counter::kHugeFallbacks);
    return false;
  }
  CountEvent(Counter::kHugeFaults);
  CountEvent(Counter::kDemandZeroFills, 1ull << kHugeOrder);
  return true;
}

uint32_t VmSpace::FaultAroundPages() const {
  uint32_t v = space_.options().fault_around_pages;
  if (v < 2) {
    return 0;
  }
  if (v > (1u << kHugeOrder)) {
    v = 1u << kHugeOrder;
  }
  while ((v & (v - 1)) != 0) {
    v &= v - 1;  // Round down to a power of two.
  }
  return v;
}

VoidResult VmSpace::HandleFault(Vaddr va, Access access) {
  ScopedOpTimer telemetry_timer(MmOp::kFault);
  // Pressure admission runs before the transaction: the governor may reclaim
  // (taking its own cursors) or sleep, neither legal under subtree locks.
  if (MemPressureGovernor* governor = PressureGovernor()) {
    governor->BeforeFault(this);
  }
  Vaddr page_va = AlignDown(va, kPageSize);
  // The transaction covers the fault-around window when that policy is on,
  // and under the huge-page policy the surrounding 2 MiB slot (a superset of
  // any window — both are power-of-two aligned, the window at most 2 MiB),
  // so an eligible anon fault can install a level-2 leaf — and a write to a
  // huge COW leaf can split it — under the one covering lock.
  bool huge = space_.options().huge_pages;
  uint32_t fa = FaultAroundPages();
  Vaddr lock_base = page_va;
  uint64_t lock_bytes = kPageSize;
  if (fa != 0) {
    lock_bytes = static_cast<uint64_t>(fa) * kPageSize;
    lock_base = AlignDown(page_va, lock_bytes);
  }
  if (huge) {
    lock_base = AlignDown(page_va, kHugePageSize);
    lock_bytes = kHugePageSize;
  }
  VaRange fault_range(lock_base, lock_base + lock_bytes);
  // Fault-around admission, like BeforeFault, runs OUTSIDE the transaction:
  // the governor consults the tenant registry, which is illegal to touch
  // while holding subtree locks.
  uint64_t around_budget = 0;
  if (fa != 0) {
    MemPressureGovernor* governor = PressureGovernor();
    around_budget = governor != nullptr ? governor->FaultAroundBudget(this) : ~0ull;
  }
  for (int attempt = 0;; ++attempt) {
    VoidResult r = [&] {
      RCursor cursor = space_.Lock(fault_range);
      return HandleFaultLocked(cursor, page_va, access, &around_budget);
    }();
    if (r.ok() || r.error() != ErrCode::kNoMem) {
      return r;
    }
    // Allocation failed mid-fault and the transaction rolled back (cursor
    // unwound above). Under a governor, kNoMem degrades to direct reclaim +
    // retry; the error only surfaces once reclaim cannot make progress.
    MemPressureGovernor* governor = PressureGovernor();
    if (governor == nullptr || !governor->OnFaultNoMem(this, attempt)) {
      return r;
    }
  }
}

// Walks outward from the faulting page — nearest neighbours are the
// likeliest next touches — alternating below/above, and stops each direction
// at the first page whose status is not byte-for-byte the faulting page's
// demand-zero status. That single rule enforces every boundary at once: a
// different VMA has a different status, an already-mapped page (including a
// huge leaf, so a window can never eat into a huge run) is kMapped, a
// swapped page is kSwapped. Exhausting |budget| or hitting kNoMem stops the
// whole walk; the primary fault already succeeded, so there is nothing to
// roll back — speculation simply ends early.
uint64_t VmSpace::FaultAround(RCursor& cursor, Vaddr fault_va, const Status& status,
                              uint64_t budget) {
  uint32_t fa = FaultAroundPages();
  if (fa == 0 || budget == 0) {
    return 0;
  }
  const uint64_t window_bytes = static_cast<uint64_t>(fa) * kPageSize;
  Vaddr window_start = AlignDown(fault_va, window_bytes);
  VaRange window(window_start, window_start + window_bytes);
  if (!cursor.range().Contains(window)) {
    return 0;  // A fused batch locked less than the window; skip speculation.
  }
  PhysMem& mem = PhysMem::Instance();
  Vaddr below = fault_va;                // Next candidate is below - kPageSize.
  Vaddr above = fault_va + kPageSize;    // Next candidate is above.
  bool below_open = below > window.start;
  bool above_open = above < window.end;
  uint64_t mapped_count = 0;
  while ((below_open || above_open) && budget > 0) {
    Vaddr va;
    if (above_open && (!below_open || (above - fault_va) <= (fault_va - below))) {
      va = above;
    } else {
      va = below - kPageSize;
    }
    bool is_above = va >= fault_va;
    if (!(cursor.Query(va) == status)) {
      (is_above ? above_open : below_open) = false;
      continue;
    }
    Result<Pfn> frame = AllocAnonFrame(/*zeroed=*/true);
    if (!frame.ok()) {
      FaultInjector::NoteSurvived();  // Speculation ends; the fault succeeded.
      break;
    }
    if (!cursor.Map(va, *frame, status.perm).ok()) {
      DropFrameRef(*frame);
      FaultInjector::NoteRolledBack();
      break;
    }
    // Around-mapped pages were never touched: they start COLD so the reclaim
    // clock can take back wrong guesses on its first pass.
    mem.Descriptor(*frame).young.store(false, std::memory_order_relaxed);
    CountEvent(Counter::kFaultAroundMapped);
    ++mapped_count;
    --budget;
    if (is_above) {
      above += kPageSize;
      above_open = above < window.end;
    } else {
      below = va;
      below_open = below > window.start;
    }
  }
  return mapped_count;
}

VoidResult VmSpace::HandleFaultLocked(RCursor& cursor, Vaddr page_va, Access access,
                                      uint64_t* around_budget) {
  CountEvent(Counter::kPageFaults);
  space_.NoteCpuActive(CurrentCpu());
  Status status = cursor.Query(page_va);

  if (status.mapped()) {
    // Reference for the reclaim clock: software faults are the only access
    // notifications the simulated MMU delivers, so they double as the
    // second-chance "referenced" signal.
    PhysMem::Instance().Descriptor(status.pfn).young.store(true,
                                                           std::memory_order_relaxed);
    Perm perm = status.perm;
    bool want_write = access == Access::kWrite;
    if (want_write && perm.cow()) {
      // Copy-on-write resolution (Figure 8, Status::Mapped arm).
      CountEvent(Counter::kCowFaults);
      PageDescriptor& desc = PhysMem::Instance().Descriptor(status.pfn);
      FrameType type = desc.type.load(std::memory_order_relaxed);
      if (type == FrameType::kAnon && desc.mapcount() == 1) {
        // Sole mapper: reclaim write access in place ("no need to COW if
        // parent/child has left").
        Perm p = perm.Without(Perm::kCow).With(Perm::kWrite);
        // Rewrite the PTE without disturbing refcounts.
        return cursor.SetLeafPerm(page_va, p);
      }
      // Shared: copy into an exclusive frame.
      Result<Pfn> copy = AllocAnonFrame(/*zeroed=*/false);
      if (!copy.ok()) {
        return copy.error();
      }
      PhysMem::Instance().CopyFrame(*copy, status.pfn);
      Perm p = perm.Without(Perm::kCow).With(Perm::kWrite);
      VoidResult mapped = cursor.Map(page_va, *copy, p);  // Unmaps + unrefs the shared frame.
      if (!mapped.ok()) {
        DropFrameRef(*copy);  // Shared frame stays installed; drop only the copy.
        FaultInjector::NoteRolledBack();
      }
      return mapped;
    }
    // Permission check against a mapped page (e.g. a racing thread already
    // resolved this fault: simply return success and let the access retry).
    if ((want_write && !perm.write()) || (access == Access::kExec && !perm.exec()) ||
        (access == Access::kRead && !perm.read())) {
      return ErrCode::kFault;
    }
    // Intel MPK: a protection-key violation is a SEGV (SEGV_PKUERR), not a
    // resolvable fault — the PTE is fine, the thread's PKRU forbids it.
    uint32_t pkru = space_.pkru();
    if (pkru != 0 && access != Access::kExec) {
      PageTable::WalkResult walk = space_.page_table().Walk(page_va);
      if (walk.present) {
        int pkey = PtePkey(space_.options().arch, walk.pte);
        uint32_t bits = (pkru >> (2 * pkey)) & 3;
        if ((bits & 1) || (want_write && (bits & 2))) {
          return ErrCode::kFault;
        }
      }
    }
    return VoidResult();
  }

  if (status.invalid()) {
    return ErrCode::kFault;  // SEGV.
  }
  if (space_.options().huge_pages && status.tag == StatusTag::kPrivateAnon) {
    // Pressure gate: under the low watermark a speculative 512-frame grab
    // would immediately re-trigger reclaim, so the fault demotes to 4 KiB.
    MemPressureGovernor* governor = PressureGovernor();
    if (governor != nullptr && !governor->AllowHugeFaultIn(this)) {
      CountEvent(Counter::kReclaimHugeSuppressed);
    } else {
      Vaddr huge_base = AlignDown(page_va, kHugePageSize);
      VaRange huge_range(huge_base, huge_base + kHugePageSize);
      // A fused batch may have locked less than the 2 MiB slot; the huge rung
      // needs the whole slot under this cursor's covering lock.
      if (cursor.range().Contains(huge_range) &&
          TryHugeFaultIn(cursor, huge_range, status, access)) {
        return VoidResult();
      }
    }
  }
  VoidResult resolved = FaultInPage(cursor, page_va, status, access);
  if (resolved.ok() && status.tag == StatusTag::kPrivateAnon &&
      around_budget != nullptr && *around_budget > 0) {
    // Demand-zero resolved: speculatively map cold neighbours in the same
    // transaction, under the subtree lock this cursor already holds.
    *around_budget -= FaultAround(cursor, page_va, status, *around_budget);
  }
  return resolved;
}

// ---------------------------------------------------------------------------
// Fused batch execution (ROADMAP item 4)
// ---------------------------------------------------------------------------

bool VmSpace::TryExecuteFused(const MmSqe* sqes, MmCqe* cqes, size_t n) {
  if (n == 0) {
    return true;
  }
  // Bounding lock range over every op. Any op without an explicit fusable
  // range makes the whole batch ineligible (the caller dispatches per-op).
  bool huge = space_.options().huge_pages;
  Vaddr lo = kVaLimit;
  Vaddr hi = 0;
  for (size_t i = 0; i < n; ++i) {
    VaRange r;
    if (!SqeRange(sqes[i], &r)) {
      return false;
    }
    if (huge && sqes[i].op == MmOpCode::kFault) {
      // Cover the surrounding 2 MiB slot so the huge fault-in rung stays
      // reachable inside the fused transaction.
      r = VaRange(AlignDown(r.start, kHugePageSize),
                  AlignDown(r.start, kHugePageSize) + kHugePageSize);
    }
    lo = r.start < lo ? r.start : lo;
    hi = r.end > hi ? r.end : hi;
  }
  CountEvent(Counter::kFusedTxns);
  CountEvent(Counter::kFusedTxnOps, n);
  Telemetry::Instance().RecordBatch(BatchStat::kRingOpsPerFusedTxn, n);

  // Munmapped VA blocks go back to the allocator only after the transaction
  // commits (cursor unwound, TLB flushed) — the sync path's ordering. The
  // list is bounded: at kMaxDeferredFreeVa the batch commits early (cursor
  // destroyed, one flush), the blocks are returned, and a fresh transaction
  // picks up the remaining ops, so fleet-scale churn cannot grow it without
  // bound.
  constexpr size_t kMaxDeferredFreeVa = 16;
  std::vector<VaRange> deferred_frees;
  {
    std::optional<RCursor> cursor;
    cursor.emplace(space_.Lock(VaRange(lo, hi)));
    for (size_t i = 0; i < n; ++i) {
      if (deferred_frees.size() >= kMaxDeferredFreeVa) {
        cursor.reset();  // Commit: unwind locks, ONE gathered flush.
        for (const VaRange& freed : deferred_frees) {
          space_.FreeVa(freed.start, freed.size());
        }
        deferred_frees.clear();
        CountEvent(Counter::kFusedVaFlushes);
        cursor.emplace(space_.Lock(VaRange(lo, hi)));
      }
      const MmSqe& sqe = sqes[i];
      MmCqe& cqe = cqes[i];
      cqe.err = ErrCode::kOk;
      cqe.va = 0;
      cqe.count = 0;
      VaRange range(sqe.va, sqe.va + AlignUp(sqe.len, kPageSize));
      switch (sqe.op) {
        case MmOpCode::kMmapAnonFixed:
          cqe.err = cursor->Mark(range, Status::PrivateAnon(sqe.perm)).error();
          cqe.va = cqe.err == ErrCode::kOk ? sqe.va : 0;
          break;
        case MmOpCode::kMunmap:
          cqe.err = cursor->Unmap(range).error();
          if (cqe.err == ErrCode::kOk) {
            deferred_frees.push_back(range);
          }
          break;
        case MmOpCode::kMprotect:
          cqe.err = cursor->Protect(range, sqe.perm).error();
          break;
        case MmOpCode::kFault: {
          ScopedOpTimer telemetry_timer(MmOp::kFault);
          cqe.err =
              HandleFaultLocked(*cursor, AlignDown(sqe.va, kPageSize), sqe.access).error();
          break;
        }
        default:
          // Unreachable: SqeRange above admits only the four fusable opcodes.
          cqe.err = ErrCode::kInval;
          break;
      }
    }
  }  // Cursor destructor: ONE TlbGather flush covering the whole batch.
  for (const VaRange& range : deferred_frees) {
    space_.FreeVa(range.start, range.size());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Swapping
// ---------------------------------------------------------------------------

Result<uint64_t> VmSpace::SwapOut(Vaddr va, uint64_t len) {
  ScopedOpTimer telemetry_timer(MmOp::kSwapOut);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  RCursor cursor = space_.Lock(range);

  struct Victim {
    Vaddr va;
    Pfn pfn;
    Perm perm;
  };
  std::vector<Victim> victims;
  cursor.ForEachStatus(range, [&victims](VaRange run, const Status& status) {
    if (!status.mapped()) {
      return;
    }
    PhysMem& mem = PhysMem::Instance();
    for (uint64_t p = 0; p < run.num_pages(); ++p) {
      Pfn pfn = status.pfn + p;
      PageDescriptor& desc = mem.Descriptor(pfn);
      // Only exclusive anonymous pages are swappable here.
      if (desc.type.load(std::memory_order_relaxed) == FrameType::kAnon &&
          desc.Counts() == FrameRefs{1, 1}) {
        victims.push_back(Victim{run.start + (p << kPageBits), pfn, status.perm});
      }
    }
  });

  uint64_t swapped = 0;
  for (const Victim& victim : victims) {
    VaRange page(victim.va, victim.va + kPageSize);
    // Reserve the boundary splits before committing anything: once the swap
    // block is written, the mark below must not be able to fail.
    if (!cursor.Prepare(page, /*for_marks=*/true).ok()) {
      break;
    }
    Result<uint32_t> block =
        SwapDevice::Instance().WriteNewBlock(PhysMem::Instance().FrameData(victim.pfn));
    if (!block.ok()) {
      // Device full / injected write error: the victim stays resident (the
      // only state change so far is a Prepare split, which is semantically
      // invisible), so no unwind is needed — the eviction simply stops.
      FaultInjector::NoteSurvived();
      break;
    }
    // Mark clears the present leaf itself; the new mark takes the block ref.
    Perm perm = victim.perm.Without(Perm::kCow);
    cursor.Mark(page, Status::Swapped(0, *block, perm));
    ++swapped;
  }
  return swapped;
}

// ---------------------------------------------------------------------------
// fork (paper §4.3 / Figure 20 workloads)
// ---------------------------------------------------------------------------

std::unique_ptr<VmSpace> VmSpace::Fork() {
  ScopedOpTimer telemetry_timer(MmOp::kFork);
  Result<std::unique_ptr<VmSpace>> child = Create(space_.options());
  if (!child.ok()) {
    FaultInjector::NoteSurvived();
    return nullptr;
  }
  VaRange everything(0, kVaLimit);

  // One transaction over each whole address space; the clone then copies the
  // page table level by level (PT-page-shaped, not page-by-page). The child is
  // private to this thread, so parent-then-child lock order cannot deadlock.
  bool cloned;
  {
    RCursor parent_cursor = space_.Lock(everything);
    RCursor child_cursor = (*child)->space_.Lock(everything);
    cloned = parent_cursor.CloneInto(child_cursor).ok();
  }
  if (!cloned) {
    // Partial clone: destroying the child (after its cursor unlocked) walks
    // its tree in the full-mm teardown, returning every frame reference and
    // swap-block reference the clone took. The parent's pages may have
    // gained COW protection, which is semantically invisible.
    child->reset();
    FaultInjector::NoteRolledBack();
    return nullptr;
  }
  return std::move(*child);
}

}  // namespace cortenmm
