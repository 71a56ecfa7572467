#include "src/baseline/linux_mm.h"

#include <cassert>
#include <utility>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/core/addr_space.h"  // DropRunRef / AddFrameRef
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/tlb/asid.h"
#include "src/tlb/gather.h"

namespace cortenmm {

LinuxVmaMm::LinuxVmaMm(const Options& options)
    : options_(options),
      asid_(AllocAsid()),
      pt_(options.arch),
      va_alloc_(/*per_core=*/false) {}  // Linux: one VA arena per mm.

LinuxVmaMm::LinuxVmaMm(const Options& options, PageTable pt)
    : options_(options),
      asid_(AllocAsid()),
      pt_(std::move(pt)),
      va_alloc_(/*per_core=*/false) {}

Result<std::unique_ptr<LinuxVmaMm>> LinuxVmaMm::Create(const Options& options) {
  Result<PageTable> pt = PageTable::Create(options.arch);
  if (!pt.ok()) {
    return pt.error();
  }
  return std::unique_ptr<LinuxVmaMm>(new LinuxVmaMm(options, std::move(*pt)));
}

LinuxVmaMm::~LinuxVmaMm() {
  mmap_lock_.WriteLock();
  DoMunmapLocked(VaRange(0, kVaLimit));
  mmap_lock_.WriteUnlock();
  TlbSystem::Instance().DrainAll();
  active_cpus_.ForEach(
      [this](CpuId cpu) { TlbSystem::Instance().CpuTlb(cpu).InvalidateAsid(asid_); });
  FreeAsid(asid_);
}

// ---------------------------------------------------------------------------
// Page-table plumbing (locking per Table 1: coarse lock above level 2,
// per-PT-page locks at level 2 for installing level-1 tables and leaves).
// ---------------------------------------------------------------------------

Result<Pfn> LinuxVmaMm::EnsurePtPath(Vaddr va, int target_level) {
  Pfn page = pt_.root();
  for (int level = kPtLevels; level > target_level; --level) {
    uint64_t index = PtIndex(va, level);
    Pte pte = pt_.LoadEntry(page, index);
    if (PteIsPresent(pt_.arch(), pte) && PteIsLeaf(pt_.arch(), pte, level)) {
      // A huge leaf blocks the descent (e.g. the 4 KiB fault path racing a
      // concurrent THP install). Split it in place under the slot's lock.
      assert(level == 2);
      CnaNode* node = CnaNodePool::Get();
      PageDescriptor& desc = PhysMem::Instance().Descriptor(page);
      desc.cna.Lock(node);
      pte = pt_.LoadEntry(page, index);
      if (PteIsPresent(pt_.arch(), pte) && PteIsLeaf(pt_.arch(), pte, level)) {
        Result<Pfn> split = SplitHugeLeafLocked(page, index);
        if (!split.ok()) {
          desc.cna.Unlock(node);
          CnaNodePool::Put(node);
          return split;
        }
        pte = pt_.LoadEntry(page, index);
      }
      desc.cna.Unlock(node);
      CnaNodePool::Put(node);
    }
    if (!PteIsPresent(pt_.arch(), pte)) {
      // Rule 5: hold the lock of the target page table while inserting.
      if (level > 2) {
        SpinGuard guard(page_table_lock_);
        pte = pt_.LoadEntry(page, index);
        if (!PteIsPresent(pt_.arch(), pte)) {
          Result<Pfn> child = pt_.AllocPtPage(level - 1);
          if (!child.ok()) {
            return child;
          }
          pt_.StoreEntry(page, index, MakeTablePte(pt_.arch(), *child));
          pte = pt_.LoadEntry(page, index);
        }
      } else {
        CnaNode* node = CnaNodePool::Get();
        PageDescriptor& desc = PhysMem::Instance().Descriptor(page);
        desc.cna.Lock(node);
        pte = pt_.LoadEntry(page, index);
        if (!PteIsPresent(pt_.arch(), pte)) {
          Result<Pfn> child = pt_.AllocPtPage(level - 1);
          if (!child.ok()) {
            desc.cna.Unlock(node);
            CnaNodePool::Put(node);
            return child;
          }
          pt_.StoreEntry(page, index, MakeTablePte(pt_.arch(), *child));
          pte = pt_.LoadEntry(page, index);
        }
        desc.cna.Unlock(node);
        CnaNodePool::Put(node);
      }
    }
    page = PtePfn(pt_.arch(), pte);
  }
  return page;
}

Result<Pfn> LinuxVmaMm::SplitHugeLeafLocked(Pfn pt_page, uint64_t index) {
  Pte leaf = pt_.LoadEntry(pt_page, index);
  Pfn head = PtePfn(pt_.arch(), leaf);
  Perm perm = PtePerm(pt_.arch(), leaf);
  Result<Pfn> child = pt_.AllocPtPage(1);
  if (!child.ok()) {
    return child;
  }
  // Per-frame mapcounts were taken at install time, so the split only
  // rewrites translations: same frames, same permissions, finer granularity.
  for (uint64_t i = 0; i < kPtesPerPage; ++i) {
    pt_.StoreEntry(*child, i, MakeLeafPte(pt_.arch(), head + i, perm, 1));
  }
  pt_.StoreEntry(pt_page, index, MakeTablePte(pt_.arch(), *child));
  CountEvent(Counter::kHugeSplits);
  return child;
}

VoidResult LinuxVmaMm::SplitCoveredHugeLeaves(VaRange range, bool only_partial) {
  std::vector<Vaddr> to_split;
  pt_.ForEachLeaf(range, [&](Vaddr va, Pte, int level) {
    if (level < 2) {
      return;
    }
    VaRange span(va, va + PtEntrySpan(level));
    if (!only_partial || !range.Contains(span)) {
      to_split.push_back(va);
    }
  });
  for (Vaddr va : to_split) {
    PageTable::WalkResult walk = pt_.Walk(va);
    if (!walk.present || walk.level != 2) {
      continue;
    }
    CnaNode* node = CnaNodePool::Get();
    PageDescriptor& desc = PhysMem::Instance().Descriptor(walk.pt_page);
    desc.cna.Lock(node);
    // Re-check under the lock: a racing splitter may have beaten us here.
    Result<Pfn> split =
        PteIsLeaf(pt_.arch(), pt_.LoadEntry(walk.pt_page, walk.index), 2)
            ? SplitHugeLeafLocked(walk.pt_page, walk.index)
            : Result<Pfn>(walk.pt_page);
    desc.cna.Unlock(node);
    CnaNodePool::Put(node);
    if (!split.ok()) {
      return split.error();
    }
  }
  return VoidResult();
}

void LinuxVmaMm::UnmapPtRange(VaRange range, std::vector<PageRun>* dead_runs) {
  struct LeafRec {
    Vaddr va;
    Pte pte;
    int level;
  };
  std::vector<LeafRec> leaves;
  pt_.ForEachLeaf(range, [&](Vaddr va, Pte pte, int level) {
    leaves.push_back(LeafRec{va, pte, level});
  });
  for (const LeafRec& leaf : leaves) {
    assert(leaf.level <= 2);
    // Partially-covered huge leaves were split by the caller's
    // SplitCoveredHugeLeaves pass, so every leaf here dies whole.
    assert(range.Contains(VaRange(leaf.va, leaf.va + PtEntrySpan(leaf.level))));
    PageTable::WalkResult walk = pt_.Walk(leaf.va);
    if (!walk.present) {
      continue;
    }
    pt_.StoreEntry(walk.pt_page, walk.index, kNullPte);
    Pfn pfn = PtePfn(pt_.arch(), leaf.pte);
    uint64_t frames = leaf.level == 2 ? (1ull << kHugeOrder) : 1;
    for (uint64_t f = 0; f < frames; ++f) {
      PhysMem::Instance().Descriptor(pfn + f).DropRefs(0, 1);
    }
    dead_runs->push_back(
        PageRun(pfn, leaf.level == 2 ? static_cast<uint8_t>(kHugeOrder) : 0));
  }
}

void LinuxVmaMm::FreeEmptyTables(VaRange range) {
  // Rule 7: freeing a page table requires the mmap_lock writer side (held by
  // callers) and the entry already cleared. Walk top-down and prune child
  // tables that are fully covered by |range| and empty.
  std::function<bool(Pfn, int, Vaddr)> prune = [&](Pfn page, int level,
                                                   Vaddr base) -> bool {
    bool empty = true;
    uint64_t span = PtEntrySpan(level);
    // Only slots intersecting |range| are candidates; slots outside it make
    // the page non-empty without being visited (free_pgtables walks the
    // unmapped range only, not the whole tree).
    uint64_t first = range.start > base ? (range.start - base) / span : 0;
    uint64_t last =
        range.end < base + PtPageSpan(level) ? (range.end - 1 - base) / span
                                             : kPtesPerPage - 1;
    if (first > 0 || last < kPtesPerPage - 1) {
      // Conservatively treat the unscanned remainder as occupied.
      empty = false;
    }
    for (uint64_t i = first; i <= last; ++i) {
      Pte pte = pt_.LoadEntry(page, i);
      if (!PteIsPresent(pt_.arch(), pte)) {
        continue;
      }
      Vaddr entry_va = base + i * span;
      VaRange entry_range(entry_va, entry_va + span);
      if (!PteIsLeaf(pt_.arch(), pte, level) && range.Contains(entry_range)) {
        if (prune(PtePfn(pt_.arch(), pte), level - 1, entry_va)) {
          pt_.StoreEntry(page, i, kNullPte);
          PageTable::FreePtPage(PtePfn(pt_.arch(), pte));
          continue;
        }
      } else if (!PteIsLeaf(pt_.arch(), pte, level) && entry_range.Overlaps(range)) {
        // Partially-covered subtree: recurse to free fully-covered children.
        prune(PtePfn(pt_.arch(), pte), level - 1, entry_va);
      }
      empty = false;
    }
    return empty;
  };
  prune(pt_.root(), kPtLevels, 0);
}

void LinuxVmaMm::ChargeAndLruAdd(Pfn pfn) {
  // mem_cgroup_charge analog: hierarchical page counter.
  memcg_charged_.fetch_add(1, std::memory_order_relaxed);
  // lru_cache_add analog: per-CPU pagevec, drained under the global lru_lock
  // every PAGEVEC_SIZE (15) pages.
  Pagevec& vec = pagevecs_[CurrentCpu()].value;
  SpinGuard guard(vec.lock);
  vec.pages.push_back(pfn);
  if (vec.pages.size() >= 15) {
    SpinGuard lru_guard(lru_lock_);
    lru_list_.insert(lru_list_.end(), vec.pages.begin(), vec.pages.end());
    vec.pages.clear();
  }
}

void LinuxVmaMm::UnchargeAndLruDel(uint64_t pages) {
  if (pages == 0) {
    return;
  }
  memcg_charged_.fetch_sub(pages, std::memory_order_relaxed);
  // release_pages analog: batch-remove from the LRU under lru_lock.
  SpinGuard guard(lru_lock_);
  uint64_t keep = lru_list_.size() > pages ? lru_list_.size() - pages : 0;
  lru_list_.resize(keep);
}

// ---------------------------------------------------------------------------
// mmap / munmap / mprotect: writer side of mmap_lock (Figure 2).
// ---------------------------------------------------------------------------

Result<Vaddr> LinuxVmaMm::MmapAnon(const MmapArgs& args) {
  ScopedOpTimer telemetry_timer(MmOp::kMmap);
  if (args.len == 0) {
    return ErrCode::kInval;
  }
  uint64_t len = AlignUp(args.len, kPageSize);
  if (args.fixed) {
    VoidResult r = MmapAnonFixed(args.va, len, args.perm);
    if (!r.ok()) {
      return r.error();
    }
    return args.va;
  }
  Result<Vaddr> va = va_alloc_.Alloc(len);
  if (!va.ok()) {
    return va;
  }
  VoidResult r = MmapAnonFixed(*va, len, args.perm);
  if (!r.ok()) {
    va_alloc_.Free(*va, len);
    return r.error();
  }
  return va;
}

VoidResult LinuxVmaMm::MmapAnonFixed(Vaddr va, uint64_t len, Perm perm) {
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  mmap_lock_.WriteLock();
  if (vmas_.FindFirstOverlap(range) != nullptr) {
    // MAP_FIXED: replace. A huge leaf straddling the boundary must split
    // first; a failed split leaves the space semantically unchanged.
    VoidResult split = SplitCoveredHugeLeaves(range, /*only_partial=*/true);
    if (!split.ok()) {
      mmap_lock_.WriteUnlock();
      return split;
    }
    DoMunmapLocked(range);
  }
  Vma* vma = vmas_.Insert(range.start, range.end, perm);
  // expand(vma): merge with adjacent equal-permission neighbors.
  vmas_.TryMergeWithNext(vma);
  mmap_lock_.WriteUnlock();
  return VoidResult();
}

void LinuxVmaMm::DoMunmapLocked(VaRange range) {
  // Pass 1 (Figure 2, munmap): write-lock and mark every overlapping VMA.
  std::vector<Vma*> victims;
  vmas_.ForEachOverlap(range, [&victims](Vma* vma) { victims.push_back(vma); });
  for (Vma* vma : victims) {
    vma->lock.WriteLock();
    vma->seq.WriteBegin();  // WRITE_ONCE(vma.vm_lock_seq)
    vma->seq.WriteEnd();
    vma->lock.WriteUnlock();
  }
  // Split edge VMAs so erasures are exact.
  for (Vma*& vma : victims) {
    if (vma->start < range.start) {
      Vma* tail = vmas_.SplitAt(vma, range.start);
      vma = tail;  // The part inside the range.
    }
    if (vma->end > range.end) {
      vmas_.SplitAt(vma, range.end);
    }
    vmas_.Erase(vma);
  }
  // unmap_vmas() + free_page_tables(), batched mmu_gather-style: the ranges
  // and dead runs accumulate and flush as one shootdown. A whole huge leaf
  // contributes one order-9 run, not 512 records.
  std::vector<PageRun> dead_runs;
  UnmapPtRange(range, &dead_runs);
  uint64_t dead_frames = 0;
  for (const PageRun& run : dead_runs) {
    dead_frames += run.num_frames();
  }
  UnchargeAndLruDel(dead_frames);
  FreeEmptyTables(range);
  TlbGather gather;
  gather.AddRange(range);
  for (const PageRun& run : dead_runs) {
    gather.AddRun(run);
  }
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, &DropRunRef);
}

VoidResult LinuxVmaMm::Munmap(Vaddr va, uint64_t len) {
  ScopedOpTimer telemetry_timer(MmOp::kMunmap);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  mmap_lock_.WriteLock();
  // Boundary huge leaves split before anything is torn down, so a kNoMem
  // here (fault injection) aborts the munmap with the space intact.
  VoidResult split = SplitCoveredHugeLeaves(range, /*only_partial=*/true);
  if (!split.ok()) {
    mmap_lock_.WriteUnlock();
    FaultInjector::NoteRolledBack();
    return split;
  }
  DoMunmapLocked(range);
  mmap_lock_.WriteUnlock();
  va_alloc_.Free(va, len);
  return VoidResult();
}

VoidResult LinuxVmaMm::Mprotect(Vaddr va, uint64_t len, Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMprotect);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  mmap_lock_.WriteLock();
  // Huge leaves straddling the range boundary get the new permissions only
  // on the covered part: split them first (fully-covered leaves are
  // rewritten in place at level 2).
  VoidResult split = SplitCoveredHugeLeaves(range, /*only_partial=*/true);
  if (!split.ok()) {
    mmap_lock_.WriteUnlock();
    FaultInjector::NoteRolledBack();
    return split;
  }
  std::vector<Vma*> affected;
  vmas_.ForEachOverlap(range, [&affected](Vma* vma) { affected.push_back(vma); });
  for (Vma*& vma : affected) {
    if (vma->start < range.start) {
      vma = vmas_.SplitAt(vma, range.start);
    }
    if (vma->end > range.end) {
      vmas_.SplitAt(vma, range.end);
    }
    vma->lock.WriteLock();
    vma->seq.WriteBegin();
    vma->perm = perm;
    vma->seq.WriteEnd();
    vma->lock.WriteUnlock();
  }
  // Rewrite present PTEs in the range, each at its own leaf level.
  std::vector<Vaddr> present;
  pt_.ForEachLeaf(range, [&](Vaddr lva, Pte, int) { present.push_back(lva); });
  for (Vaddr lva : present) {
    PageTable::WalkResult walk = pt_.Walk(lva);
    if (walk.present) {
      Pte old = walk.pte;
      Perm updated = perm;
      if (PtePerm(pt_.arch(), old).cow()) {
        updated = updated.With(Perm::kCow).Without(Perm::kWrite);
      }
      pt_.StoreEntry(walk.pt_page, walk.index,
                     MakeLeafPte(pt_.arch(), PtePfn(pt_.arch(), old), updated,
                                 walk.level));
    }
  }
  TlbGather gather;
  gather.AddRange(range);
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, nullptr);
  mmap_lock_.WriteUnlock();
  return VoidResult();
}

// ---------------------------------------------------------------------------
// Page fault: reader side of mmap_lock + per-VMA read lock (Figure 2).
// ---------------------------------------------------------------------------

VoidResult LinuxVmaMm::HandleFault(Vaddr va, Access access) {
  ScopedOpTimer telemetry_timer(MmOp::kFault);
  CountEvent(Counter::kPageFaults);
  NoteCpuActive(CurrentCpu());
  mmap_lock_.ReadLock();
  Vma* vma = vmas_.Find(va);
  if (vma == nullptr) {
    mmap_lock_.ReadUnlock();
    return ErrCode::kFault;
  }
  vma->lock.ReadLock();
  Perm perm = vma->perm;
  bool want_write = access == Access::kWrite;

  Vaddr page_va = AlignDown(va, kPageSize);
  PageTable::WalkResult walk = pt_.Walk(page_va);
  VoidResult result = VoidResult();
  if (walk.present) {
    Perm pte_perm = PtePerm(pt_.arch(), walk.pte);
    if (want_write && pte_perm.cow()) {
      // COW resolution under the level-2 PT page lock. The path to a present
      // leaf necessarily exists, so EnsurePtPath only walks here — but the
      // fallible signature is honored anyway.
      CountEvent(Counter::kCowFaults);
      Result<Pfn> leaf_table = EnsurePtPath(page_va);
      if (!leaf_table.ok()) {
        result = leaf_table.error();
      } else {
        CnaNode* node = CnaNodePool::Get();
        PageDescriptor& table_desc = PhysMem::Instance().Descriptor(*leaf_table);
        table_desc.cna.Lock(node);
        walk = pt_.Walk(page_va);
        if (walk.present && PtePerm(pt_.arch(), walk.pte).cow()) {
          Pfn old_pfn = PtePfn(pt_.arch(), walk.pte);
          PageDescriptor& old_desc = PhysMem::Instance().Descriptor(old_pfn);
          Perm p = perm.Without(Perm::kCow).With(Perm::kWrite);
          if (old_desc.mapcount() == 1) {
            pt_.StoreEntry(walk.pt_page, walk.index,
                           MakeLeafPte(pt_.arch(), old_pfn, p, 1));
          } else {
            Result<Pfn> copy = BuddyAllocator::Instance().AllocFrame();
            if (!copy.ok()) {
              result = copy.error();
            } else {
              PhysMem::Instance().Descriptor(*copy).ResetForAlloc(FrameType::kAnon);
              PhysMem::Instance().CopyFrame(*copy, old_pfn);
              PhysMem::Instance().Descriptor(*copy).InitRefs(1, 1);
              pt_.StoreEntry(walk.pt_page, walk.index,
                             MakeLeafPte(pt_.arch(), *copy, p, 1));
              old_desc.DropRefs(0, 1);
              TlbGather gather;
              gather.AddRange(VaRange(page_va, page_va + kPageSize));
              gather.AddFrame(old_pfn);
              gather.Flush(asid_, active_cpus_, options_.tlb_policy, &DropRunRef);
            }
          }
        }
        table_desc.cna.Unlock(node);
        CnaNodePool::Put(node);
      }
    } else if (!PermAllowsAccess(pte_perm, access)) {
      result = ErrCode::kFault;
    }
  } else if (!PermAllowsAccess(perm, access)) {
    result = ErrCode::kFault;
  } else if (options_.huge && AlignDown(va, kHugePageSize) >= vma->start &&
             AlignDown(va, kHugePageSize) + kHugePageSize <= vma->end &&
             TryHugeDemandFault(AlignDown(va, kHugePageSize), perm)) {
    // THP install resolved the fault (or found a huge leaf already there).
  } else {
    // Demand-zero fill under the leaf table's lock (Table 1 rule 5). A failed
    // path allocation surfaces as kNoMem with nothing installed.
    Result<Pfn> leaf_table = EnsurePtPath(page_va);
    if (!leaf_table.ok()) {
      result = leaf_table.error();
    } else {
      CnaNode* node = CnaNodePool::Get();
      PageDescriptor& table_desc = PhysMem::Instance().Descriptor(*leaf_table);
      table_desc.cna.Lock(node);
      Pte pte = pt_.LoadEntry(*leaf_table, PtIndex(page_va, 1));
      if (!PteIsPresent(pt_.arch(), pte)) {
        Result<Pfn> frame = BuddyAllocator::Instance().AllocZeroedFrame();
        if (!frame.ok()) {
          result = frame.error();
        } else {
          PageDescriptor& frame_desc = PhysMem::Instance().Descriptor(*frame);
          frame_desc.ResetForAlloc(FrameType::kAnon);
          frame_desc.InitRefs(1, 1);
          {
            // Anonymous reverse-map setup (page_add_new_anon_rmap analog).
            SpinGuard rmap_guard(frame_desc.rmap_lock);
            frame_desc.owner.store(this, std::memory_order_relaxed);
            frame_desc.owner_key.store(page_va, std::memory_order_relaxed);
          }
          pt_.StoreEntry(*leaf_table, PtIndex(page_va, 1),
                         MakeLeafPte(pt_.arch(), *frame, perm, 1));
          ChargeAndLruAdd(*frame);
          CountEvent(Counter::kDemandZeroFills);
        }
      }
      table_desc.cna.Unlock(node);
      CnaNodePool::Put(node);
    }
  }

  vma->lock.ReadUnlock();
  mmap_lock_.ReadUnlock();
  return result;
}

bool LinuxVmaMm::TryHugeDemandFault(Vaddr huge_base, Perm perm) {
  Result<Pfn> table = EnsurePtPath(huge_base, /*target_level=*/2);
  if (!table.ok()) {
    return false;  // The 4 KiB path retries and surfaces the error.
  }
  CnaNode* node = CnaNodePool::Get();
  PageDescriptor& table_desc = PhysMem::Instance().Descriptor(*table);
  table_desc.cna.Lock(node);
  uint64_t index = PtIndex(huge_base, 2);
  Pte pte = pt_.LoadEntry(*table, index);
  if (PteIsPresent(pt_.arch(), pte)) {
    bool resolved = PteIsLeaf(pt_.arch(), pte, 2);
    table_desc.cna.Unlock(node);
    CnaNodePool::Put(node);
    // A racing huge install resolved the fault; a level-1 table under the
    // slot means mixed occupancy — take the 4 KiB path.
    return resolved;
  }
  Result<Pfn> run = BuddyAllocator::Instance().AllocHugeRun();
  if (!run.ok()) {
    table_desc.cna.Unlock(node);
    CnaNodePool::Put(node);
    CountEvent(Counter::kHugeFallbacks);
    FaultInjector::NoteSurvived();
    return false;  // Fallback ladder: 4 KiB demand fill.
  }
  PhysMem& mem = PhysMem::Instance();
  for (uint64_t f = 0; f < (1ull << kHugeOrder); ++f) {
    PageDescriptor& desc = mem.Descriptor(*run + f);
    desc.ResetForAlloc(FrameType::kAnon);
    desc.InitRefs(1, 1);
    mem.ZeroFrame(*run + f);
  }
  {
    // Rmap for the compound head (page_add_new_anon_rmap on the head page).
    PageDescriptor& head_desc = mem.Descriptor(*run);
    SpinGuard rmap_guard(head_desc.rmap_lock);
    head_desc.owner.store(this, std::memory_order_relaxed);
    head_desc.owner_key.store(huge_base, std::memory_order_relaxed);
  }
  pt_.StoreEntry(*table, index, MakeLeafPte(pt_.arch(), *run, perm, 2));
  table_desc.cna.Unlock(node);
  CnaNodePool::Put(node);
  // The compound page is one LRU entry but 512 memcg pages.
  ChargeAndLruAdd(*run);
  memcg_charged_.fetch_add((1ull << kHugeOrder) - 1, std::memory_order_relaxed);
  CountEvent(Counter::kHugeFaults);
  CountEvent(Counter::kDemandZeroFills, 1ull << kHugeOrder);
  return true;
}

// ---------------------------------------------------------------------------
// fork
// ---------------------------------------------------------------------------

std::unique_ptr<MmInterface> LinuxVmaMm::Fork() {
  ScopedOpTimer telemetry_timer(MmOp::kFork);
  Result<std::unique_ptr<LinuxVmaMm>> created = Create(options_);
  if (!created.ok()) {
    FaultInjector::NoteSurvived();
    return nullptr;
  }
  std::unique_ptr<LinuxVmaMm> child = std::move(*created);
  mmap_lock_.WriteLock();
  // Pre-THP-aware fork: split every huge leaf to base pages first so the
  // per-leaf COW demotion below stays 4 KiB-only (real Linux did exactly
  // this until copy_huge_pmd landed). Splits are observationally invisible,
  // so a kNoMem here aborts the fork with the parent unchanged.
  VoidResult split =
      SplitCoveredHugeLeaves(VaRange(0, kVaLimit), /*only_partial=*/false);
  if (!split.ok()) {
    mmap_lock_.WriteUnlock();
    child.reset();
    FaultInjector::NoteRolledBack();
    return nullptr;
  }
  // Duplicate the VMA tree (the cheap enumeration Linux is good at, Fig. 20),
  // then COW-copy page-table contents within each VMA only.
  std::vector<Vma*> all;
  vmas_.ForEachOverlap(VaRange(0, kVaLimit), [&all](Vma* vma) { all.push_back(vma); });
  // Parent-side flush for the leaves demoted to COW. Gathered per leaf:
  // adjacent pages coalesce, and a fork touching more than kMaxRanges
  // distinct spots degrades to one full-ASID flush — never more than one
  // shootdown either way, where this used to flush VaRange(0, kVaLimit)
  // unconditionally (even for a one-page parent).
  TlbGather gather;
  for (Vma* vma : all) {
    child->vmas_.Insert(vma->start, vma->end, vma->perm);
    VaRange range(vma->start, vma->end);
    std::vector<std::pair<Vaddr, Pte>> leaves;
    pt_.ForEachLeaf(range, [&leaves](Vaddr lva, Pte pte, int) {
      leaves.emplace_back(lva, pte);
    });
    for (const auto& [lva, pte] : leaves) {
      Pfn pfn = PtePfn(pt_.arch(), pte);
      Perm perm = PtePerm(pt_.arch(), pte);
      // All private pages take the COW mark, including currently read-only
      // ones (mprotect(RW)+write after fork must break the sharing).
      Perm cow = perm.With(Perm::kCow).Without(Perm::kWrite);
      // The child's PT path is built *before* any reference is taken for this
      // leaf, so an OOM here aborts the fork with nothing to undo for the
      // current page; the child's destructor returns the references already
      // taken for earlier pages. Parent pages that gained COW protection are
      // semantically unchanged (the copy simply never happens).
      Result<Pfn> child_table = child->EnsurePtPath(lva);
      if (!child_table.ok()) {
        // The gather already covers exactly the leaves demoted so far.
        gather.Flush(asid_, active_cpus_, options_.tlb_policy, nullptr);
        mmap_lock_.WriteUnlock();
        child.reset();
        FaultInjector::NoteRolledBack();
        return nullptr;
      }
      PageTable::WalkResult walk = pt_.Walk(lva);
      pt_.StoreEntry(walk.pt_page, walk.index, MakeLeafPte(pt_.arch(), pfn, cow, 1));
      // Two updates per page, as Linux's get_page + page_dup_rmap.
      AddFrameRef(pfn);
      PhysMem::Instance().Descriptor(pfn).AddRefs(0, 1);
      child->pt_.StoreEntry(*child_table, PtIndex(lva, 1),
                            MakeLeafPte(pt_.arch(), pfn, cow, 1));
      gather.AddRange(VaRange(lva, lva + kPageSize));
    }
  }
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, nullptr);
  mmap_lock_.WriteUnlock();
  return child;
}

uint64_t LinuxVmaMm::MetaBytes() {
  mmap_lock_.ReadLock();
  uint64_t bytes = vmas_.size() * sizeof(Vma);
  mmap_lock_.ReadUnlock();
  return bytes;
}

size_t LinuxVmaMm::VmaCount() {
  mmap_lock_.ReadLock();
  size_t n = vmas_.size();
  mmap_lock_.ReadUnlock();
  return n;
}

bool LinuxVmaMm::CheckVmaTree() {
  mmap_lock_.ReadLock();
  bool ok = vmas_.CheckInvariants();
  mmap_lock_.ReadUnlock();
  return ok;
}

}  // namespace cortenmm
