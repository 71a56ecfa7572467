// AddrSpace lifecycle and the two locking protocols (paper §4.1, Figures 5-7).
#include "src/core/addr_space.h"

#include <cassert>
#include <utility>

#include "src/common/backoff.h"
#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sync/rcu.h"
#include "src/tlb/asid.h"

namespace cortenmm {
namespace {

// True if, assuming full population, the child PT page under the level-|level|
// page would completely cover |range| (Figure 5 L3 / Figure 6 L5). A range
// that occupies a child's *entire* span stops at the parent instead: whole-
// slot operations (huge-page map, subtree unmap) modify the parent's entry,
// which only the parent's lock protects.
bool ChildShouldCover(int level, VaRange range) {
  if (level <= 1) {
    return false;  // Leaf PT pages have no PT-page children.
  }
  uint64_t child_span = PtPageSpan(level - 1);  // == PtEntrySpan(level)
  Vaddr child_base = AlignDown(range.start, child_span);
  if (AlignDown(range.end - 1, child_span) != child_base) {
    return false;
  }
  return !(range.start == child_base && range.size() == child_span);
}

void RcuFreePtPage(void* page) {
  PageTable::FreePtPage(static_cast<Pfn>(reinterpret_cast<uintptr_t>(page)));
}

}  // namespace

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kRw:
      return "cortenmm-rw";
    case Protocol::kAdv:
      return "cortenmm-adv";
  }
  return "unknown";
}

void AddFrameRef(Pfn pfn) { PhysMem::Instance().Descriptor(pfn).AddRefs(1, 0); }

void DropFrameRef(Pfn pfn) { DropRunRefs(PageRun(pfn, 0), 0); }

void DropRunRef(PageRun run) { DropRunRefs(run, 0); }

void DropRunRefs(PageRun run, uint32_t maps) {
  PhysMem& mem = PhysMem::Instance();
  if (run.order == 0) {
    if (mem.Descriptor(run.pfn).DropRefs(1, maps).refcount == 1) {
      BuddyAllocator::Instance().FreeFrame(run.pfn);
    }
    return;
  }
  if (run.order > kHugeOrder) {
    // Larger-than-huge runs (a hypothetical 1 GiB leaf) have no whole-block
    // free path; fall back to per-frame disposal.
    for (uint64_t f = 0; f < run.num_frames(); ++f) {
      DropRunRefs(PageRun(run.pfn + f, 0), maps);
    }
    return;
  }
  // One pass over the run's refcounts, remembering which frames died. A
  // never-shared huge leaf dies whole and returns to the buddy as one block;
  // a run that was partially shared (fork COW copied some frames away) frees
  // only its dead frames individually.
  uint64_t dead[(1ull << kHugeOrder) / 64] = {};
  bool all_dead = true;
  bool any_dead = false;
  for (uint64_t f = 0; f < run.num_frames(); ++f) {
    if (mem.Descriptor(run.pfn + f).DropRefs(1, maps).refcount == 1) {
      dead[f / 64] |= 1ull << (f % 64);
      any_dead = true;
    } else {
      all_dead = false;
    }
  }
  if (all_dead && run.order == kHugeOrder) {
    BuddyAllocator::Instance().FreeHugeRun(run.pfn);
    return;
  }
  if (!any_dead) {
    return;
  }
  for (uint64_t f = 0; f < run.num_frames(); ++f) {
    if (dead[f / 64] & (1ull << (f % 64))) {
      BuddyAllocator::Instance().FreeFrame(run.pfn + f);
    }
  }
}

// ---------------------------------------------------------------------------
// AddrSpace
// ---------------------------------------------------------------------------

AddrSpace::AddrSpace(const Options& options)
    : AddrSpace(options, PageTable(options.arch)) {}

AddrSpace::AddrSpace(const Options& options, PageTable pt)
    : options_(options),
      asid_(AllocAsid()),
      pt_(std::move(pt)),
      va_alloc_(options.per_core_va) {}

AddrSpace::~AddrSpace() {
  // The space is unreachable (VmSpace deregistered it from the reclaim
  // governor), so the teardown is one full-mm pass instead of an Unmap: see
  // RCursor::TearDownFullMm. The PageTable destructor then frees the PT pages
  // directly. The drains finish what earlier munmaps of this space deferred:
  // their LATR entries name this ASID, which goes back to the pool only
  // after them, and the PT pages they retired wait in the RCU monitor. A
  // space that retired none (a fork child that only faulted) skips the
  // grace period.
  {
    RCursor cursor = Lock(VaRange(0, kVaLimit));
    cursor.TearDownFullMm();
  }
  TlbSystem::Instance().DrainAll();
  if (rcu_retired_pt_pages_.load(std::memory_order_relaxed) != 0) {
    Rcu::Instance().DrainAll();
  }
  FreeAsid(asid_);
}

RCursor AddrSpace::Lock(VaRange range) {
  assert(!range.empty() && range.IsPageAligned() && range.end <= kVaLimit);
  RCursor cursor(this, range);
  if (options_.protocol == Protocol::kRw) {
    cursor.AcquireRw();
  } else {
    cursor.AcquireAdv();
  }
  return cursor;
}

void AddrSpace::TlbFlush(TlbGather& gather) {
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, &DropRunRef);
}

uint64_t AddrSpace::PtBytes() const { return pt_.CountPtPages() * kPageSize; }

// ---------------------------------------------------------------------------
// RCursor: construction / protocols / release
// ---------------------------------------------------------------------------

RCursor::RCursor(AddrSpace* space, VaRange range) : space_(space), range_(range) {}

RCursor::RCursor(RCursor&& other) noexcept
    : space_(other.space_),
      range_(other.range_),
      engaged_(other.engaged_),
      covering_(other.covering_),
      covering_level_(other.covering_level_),
      rw_path_(std::move(other.rw_path_)),
      adv_locked_(std::move(other.adv_locked_)),
      gather_(std::move(other.gather_)),
      acquire_retries_(other.acquire_retries_) {
  other.engaged_ = false;
}

RCursor::~RCursor() {
  if (!engaged_) {
    return;
  }
  // Perform the deferred TLB shootdown before releasing the locks so that no
  // transaction can observe the new page-table state with stale TLB entries
  // still live (paper Figure 8 flushes inside the transaction too). One
  // batched shootdown covers every discrete sub-range this transaction
  // mutated; a transaction that mutated nothing flushes nothing.
  if (!gather_.empty()) {
    space_->TlbFlush(gather_);
  }
  if (pages_touched_ != 0) {
    Telemetry::Instance().Trace(TraceKind::kPagesTouched, pages_touched_,
                                covering_level_);
  }
  Release();
}

// CortenMM_rw (Figure 5): hand-over-hand read locks to the covering PT page,
// which is write-locked.
void RCursor::AcquireRw() {
  // The whole descent (read locks + the covering write lock) is one phase.
  // Sampled: an uncontended acquisition is tens of nanoseconds.
  const bool sampled = AcquireSampler::Sample();
  ScopedPhaseTimer descent_timer(LockPhase::kRwDescent, sampled);
  PageTable& pt = space_->page_table();
  PhysMem& mem = PhysMem::Instance();
  Pfn cur = pt.root();
  int level = kPtLevels;
  for (;;) {
    if (!ChildShouldCover(level, range_)) {
      // |cur| is the lowest PT page covering the whole range: write-lock it.
      mem.Descriptor(cur).rw.WriteLock();
      covering_ = cur;
      covering_level_ = level;
      if (sampled) {
        Telemetry::Instance().Trace(TraceKind::kAcquireEnd, 0, covering_level_);
      }
      return;
    }
    BravoRwLock::ReadCookie cookie = mem.Descriptor(cur).rw.ReadLock();
    Pte pte = pt.LoadEntry(cur, PtIndex(range_.start, level));
    if (PteIsPresent(pt.arch(), pte) && !PteIsLeaf(pt.arch(), pte, level)) {
      rw_path_.push_back(RwPathEntry{cur, cookie});
      cur = PtePfn(pt.arch(), pte);
      --level;
      continue;
    }
    // The covering child does not exist (or is a huge leaf): upgrade |cur|
    // from reader to writer and make it the covering page. |cur| cannot be
    // freed meanwhile — we hold read locks on all its ancestors.
    mem.Descriptor(cur).rw.ReadUnlock(cookie);
    // Chaos: widen the unlocked window of the reader->writer upgrade, where a
    // competing transaction can slip in and change the world under us.
    FaultInjector::Instance().MaybeStall(FaultSite::kRwLockStall);
    mem.Descriptor(cur).rw.WriteLock();
    covering_ = cur;
    covering_level_ = level;
    if (sampled) {
      Telemetry::Instance().Trace(TraceKind::kAcquireEnd, 0, covering_level_);
    }
    return;
  }
}

// CortenMM_adv (Figure 6): lock-free traversal in an RCU read-side critical
// section, MCS-lock the covering page, retry if stale, then DFS-lock all
// existing descendants.
void RCursor::AcquireAdv() {
  PageTable& pt = space_->page_table();
  PhysMem& mem = PhysMem::Instance();
  Rcu& rcu = Rcu::Instance();
  // One sampling decision covers all three phases of this acquisition, so a
  // sampled acquisition contributes to every phase histogram consistently.
  const bool sampled = AcquireSampler::Sample();
  // Stale-retry backoff (DESIGN.md §4.5: every spin loop uses the helper).
  // Under an unmap storm the covering page can go stale repeatedly; spinning
  // right back into the lock queue makes the storm worse.
  SpinBackoff retry_backoff;
  // An acquisition that retries this many times is pathological; count it so
  // telemetry surfaces retry storms instead of them hiding in tail latency.
  constexpr int kRetryStormThreshold = 64;
  for (;;) {  // Retry loop (Figure 6 L2).
    rcu.ReadLock();
    Pfn cur = pt.root();
    int level = kPtLevels;
    {
      ScopedPhaseTimer traversal_timer(LockPhase::kAdvRcuTraversal, sampled);
      while (ChildShouldCover(level, range_)) {
        Pte pte = pt.LoadEntry(cur, PtIndex(range_.start, level));
        if (!PteIsPresent(pt.arch(), pte) || PteIsLeaf(pt.arch(), pte, level)) {
          break;
        }
        cur = PtePfn(pt.arch(), pte);
        --level;
      }
    }
    CnaNode* node = CnaNodePool::Get();
    bool stale;
    {
      ScopedPhaseTimer mcs_timer(LockPhase::kMcsAcquire, sampled);
      // Chaos: widen the window between the lock-free traversal and the MCS
      // acquire — exactly where a concurrent unmap can turn |cur| stale.
      FaultInjector::Instance().MaybeStall(FaultSite::kAdvLockStall);
      mem.Descriptor(cur).cna.Lock(node);
      stale = mem.Descriptor(cur).stale.load(std::memory_order_acquire);
    }
    if (stale) {
      // Raced with an unmap that removed this PT page: retry (Figure 6 L10).
      mem.Descriptor(cur).cna.Unlock(node);
      CnaNodePool::Put(node);
      rcu.ReadUnlock();
      ++acquire_retries_;
      CountEvent(Counter::kLockRetries);
      if (acquire_retries_ == kRetryStormThreshold) {
        CountEvent(Counter::kLockRetryStorms);
      }
      Telemetry::Instance().Trace(TraceKind::kAcquireRetry,
                                  static_cast<uint64_t>(acquire_retries_));
      retry_backoff.Spin();
      continue;
    }
    rcu.ReadUnlock();
    adv_locked_.push_back(AdvLockedPage{cur, node});

    // The traversal stopped where the covering child did not exist (or the
    // world changed since the lock-free walk). Descend hand-over-hand to the
    // *proper* covering level, creating missing PT pages born-locked: locking
    // a high ancestor here would needlessly DFS-lock (and serialize against)
    // every existing subtree below it.
    while (ChildShouldCover(level, range_)) {
      uint64_t index = PtIndex(range_.start, level);
      Pte pte = pt.LoadEntry(cur, index);
      Pfn child;
      if (PteIsPresent(pt.arch(), pte)) {
        if (PteIsLeaf(pt.arch(), pte, level)) {
          break;  // A huge leaf covers the range; ops split it under our lock.
        }
        // The child appeared between the lock-free walk and the lock: take it
        // hand-over-hand (top-down order keeps this deadlock-free). It cannot
        // be stale while we hold its parent.
        child = PtePfn(pt.arch(), pte);
        CnaNode* child_node = CnaNodePool::Get();
        mem.Descriptor(child).cna.Lock(child_node);
        adv_locked_.push_back(AdvLockedPage{child, child_node});
      } else {
        // Create the missing child, locked before it becomes reachable.
        Result<Pfn> created = pt.AllocPtPage(level - 1);
        if (!created.ok()) {
          // OOM: fall back to the coarser covering page — correct, just more
          // serialized. Nothing to unwind.
          FaultInjector::NoteSurvived();
          break;
        }
        child = *created;
        CnaNode* child_node = CnaNodePool::Get();
        mem.Descriptor(child).cna.Lock(child_node);
        adv_locked_.push_back(AdvLockedPage{child, child_node});
        // Push any metadata mark on the slot down before linking (I2).
        PushDownMark(cur, level, index, child);
        pt.StoreEntry(cur, index, MakeTablePte(pt.arch(), child));
        mem.Descriptor(cur).present_ptes.fetch_add(1, std::memory_order_relaxed);
      }
      // Release the ancestor: the transaction's subtree starts at the child.
      AdvUnlockAndForget(cur);
      cur = child;
      --level;
    }

    covering_ = cur;
    covering_level_ = level;
    {
      // Locking phase: preorder DFS over all existing descendants (L17).
      // Only the top-level call is timed — the phase covers the whole DFS.
      ScopedPhaseTimer dfs_timer(LockPhase::kDfsSubtreeLock, sampled);
      AdvDfsLockSubtree(cur, level);
    }
    if (sampled) {
      Telemetry::Instance().Trace(TraceKind::kAcquireEnd,
                                  static_cast<uint64_t>(acquire_retries_),
                                  covering_level_);
    }
    return;
  }
}

void RCursor::AdvDfsLockSubtree(Pfn page, int level) {
  if (level <= 1) {
    return;
  }
  PageTable& pt = space_->page_table();
  PhysMem& mem = PhysMem::Instance();
  // Reading |page|'s slots is safe: we hold |page|'s lock, and removing a
  // child requires holding both the child and |page| (or an ancestor
  // transaction, which would first have to lock our covering page).
  for (uint64_t i = 0; i < kPtesPerPage; ++i) {
    Pte pte = pt.LoadEntry(page, i);
    if (!PteIsPresent(pt.arch(), pte) || PteIsLeaf(pt.arch(), pte, level)) {
      continue;
    }
    Pfn child = PtePfn(pt.arch(), pte);
    CnaNode* node = CnaNodePool::Get();
    mem.Descriptor(child).cna.Lock(node);
    adv_locked_.push_back(AdvLockedPage{child, node});
    AdvDfsLockSubtree(child, level - 1);
  }
}

void RCursor::Release() {
  PhysMem& mem = PhysMem::Instance();
  if (space_->options().protocol == Protocol::kRw) {
    mem.Descriptor(covering_).rw.WriteUnlock();
    for (size_t i = rw_path_.size(); i-- > 0;) {
      mem.Descriptor(rw_path_[i].pfn).rw.ReadUnlock(rw_path_[i].cookie);
    }
    rw_path_.clear();
  } else {
    // Reverse acquisition order (Figure 6 AddrSpace::unlock).
    for (size_t i = adv_locked_.size(); i-- > 0;) {
      mem.Descriptor(adv_locked_[i].pfn).cna.Unlock(adv_locked_[i].node);
      CnaNodePool::Put(adv_locked_[i].node);
    }
    adv_locked_.clear();
  }
  engaged_ = false;
}

// Born-locked registration of a PT page this transaction just created.
void RCursor::NoteLocked(Pfn pfn, int level) {
  (void)level;
  if (space_->options().protocol != Protocol::kAdv) {
    return;  // kRw: descendants of the write-locked covering page need no lock.
  }
  CnaNode* node = CnaNodePool::Get();
  // Uncontended: the page is not yet visible to any traversal... it *is*
  // visible the instant the parent slot is set, but any other transaction
  // reaching it must first lock our covering page, so Lock() cannot block.
  PhysMem::Instance().Descriptor(pfn).cna.Lock(node);
  adv_locked_.push_back(AdvLockedPage{pfn, node});
}

void RCursor::AdvUnlockAndForget(Pfn pfn) {
  // Called while removing a PT page: unlock it and drop it from the locked
  // set so Release() does not touch freed memory.
  for (size_t i = adv_locked_.size(); i-- > 0;) {
    if (adv_locked_[i].pfn == pfn) {
      PhysMem::Instance().Descriptor(pfn).cna.Unlock(adv_locked_[i].node);
      CnaNodePool::Put(adv_locked_[i].node);
      adv_locked_.erase_at(i);
      return;
    }
  }
  assert(false && "unlocking a PT page this cursor does not hold");
}

void RCursor::RemoveChildTable(Pfn pt_page, int level, uint64_t index) {
  PageTable& pt = space_->page_table();
  PhysMem& mem = PhysMem::Instance();
  Pte pte = pt.LoadEntry(pt_page, index);
  assert(PteIsPresent(pt.arch(), pte) && !PteIsLeaf(pt.arch(), pte, level));
  Pfn child = PtePfn(pt.arch(), pte);

  // Atomically detach the subtree: lock-free traversals now either see the
  // old child (still valid until the grace period ends) or nothing (Fig. 7).
  bool detached = pt.CasEntry(pt_page, index, pte, kNullPte);
  assert(detached && "PTE changed under the covering lock");
  (void)detached;
  mem.Descriptor(pt_page).present_ptes.fetch_sub(1, std::memory_order_relaxed);

  std::vector<Pfn> subtree;  // Post-order: children first.
  pt.ForEachPtPagePostOrder(child, level - 1,
                            [&subtree](Pfn pfn, int) { subtree.push_back(pfn); });
  bool adv = space_->options().protocol == Protocol::kAdv;
  if (adv) {
    space_->rcu_retired_pt_pages_.fetch_add(subtree.size(), std::memory_order_relaxed);
  }
  for (Pfn pfn : subtree) {
    // Metadata leaves the space's account now: the free below (under kAdv,
    // an RCU callback) no longer knows which space the page belonged to.
    if (mem.Descriptor(pfn).meta.load(std::memory_order_acquire) != nullptr) {
      space_->AddMetaBytes(-static_cast<int64_t>(sizeof(PteMetaArray)));
    }
    if (adv) {
      // Mark stale + unlock, children before parents (reverse DFS, Fig. 6
      // L31), then hand the page to the RCU monitor for deferred reclamation.
      mem.Descriptor(pfn).stale.store(true, std::memory_order_release);
      AdvUnlockAndForget(pfn);
      Rcu::Instance().Retire(reinterpret_cast<void*>(static_cast<uintptr_t>(pfn)),
                             &RcuFreePtPage);
    } else {
      // kRw: no traversal can be inside the subtree (it would hold a read
      // lock on our write-locked covering page), so free immediately.
      PageTable::FreePtPage(pfn);
    }
  }
}

}  // namespace cortenmm
