// RCursor basic operations (paper Figure 4): Query / Map / Mark / Unmap plus
// the Protect and ForEachStatus extensions. All of them execute under the
// locks the cursor acquired, so the logic here is purely sequential — exactly
// the simplification the paper's transactional interface buys (§5.2).
//
// Data-structure invariants maintained here (checked by verif/wf_checker):
//   I1. A present non-leaf PTE points to a valid PT page of level - 1.
//   I2. A metadata mark occupies only *absent* slots; linking a child under a
//       marked slot pushes the mark down into the child first.
//   I3. present_ptes of a PT page counts its present slots.
//   I4. A Swapped mark holds one swap-block reference per page it covers:
//       CloneSubtree adds them, ClearMark drops them wherever a mark is erased
//       or overwritten, and PushDownMark moves them with the mark.
#include <cassert>

#include "src/common/stats.h"
#include "src/core/backing.h"
#include "src/core/addr_space.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"

namespace cortenmm {
namespace {

// Frames spanned by a leaf entry at |level|.
uint64_t LeafFrames(int level) { return PtEntrySpan(level) >> kPageBits; }

}  // namespace

// ---------------------------------------------------------------------------
// Metadata array plumbing
// ---------------------------------------------------------------------------

PteMetaArray* RCursor::MetaArrayOf(Pfn pt_page, bool create) {
  PageDescriptor& desc = PhysMem::Instance().Descriptor(pt_page);
  PteMetaArray* meta = desc.meta.load(std::memory_order_acquire);
  if (meta == nullptr && create) {
    // We hold this PT page's lock, so plain check-then-set is race-free.
    meta = new PteMetaArray();
    desc.meta.store(meta, std::memory_order_release);
    space_->AddMetaBytes(sizeof(PteMetaArray));
  }
  return meta;
}

PteMeta RCursor::LoadMeta(Pfn pt_page, uint64_t index) {
  PteMetaArray* meta = MetaArrayOf(pt_page, /*create=*/false);
  return meta == nullptr ? PteMeta{} : meta->entries[index];
}

void RCursor::StoreMeta(Pfn pt_page, uint64_t index, const PteMeta& meta) {
  if (meta.empty() && MetaArrayOf(pt_page, /*create=*/false) == nullptr) {
    return;  // Clearing a mark that does not exist.
  }
  MetaArrayOf(pt_page, /*create=*/true)->entries[index] = meta;
}

void RCursor::ClearMark(Pfn pt_page, int level, uint64_t index) {
  PteMetaArray* marks = MetaArrayOf(pt_page, /*create=*/false);
  if (marks == nullptr) {
    return;
  }
  PteMeta& meta = marks->entries[index];
  if (static_cast<StatusTag>(meta.tag) == StatusTag::kSwapped) {
    for (uint64_t p = 0; p < LeafFrames(level); ++p) {
      SwapDevice::Instance().DropBlockRef(meta.aux32 + static_cast<uint32_t>(p));
    }
  }
  meta.Clear();
}

// ---------------------------------------------------------------------------
// Tree surgery helpers
// ---------------------------------------------------------------------------

void RCursor::PushDownMark(Pfn pt_page, int level, uint64_t index, Pfn child) {
  PteMeta parent_meta = LoadMeta(pt_page, index);
  if (parent_meta.empty()) {
    return;
  }
  Status status = DecodeMeta(parent_meta);
  uint64_t pages_per_child_entry = LeafFrames(level - 1);
  PteMetaArray* child_meta = MetaArrayOf(child, /*create=*/true);
  for (uint64_t j = 0; j < kPtesPerPage; ++j) {
    child_meta->entries[j] = EncodeMeta(OffsetStatus(status, j * pages_per_child_entry));
  }
  StoreMeta(pt_page, index, PteMeta{});
}

Result<Pfn> RCursor::SplitLeaf(Pfn pt_page, int level, uint64_t index) {
  PageTable& pt = space_->page_table();
  Pte pte = pt.LoadEntry(pt_page, index);
  assert(level > 1 && PteIsLeaf(pt.arch(), pte, level));
  Pfn head = PtePfn(pt.arch(), pte);
  Perm perm = PtePerm(pt.arch(), pte);

  Result<Pfn> child = pt.AllocPtPage(level - 1);
  if (!child.ok()) {
    return child;
  }
  CountEvent(Counter::kHugeSplits);
  NoteLocked(*child, level - 1);
  uint64_t frames_per_entry = LeafFrames(level - 1);
  for (uint64_t j = 0; j < kPtesPerPage; ++j) {
    pt.StoreEntry(*child, j,
                  MakeLeafPte(pt.arch(), head + j * frames_per_entry, perm, level - 1));
  }
  PhysMem::Instance().Descriptor(*child).present_ptes.store(
      static_cast<uint16_t>(kPtesPerPage), std::memory_order_relaxed);
  // Replace the huge leaf with the table entry; present count is unchanged.
  pt.StoreEntry(pt_page, index, MakeTablePte(pt.arch(), *child));
  return child;
}

Result<Pfn> RCursor::EnsureChild(Pfn pt_page, int level, uint64_t index) {
  PageTable& pt = space_->page_table();
  Pte pte = pt.LoadEntry(pt_page, index);
  if (PteIsPresent(pt.arch(), pte)) {
    if (!PteIsLeaf(pt.arch(), pte, level)) {
      return PtePfn(pt.arch(), pte);
    }
    return SplitLeaf(pt_page, level, index);
  }
  Result<Pfn> child = pt.AllocPtPage(level - 1);
  if (!child.ok()) {
    return child;
  }
  // Born locked (kAdv): the lock must be ours *before* the page becomes
  // reachable, so a lock-free traversal that lands on it blocks until this
  // transaction completes.
  NoteLocked(*child, level - 1);
  PushDownMark(pt_page, level, index, *child);
  pt.StoreEntry(pt_page, index, MakeTablePte(pt.arch(), *child));
  PhysMem::Instance().Descriptor(pt_page).present_ptes.fetch_add(1, std::memory_order_relaxed);
  return *child;
}

// Reserve pass: materialize every PT page the destructive walk over |sub|
// could allocate, before anything is mutated. Allocation only ever happens at
// *partially* covered slots (the two boundary chains of the range, O(levels)):
// a fully covered slot is rewritten in place at this level. EnsureChild and
// SplitLeaf preserve the virtual-memory contents exactly (split leaves map the
// same frames, pushed-down marks encode the same status), so running them
// eagerly is observationally free — and once they have run, the destructive
// pass finds present tables everywhere it would have allocated and cannot fail.
VoidResult RCursor::ReserveIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub,
                              bool for_marks) {
  if (level <= 1) {
    return VoidResult();
  }
  PageTable& pt = space_->page_table();
  uint64_t span = PtEntrySpan(level);
  uint64_t first = (sub.start - page_base) / span;
  uint64_t last = (sub.end - 1 - page_base) / span;
  for (uint64_t i = first; i <= last; ++i) {
    Vaddr entry_va = page_base + i * span;
    VaRange entry_range(entry_va, entry_va + span);
    VaRange inter = sub.Intersect(entry_range);
    if (inter == entry_range) {
      continue;  // Fully covered: handled at this level, never allocates.
    }
    Pte pte = pt.LoadEntry(pt_page, i);
    bool present = PteIsPresent(pt.arch(), pte);
    if (!present && LoadMeta(pt_page, i).empty() && !for_marks) {
      continue;  // Empty slot and the operation will not write marks into it.
    }
    Result<Pfn> child = EnsureChild(pt_page, level, i);
    if (!child.ok()) {
      return child.error();
    }
    VoidResult r = ReserveIn(*child, level - 1, entry_va, inter, for_marks);
    if (!r.ok()) {
      return r;
    }
  }
  return VoidResult();
}

VoidResult RCursor::PrepareSlow(VaRange sub, bool for_marks) {
  if (!sub.IsPageAligned() || sub.empty() || !range_.Contains(sub)) {
    return ErrCode::kInval;
  }
  Vaddr covering_base = AlignDown(range_.start, PtPageSpan(covering_level_));
  return ReserveIn(covering_, covering_level_, covering_base, sub, for_marks);
}

void RCursor::ClearLeaf(Pfn pt_page, int level, uint64_t index, Vaddr va) {
  PageTable& pt = space_->page_table();
  PhysMem& mem = PhysMem::Instance();
  Pte pte = pt.LoadEntry(pt_page, index);
  assert(PteIsPresent(pt.arch(), pte) && PteIsLeaf(pt.arch(), pte, level));
  Pfn head = PtePfn(pt.arch(), pte);
  pt.StoreEntry(pt_page, index, kNullPte);
  mem.Descriptor(pt_page).present_ptes.fetch_sub(1, std::memory_order_relaxed);
  uint64_t frames = LeafFrames(level);
  for (uint64_t f = 0; f < frames; ++f) {
    mem.Descriptor(head + f).DropRefs(0, 1);
  }
  space_->AddResidentPages(-static_cast<int64_t>(frames));
  // The references are dropped only after the TLB shootdown completes — and
  // the whole leaf is ONE gathered record whatever its order, so a 2 MiB
  // unmap costs one dead-run entry, not 512.
  gather_.AddRun(PageRun(head, static_cast<uint8_t>(kPteIndexBits * (level - 1))));
  pages_touched_ += frames;
  NoteFlush(VaRange(va, va + PtEntrySpan(level)));
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

Status RCursor::Query(Vaddr addr) {
  assert(range_.Contains(addr));
  PageTable& pt = space_->page_table();
  Pfn page = covering_;
  int level = covering_level_;
  for (;;) {
    uint64_t index = PtIndex(addr, level);
    Pte pte = pt.LoadEntry(page, index);
    if (PteIsPresent(pt.arch(), pte)) {
      if (PteIsLeaf(pt.arch(), pte, level)) {
        Vaddr leaf_base = AlignDown(addr, PtEntrySpan(level));
        uint64_t delta = (addr - leaf_base) >> kPageBits;
        return Status::Mapped(PtePfn(pt.arch(), pte) + delta, PtePerm(pt.arch(), pte),
                              static_cast<uint8_t>(level));
      }
      page = PtePfn(pt.arch(), pte);
      --level;
      continue;
    }
    PteMeta meta = LoadMeta(page, index);
    if (meta.empty()) {
      return Status::Invalid();
    }
    Vaddr entry_base = AlignDown(addr, PtEntrySpan(level));
    uint64_t delta = (addr - entry_base) >> kPageBits;
    return OffsetStatus(DecodeMeta(meta), delta);
  }
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

VoidResult RCursor::MapHuge(Vaddr addr, Pfn pfn, Perm perm, int level) {
  uint64_t span = PtEntrySpan(level);
  if (!IsAligned(addr, span) || !range_.Contains(VaRange(addr, addr + span))) {
    return ErrCode::kInval;
  }
  PageTable& pt = space_->page_table();
  PhysMem& mem = PhysMem::Instance();
  Pfn page = covering_;
  int cur_level = covering_level_;
  while (cur_level > level) {
    Result<Pfn> child = EnsureChild(page, cur_level, PtIndex(addr, cur_level));
    if (!child.ok()) {
      return child.error();
    }
    page = *child;
    --cur_level;
  }
  uint64_t index = PtIndex(addr, level);
  Pte old = pt.LoadEntry(page, index);
  if (PteIsPresent(pt.arch(), old)) {
    if (PteIsLeaf(pt.arch(), old, level)) {
      ClearLeaf(page, level, index, addr);
    } else {
      // Replacing a populated subtree: unmap it first.
      UnmapIn(PtePfn(pt.arch(), old), level - 1, addr, VaRange(addr, addr + span));
      RemoveChildTable(page, level, index);
    }
  }
  ClearMark(page, level, index);
  pt.StoreEntry(page, index, MakeLeafPte(pt.arch(), pfn, perm, level));
  mem.Descriptor(page).present_ptes.fetch_add(1, std::memory_order_relaxed);
  uint64_t frames = LeafFrames(level);
  for (uint64_t f = 0; f < frames; ++f) {
    mem.Descriptor(pfn + f).AddRefs(0, 1);
  }
  space_->AddResidentPages(static_cast<int64_t>(frames));
  pages_touched_ += frames;
  // Record the reverse mapping on the head frame (hint; see paper §4.5).
  {
    PageDescriptor& head = mem.Descriptor(pfn);
    SpinGuard guard(head.rmap_lock);
    head.owner.store(space_, std::memory_order_relaxed);
    head.owner_key.store(addr, std::memory_order_relaxed);
  }
  return VoidResult();
}

VoidResult RCursor::Map(Vaddr addr, Pfn pfn, Perm perm) {
  if (!IsAligned(addr, kPageSize) || !range_.Contains(addr)) {
    return ErrCode::kInval;
  }
  return MapHuge(addr, pfn, perm, 1);
}

// ---------------------------------------------------------------------------
// CloneInto (fork)
// ---------------------------------------------------------------------------

VoidResult RCursor::CloneSubtree(RCursor& child, Pfn parent_page, Pfn child_page,
                                 int level) {
  PageTable& parent_pt = space_->page_table();
  PageTable& child_pt = child.space_->page_table();
  Arch arch = parent_pt.arch();
  PhysMem& mem = PhysMem::Instance();

  // Copy the metadata array wholesale; swap blocks gain one reference per
  // covered page (fork shares swapped state through block refcounts).
  if (PteMetaArray* parent_meta = MetaArrayOf(parent_page, /*create=*/false)) {
    PteMetaArray* child_meta = child.MetaArrayOf(child_page, /*create=*/true);
    uint64_t pages_per_entry = LeafFrames(level);
    for (uint64_t i = 0; i < kPtesPerPage; ++i) {
      const PteMeta& meta = parent_meta->entries[i];
      child_meta->entries[i] = meta;
      if (static_cast<StatusTag>(meta.tag) == StatusTag::kSwapped) {
        for (uint64_t p = 0; p < pages_per_entry; ++p) {
          SwapDevice::Instance().AddBlockRef(meta.aux32 + static_cast<uint32_t>(p));
        }
      }
    }
  }

  // The page's present count and the child's resident count are published
  // once per PT page, on the error returns too, so a partial child is as
  // well-formed as a whole one.
  uint16_t present = 0;
  uint64_t resident = 0;
  auto publish = [&] {
    mem.Descriptor(child_page).present_ptes.store(present, std::memory_order_relaxed);
    if (resident != 0) {
      child.space_->AddResidentPages(static_cast<int64_t>(resident));
    }
  };
  for (uint64_t i = 0; i < kPtesPerPage; ++i) {
    Pte pte = parent_pt.LoadEntry(parent_page, i);
    if (!PteIsPresent(arch, pte)) {
      continue;
    }
    if (PteIsLeaf(arch, pte, level)) {
      Pfn head = PtePfn(arch, pte);
      Perm perm = PtePerm(arch, pte);
      uint64_t frames = LeafFrames(level);
      bool anon = mem.Descriptor(head).type.load(std::memory_order_relaxed) ==
                  FrameType::kAnon;
      Perm child_perm = perm;
      if (anon) {
        // Private page: copy-on-write in both parent and child. Even pages
        // that are currently read-only take the COW mark — a later
        // mprotect(RW) + write must break the sharing, not corrupt the
        // sibling space.
        child_perm = perm.With(Perm::kCow).Without(Perm::kWrite);
        if (!(child_perm == perm)) {
          parent_pt.StoreEntry(parent_page, i, MakeLeafPte(arch, head, child_perm, level));
        }
      }
      child_pt.StoreEntry(child_page, i, MakeLeafPte(arch, head, child_perm, level));
      // The child's reference and mapping: one RMW per frame.
      for (uint64_t f = 0; f < frames; ++f) {
        mem.Descriptor(head + f).AddRefs(1, 1);
      }
      ++present;
      resident += frames;
      continue;
    }
    // Table entry: allocate the child's counterpart (born locked in the
    // child's cursor) and recurse. On failure the caller destroys the partial
    // child whole (the full-mm teardown), which needs every cloned page
    // linked.
    Result<Pfn> clone = child_pt.AllocPtPage(level - 1);
    if (!clone.ok()) {
      publish();
      return clone.error();
    }
    child.NoteLocked(*clone, level - 1);
    VoidResult r = CloneSubtree(child, PtePfn(arch, pte), *clone, level - 1);
    child_pt.StoreEntry(child_page, i, MakeTablePte(arch, *clone));
    ++present;
    if (!r.ok()) {
      publish();
      return r;
    }
  }
  publish();
  return VoidResult();
}

VoidResult RCursor::CloneInto(RCursor& child) {
  if (!(range_ == child.range_) || covering_level_ != child.covering_level_) {
    return ErrCode::kInval;
  }
  VoidResult r = CloneSubtree(child, covering_, child.covering_, covering_level_);
  // Parent pages lost hardware write permission: flush everything once.
  NoteFlush(range_);
  return r;
}

// ---------------------------------------------------------------------------
// Unmap
// ---------------------------------------------------------------------------

void RCursor::UnmapIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub) {
  PageTable& pt = space_->page_table();
  uint64_t span = PtEntrySpan(level);
  uint64_t first = (sub.start - page_base) / span;
  uint64_t last = (sub.end - 1 - page_base) / span;
  for (uint64_t i = first; i <= last; ++i) {
    Vaddr entry_va = page_base + i * span;
    VaRange entry_range(entry_va, entry_va + span);
    VaRange inter = sub.Intersect(entry_range);
    Pte pte = pt.LoadEntry(pt_page, i);
    bool present = PteIsPresent(pt.arch(), pte);
    bool leaf = present && PteIsLeaf(pt.arch(), pte, level);
    if (inter == entry_range) {
      // Slot fully covered: drop whatever is here.
      ClearMark(pt_page, level, i);
      if (leaf) {
        ClearLeaf(pt_page, level, i, entry_va);
      } else if (present) {
        UnmapIn(PtePfn(pt.arch(), pte), level - 1, entry_va, entry_range);
        RemoveChildTable(pt_page, level, i);
      }
      continue;
    }
    // Partial overlap: materialize a child and recurse.
    if (!present && LoadMeta(pt_page, i).empty()) {
      continue;  // Nothing mapped or marked here.
    }
    Result<Pfn> child = EnsureChild(pt_page, level, i);
    if (!child.ok()) {
      // Out of memory while splitting: drop the whole slot instead. This
      // over-unmaps but never leaks or corrupts (kernel OOM-path tradeoff).
      ClearMark(pt_page, level, i);
      if (leaf) {
        ClearLeaf(pt_page, level, i, entry_va);
      }
      continue;
    }
    UnmapIn(*child, level - 1, entry_va, inter);
  }
}

VoidResult RCursor::Unmap(VaRange sub) {
  if (!sub.IsPageAligned() || sub.empty() || !range_.Contains(sub)) {
    return ErrCode::kInval;
  }
  // All-or-nothing: take every allocation up front. If this fails the address
  // space is semantically unchanged and the caller sees kNoMem; afterwards the
  // destructive walk below cannot allocate (its EnsureChild calls find the
  // tables Prepare installed), so it cannot fail part-way.
  VoidResult reserved = Prepare(sub, /*for_marks=*/false);
  if (!reserved.ok()) {
    return reserved;
  }
  Vaddr covering_base = AlignDown(range_.start, PtPageSpan(covering_level_));
  UnmapIn(covering_, covering_level_, covering_base, sub);
  return VoidResult();
}

// ---------------------------------------------------------------------------
// Full-mm teardown (exit)
// ---------------------------------------------------------------------------

void RCursor::TearDownIn(Pfn pt_page, int level) {
  PageTable& pt = space_->page_table();
  if (PteMetaArray* marks = MetaArrayOf(pt_page, /*create=*/false)) {
    for (uint64_t i = 0; i < kPtesPerPage; ++i) {
      if (!marks->entries[i].empty()) {
        ClearMark(pt_page, level, i);
      }
    }
  }
  for (uint64_t i = 0; i < kPtesPerPage; ++i) {
    Pte pte = pt.LoadEntry(pt_page, i);
    if (!PteIsPresent(pt.arch(), pte)) {
      continue;
    }
    if (!PteIsLeaf(pt.arch(), pte, level)) {
      TearDownIn(PtePfn(pt.arch(), pte), level - 1);
      continue;
    }
    // The PTE and the page's present count stay: the PT page is freed whole.
    // The mapping and the reference go in one RMW per frame.
    DropRunRefs(PageRun(PtePfn(pt.arch(), pte),
                        static_cast<uint8_t>(kPteIndexBits * (level - 1))),
                /*maps=*/1);
  }
}

void RCursor::TearDownFullMm() {
  assert(range_ == VaRange(0, kVaLimit));
  // One synchronous full-ASID flush before any frame goes back: afterwards no
  // CPU can reach a frame through this space, so the walk frees in place.
  TlbSystem::Instance().ShootdownBatch(space_->asid_, nullptr, 0, /*full_asid=*/true,
                                       space_->active_cpus_, TlbPolicy::kSync, nullptr, 0,
                                       nullptr);
  TearDownIn(covering_, covering_level_);
  space_->resident_pages_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Mark
// ---------------------------------------------------------------------------

VoidResult RCursor::MarkIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub,
                           const Status& status) {
  PageTable& pt = space_->page_table();
  uint64_t span = PtEntrySpan(level);
  uint64_t first = (sub.start - page_base) / span;
  uint64_t last = (sub.end - 1 - page_base) / span;
  for (uint64_t i = first; i <= last; ++i) {
    Vaddr entry_va = page_base + i * span;
    VaRange entry_range(entry_va, entry_va + span);
    VaRange inter = sub.Intersect(entry_range);
    Pte pte = pt.LoadEntry(pt_page, i);
    bool present = PteIsPresent(pt.arch(), pte);
    bool leaf = present && PteIsLeaf(pt.arch(), pte, level);
    if (inter == entry_range) {
      // Whole slot: one mark at this level represents the entire span — the
      // paper's "upper-level PT pages represent large regions" optimization.
      if (leaf) {
        ClearLeaf(pt_page, level, i, entry_va);
      } else if (present) {
        UnmapIn(PtePfn(pt.arch(), pte), level - 1, entry_va, entry_range);
        RemoveChildTable(pt_page, level, i);
      }
      ClearMark(pt_page, level, i);
      if (!status.invalid()) {
        StoreMeta(pt_page, i,
                  EncodeMeta(OffsetStatus(status, (entry_va - sub.start) >> kPageBits)));
      }
      continue;
    }
    if (!present && LoadMeta(pt_page, i).empty() && status.invalid()) {
      continue;  // Erasing marks from an empty slot: nothing to do.
    }
    Result<Pfn> child = EnsureChild(pt_page, level, i);
    if (!child.ok()) {
      return child.error();  // Unreachable after a successful Prepare.
    }
    VoidResult r = MarkIn(*child, level - 1, entry_va, inter,
                          OffsetStatus(status, (inter.start - sub.start) >> kPageBits));
    if (!r.ok()) {
      return r;
    }
  }
  return VoidResult();
}

VoidResult RCursor::Mark(VaRange sub, const Status& status) {
  if (!sub.IsPageAligned() || sub.empty() || !range_.Contains(sub)) {
    return ErrCode::kInval;
  }
  if (status.mapped()) {
    return ErrCode::kInval;  // Mapped state is created with Map, not Mark.
  }
  // A non-invalid mark writes into empty boundary slots, so those children
  // must be reserved too; erasing (invalid status) skips empty slots.
  VoidResult reserved = Prepare(sub, /*for_marks=*/!status.invalid());
  if (!reserved.ok()) {
    return reserved;
  }
  Vaddr covering_base = AlignDown(range_.start, PtPageSpan(covering_level_));
  return MarkIn(covering_, covering_level_, covering_base, sub, status);
}

// ---------------------------------------------------------------------------
// Protect
// ---------------------------------------------------------------------------

void RCursor::ProtectIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub, Perm perm) {
  PageTable& pt = space_->page_table();
  uint64_t span = PtEntrySpan(level);
  uint64_t first = (sub.start - page_base) / span;
  uint64_t last = (sub.end - 1 - page_base) / span;
  for (uint64_t i = first; i <= last; ++i) {
    Vaddr entry_va = page_base + i * span;
    VaRange entry_range(entry_va, entry_va + span);
    VaRange inter = sub.Intersect(entry_range);
    Pte pte = pt.LoadEntry(pt_page, i);
    bool present = PteIsPresent(pt.arch(), pte);
    bool leaf = present && PteIsLeaf(pt.arch(), pte, level);
    if (leaf && inter != entry_range) {
      // Partial protection of a huge leaf: split, then recurse.
      Result<Pfn> child = SplitLeaf(pt_page, level, i);
      if (!child.ok()) {
        continue;  // OOM: leave old permissions in place on this slot.
      }
      ProtectIn(*child, level - 1, entry_va, inter, perm);
      continue;
    }
    if (leaf) {
      // COW pages stay hardware read-only; the COW mark survives mprotect.
      Perm old = PtePerm(pt.arch(), pte);
      Perm updated = perm;
      if (old.cow()) {
        updated = updated.With(Perm::kCow).Without(Perm::kWrite);
      }
      pt.StoreEntry(pt_page, i,
                    MakeLeafPte(pt.arch(), PtePfn(pt.arch(), pte), updated, level));
      NoteFlush(entry_range);
      continue;
    }
    if (present) {
      ProtectIn(PtePfn(pt.arch(), pte), level - 1, entry_va, inter, perm);
      continue;
    }
    PteMeta meta = LoadMeta(pt_page, i);
    if (meta.empty()) {
      continue;
    }
    if (inter == entry_range) {
      meta.perm = perm.bits;
      StoreMeta(pt_page, i, meta);
    } else {
      Result<Pfn> child = EnsureChild(pt_page, level, i);  // Pushes the mark down.
      if (!child.ok()) {
        continue;
      }
      ProtectIn(*child, level - 1, entry_va, inter, perm);
    }
  }
}

// Intel MPK: tag mapped leaves with a protection key. Virtually-allocated
// marks are not tagged (they carry no hardware bits); pages fault in with key
// 0 and take the key on the next SetPkey, matching pkey_mprotect semantics on
// present pages.
VoidResult RCursor::SetPkey(VaRange sub, int pkey) {
  if (!sub.IsPageAligned() || sub.empty() || !range_.Contains(sub) || pkey < 0 ||
      pkey > 15) {
    return ErrCode::kInval;
  }
  PageTable& pt = space_->page_table();
  if (pt.arch() != Arch::kX86_64) {
    return ErrCode::kInval;  // MPK is an x86-64 feature.
  }
  // Rewrite every present leaf in the range (we hold the covering locks).
  pt.ForEachLeaf(sub, [&](Vaddr va, Pte pte, int level) {
    PageTable::WalkResult walk = pt.Walk(va);
    if (walk.present) {
      pt.StoreEntry(walk.pt_page, walk.index, PteWithPkey(pt.arch(), walk.pte, pkey));
    }
  });
  NoteFlush(sub);
  return VoidResult();
}

VoidResult RCursor::SetLeafPerm(Vaddr addr, Perm perm) {
  if (!IsAligned(addr, kPageSize) || !range_.Contains(addr)) {
    return ErrCode::kInval;
  }
  PageTable& pt = space_->page_table();
  Pfn page = covering_;
  int level = covering_level_;
  for (;;) {
    uint64_t index = PtIndex(addr, level);
    Pte pte = pt.LoadEntry(page, index);
    if (!PteIsPresent(pt.arch(), pte)) {
      return ErrCode::kNoEnt;
    }
    if (PteIsLeaf(pt.arch(), pte, level)) {
      if (level != 1) {
        Result<Pfn> child = SplitLeaf(page, level, index);
        if (!child.ok()) {
          return child.error();
        }
        page = *child;
        --level;
        continue;
      }
      pt.StoreEntry(page, index, MakeLeafPte(pt.arch(), PtePfn(pt.arch(), pte), perm, 1));
      NoteFlush(VaRange(addr, addr + kPageSize));
      return VoidResult();
    }
    page = PtePfn(pt.arch(), pte);
    --level;
  }
}

VoidResult RCursor::Protect(VaRange sub, Perm perm) {
  if (!sub.IsPageAligned() || sub.empty() || !range_.Contains(sub)) {
    return ErrCode::kInval;
  }
  // Reserve the boundary splits up front so no slot is silently skipped on
  // OOM: either every page in |sub| is reprotected or none is.
  VoidResult reserved = Prepare(sub, /*for_marks=*/false);
  if (!reserved.ok()) {
    return reserved;
  }
  Vaddr covering_base = AlignDown(range_.start, PtPageSpan(covering_level_));
  ProtectIn(covering_, covering_level_, covering_base, sub, perm);
  return VoidResult();
}

// ---------------------------------------------------------------------------
// ForEachStatus
// ---------------------------------------------------------------------------

void RCursor::StatusIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub,
                       const std::function<void(VaRange, const Status&)>& visit) {
  PageTable& pt = space_->page_table();
  uint64_t span = PtEntrySpan(level);
  uint64_t first = (sub.start - page_base) / span;
  uint64_t last = (sub.end - 1 - page_base) / span;
  for (uint64_t i = first; i <= last; ++i) {
    Vaddr entry_va = page_base + i * span;
    VaRange entry_range(entry_va, entry_va + span);
    VaRange inter = sub.Intersect(entry_range);
    Pte pte = pt.LoadEntry(pt_page, i);
    if (PteIsPresent(pt.arch(), pte)) {
      if (PteIsLeaf(pt.arch(), pte, level)) {
        uint64_t delta = (inter.start - entry_va) >> kPageBits;
        visit(inter, Status::Mapped(PtePfn(pt.arch(), pte) + delta,
                                    PtePerm(pt.arch(), pte), static_cast<uint8_t>(level)));
      } else {
        StatusIn(PtePfn(pt.arch(), pte), level - 1, entry_va, inter, visit);
      }
      continue;
    }
    PteMeta meta = LoadMeta(pt_page, i);
    if (!meta.empty()) {
      uint64_t delta = (inter.start - entry_va) >> kPageBits;
      visit(inter, OffsetStatus(DecodeMeta(meta), delta));
    }
  }
}

void RCursor::ForEachStatus(VaRange sub,
                            const std::function<void(VaRange, const Status&)>& visit) {
  assert(sub.IsPageAligned() && !sub.empty() && range_.Contains(sub));
  Vaddr covering_base = AlignDown(range_.start, PtPageSpan(covering_level_));
  StatusIn(covering_, covering_level_, covering_base, sub, visit);
}

}  // namespace cortenmm
