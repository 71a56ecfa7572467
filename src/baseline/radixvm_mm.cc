#include "src/baseline/radixvm_mm.h"

#include <cassert>
#include <utility>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/core/addr_space.h"  // DropRunRef
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/tlb/asid.h"
#include "src/tlb/gather.h"

namespace cortenmm {

// Leaf: 512 PageInfo slots guarded by one lock (one lock per 2 MiB of VA —
// the same granularity as RadixVM's per-node locking).
struct RadixVmMm::RadixLeaf {
  SpinLock lock;
  PageInfo pages[kRadixFanout];
};

struct RadixVmMm::RadixNode {
  SpinLock lock;
  std::atomic<void*> children[kRadixFanout] = {};  // RadixNode* or RadixLeaf*.
};

RadixVmMm::RadixVmMm(const Options& options)
    : options_(options),
      asid_(AllocAsid()),
      va_alloc_(/*per_core=*/true),  // RadixVM allocates VA per-core too.
      radix_root_(new RadixNode),
      replicas_(new Replica[options.max_cores]) {
  radix_nodes_.fetch_add(1, std::memory_order_relaxed);
}

RadixVmMm::~RadixVmMm() {
  Munmap(kUserVaBase, kUserVaCeiling - kUserVaBase);
  TlbSystem::Instance().DrainAll();
  active_cpus_.ForEach(
      [this](CpuId cpu) { TlbSystem::Instance().CpuTlb(cpu).InvalidateAsid(asid_); });
  FreeAsid(asid_);
  // Free the radix tree.
  std::function<void(RadixNode*, int)> free_node = [&](RadixNode* node, int level) {
    for (int i = 0; i < kRadixFanout; ++i) {
      void* child = node->children[i].load(std::memory_order_relaxed);
      if (child == nullptr) {
        continue;
      }
      if (level == 2) {
        delete static_cast<RadixLeaf*>(child);
      } else {
        free_node(static_cast<RadixNode*>(child), level - 1);
      }
    }
    delete node;
  };
  free_node(radix_root_, kRadixLevels);
}

PageTable* RadixVmMm::ReplicaFor(CpuId cpu) {
  int index = cpu % options_.max_cores;
  Replica& replica = replicas_[index];
  PageTable* pt = replica.pt.get();
  if (pt == nullptr) {
    SpinGuard guard(replica_create_lock_);
    if (replica.pt == nullptr) {
      // Fallible: under memory pressure the replica simply does not come up
      // yet and the faulting access reports kNoMem; a later fault retries.
      Result<PageTable> created = PageTable::Create(options_.arch);
      if (!created.ok()) {
        return nullptr;
      }
      replica.pt = std::make_unique<PageTable>(std::move(*created));
    }
    pt = replica.pt.get();
  }
  return pt;
}

RadixVmMm::PageInfo* RadixVmMm::LookupOrCreate(uint64_t page_index, bool create) {
  RadixNode* node = radix_root_;
  for (int level = kRadixLevels; level > 2; --level) {
    int slot = (page_index >> (kRadixBits * (level - 1))) & (kRadixFanout - 1);
    void* child = node->children[slot].load(std::memory_order_acquire);
    if (child == nullptr) {
      if (!create) {
        return nullptr;
      }
      SpinGuard guard(node->lock);
      child = node->children[slot].load(std::memory_order_acquire);
      if (child == nullptr) {
        child = new RadixNode;
        radix_nodes_.fetch_add(1, std::memory_order_relaxed);
        node->children[slot].store(child, std::memory_order_release);
      }
    }
    node = static_cast<RadixNode*>(child);
  }
  int slot = (page_index >> kRadixBits) & (kRadixFanout - 1);
  void* leaf = node->children[slot].load(std::memory_order_acquire);
  if (leaf == nullptr) {
    if (!create) {
      return nullptr;
    }
    SpinGuard guard(node->lock);
    leaf = node->children[slot].load(std::memory_order_acquire);
    if (leaf == nullptr) {
      leaf = new RadixLeaf;
      radix_nodes_.fetch_add(1, std::memory_order_relaxed);
      node->children[slot].store(leaf, std::memory_order_release);
    }
  }
  return &static_cast<RadixLeaf*>(leaf)->pages[page_index & (kRadixFanout - 1)];
}

void RadixVmMm::ForRange(VaRange range, bool create,
                         const std::function<void(Vaddr, PageInfo&, SpinLock&)>& fn) {
  if (create) {
    // Creation is only used by mmap, whose ranges are bounded; per-page
    // creation matches RadixVM's per-page metadata cost.
    for (Vaddr va = range.start; va < range.end; va += kPageSize) {
      uint64_t page_index = va >> kPageBits;
      PageInfo* info = LookupOrCreate(page_index, /*create=*/true);
      auto* leaf = reinterpret_cast<RadixLeaf*>(
          reinterpret_cast<char*>(info - (page_index & (kRadixFanout - 1))) -
          offsetof(RadixLeaf, pages));
      fn(va, *info, leaf->lock);
    }
    return;
  }
  // Read-only walk: skip absent subtrees so huge sparse ranges stay cheap.
  uint64_t first_page = range.start >> kPageBits;
  uint64_t last_page = (range.end - 1) >> kPageBits;
  std::function<void(RadixNode*, int, uint64_t)> walk = [&](RadixNode* node, int level,
                                                            uint64_t base) {
    uint64_t child_pages = 1ull << (kRadixBits * (level - 1));
    for (int i = 0; i < kRadixFanout; ++i) {
      uint64_t child_base = base + static_cast<uint64_t>(i) * child_pages;
      if (child_base > last_page || child_base + child_pages <= first_page) {
        continue;
      }
      void* child = node->children[i].load(std::memory_order_acquire);
      if (child == nullptr) {
        continue;
      }
      if (level > 2) {
        walk(static_cast<RadixNode*>(child), level - 1, child_base);
        continue;
      }
      auto* leaf = static_cast<RadixLeaf*>(child);
      uint64_t lo = child_base < first_page ? first_page - child_base : 0;
      uint64_t hi = child_base + kRadixFanout - 1 > last_page
                        ? last_page - child_base
                        : static_cast<uint64_t>(kRadixFanout - 1);
      for (uint64_t j = lo; j <= hi; ++j) {
        fn((child_base + j) << kPageBits, leaf->pages[j], leaf->lock);
      }
    }
  };
  walk(radix_root_, kRadixLevels, 0);
}

void RadixVmMm::InstallInReplica(int replica_index, Vaddr va, Pfn pfn, Perm perm) {
  Replica& replica = replicas_[replica_index];
  PageTable* pt = replica.pt.get();
  if (pt == nullptr) {
    return;  // Replica never came up (OOM); nothing to install into.
  }
  SpinGuard guard(replica.lock);
  Pfn page = pt->root();
  for (int level = kPtLevels; level > 1; --level) {
    uint64_t index = PtIndex(va, level);
    Pte pte = pt->LoadEntry(page, index);
    if (!PteIsPresent(pt->arch(), pte)) {
      Result<Pfn> child = pt->AllocPtPage(level - 1);
      if (!child.ok()) {
        // OOM mid-descent: the page is simply absent from this replica. The
        // radix tree stays authoritative (no frame is lost) and the next
        // fault on this core retries the install.
        FaultInjector::NoteSurvived();
        return;
      }
      pt->StoreEntry(page, index, MakeTablePte(pt->arch(), *child));
      pte = pt->LoadEntry(page, index);
    }
    page = PtePfn(pt->arch(), pte);
  }
  pt->StoreEntry(page, PtIndex(va, 1), MakeLeafPte(pt->arch(), pfn, perm, 1));
}

void RadixVmMm::RemoveFromReplica(int replica_index, Vaddr va) {
  Replica& replica = replicas_[replica_index];
  PageTable* pt = replica.pt.get();
  if (pt == nullptr) {
    return;
  }
  SpinGuard guard(replica.lock);
  PageTable::WalkResult walk = pt->Walk(va);
  if (walk.present) {
    pt->StoreEntry(walk.pt_page, walk.index, kNullPte);
  }
}

Result<Vaddr> RadixVmMm::MmapAnon(const MmapArgs& args) {
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

VoidResult RadixVmMm::MmapAnonFixed(Vaddr va, uint64_t len, Perm perm) {
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  VaRange range(va, va + AlignUp(len, kPageSize));
  ForRange(range, /*create=*/true, [&](Vaddr, PageInfo& info, SpinLock& lock) {
    SpinGuard guard(lock);
    info.state = PageInfo::State::kVirtual;
    info.perm = perm;
  });
  return VoidResult();
}

VoidResult RadixVmMm::Munmap(Vaddr va, uint64_t len) {
  ScopedOpTimer telemetry_timer(MmOp::kMunmap);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  VaRange range(va, va + AlignUp(len, kPageSize));
  std::vector<Pfn> dead_frames;
  ForRange(range, /*create=*/false, [&](Vaddr page_va, PageInfo& info, SpinLock& lock) {
    SpinGuard guard(lock);
    if (info.state == PageInfo::State::kMapped) {
      // Targeted removal: only replicas that actually mapped the page.
      for (int r = 0; r < options_.max_cores && r < 64; ++r) {
        if (info.mapped_cores & (1ull << r)) {
          RemoveFromReplica(r, page_va);
        }
      }
      dead_frames.push_back(info.pfn);
    }
    info = PageInfo{};
  });
  TlbGather gather;
  gather.AddRange(range);
  for (Pfn pfn : dead_frames) {
    gather.AddFrame(pfn);
  }
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, &DropRunRef);
  va_alloc_.Free(va, AlignUp(len, kPageSize));
  return VoidResult();
}

VoidResult RadixVmMm::Mprotect(Vaddr va, uint64_t len, Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMprotect);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  VaRange range(va, va + AlignUp(len, kPageSize));
  ForRange(range, /*create=*/false, [&](Vaddr page_va, PageInfo& info, SpinLock& lock) {
    SpinGuard guard(lock);
    if (info.state == PageInfo::State::kUnmapped) {
      return;
    }
    info.perm = perm;
    if (info.state == PageInfo::State::kMapped) {
      for (int r = 0; r < options_.max_cores && r < 64; ++r) {
        if (info.mapped_cores & (1ull << r)) {
          InstallInReplica(r, page_va, info.pfn, perm);
        }
      }
    }
  });
  TlbGather gather;
  gather.AddRange(range);
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, nullptr);
  return VoidResult();
}

VoidResult RadixVmMm::HandleFault(Vaddr va, Access access) {
  ScopedOpTimer telemetry_timer(MmOp::kFault);
  CountEvent(Counter::kPageFaults);
  CpuId cpu = CurrentCpu();
  NoteCpuActive(cpu);
  int replica_index = cpu % options_.max_cores;
  if (ReplicaFor(cpu) == nullptr) {  // Ensure the replica exists.
    return ErrCode::kNoMem;
  }

  Vaddr page_va = AlignDown(va, kPageSize);
  PageInfo* info = LookupOrCreate(page_va >> kPageBits, /*create=*/false);
  if (info == nullptr) {
    return ErrCode::kFault;
  }
  auto* leaf = reinterpret_cast<RadixLeaf*>(
      reinterpret_cast<char*>(info - ((page_va >> kPageBits) & (kRadixFanout - 1))) -
      offsetof(RadixLeaf, pages));
  SpinGuard guard(leaf->lock);
  switch (info->state) {
    case PageInfo::State::kUnmapped:
      return ErrCode::kFault;
    case PageInfo::State::kVirtual: {
      if (!PermAllowsAccess(info->perm, access)) {
        return ErrCode::kFault;
      }
      Result<Pfn> frame = BuddyAllocator::Instance().AllocZeroedFrame();
      if (!frame.ok()) {
        return frame.error();
      }
      PhysMem::Instance().Descriptor(*frame).ResetForAlloc(FrameType::kAnon);
      CountEvent(Counter::kDemandZeroFills);
      info->state = PageInfo::State::kMapped;
      info->pfn = *frame;
      info->mapped_cores = 1ull << replica_index;
      InstallInReplica(replica_index, page_va, *frame, info->perm);
      return VoidResult();
    }
    case PageInfo::State::kMapped: {
      if (!PermAllowsAccess(info->perm, access)) {
        return ErrCode::kFault;
      }
      // Mapped globally but missing in this core's replica: fill it locally.
      info->mapped_cores |= 1ull << replica_index;
      InstallInReplica(replica_index, page_va, info->pfn, info->perm);
      return VoidResult();
    }
  }
  return ErrCode::kFault;
}

uint64_t RadixVmMm::PtBytes() {
  uint64_t bytes = 0;
  for (int r = 0; r < options_.max_cores; ++r) {
    if (replicas_[r].pt != nullptr) {
      bytes += replicas_[r].pt->CountPtPages() * kPageSize;
    }
  }
  return bytes;
}

uint64_t RadixVmMm::MetaBytes() {
  uint64_t nodes = radix_nodes_.load(std::memory_order_relaxed);
  // Interior nodes and leaves have the same order of size; count both.
  return nodes * sizeof(RadixNode);
}

}  // namespace cortenmm
