#include "src/baseline/nros_mm.h"

#include <cassert>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/core/addr_space.h"  // DropRunRef
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/pt/pte.h"
#include "src/tlb/asid.h"
#include "src/tlb/gather.h"

namespace cortenmm {

NrosMm::NrosMm(const Options& options)
    : options_(options),
      asid_(AllocAsid()),
      va_alloc_(/*per_core=*/false),
      replicas_(new Replica[options.replicas]) {
  for (int i = 0; i < options_.replicas; ++i) {
    replicas_[i].pt = std::make_unique<PageTable>(options_.arch);
  }
}

NrosMm::~NrosMm() {
  Munmap(kUserVaBase, kUserVaCeiling - kUserVaBase);
  TlbSystem::Instance().DrainAll();
  active_cpus_.ForEach(
      [this](CpuId cpu) { TlbSystem::Instance().CpuTlb(cpu).InvalidateAsid(asid_); });
  FreeAsid(asid_);
}

PageTable& NrosMm::PageTableFor(CpuId cpu) {
  return *replicas_[ReplicaIndexFor(cpu)].pt;
}

void NrosMm::ApplyOp(Replica& replica, const LogOp& op) {
  PageTable& pt = *replica.pt;
  switch (op.kind) {
    case OpKind::kMap: {
      size_t frame_index = 0;
      for (Vaddr va = op.range.start; va < op.range.end; va += kPageSize, ++frame_index) {
        Pfn page = pt.root();
        bool path_ok = true;
        for (int level = kPtLevels; level > 1; --level) {
          uint64_t index = PtIndex(va, level);
          Pte pte = pt.LoadEntry(page, index);
          if (!PteIsPresent(pt.arch(), pte)) {
            Result<Pfn> child = pt.AllocPtPage(level - 1);
            if (!child.ok()) {
              // OOM while growing this replica: leave the page uninstalled.
              // The frame stays owned by the log record (munmap frees it from
              // there), so nothing leaks; accesses through this replica take
              // a fault until a later replay succeeds.
              FaultInjector::NoteSurvived();
              path_ok = false;
              break;
            }
            pt.StoreEntry(page, index, MakeTablePte(pt.arch(), *child));
            pte = pt.LoadEntry(page, index);
          }
          page = PtePfn(pt.arch(), pte);
        }
        if (!path_ok) {
          continue;
        }
        pt.StoreEntry(page, PtIndex(va, 1),
                      MakeLeafPte(pt.arch(), op.frames[frame_index], op.perm, 1));
      }
      break;
    }
    case OpKind::kUnmap: {
      pt.ForEachLeaf(op.range, [&pt](Vaddr va, Pte, int) {
        PageTable::WalkResult walk = pt.Walk(va);
        if (walk.present) {
          pt.StoreEntry(walk.pt_page, walk.index, kNullPte);
        }
      });
      break;
    }
    case OpKind::kProtect: {
      std::vector<std::pair<Vaddr, Pfn>> leaves;
      pt.ForEachLeaf(op.range, [&](Vaddr va, Pte pte, int) {
        leaves.emplace_back(va, PtePfn(pt.arch(), pte));
      });
      for (const auto& [va, pfn] : leaves) {
        PageTable::WalkResult walk = pt.Walk(va);
        if (walk.present) {
          pt.StoreEntry(walk.pt_page, walk.index, MakeLeafPte(pt.arch(), pfn, op.perm, 1));
        }
      }
      break;
    }
  }
}

void NrosMm::ApplyPendingLocked(Replica& replica) {
  uint64_t tail = log_tail_.load(std::memory_order_acquire);
  while (replica.applied < tail) {
    // Copy the op out: the vector may be reallocated by a concurrent append.
    LogOp op;
    {
      SpinGuard guard(log_lock_);
      op = log_[replica.applied];
    }
    ApplyOp(replica, op);
    ++replica.applied;
  }
}

void NrosMm::SyncReplica(int index) {
  Replica& replica = replicas_[index];
  if (replica.applied >= log_tail_.load(std::memory_order_acquire)) {
    return;
  }
  replica.lock.WriteLock();
  ApplyPendingLocked(replica);
  replica.lock.WriteUnlock();
}

void NrosMm::Append(LogOp op, CpuId cpu) {
  {
    SpinGuard guard(log_lock_);
    log_.push_back(std::move(op));
    log_tail_.store(log_.size(), std::memory_order_release);
  }
  // Flat-combining degenerate: the mutator applies its own replica now; other
  // replicas catch up on their next read miss — but never lag unboundedly.
  SyncReplica(ReplicaIndexFor(cpu));
  uint64_t tail = log_tail_.load(std::memory_order_acquire);
  for (int i = 0; i < options_.replicas; ++i) {
    if (tail - replicas_[i].applied > 32) {
      SyncReplica(i);
    }
  }
}

Result<Vaddr> NrosMm::MmapAnon(const MmapArgs& args) {
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

VoidResult NrosMm::MmapAnonFixed(Vaddr va, uint64_t len, Perm perm) {
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  // Eager backing: no demand paging in NrOS (paper Table 2).
  LogOp op;
  op.kind = OpKind::kMap;
  op.range = VaRange(va, va + len);
  op.perm = perm;
  op.frames.reserve(len >> kPageBits);
  for (uint64_t i = 0; i < (len >> kPageBits); ++i) {
    Result<Pfn> frame = BuddyAllocator::Instance().AllocZeroedFrame();
    if (!frame.ok()) {
      for (Pfn pfn : op.frames) {
        BuddyAllocator::Instance().FreeFrame(pfn);
      }
      return frame.error();
    }
    PhysMem::Instance().Descriptor(*frame).ResetForAlloc(FrameType::kAnon);
    op.frames.push_back(*frame);
  }
  Append(std::move(op), CurrentCpu());
  return VoidResult();
}

VoidResult NrosMm::Munmap(Vaddr va, uint64_t len) {
  ScopedOpTimer telemetry_timer(MmOp::kMunmap);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);

  // Collect the frames this unmap kills from the log's map records.
  std::vector<Pfn> dead_frames;
  {
    SpinGuard guard(log_lock_);
    for (LogOp& past : log_) {
      if (past.kind != OpKind::kMap || past.frames.empty() || !past.range.Overlaps(range)) {
        continue;
      }
      uint64_t first = past.range.start >> kPageBits;
      size_t keep = 0;
      for (size_t i = 0; i < past.frames.size(); ++i) {
        Vaddr page_va = (first + i) << kPageBits;
        if (past.frames[i] != kInvalidPfn && range.Contains(page_va)) {
          dead_frames.push_back(past.frames[i]);
          past.frames[i] = kInvalidPfn;
        }
      }
      (void)keep;
    }
  }

  LogOp op;
  op.kind = OpKind::kUnmap;
  op.range = range;
  Append(std::move(op), CurrentCpu());

  // Strict teardown: make every replica current before freeing frames.
  for (int i = 0; i < options_.replicas; ++i) {
    SyncReplica(i);
  }
  TlbGather gather;
  gather.AddRange(range);
  for (Pfn pfn : dead_frames) {
    gather.AddFrame(pfn);
  }
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, &DropRunRef);
  va_alloc_.Free(va, len);
  return VoidResult();
}

VoidResult NrosMm::Mprotect(Vaddr va, uint64_t len, Perm perm) {
  ScopedOpTimer telemetry_timer(MmOp::kMprotect);
  if (!IsAligned(va, kPageSize) || len == 0) {
    return ErrCode::kInval;
  }
  len = AlignUp(len, kPageSize);
  VaRange range(va, va + len);
  LogOp op;
  op.kind = OpKind::kProtect;
  op.range = range;
  op.perm = perm;
  Append(std::move(op), CurrentCpu());
  for (int i = 0; i < options_.replicas; ++i) {
    SyncReplica(i);
  }
  TlbGather gather;
  gather.AddRange(range);
  gather.Flush(asid_, active_cpus_, options_.tlb_policy, nullptr);
  return VoidResult();
}

VoidResult NrosMm::HandleFault(Vaddr va, Access access) {
  ScopedOpTimer telemetry_timer(MmOp::kFault);
  CountEvent(Counter::kPageFaults);
  CpuId cpu = CurrentCpu();
  NoteCpuActive(cpu);
  int index = ReplicaIndexFor(cpu);
  Replica& replica = replicas_[index];
  if (replica.applied < log_tail_.load(std::memory_order_acquire)) {
    SyncReplica(index);
  }
  // HandleFault contract: the fault resolves (kOk) only if the now-current
  // replica actually maps the page with sufficient permissions; a never-mapped
  // VA or a permission violation is a SEGV even when the replica was stale.
  replica.lock.ReadLock();
  PageTable::WalkResult walk = replica.pt->Walk(AlignDown(va, kPageSize));
  bool resolved = walk.present && PermAllowsAccess(PtePerm(replica.pt->arch(), walk.pte), access);
  replica.lock.ReadUnlock();
  return resolved ? VoidResult() : VoidResult(ErrCode::kFault);
}

uint64_t NrosMm::PtBytes() {
  uint64_t bytes = 0;
  for (int i = 0; i < options_.replicas; ++i) {
    bytes += replicas_[i].pt->CountPtPages() * kPageSize;
  }
  return bytes;
}

}  // namespace cortenmm
