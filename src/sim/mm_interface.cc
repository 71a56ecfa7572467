#include "src/sim/mm_interface.h"

#include "src/ring/mm_ring.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {

MmInterface::MmInterface() = default;
MmInterface::~MmInterface() = default;

MmRing& MmInterface::ring() {
  std::call_once(ring_once_, [this] {
    ring_ = std::make_unique<MmRing>(
        [this](const MmSqe* sqes, MmCqe* cqes, size_t n) {
          ExecuteBatch(sqes, cqes, n);
        });
  });
  return *ring_;
}

bool MmInterface::Submit(const MmSqe& sqe) { return ring().Submit(sqe); }

bool MmInterface::Reap(MmCqe* out) { return ring().Reap(out); }

void MmInterface::DrainBarrier() {
  ring().DrainBarrier();
  // Kernel-exit analog: the CPU acknowledges the lazy shootdowns addressed to
  // it before returning to the submitter. Without it a CPU that only submits
  // never ticks (ticks otherwise come from MmuSim::Access), its LATR entries
  // hold their dead frames forever, and a VA it re-maps can still hit a
  // stale translation left by another CPU's drain.
  TlbSystem::Instance().Tick(CurrentCpu());
}

// Reference semantics for every opcode: one synchronous facade call per op.
// Backends that fuse (CortenMM) must be observably equivalent to this loop
// for any single-CPU submission sequence — the ring conformance suite checks
// exactly that.
void MmInterface::ExecuteBatch(const MmSqe* sqes, MmCqe* cqes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const MmSqe& sqe = sqes[i];
    MmCqe& cqe = cqes[i];
    cqe.err = ErrCode::kOk;
    cqe.va = 0;
    cqe.count = 0;
    switch (sqe.op) {
      case MmOpCode::kNop:
        break;
      case MmOpCode::kMmapAnon: {
        MmapArgs args;
        args.len = sqe.len;
        args.perm = sqe.perm;
        Result<Vaddr> r = MmapAnon(args);
        if (r.ok()) {
          cqe.va = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
      case MmOpCode::kMmapAnonFixed: {
        Result<Vaddr> r = MmapAnon(MmapArgs::At(sqe.va, sqe.len, sqe.perm));
        if (r.ok()) {
          cqe.va = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
      case MmOpCode::kMunmap: {
        VoidResult r = Munmap(sqe.va, sqe.len);
        if (!r.ok()) cqe.err = r.error();
        break;
      }
      case MmOpCode::kMprotect: {
        VoidResult r = Mprotect(sqe.va, sqe.len, sqe.perm);
        if (!r.ok()) cqe.err = r.error();
        break;
      }
      case MmOpCode::kFault: {
        VoidResult r = HandleFault(sqe.va, sqe.access);
        if (!r.ok()) cqe.err = r.error();
        break;
      }
      case MmOpCode::kMmapFilePrivate: {
        Result<Vaddr> r = MmapFilePrivate(sqe.file, sqe.first_page, sqe.len, sqe.perm);
        if (r.ok()) {
          cqe.va = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
      case MmOpCode::kMmapShared: {
        Result<Vaddr> r = MmapShared(sqe.file, sqe.first_page, sqe.len, sqe.perm);
        if (r.ok()) {
          cqe.va = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
      case MmOpCode::kMsync: {
        VoidResult r = Msync(sqe.va, sqe.len);
        if (!r.ok()) cqe.err = r.error();
        break;
      }
      case MmOpCode::kPkeyMprotect: {
        VoidResult r = PkeyMprotect(sqe.va, sqe.len, sqe.pkey);
        if (!r.ok()) cqe.err = r.error();
        break;
      }
      case MmOpCode::kSwapOut: {
        Result<uint64_t> r = SwapOut(sqe.va, sqe.len);
        if (r.ok()) {
          cqe.count = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
    }
  }
}

}  // namespace cortenmm
