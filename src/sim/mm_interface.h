// The facade every evaluated memory manager implements, so the benchmark
// harness and the simulated MMU can drive CortenMM (rw/adv), the Linux-style
// VMA baseline, RadixVM-style and NrOS-style managers uniformly.
//
// The facade carries the *complete* operation set of the paper's Table 2.
// Operations a manager does not implement default to kUnsupported (Fork to
// nullptr), so capability gaps are data — a bench probes the facade instead
// of downcasting to concrete manager types. This header deliberately depends
// only on common/ + the leaf types it hands out (PageTable, Asid, the ring
// descriptors); the CortenMM adapter lives in src/sim/corten_vm.h.
//
// Two calling conventions:
//
//  * Synchronous: MmapAnon / Munmap / Mprotect / ... return when the
//    operation is durable. MmapAnon takes an MmapArgs bundle — one entry
//    point for both allocator-chosen and fixed-address (MAP_FIXED analog)
//    placements.
//  * Asynchronous (ROADMAP item 4): callers enqueue MmSqe descriptors with
//    Submit, force them through with DrainBarrier, and collect per-op Status
//    with Reap. The default implementation routes each op through the
//    synchronous virtuals, so every backend is ring-conformant for free;
//    CortenMM overrides ExecuteBatch to fuse compatible ops into one RCursor
//    transaction with one TlbGather flush.
#ifndef SRC_SIM_MM_INTERFACE_H_
#define SRC_SIM_MM_INTERFACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/common/cpu.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/ring/mm_op.h"
#include "src/tlb/tlb.h"

namespace cortenmm {

class MmRing;
class PageTable;
class SimFile;

// Argument bundle for anonymous mappings. Default-constructed fields give
// mmap(NULL, len, perm): allocator-chosen placement.
struct MmapArgs {
  uint64_t len = 0;
  Perm perm{};
  // MAP_FIXED analog: map exactly at |va| (page-aligned) instead of letting
  // the VA allocator choose. The facade still returns the address, so both
  // forms have one result shape.
  bool fixed = false;
  Vaddr va = 0;

  static MmapArgs At(Vaddr va, uint64_t len, Perm perm) {
    MmapArgs args;
    args.len = len;
    args.perm = perm;
    args.fixed = true;
    args.va = va;
    return args;
  }
};

class MmInterface {
 public:
  // Out-of-line: the ring member is only forward-declared here.
  MmInterface();
  virtual ~MmInterface();

  virtual const char* name() const = 0;
  virtual Asid asid() const = 0;

  // The page table the simulated MMU on |cpu| walks. RadixVM returns a
  // per-core replica; everyone else returns the shared tree.
  virtual PageTable& PageTableFor(CpuId cpu) = 0;

  virtual void NoteCpuActive(CpuId cpu) = 0;

  // --- MM operations (all managers) ----------------------------------------
  virtual Result<Vaddr> MmapAnon(const MmapArgs& args) = 0;
  // Convenience form for the common allocator-chosen case. Overriders of the
  // MmapArgs entry point must re-expose it with `using MmInterface::MmapAnon;`.
  Result<Vaddr> MmapAnon(uint64_t len, Perm perm) {
    MmapArgs args;
    args.len = len;
    args.perm = perm;
    return MmapAnon(args);
  }
  virtual VoidResult Munmap(Vaddr va, uint64_t len) = 0;
  virtual VoidResult Mprotect(Vaddr va, uint64_t len, Perm perm) = 0;
  // Software-delivered page fault. Contract (enforced by the conformance
  // suite): kOk when the faulting VA lies in a mapping whose permissions
  // allow |access| (the manager must make the access succeed); kFault both
  // for VAs outside any mapping and for permission violations (the simulated
  // kernel delivers SIGSEGV); never any third error code for a well-formed VA.
  virtual VoidResult HandleFault(Vaddr va, Access access) = 0;

  // --- Asynchronous ring (ROADMAP item 4) ----------------------------------
  // Enqueues |sqe| on the calling CPU's submission ring. False = backpressure
  // (kDepth unreaped completions); the op was not queued. Per-CPU FIFO
  // ordering; cross-CPU ops may interleave (io_uring discipline).
  virtual bool Submit(const MmSqe& sqe);
  // Pops the oldest completion for the calling CPU; false when none is ready.
  virtual bool Reap(MmCqe* out);
  // Returns once every op the calling CPU submitted has a completion posted
  // (this thread may become the flat-combining drainer for ALL CPUs), then
  // pumps the calling CPU's lazy TLB shootdowns (TlbSystem::Tick).
  virtual void DrainBarrier();
  // Executes |n| ring ops and fills |n| completions (cqes[i].user_data is
  // pre-set; implementations must preserve it). The drain pass hands over
  // either a single op or a fused group within one lock subtree. The default
  // dispatches each op through the synchronous virtuals above.
  virtual void ExecuteBatch(const MmSqe* sqes, MmCqe* cqes, size_t n);

  // --- MM operations (capability-gated, paper Table 2) ---------------------
  // Unimplemented capabilities uniformly return kUnsupported — callers probe
  // with `err == ErrCode::kUnsupported`, never with manager-type checks.
  // Private file mapping: reads come from the page cache (COW on write).
  virtual Result<Vaddr> MmapFilePrivate(SimFile* file, uint32_t first_page,
                                        uint64_t len, Perm perm) {
    return ErrCode::kUnsupported;
  }
  // Shared mapping of a file or of a kernel-named anonymous segment.
  virtual Result<Vaddr> MmapShared(SimFile* object, uint32_t first_page,
                                   uint64_t len, Perm perm) {
    return ErrCode::kUnsupported;
  }
  // Writes dirty pages of shared file mappings back.
  virtual VoidResult Msync(Vaddr va, uint64_t len) { return ErrCode::kUnsupported; }
  // Intel MPK: pkey_mprotect(2) analog.
  virtual VoidResult PkeyMprotect(Vaddr va, uint64_t len, int pkey) {
    return ErrCode::kUnsupported;
  }
  // Evicts resident exclusive anonymous pages to the swap device; returns the
  // number of pages swapped out.
  virtual Result<uint64_t> SwapOut(Vaddr va, uint64_t len) {
    return ErrCode::kUnsupported;
  }
  // fork(): duplicates every mapping into a new manager of the same kind;
  // private writable pages become COW in both. nullptr when unsupported.
  virtual std::unique_ptr<MmInterface> Fork() { return nullptr; }

  // --- Capability flags (paper Table 2) -----------------------------------
  virtual bool demand_paging() const { return true; }

  // Intel MPK: the PKRU value the MMU enforces (0 = all keys permitted).
  virtual uint32_t Pkru() const { return 0; }

  // --- Accounting (Figure 22) ----------------------------------------------
  virtual uint64_t PtBytes() { return 0; }
  virtual uint64_t MetaBytes() { return 0; }

 protected:
  // The lazily-created ring frontend shared by the default Submit/Reap/
  // DrainBarrier. Its executor calls ExecuteBatch on this manager, so a
  // backend only overrides ExecuteBatch to change how batches execute.
  MmRing& ring();

 private:
  std::once_flag ring_once_;
  std::unique_ptr<MmRing> ring_;
};

}  // namespace cortenmm

#endif  // SRC_SIM_MM_INTERFACE_H_
