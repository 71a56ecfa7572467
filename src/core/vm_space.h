// The memory-management "syscall" layer built on the transactional interface —
// the C++ rendering of the paper's Figure 8. Every entry point locks the
// affected range once and performs the whole operation (checks + state
// changes) atomically inside that transaction.
#ifndef SRC_CORE_VM_SPACE_H_
#define SRC_CORE_VM_SPACE_H_

#include <memory>

#include "src/core/addr_space.h"
#include "src/core/backing.h"
#include "src/ring/mm_op.h"

namespace cortenmm {

// Access (the fault-kind enum) lives in src/common/types.h.

class VmSpace {
 public:
  // Aborts loudly if the page-table root cannot be allocated; use Create for
  // the propagating path.
  explicit VmSpace(const AddrSpace::Options& options);
  // Adopts a pre-created page table (the fallible construction path).
  VmSpace(const AddrSpace::Options& options, PageTable pt);
  // Fallible construction: returns kNoMem instead of aborting when the
  // page-table root cannot be allocated.
  static Result<std::unique_ptr<VmSpace>> Create(const AddrSpace::Options& options);
  ~VmSpace();
  VmSpace(const VmSpace&) = delete;
  VmSpace& operator=(const VmSpace&) = delete;

  AddrSpace& addr_space() { return space_; }
  const AddrSpace& addr_space() const { return space_; }
  Asid asid() const { return space_.asid(); }

  // --- mmap family -----------------------------------------------------------

  // Anonymous private mapping at an allocator-chosen address (on-demand
  // paging: pages materialize on first touch).
  Result<Vaddr> MmapAnon(uint64_t len, Perm perm);
  // Anonymous private mapping at a fixed address (MAP_FIXED analog). Replaces
  // whatever was there.
  VoidResult MmapAnonAt(Vaddr va, uint64_t len, Perm perm);
  // Private file mapping: reads come from the page cache (COW on write).
  Result<Vaddr> MmapFilePrivate(SimFile* file, uint32_t first_page, uint64_t len, Perm perm);
  // Shared mapping of a file or of a kernel-named anonymous segment.
  Result<Vaddr> MmapShared(SimFile* object, uint32_t first_page, uint64_t len, Perm perm);

  VoidResult Munmap(Vaddr va, uint64_t len);
  VoidResult Mprotect(Vaddr va, uint64_t len, Perm perm);
  // Writes dirty pages of shared file mappings back (here: validates the
  // mapping and clears dirty bits; the page cache *is* the file).
  VoidResult Msync(Vaddr va, uint64_t len);

  // Intel MPK: pkey_mprotect(2) analog — tags the mapped pages of the range
  // with |pkey|; the MMU then enforces the space's PKRU on every access.
  VoidResult PkeyMprotect(Vaddr va, uint64_t len, int pkey);

  // --- Faults ------------------------------------------------------------------

  // The page-fault handler (Figure 8). Returns kFault for SEGV.
  VoidResult HandleFault(Vaddr va, Access access);

  // --- Fused batch execution (ROADMAP item 4) --------------------------------

  // Executes |n| ring ops as ONE transaction: one covering lock over the
  // batch's bounding range, all mutations inside it, one TlbGather flush when
  // the cursor unwinds. Ops run in array order, so a batch is observably
  // equivalent to the synchronous call sequence. Returns false — touching
  // nothing — when any op has no explicit fusable range; the caller then
  // falls back to per-op synchronous dispatch.
  bool TryExecuteFused(const MmSqe* sqes, MmCqe* cqes, size_t n);

  // --- Advanced semantics ------------------------------------------------------

  // Evicts resident exclusive anonymous pages in [va, va+len) to the swap
  // device. Returns the number of pages swapped out.
  Result<uint64_t> SwapOut(Vaddr va, uint64_t len);

  // fork(): duplicates every mapping into a new space; private writable pages
  // become copy-on-write in both parent and child (§4.3). Returns nullptr on
  // kNoMem; a partially-cloned child is torn down before returning, so the
  // parent is left exactly as it was (modulo COW-protected PTEs, which are
  // semantically unchanged).
  std::unique_ptr<VmSpace> Fork();

 private:
  // Fault resolution inside an existing transaction (|cursor| must cover the
  // faulting page). The huge-page rung only fires when the cursor also covers
  // the surrounding 2 MiB slot. |around_budget|, when non-null, allows the
  // demand-zero arm to fault-around: map up to *around_budget extra
  // neighbouring pages (decremented in place — a fused batch shares one
  // budget across its faults). The budget must have been obtained OUTSIDE
  // the transaction (MemPressureGovernor::FaultAroundBudget's contract).
  VoidResult HandleFaultLocked(RCursor& cursor, Vaddr page_va, Access access,
                               uint64_t* around_budget = nullptr);
  VoidResult FaultInPage(RCursor& cursor, Vaddr page_va, const Status& status,
                         Access access);
  // Maps up to |budget| additional not-present demand-zero pages around
  // |fault_va| inside the aligned fault-around window (clamped to what
  // |cursor| locked), stopping at the first page whose status differs from
  // the faulting page's. Returns the number mapped.
  uint64_t FaultAround(RCursor& cursor, Vaddr fault_va, const Status& status,
                       uint64_t budget);
  // options().fault_around_pages sanitized: 0 when disabled, otherwise a
  // power of two in [2, 512] — so the window never crosses a 2 MiB slot.
  uint32_t FaultAroundPages() const;
  // Huge-page policy (options().huge_pages): tries to resolve an anon fault by
  // installing a 2 MiB leaf over |huge_range| (which |cursor| must cover).
  // Returns true if the leaf was installed; false means "take the 4 KiB path"
  // — either the slot is not uniformly eligible or the order-9 allocation
  // failed (the fallback ladder's kNoMem rung, counted as huge_fallbacks).
  bool TryHugeFaultIn(RCursor& cursor, VaRange huge_range, const Status& status,
                      Access access);

  AddrSpace space_;
};

}  // namespace cortenmm

#endif  // SRC_CORE_VM_SPACE_H_
