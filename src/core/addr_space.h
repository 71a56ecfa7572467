// CortenMM's transactional interface for programming the MMU — the C++
// rendering of the paper's Figure 4.
//
//   AddrSpace::Lock(range) -> RCursor
//
// runs one of the two locking protocols (§4.1):
//
//   kRw  (CortenMM_rw):  hand-over-hand BRAVO-phase-fair *read* locks from the
//        root down to the "covering PT page" (the lowest PT page whose span
//        contains the whole range), which is *write*-locked. Descendants need
//        no locks: any conflicting transaction must pass through the covering
//        page.
//   kAdv (CortenMM_adv): lock-free traversal to the covering PT page inside an
//        RCU read-side critical section, then an MCS lock on the covering page
//        (retrying if it went stale, i.e. raced with an unmap), then a preorder
//        DFS locking every existing descendant. Unmapped PT pages are marked
//        stale and retired to the RCU monitor (Figure 7).
//
// The returned RCursor is the only way to manipulate the page table: any
// combination of Query / Map / Mark / Unmap (plus the Protect extension)
// executes atomically within the locked range. Destroying the cursor flushes
// TLBs for the mutated sub-ranges, disposes of unmapped frames according to
// the shootdown policy, and releases the locks in reverse acquisition order.
#ifndef SRC_CORE_ADDR_SPACE_H_
#define SRC_CORE_ADDR_SPACE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/small_vec.h"

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/core/status.h"
#include "src/core/va_alloc.h"
#include "src/pt/page_table.h"
#include "src/sync/bravo.h"
#include "src/sync/cna_lock.h"
#include "src/tlb/gather.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {

enum class Protocol {
  kRw,   // CortenMM_rw
  kAdv,  // CortenMM_adv
};

const char* ProtocolName(Protocol protocol);

class AddrSpace;

class RCursor {
 public:
  RCursor(RCursor&& other) noexcept;
  RCursor& operator=(RCursor&&) = delete;
  RCursor(const RCursor&) = delete;
  RCursor& operator=(const RCursor&) = delete;

  // Releases all locks (reverse order) and performs the deferred TLB
  // shootdown / frame reclamation for everything this transaction unmapped.
  ~RCursor();

  const VaRange& range() const { return range_; }

  // --- Basic operations (paper Figure 4). All addresses/ranges must be page
  // --- aligned and contained in range(); violations return/assert kInval.

  // Returns the status of the virtual page at |addr|.
  Status Query(Vaddr addr);

  // Maps physical frame |pfn| at |addr| with |perm| (4 KiB leaf). Any prior
  // virtually-allocated mark on the page is consumed (a Swapped mark's block
  // reference with it). Increments the frame's mapcount and records the
  // reverse mapping.
  VoidResult Map(Vaddr addr, Pfn pfn, Perm perm);

  // Maps a naturally-aligned huge leaf (level 2 = 2 MiB, level 3 = 1 GiB).
  VoidResult MapHuge(Vaddr addr, Pfn pfn, Perm perm, int level);

  // Sets every page in |sub| to the virtually-allocated |status| (which must
  // not be kMapped). Large aligned spans are represented by a single mark on
  // an upper-level slot (§3.3's on-demand PTE creation). Existing mappings in
  // |sub| are unmapped first and overwritten Swapped marks give their blocks
  // back. Marking kInvalid erases marks only. A Swapped |status| takes over
  // the caller's block references.
  VoidResult Mark(VaRange sub, const Status& status);

  // Unmaps |sub|: clears leaf PTEs and metadata marks (releasing the blocks of
  // Swapped marks), removes fully-covered PT pages (stale + RCU-retire under
  // kAdv), and queues the frames whose last mapping died for reclamation
  // after the TLB shootdown.
  VoidResult Unmap(VaRange sub);

  // Extension: rewrites permissions of every mapped page and every mark in
  // |sub|. COW marks are preserved (hardware write stays off for COW pages).
  VoidResult Protect(VaRange sub, Perm perm);

  // Pre-materializes every PT page a Mark/Unmap/Protect over |sub| could
  // allocate (splitting huge leaves and pushing marks down along the partially
  // covered boundary) without changing what any page maps — EnsureChild is
  // semantics-preserving. Afterwards those ops over |sub| cannot hit kNoMem;
  // they run it first themselves, which makes them all-or-nothing. It is
  // public for callers that must commit an outside side effect only once the
  // op can no longer fail: SwapOut writes the swap block between Prepare and
  // its Swapped Mark. |for_marks| also materializes children of absent
  // unmarked boundary slots, which a non-invalid Mark writes into. On kNoMem
  // the space is unchanged except for extra (empty or equivalently-marked) PT
  // pages. Callers validate |sub| first; the fast path skips re-validation.
  VoidResult Prepare(VaRange sub, bool for_marks) {
    // A leaf-level covering page can never allocate: every page-aligned slot
    // under it is fully covered, so the destructive walk only rewrites PTEs
    // and metadata in place. This is the common case for small transactions
    // and keeps the reserve pass off their critical path.
    if (covering_level_ <= 1) {
      return VoidResult();
    }
    return PrepareSlow(sub, for_marks);
  }

  // Intel MPK (x86-64): tags every mapped page in |sub| with protection key
  // |pkey| (0..15). Enforcement happens in the MMU against the space's PKRU.
  VoidResult SetPkey(VaRange sub, int pkey);

  // Rewrites the leaf PTE of the 4 KiB mapped page at |addr| with exactly
  // |perm| (no COW preservation). Used by the page-fault handler to resolve
  // COW in place when this space is the sole mapper, and by fork to demote
  // parent pages to copy-on-write. Refcounts/mapcounts are untouched.
  VoidResult SetLeafPerm(Vaddr addr, Perm perm);

  // fork support: clones every mapping and mark of this cursor's range into
  // |child| (which must cover the same range of a fresh address space) in one
  // page-table-shaped pass: whole PT pages are copied level by level instead
  // of re-walking from the root per page. Private anonymous pages become
  // copy-on-write in *both* spaces; file/shared pages are shared as-is;
  // swap blocks gain a reference. This is the address-space enumeration the
  // paper calls CortenMM's worst case (Figure 20).
  VoidResult CloneInto(RCursor& child);

  // Enumerates the status of |sub| as maximal runs of identical status,
  // invoking visit(run_range, status) for every non-invalid run. Mapped pages
  // are reported page-by-page (their pfn differs).
  void ForEachStatus(VaRange sub,
                     const std::function<void(VaRange, const Status&)>& visit);

 private:
  friend class AddrSpace;

  struct RwPathEntry {
    Pfn pfn;
    BravoRwLock::ReadCookie cookie;
  };
  struct AdvLockedPage {
    Pfn pfn;
    CnaNode* node;
  };

  RCursor(AddrSpace* space, VaRange range);

  // ---

  // Protocol bodies (implemented in addr_space.cc).
  void AcquireRw();
  void AcquireAdv();
  void AdvDfsLockSubtree(Pfn page, int level);
  void Release();

  // --- Op helpers (rcursor.cc) ---
  PteMetaArray* MetaArrayOf(Pfn pt_page, bool create);
  PteMeta LoadMeta(Pfn pt_page, uint64_t index);
  void StoreMeta(Pfn pt_page, uint64_t index, const PteMeta& meta);
  // Erases a mark, dropping the swap-block refs a Swapped mark holds (I4).
  void ClearMark(Pfn pt_page, int level, uint64_t index);

  // Ensures the slot |index| of |pt_page| (level |level| > 1) holds a child
  // table, pushing down any metadata mark or splitting any huge leaf.
  Result<Pfn> EnsureChild(Pfn pt_page, int level, uint64_t index);
  // Splits the huge leaf at the slot into a full child table of smaller leaves.
  Result<Pfn> SplitLeaf(Pfn pt_page, int level, uint64_t index);
  // Pushes a metadata mark at (pt_page, index) down into child |child|.
  void PushDownMark(Pfn pt_page, int level, uint64_t index, Pfn child);

  VoidResult CloneSubtree(RCursor& child, Pfn parent_page, Pfn child_page, int level);

  VoidResult PrepareSlow(VaRange sub, bool for_marks);
  VoidResult ReserveIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub,
                       bool for_marks);
  void UnmapIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub);
  VoidResult MarkIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub,
                    const Status& status);
  void ProtectIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub, Perm perm);

  // Full-mm teardown (Linux's exit_mmap with a fullmm tlb_gather). Only
  // ~AddrSpace may call it, on its whole-space cursor, once no other thread
  // can reach the space. One synchronous full-ASID shootdown over the active
  // CPUs comes first, then one walk drops each present leaf's mapping and
  // frame reference inline (one RMW per frame on its refs word) and erases
  // every mark through ClearMark. It gathers nothing, tracks no range, leaves
  // PTEs and present counts as they are and sets the resident count to 0
  // once: the PageTable destructor frees the PT pages whole, with no stale
  // mark and no RCU retire, because no lock-free walker can reach a dead
  // space's tree.
  void TearDownFullMm();
  void TearDownIn(Pfn pt_page, int level);
  void StatusIn(Pfn pt_page, int level, Vaddr page_base, VaRange sub,
                const std::function<void(VaRange, const Status&)>& visit);

  // Detaches the child PT page at (pt_page, index): clears the PTE, and under
  // kAdv marks the subtree stale, unlocks it and retires it to the RCU
  // monitor; under kRw frees it immediately (readers hold the covering lock).
  void RemoveChildTable(Pfn pt_page, int level, uint64_t index);

  void AdvUnlockAndForget(Pfn pfn);
  void NoteLocked(Pfn pfn, int level);
  void ClearLeaf(Pfn pt_page, int level, uint64_t index, Vaddr va);
  // Records a mutated sub-range for the destructor's shootdown. The gather
  // keeps discrete ranges (coalescing neighbors) instead of one bounding box,
  // so a sparse transaction no longer invalidates everything in between.
  void NoteFlush(VaRange range) { gather_.AddRange(range); }

  AddrSpace* space_;
  VaRange range_;
  bool engaged_ = true;

  Pfn covering_ = kInvalidPfn;
  int covering_level_ = 0;

  // kRw state: read-locked ancestors, in acquisition order.
  SmallVec<RwPathEntry, 4> rw_path_;

  // kAdv state: every locked PT page in acquisition order. MCS nodes come
  // from the per-thread CnaNodePool so their addresses are stable while
  // enqueued and no transaction pays a heap allocation for them.
  SmallVec<AdvLockedPage, 16> adv_locked_;

  // Deferred TLB flush + frame reclamation (mmu_gather-style batch).
  TlbGather gather_;

  int acquire_retries_ = 0;
  // Leaf pages (un)mapped under this cursor; reported to the telemetry trace
  // ring on release as one kPagesTouched event per transaction.
  uint64_t pages_touched_ = 0;
};

class AddrSpace {
 public:
  struct Options {
    Arch arch = Arch::kX86_64;
    Protocol protocol = Protocol::kAdv;
    TlbPolicy tlb_policy = TlbPolicy::kEarlyAck;
    // Per-core virtual address allocator (§4.5 optimization); the Fig. 16
    // ablation adv_base disables it.
    bool per_core_va = true;
    // Transparent huge pages: the fault path installs a 2 MiB leaf when the
    // faulting region is huge-aligned, uniformly virtually-allocated anon,
    // and an order-9 run is available — falling back to 4 KiB on kNoMem.
    bool huge_pages = false;
    // Fault-around: a demand-zero fault also maps up to this many
    // neighbouring not-present pages of the same VMA, in the same
    // transaction, within the aligned window of this many pages around the
    // fault. 0 or 1 disables it (the default — speculative mappings change
    // resident-set accounting, so workloads opt in). Values are rounded down
    // to a power of two and capped at 512 so a window can never cross a
    // 2 MiB slot. Around-mapped pages start with the young bit clear and
    // count against the tenant's resident limit via
    // MemPressureGovernor::FaultAroundBudget.
    uint32_t fault_around_pages = 0;
  };

  // Aborts loudly if the page-table root cannot be allocated; OOM-propagating
  // callers create the PageTable via PageTable::Create and use the second
  // overload.
  explicit AddrSpace(const Options& options);
  // Adopts a pre-created page table (the fallible construction path).
  AddrSpace(const Options& options, PageTable pt);
  // Tears the space down in one full-mm pass (RCursor::TearDownFullMm). No
  // other thread may still reach the space.
  ~AddrSpace();
  AddrSpace(const AddrSpace&) = delete;
  AddrSpace& operator=(const AddrSpace&) = delete;

  // The transactional interface (paper Figure 4, L10). The only way to
  // program this address space's MMU state.
  RCursor Lock(VaRange range);

  const Options& options() const { return options_; }
  Asid asid() const { return asid_; }
  PageTable& page_table() { return pt_; }
  const PageTable& page_table() const { return pt_; }

  // Virtual address allocation (per-core when enabled).
  Result<Vaddr> AllocVa(uint64_t len, uint64_t align = kPageSize) {
    return va_alloc_.Alloc(len, align);
  }
  void FreeVa(Vaddr va, uint64_t len) { va_alloc_.Free(va, len); }

  // CPU residency for TLB shootdowns. Read-mostly: the simulated MMU calls
  // this on every access, so avoid the atomic RMW once the bit is set.
  void NoteCpuActive(CpuId cpu) {
    if (!active_cpus_.Test(cpu)) {
      active_cpus_.Set(cpu);
    }
  }
  const CpuMask& active_cpus() const { return active_cpus_; }

  // Submits everything |gather| accumulated as one batched shootdown on the
  // active CPUs (per the configured policy) and resets the gather. The only
  // flush path: cursors gather, then flush on destruction.
  void TlbFlush(TlbGather& gather);

  // Intel MPK: the per-address-space PKRU register (2 bits per key:
  // bit 2k = access-disable, bit 2k+1 = write-disable).
  uint32_t pkru() const { return pkru_.load(std::memory_order_acquire); }
  void set_pkru(uint32_t value) { pkru_.store(value, std::memory_order_release); }
  static constexpr uint32_t PkruAccessDisable(int pkey) { return 1u << (2 * pkey); }
  static constexpr uint32_t PkruWriteDisable(int pkey) { return 1u << (2 * pkey + 1); }

  // Memory-overhead accounting (Figure 22): PT pages and metadata bytes.
  uint64_t PtBytes() const;
  uint64_t MetaBytes() const { return meta_bytes_.load(std::memory_order_relaxed); }
  void AddMetaBytes(int64_t delta) {
    meta_bytes_.fetch_add(static_cast<uint64_t>(delta), std::memory_order_relaxed);
  }

  // Exact resident-set size, maintained by the cursor on every leaf install/
  // clear. O(1), readable without the space's locks — this is what reclaim's
  // per-tenant limit enforcement polls on every fault.
  uint64_t ResidentPagesFast() const {
    return resident_pages_.load(std::memory_order_relaxed);
  }
  void AddResidentPages(int64_t delta) {
    resident_pages_.fetch_add(static_cast<uint64_t>(delta), std::memory_order_relaxed);
  }

 private:
  friend class RCursor;

  Options options_;
  Asid asid_;
  PageTable pt_;
  VaAllocator va_alloc_;
  CpuMask active_cpus_;
  std::atomic<uint32_t> pkru_{0};
  std::atomic<uint64_t> meta_bytes_{0};
  std::atomic<uint64_t> resident_pages_{0};
  // PT pages RemoveChildTable handed to the RCU monitor: only a space that
  // retired some needs a grace period when it dies.
  std::atomic<uint64_t> rcu_retired_pt_pages_{0};
};

// Drops one reference on a data frame, returning it to the buddy allocator
// when the last owner disappears.
void DropFrameRef(Pfn pfn);
// Adds an owner reference.
void AddFrameRef(Pfn pfn);
// Drops one reference on every frame of |run|. If the whole run dies at once
// (the common case for a huge leaf that was never split or shared) it goes
// back to the buddy as ONE block; frames that die while others survive are
// freed individually. Used as the shootdown RunFreer.
void DropRunRef(PageRun run);
// DropRunRef that also drops |maps| mappings of each frame in the same RMW:
// the full-mm teardown's one update per frame.
void DropRunRefs(PageRun run, uint32_t maps);

}  // namespace cortenmm

#endif  // SRC_CORE_ADDR_SPACE_H_
