// TlbGather — mmu_gather-style shootdown batching (Linux idiom applied to the
// paper's §4.5 TLB coordination). A transaction that touches several
// non-adjacent pages used to either issue one shootdown per page or collapse
// everything into a bounding box covering untouched memory in between. The
// gather instead accumulates up to kMaxRanges discrete (range, dead-frame)
// records, coalescing adjacent and overlapping ranges as they arrive, and
// submits them all through one TlbSystem::ShootdownBatch — one invalidation
// sweep per target CPU, one LATR entry per batch.
//
// Past kMaxRanges the gather degenerates to a single full-ASID flush (the
// same escape hatch Linux takes when a munmap spans too many VMAs): precision
// no longer pays for itself once the batch would invalidate a large fraction
// of a 256-entry TLB anyway.
//
// Not thread-safe: one gather belongs to one transaction (an RCursor or a
// baseline operation) and is flushed before the transaction publishes.
#ifndef SRC_TLB_GATHER_H_
#define SRC_TLB_GATHER_H_

#include <cassert>
#include <cstddef>

#include "src/common/small_vec.h"
#include "src/common/types.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {

class TlbGather {
 public:
  // Distinct ranges a batch may carry before falling back to a full-ASID
  // flush. Chosen so a transaction unmapping 16 sparse pages still flushes
  // precisely (the ablation workload), while anything larger — e.g. a fork
  // demoting hundreds of leaves to COW — takes the one-sweep fallback.
  static constexpr size_t kMaxRanges = 16;

  TlbGather() = default;
  TlbGather(TlbGather&&) = default;
  TlbGather& operator=(TlbGather&&) = default;
  TlbGather(const TlbGather&) = delete;
  TlbGather& operator=(const TlbGather&) = delete;

  // Records that |range| must be invalidated on flush. Coalesces with any
  // already-gathered range it overlaps or abuts; past kMaxRanges distinct
  // ranges the gather switches to full-ASID mode and stops tracking ranges.
  void AddRange(VaRange range);

  // Records a run whose last mapping died inside a gathered range: one
  // record per dead LEAF, whatever its order — a 2 MiB unmap contributes one
  // order-9 record, not 512 order-0 ones. The run is released (via the freer
  // passed to Flush) only after every target's invalidation — under LATR,
  // only after the last lazy ack.
  void AddRun(PageRun run) {
    assert(run.aligned());
    runs_.push_back(run);
  }

  // Order-0 convenience for the base-page paths.
  void AddFrame(Pfn pfn) { AddRun(PageRun(pfn, 0)); }

  // Submits the accumulated batch as one ShootdownBatch and resets the
  // gather. No-op when nothing was gathered (a read-only or rolled-back
  // transaction flushes nothing).
  void Flush(Asid asid, const CpuMask& mask, TlbPolicy policy, RunFreer freer);

  bool empty() const { return ranges_.empty() && runs_.empty() && !full_flush_; }
  bool full_flush() const { return full_flush_; }
  size_t range_count() const { return ranges_.size(); }
  const VaRange* ranges() const { return ranges_.begin(); }

 private:
  SmallVec<VaRange, kMaxRanges> ranges_;  // Sorted by start, pairwise disjoint.
  // Inline for the common small transaction (a COW fault frees one run, a
  // 16 KiB munmap four), so its flush never touches the heap.
  SmallVec<PageRun, 16> runs_;
  bool full_flush_ = false;
};

}  // namespace cortenmm

#endif  // SRC_TLB_GATHER_H_
