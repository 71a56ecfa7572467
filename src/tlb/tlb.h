// Per-CPU software TLB. The simulated MMU consults it before walking the page
// table; the MM layers must invalidate it on unmap/protect, which is where the
// paper's TLB-shootdown optimizations (§4.5) enter the picture.
//
// The TLB is a small set-associative cache of leaf translations tagged by
// ASID (one per address space). A tiny spin lock per TLB makes remote
// invalidation safe; on real hardware that role is played by IPIs.
#ifndef SRC_TLB_TLB_H_
#define SRC_TLB_TLB_H_

#include <cstdint>
#include <optional>

#include "src/common/types.h"
#include "src/sync/spinlock.h"

namespace cortenmm {

using Asid = uint16_t;

struct TlbEntry {
  bool valid = false;
  Asid asid = 0;
  int level = 1;        // 1 = 4K, 2 = 2M, 3 = 1G translation.
  Vaddr va_base = 0;    // Aligned to the level's span.
  uint64_t pte_raw = 0;
  uint64_t stamp = 0;   // For LRU replacement within a set.
};

class Tlb {
 public:
  static constexpr int kSets = 64;
  static constexpr int kWays = 4;

  // Returns the cached leaf PTE raw value if present.
  std::optional<TlbEntry> Lookup(Asid asid, Vaddr va);
  void Insert(Asid asid, Vaddr va, uint64_t pte_raw, int level);

  void InvalidateRange(Asid asid, VaRange range);
  // Invalidates every entry of |asid| intersecting any of |ranges| under one
  // lock hold. Only the sets the batch can occupy are probed: set 0 (every
  // 2M/1G entry) plus the set of each 4K page in the ranges. A batch of
  // kSets pages or more touches every set anyway and sweeps the whole TLB
  // (Linux's tlb_single_page_flush_ceiling trade), so the cost of a flush
  // grows with the pages it covers, as invlpg's does, up to one full pass.
  void InvalidateRanges(Asid asid, const VaRange* ranges, size_t num_ranges);
  void InvalidateAsid(Asid asid);
  void InvalidateAll();

  uint64_t lookups() const { return lookups_; }
  uint64_t hits() const { return hits_; }

 private:
  static int SetOf(Vaddr va) { return (va >> kPageBits) & (kSets - 1); }
  // Entries are filed under the set of their base page. A 2M base is 512-page
  // aligned (and a 1G base more so), so every huge entry lives in set 0.
  static_assert((PtEntrySpan(2) >> kPageBits) % kSets == 0,
                "huge entries must all index set 0");
  static_assert(kSets <= 64, "InvalidateRanges keeps its set mask in one word");

  SpinLock lock_;
  TlbEntry sets_[kSets][kWays];
  uint64_t clock_ = 0;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
};

}  // namespace cortenmm

#endif  // SRC_TLB_TLB_H_
