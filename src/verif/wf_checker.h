// Runtime page-table well-formedness checker — the executable rendering of
// the paper's Figure 12 invariant (P2, §5.2): for any present PTE, it is
// either a leaf or points to a valid PT page one level down; plus the
// repository's additional structural invariants (descriptor levels agree,
// metadata marks only occupy absent slots, present_ptes counts match, no
// stale page is reachable).
//
// Property tests call this after every operation batch; it requires a
// quiesced address space (or the caller holding a whole-space transaction).
#ifndef SRC_VERIF_WF_CHECKER_H_
#define SRC_VERIF_WF_CHECKER_H_

#include <string>

#include "src/core/addr_space.h"

namespace cortenmm {

struct WfReport {
  bool ok = true;
  std::string first_error;
  uint64_t pt_pages = 0;
  uint64_t present_leaves = 0;
  uint64_t huge_leaves = 0;  // Present leaves at level >= 2.
  uint64_t meta_marks = 0;
  // Frames summed over present leaves: the reference the space's O(1)
  // resident counter (AddrSpace::ResidentPagesFast) must equal.
  uint64_t resident_pages = 0;

  void Fail(const std::string& error) {
    if (ok) {
      ok = false;
      first_error = error;
    }
  }
};

// Walks the entire page table of |space| and validates the invariants,
// including that the resident counter matches the frames the tree maps.
WfReport CheckWellFormed(AddrSpace& space);

// Frame-leak check for chaos runs. The caller snapshots
// BuddyAllocator::Instance().FreeFrameCount() (after FlushCpuCaches) before
// the run; once every address space created during the run is destroyed,
// CheckFrameLeaks drains the deferred-reclamation machinery (per-CPU buddy
// caches, LATR shootdown buffers, RCU callbacks) and compares. A shortfall
// means a frame allocated during the run was neither mapped nor returned —
// exactly the leak a botched OOM rollback would cause.
struct LeakReport {
  bool ok = true;
  uint64_t baseline_free = 0;
  uint64_t current_free = 0;
  int64_t leaked = 0;  // baseline - current; negative would mean a double free.
  // Frames still typed kCached after FlushCpuCaches drained every per-CPU
  // buddy cache: each one was parked in a cache but never made it back to a
  // free list (or was handed out without ResetForAlloc) — a typing leak even
  // when the free count balances.
  uint64_t stranded_cached = 0;
  // Anonymous frames with refcount zero after the drains: dead but never
  // returned to the buddy. A partially-freed huge run (some frames of an
  // order-9 block released, the rest forgotten) shows up here even when the
  // aggregate free count happens to balance.
  uint64_t stranded_anon = 0;
  // Free frames sitting on a free list of an arena that is not their home
  // node (by PFN range) after the drains. The NUMA router frees structurally
  // — RouteFree dispatches on NodeOfPfn — so any misplaced frame means a
  // free bypassed the router and corrupted node locality.
  uint64_t misplaced_home = 0;
};

LeakReport CheckFrameLeaks(uint64_t baseline_free_frames);

}  // namespace cortenmm

#endif  // SRC_VERIF_WF_CHECKER_H_
