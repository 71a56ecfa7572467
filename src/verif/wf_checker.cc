#include "src/verif/wf_checker.h"

#include <string>

#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {
namespace {

void CheckPtPage(AddrSpace& space, Pfn page, int level, WfReport* report) {
  PhysMem& mem = PhysMem::Instance();
  PageTable& pt = space.page_table();
  ++report->pt_pages;

  PageDescriptor& desc = mem.Descriptor(page);
  if (desc.type.load(std::memory_order_relaxed) != FrameType::kPageTable) {
    report->Fail("PT page " + std::to_string(page) + " descriptor type is not kPageTable");
    return;
  }
  if (desc.pt_level != level) {
    report->Fail("PT page " + std::to_string(page) + " level mismatch: descriptor says " +
                 std::to_string(desc.pt_level) + ", tree position says " +
                 std::to_string(level));
  }
  if (desc.stale.load(std::memory_order_relaxed)) {
    report->Fail("stale PT page " + std::to_string(page) + " still reachable");
  }

  PteMetaArray* meta = desc.meta.load(std::memory_order_acquire);
  uint16_t present_count = 0;
  for (uint64_t i = 0; i < kPtesPerPage; ++i) {
    Pte pte = pt.LoadEntry(page, i);
    bool present = PteIsPresent(pt.arch(), pte);
    bool marked = meta != nullptr && !meta->entries[i].empty();
    if (present) {
      ++present_count;
      // I2: a mark never coexists with a present PTE in the same slot.
      if (marked) {
        report->Fail("slot " + std::to_string(i) + " of PT page " + std::to_string(page) +
                     " is both present and marked");
      }
      if (PteIsLeaf(pt.arch(), pte, level)) {
        ++report->present_leaves;
        Pfn frame = PtePfn(pt.arch(), pte);
        uint64_t frames = PtEntrySpan(level) >> kPageBits;
        report->resident_pages += frames;
        if (!mem.ValidPfn(frame) || !mem.ValidPfn(frame + frames - 1)) {
          report->Fail("leaf PTE points outside physical memory");
        } else if (frames > 1) {
          // Multi-size invariants: a level-N leaf maps a naturally-aligned
          // 2^order run of live frames, each individually mapcounted.
          ++report->huge_leaves;
          if (!IsAligned(frame, frames)) {
            report->Fail("huge leaf at level " + std::to_string(level) +
                         " maps pfn " + std::to_string(frame) +
                         " which is not aligned to its run size");
          }
          for (uint64_t f = 0; f < frames; ++f) {
            PageDescriptor& fd = mem.Descriptor(frame + f);
            FrameType type = fd.type.load(std::memory_order_relaxed);
            if (type == FrameType::kFree || type == FrameType::kCached) {
              report->Fail("huge leaf maps frame " + std::to_string(frame + f) +
                           " which is typed free/cached");
              break;
            }
            if (fd.mapcount() == 0) {
              report->Fail("huge leaf maps frame " + std::to_string(frame + f) +
                           " with zero mapcount");
              break;
            }
          }
        }
      } else {
        // Figure 12: "pte points to a valid page ... child level relation".
        Pfn child = PtePfn(pt.arch(), pte);
        if (!mem.ValidPfn(child)) {
          report->Fail("table PTE points outside physical memory");
          continue;
        }
        if (level <= 1) {
          report->Fail("level-1 PTE claims to be a table pointer");
          continue;
        }
        CheckPtPage(space, child, level - 1, report);
      }
    } else if (marked) {
      ++report->meta_marks;
      StatusTag tag = static_cast<StatusTag>(meta->entries[i].tag);
      if (tag == StatusTag::kMapped) {
        report->Fail("metadata mark encodes kMapped, which only the MMU may encode");
      }
    }
  }
  uint16_t counted = desc.present_ptes.load(std::memory_order_relaxed);
  if (counted != present_count) {
    report->Fail("present_ptes of PT page " + std::to_string(page) + " is " +
                 std::to_string(counted) + " but " + std::to_string(present_count) +
                 " slots are present");
  }
}

}  // namespace

WfReport CheckWellFormed(AddrSpace& space) {
  WfReport report;
  CheckPtPage(space, space.page_table().root(), kPtLevels, &report);
  if (space.ResidentPagesFast() != report.resident_pages) {
    report.Fail("resident counter reads " + std::to_string(space.ResidentPagesFast()) +
                " but present leaves map " + std::to_string(report.resident_pages) +
                " frames");
  }
  return report;
}

LeakReport CheckFrameLeaks(uint64_t baseline_free_frames) {
  // Reclamation is deferred in three places; drain all of them so every frame
  // that is *going* to come back has come back before we compare.
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  LeakReport report;
  report.baseline_free = baseline_free_frames;
  report.current_free = BuddyAllocator::Instance().FreeFrameCount();
  report.leaked = static_cast<int64_t>(baseline_free_frames) -
                  static_cast<int64_t>(report.current_free);
  // With the caches drained, no frame may still read as kCached: FreeFrame
  // types a parked frame kCached and FreeBlockLocked retypes it kFree when it
  // reaches a free list, so a survivor fell out of that state machine.
  PhysMem& mem = PhysMem::Instance();
  for (Pfn pfn = 0; pfn < mem.num_frames(); ++pfn) {
    PageDescriptor& desc = mem.Descriptor(pfn);
    FrameType type = desc.type.load(std::memory_order_relaxed);
    if (type == FrameType::kCached) {
      ++report.stranded_cached;
    } else if (type == FrameType::kAnon && desc.refcount() == 0) {
      // A dead anon frame that never reached the buddy — the signature of a
      // huge run freed piecemeal with some frames dropped on the floor.
      ++report.stranded_anon;
    }
  }
  // NUMA home invariant: every free frame must sit on its home node's arena
  // (frees route by PFN, so a misplaced frame means a routing bypass).
  report.misplaced_home =
      BuddyAllocator::Instance().CountMisplacedFreeFrames();
  report.ok = report.leaked == 0 && report.stranded_cached == 0 &&
              report.stranded_anon == 0 && report.misplaced_home == 0;
  return report;
}

}  // namespace cortenmm
