// TLB shootdown engine with the three strategies the paper discusses (§4.5):
//
//  kSync      — the initiator invalidates each active CPU's TLB one after the
//               other and only then frees the unmapped frames (the classic
//               IPI-and-wait protocol).
//  kEarlyAck  — concurrent flush with early acknowledgement [Amit et al.,
//               EuroSys'20]: invalidations of all targets proceed without
//               per-target round trips; frames are freed as soon as all
//               invalidations are issued.
//  kLatr      — lazy shootdown [LATR, ASPLOS'18]: the initiator pushes the
//               (range, frames, target CPUs) record into its per-CPU buffer
//               and returns immediately; each target flushes its own TLB at
//               its next tick (timer interrupt / reschedule analog), and the
//               frames are reclaimed only after the last target acknowledges.
//
// Correctness note mirrored from LATR: until a lazy entry is fully
// acknowledged, its frames are not returned to the allocator, so a stale TLB
// translation can only reach memory that still holds the old (dead) data.
#ifndef SRC_TLB_SHOOTDOWN_H_
#define SRC_TLB_SHOOTDOWN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/types.h"
#include "src/sync/spinlock.h"
#include "src/tlb/tlb.h"

namespace cortenmm {

enum class TlbPolicy {
  kSync,
  kEarlyAck,
  kLatr,
};

const char* TlbPolicyName(TlbPolicy policy);

// A fixed-width CPU set. kMaxCpus bits.
class CpuMask {
 public:
  void Set(CpuId cpu) {
    words_[cpu / 64].fetch_or(1ull << (cpu % 64), std::memory_order_acq_rel);
  }
  bool Test(CpuId cpu) const {
    return words_[cpu / 64].load(std::memory_order_acquire) & (1ull << (cpu % 64));
  }
  // Calls |fn| with each set CPU id in increasing order, reading each word
  // once. Allocates nothing: shootdowns walk their target mask in place.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int word = 0; word < kMaxCpus / 64; ++word) {
      uint64_t bits = words_[word].load(std::memory_order_acquire);
      while (bits != 0) {
        fn(static_cast<CpuId>(word * 64 + __builtin_ctzll(bits)));
        bits &= bits - 1;
      }
    }
  }
  // Number of set CPU ids.
  int Count() const {
    int count = 0;
    for (const std::atomic<uint64_t>& word : words_) {
      count += __builtin_popcountll(word.load(std::memory_order_acquire));
    }
    return count;
  }

 private:
  std::atomic<uint64_t> words_[kMaxCpus / 64] = {};
};

// Disposes of a dead run once every target has invalidated. Runs, not bare
// frames: a huge unmap hands the shootdown ONE order-9 record, and the freer
// decides whether the run dies whole (back to the buddy as a block) or frame
// by frame (shared frames with surviving references).
using RunFreer = void (*)(PageRun);

class TlbSystem {
 public:
  static TlbSystem& Instance();

  Tlb& CpuTlb(CpuId cpu) { return tlbs_[cpu].value; }

  // Invalidates |range| of |asid| on every CPU in |mask| according to
  // |policy|, then disposes of |runs| via |freer| (possibly deferred).
  // |runs| may be empty (e.g. mprotect). Thin wrapper over ShootdownBatch
  // with a single range.
  void Shootdown(Asid asid, VaRange range, const CpuMask& mask, TlbPolicy policy,
                 std::vector<PageRun> runs, RunFreer freer);

  // Batched shootdown (the TlbGather submission path): invalidates all
  // |num_ranges| ranges of |asid| — or the whole ASID when |full_asid| — on
  // every CPU in |mask| with ONE invalidation sweep per target and, under
  // kLatr, one deferred entry for the whole batch. Counts as a single
  // kTlbShootdowns event however many ranges the batch carries. Then
  // disposes of the |num_runs| |runs| via |freer|. Allocates only for a
  // deferred entry, i.e. under kLatr with a remote target.
  void ShootdownBatch(Asid asid, const VaRange* ranges, size_t num_ranges, bool full_asid,
                      const CpuMask& mask, TlbPolicy policy, const PageRun* runs,
                      size_t num_runs, RunFreer freer);

  // The target-side pump: drains lazy shootdown entries addressed to |cpu|.
  // The simulated MMU calls this periodically (timer-tick analog).
  void Tick(CpuId cpu);

  // Drains every pending lazy entry on all CPUs (benchmark phase boundaries,
  // address-space teardown).
  void DrainAll();

  uint64_t pending_latr_entries() const {
    return pending_latr_.load(std::memory_order_relaxed);
  }

 private:
  struct LatrEntry {
    Asid asid;
    std::vector<VaRange> ranges;  // Empty when full_asid.
    bool full_asid = false;
    std::vector<PageRun> runs;  // Dead runs held until the last lazy ack.
    RunFreer freer;
    std::vector<CpuId> targets;
    std::atomic<uint32_t> remaining{0};
    std::atomic<uint64_t> acked_mask[kMaxCpus / 64] = {};

    bool TryAck(CpuId cpu);
    // Whether |cpu| already flushed and acknowledged this entry. Tick checks
    // this before invalidating so each target flushes each entry exactly once.
    bool HasAcked(CpuId cpu) const;
  };

  struct LatrBuffer {
    SpinLock lock;
    std::vector<LatrEntry*> entries;
  };

  void FinishEntry(LatrEntry* entry);

  CacheAligned<Tlb> tlbs_[kMaxCpus];
  CacheAligned<LatrBuffer> latr_[kMaxCpus];
  std::atomic<uint64_t> pending_latr_{0};
};

}  // namespace cortenmm

#endif  // SRC_TLB_SHOOTDOWN_H_
