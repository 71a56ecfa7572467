// MmRing — per-CPU submission/completion rings with a flat-combining drain
// (ROADMAP item 4; the throughput frontend of the async batched MM interface).
//
// Shape: every simulated CPU owns a fixed-depth SPSC submission ring (the
// owner thread produces, the combiner consumes) and a completion ring of the
// same depth (the combiner produces, the owner consumes). A drain pass makes
// one thread the combiner — the CNA queue lock from src/sync serializes combiner
// handoff, so waiters enqueue FIFO on their own cache line instead of
// hammering a shared flag — and that thread:
//
//   1. collects every CPU's pending SQEs,
//   2. walks them as per-CPU queues in submission order, taking from each
//      queue the maximal prefix of fusable ops (a wave),
//   3. buckets the wave by lock subtree (the kSubtreeSpan-aligned region
//      whose covering PT page a fused transaction would lock),
//   4. hands each bucket to the backend executor as ONE batch — the Corten
//      backend runs it as one RCursor transaction with one TlbGather flush —
//      and fans the per-op results back out to the submitters' completion
//      rings.
//
// Ordering contract (io_uring discipline): ops submitted from the SAME CPU
// execute in submission order; ops from different CPUs were concurrent at
// submission and may be interleaved arbitrarily — any interleaving the drain
// picks is a valid linearization. The wave construction preserves the
// per-CPU guarantee: an op never executes before an earlier op from its own
// CPU, because a non-fusable op cuts its CPU's wave prefix and fusable ops
// in one wave land either in the same bucket (executed in submission order)
// or in disjoint subtrees (independent by construction).
//
// Backpressure: a CPU may have at most kDepth ops outstanding (submitted but
// not yet reaped). Submit drains inline when the submission ring fills, so
// the only way to hit the limit is to never reap — then Submit returns false
// until the caller consumes completions. Completions are never dropped: the
// completion ring always has room for every outstanding op.
#ifndef SRC_RING_MM_RING_H_
#define SRC_RING_MM_RING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/cpu.h"
#include "src/ring/mm_op.h"
#include "src/sync/cna_lock.h"

namespace cortenmm {

class MmRing {
 public:
  // Entries per CPU in each ring (power of two). 64 matches io_uring's
  // default and caps a single CPU's contribution to one drain.
  static constexpr uint32_t kDepth = 64;
  // Two ops fuse only if their joint bounding box stays inside one
  // kSubtreeSpan-aligned region: the region one level-2 PT page covers
  // (1 GiB), so a fused transaction's covering lock never climbs past it.
  static constexpr uint64_t kSubtreeSpan = PtPageSpan(2);
  // Ops per executor call. Past this the gather would fall back to a
  // full-ASID flush anyway and per-op result fan-out starts to dominate.
  static constexpr size_t kMaxFusedOps = 32;

  // The backend: executes |n| ops and writes |n| completions. Groups the
  // drain hands over are either one non-fusable op (n == 1) or a fused
  // bucket whose ops all lie in one subtree region.
  using Executor = std::function<void(const MmSqe* sqes, MmCqe* cqes, size_t n)>;

  explicit MmRing(Executor executor);
  MmRing(const MmRing&) = delete;
  MmRing& operator=(const MmRing&) = delete;
  ~MmRing();

  // Enqueues |sqe| on the calling CPU's submission ring. Returns false when
  // this CPU already has kDepth unreaped completions (backpressure); the op
  // was NOT queued and the caller must Reap before retrying. May drain
  // inline (becoming the combiner) when the submission ring is full.
  bool Submit(const MmSqe& sqe);

  // Pops the oldest completion for the calling CPU. Non-blocking: returns
  // false when no completion is ready (submitted ops may still be pending —
  // DrainBarrier forces them through).
  bool Reap(MmCqe* out);

  // Flat-combining barrier: returns once every op submitted by the calling
  // CPU before this call has a posted completion. The caller either becomes
  // the combiner (draining ALL CPUs' pending ops) or waits in the CNA queue
  // while another combiner executes its ops on its behalf.
  void DrainBarrier();

  // Ops submitted and not yet reaped by the calling CPU.
  uint32_t Outstanding() const;

 private:
  struct alignas(kCacheLineSize) PerCpu {
    // The four free-running 32-bit indices (slot = index % kDepth) are split
    // by WRITER, not by ring: the owner CPU advances sq_tail (produce) and
    // cq_head (reap), the combiner advances sq_head (consume) and cq_tail
    // (complete). Packing them by ring put an owner-written and a combiner-
    // written index on one cache line, so every completion ping-ponged the
    // line the submitter was spinning on — each writer now owns a full line.
    //
    // Submission ring: owner produces at sq_tail, combiner consumes at
    // sq_head. Completion ring: combiner produces at cq_tail, owner consumes
    // at cq_head. sq_tail - cq_head == outstanding ops; keeping it <= kDepth
    // guarantees the combiner always finds a free completion slot.
    std::atomic<uint32_t> sq_tail{0};  // Owner-written.
    std::atomic<uint32_t> cq_head{0};  // Owner-written.
    char owner_pad[kCacheLineSize - 2 * sizeof(std::atomic<uint32_t>)];
    std::atomic<uint32_t> sq_head{0};  // Combiner-written.
    std::atomic<uint32_t> cq_tail{0};  // Combiner-written.
    char combiner_pad[kCacheLineSize - 2 * sizeof(std::atomic<uint32_t>)];
    MmSqe sq[kDepth];
    MmCqe cq[kDepth];
  };

  // Runs one drain pass over every CPU's submission ring. Caller must hold
  // |combiner_lock_|.
  void Drain();
  // Acquires the combiner lock (CNA handoff) and drains if work remains by
  // the time this thread reaches the head of the queue.
  void CombineOnce();
  void PostCompletion(int cpu, const MmCqe& cqe);

  Executor executor_;
  CnaLock combiner_lock_;
  std::atomic<uint64_t> pending_{0};
  // Lazily sized by kMaxCpus; ~2.5 MiB, allocated once per ring frontend.
  std::unique_ptr<PerCpu[]> cpus_;
};

}  // namespace cortenmm

#endif  // SRC_RING_MM_RING_H_
