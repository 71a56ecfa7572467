// Compact NUMA-aware queue lock (Dice & Kogan, EuroSys'19): the MCS lock
// (Mellor-Crummey & Scott) plus a secondary-queue policy. CortenMM_adv uses
// it for its per-PT-page subtree locks (paper §4.5) and the ring
// flat-combining drain. Like MCS, each waiter spins on its own queue node, so
// contended acquisition generates no global cache traffic; when every waiter
// is on one node it IS MCS, with FIFO handoff. Across nodes, the unlocker
// prefers handing off to the first waiter from its OWN NUMA node, detaching
// the remote waiters it skips onto a *secondary queue* that stays parked
// while the lock circulates within the node (the cache line holding the lock
// state never crosses the socket interconnect). A bounded batch count
// (kBatchBound consecutive same-node handoffs) flushes the secondary queue
// back to the front of the main queue, so remote waiters are delayed but
// never starved.
//
// Node ownership: nodes MUST come from CnaNodePool (immortal storage). The
// unlocker touches the successor's node *after* the grant store — the
// StoreLoad-fenced `parked` check that makes the futex-style skip-notify
// optimization safe — so a node on a stack frame that pops when Lock()
// returns would be a use-after-free. Pool chunks are never deallocated; a
// straggling post-grant touch lands on valid (possibly recycled) memory,
// where the worst outcome is a spurious wakeup the waiter's recheck absorbs.
//
// Weak-memory audit, two obligations, both model-checked in
// src/verif/litmus_model.cc:
//   * The primary-queue handoff (Lock's tail exchange and prev->next link,
//     Unlock's no-waiter CAS and grant store) is TSO-safe as written
//     (MakeMcsHandoffLitmus). Every cross-thread ordering edge runs through
//     an RMW or a spin that only exits once the releasing store is
//     committed, so the store buffer cannot reorder anything observable. The
//     tail exchange being a single RMW is the load-bearing ingredient:
//     McsVariant::kNonAtomicTailSwap demotes it to a load-then-store and
//     both threads enter the critical section (already under SC).
//   * The park/wake protocol (MakeCnaHandoffLitmus): the waiter stores
//     `parked=1` then loads `spin`; the granter stores `spin=grant` then
//     loads `parked` (skipping the notify when it reads 0). That is a
//     store-buffering (SB) shape on BOTH sides — without the seq_cst fences,
//     TSO lets both loads read 0 and the wakeup is lost while the waiter
//     sleeps. CnaVariant::kNoFence keeps the TSO counterexample as the
//     regression.
#ifndef SRC_SYNC_CNA_LOCK_H_
#define SRC_SYNC_CNA_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/cpu.h"

namespace cortenmm {

struct CnaNode {
  std::atomic<CnaNode*> next{nullptr};
  // 0 = waiting. kGrantNoSec = lock granted, empty secondary queue. Any
  // other value = lock granted, value is the inherited secondary-queue head.
  std::atomic<uintptr_t> spin{0};
  // Tail of the secondary queue; meaningful only on a secondary head, and
  // only read/written by the current lock holder.
  std::atomic<CnaNode*> sec_tail{nullptr};
  // Set (with a StoreLoad fence) before the waiter blocks in spin.wait();
  // the granter only notifies when it reads 1.
  std::atomic<uint32_t> parked{0};
  // Home NUMA node, captured at enqueue time.
  int numa_node = -1;
};

class CnaLock {
 public:
  // Consecutive same-node handoffs allowed before the secondary queue is
  // force-flushed (long-term fairness bound; Dice & Kogan use a probabilistic
  // 1/256 flush, a deterministic bound model-checks and tests better).
  static constexpr uint32_t kBatchBound = 32;

  CnaLock() = default;
  CnaLock(const CnaLock&) = delete;
  CnaLock& operator=(const CnaLock&) = delete;

  void Lock(CnaNode* node);
  bool TryLock(CnaNode* node);
  void Unlock(CnaNode* node);

  bool IsLockedHint() const {
    return tail_.load(std::memory_order_relaxed) != nullptr;
  }

 private:
  static constexpr uintptr_t kGrantNoSec = 1;

  static CnaNode* SecHead(uintptr_t spin_value) {
    return spin_value > kGrantNoSec ? reinterpret_cast<CnaNode*>(spin_value)
                                    : nullptr;
  }

  // Hands the lock to |succ|, encoding the secondary queue head in the spin
  // value, then runs the fenced skip-notify protocol.
  void Grant(CnaNode* succ, uintptr_t value);
  // A successor is mid-enqueue (tail swung, link not yet stored): wait.
  CnaNode* WaitForNext(CnaNode* node);
  // First waiter on |my_node| reachable from |from|; the skipped remote
  // prefix (if any) is returned via |skipped_first|/|skipped_last|.
  static CnaNode* FindLocalSuccessor(CnaNode* from, int my_node,
                                     CnaNode** skipped_first,
                                     CnaNode** skipped_last,
                                     uint64_t* skipped_count);

  std::atomic<CnaNode*> tail_{nullptr};
  // Holder-owned (plain field): every write happens between acquiring and
  // releasing the lock, and the grant's release store / the next holder's
  // acquire load order it.
  uint32_t batch_ = 0;
};

// A pool of CNA queue nodes with stable, IMMORTAL addresses (chunks are
// allocated once and never freed; a thread's unused nodes migrate to a global
// free list at thread exit). Required by the post-grant parked check above.
class CnaNodePool {
 public:
  static CnaNode* Get();
  static void Put(CnaNode* node);
};

}  // namespace cortenmm

#endif  // SRC_SYNC_CNA_LOCK_H_
