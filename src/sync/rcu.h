// Epoch-based RCU with deferred reclamation. CortenMM_adv wraps its lock-free
// page-table traversal in a read-side critical section and retires unmapped PT
// pages to the "RCU monitor" (paper §4.1, Figure 7); a retired page is freed
// only once no reader that could still reach it remains.
//
// This is a quiescent-epoch scheme analogous to the paper's "simple
// preemption-based RCU": entering a read-side section publishes the thread's
// start epoch; Synchronize() advances the global epoch and waits until every
// active reader started at or after it.
#ifndef SRC_SYNC_RCU_H_
#define SRC_SYNC_RCU_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/cpu.h"
#include "src/sync/spinlock.h"

namespace cortenmm {

class Rcu {
 public:
  static Rcu& Instance();

  // Read-side critical section. Nestable; only the outermost pair publishes.
  void ReadLock();
  void ReadUnlock();
  bool InReadSection() const;

  // Classic grace-period wait: returns once every read-side critical section
  // that was in flight at the time of the call has ended.
  void Synchronize();

  // Defers `deleter(obj)` until no read-side critical section that may have
  // observed `obj` remains. Reclamation is amortized: every kDrainThreshold
  // retirements on a CPU trigger a drain of that CPU's retired list.
  void Retire(void* obj, void (*deleter)(void*));

  // Frees every retired object whose grace period has elapsed. Called
  // automatically from Retire; exposed for tests and for quiescing between
  // benchmark phases.
  void DrainAll();

  // Test support: number of objects retired but not yet freed.
  size_t PendingCount();

 private:
  static constexpr int kDrainThreshold = 64;
  static constexpr uint64_t kInactive = 0;

  struct Retired {
    void* obj;
    void (*deleter)(void*);
    uint64_t epoch;  // Global epoch at retirement time.
  };

  struct RetireList {
    SpinLock lock;
    std::vector<Retired> items;
  };

  // The earliest epoch any active reader started in, or ~0 if none active.
  uint64_t MinActiveEpoch() const;

  void DrainCpu(int cpu, uint64_t min_active);

  std::atomic<uint64_t> epoch_{1};
  // Per-CPU reader state: 0 when quiescent, else the reader's start epoch.
  CacheAligned<std::atomic<uint64_t>> reader_epoch_[kMaxCpus];
  CacheAligned<RetireList> retired_[kMaxCpus];
};

// RAII read-side section.
class RcuReadGuard {
 public:
  RcuReadGuard() { Rcu::Instance().ReadLock(); }
  ~RcuReadGuard() { Rcu::Instance().ReadUnlock(); }
  RcuReadGuard(const RcuReadGuard&) = delete;
  RcuReadGuard& operator=(const RcuReadGuard&) = delete;
};

}  // namespace cortenmm

#endif  // SRC_SYNC_RCU_H_
