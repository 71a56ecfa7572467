// Phase-fair reader-writer lock (PF-T of Brandenburg & Anderson, "Spin-Based
// Reader-Writer Synchronization for Multiprocessor Real-Time Systems").
// CortenMM_rw stores one of these per PT page (paper §4.5: "BRAVO-pfqlock").
//
// Phase fairness: reader and writer phases alternate, so neither side starves;
// an arriving reader only waits for *one* writer phase, an arriving writer for
// at most one reader phase plus earlier writers.
#ifndef SRC_SYNC_PFQ_RWLOCK_H_
#define SRC_SYNC_PFQ_RWLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/backoff.h"

namespace cortenmm {

class PfqRwLock {
 public:
  PfqRwLock() = default;
  PfqRwLock(const PfqRwLock&) = delete;
  PfqRwLock& operator=(const PfqRwLock&) = delete;

  void ReadLock() {
    // Announce the reader; the low bits carry the current writer phase.
    uint32_t w = rin_.fetch_add(kReaderInc, std::memory_order_acq_rel) & kWriterBits;
    // Wait only while the *same* writer phase is still present.
    SpinBackoff backoff;
    while (w != 0 && w == (rin_.load(std::memory_order_acquire) & kWriterBits)) {
      backoff.Spin();
    }
  }

  void ReadUnlock() { rout_.fetch_add(kReaderInc, std::memory_order_acq_rel); }

  void WriteLock() {
    // Writer-writer mutual exclusion via tickets.
    uint32_t ticket = win_.fetch_add(1, std::memory_order_acq_rel);
    SpinBackoff backoff;
    while (wout_.load(std::memory_order_acquire) != ticket) {
      backoff.Spin();
    }
    // Block new readers: publish presence + phase id in rin's low bits.
    uint32_t w = kWriterPresent | (ticket & kPhaseId);
    uint32_t readers = rin_.fetch_add(w, std::memory_order_acq_rel) & ~kWriterBits;
    // Wait for readers that arrived before us to drain.
    backoff.Reset();
    while ((rout_.load(std::memory_order_acquire) & ~kWriterBits) != readers) {
      backoff.Spin();
    }
  }

  void WriteUnlock() {
    // Clear the writer bits in rin, releasing blocked readers, then pass the
    // writer baton.
    rin_.fetch_and(~kWriterBits, std::memory_order_acq_rel);
    wout_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  static constexpr uint32_t kPhaseId = 0x1;
  static constexpr uint32_t kWriterPresent = 0x2;
  static constexpr uint32_t kWriterBits = kPhaseId | kWriterPresent;
  static constexpr uint32_t kReaderInc = 0x4;

  std::atomic<uint32_t> rin_{0};
  std::atomic<uint32_t> rout_{0};
  std::atomic<uint32_t> win_{0};
  std::atomic<uint32_t> wout_{0};
};

}  // namespace cortenmm

#endif  // SRC_SYNC_PFQ_RWLOCK_H_
