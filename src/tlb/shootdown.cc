#include "src/tlb/shootdown.h"

#include <cassert>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"

namespace cortenmm {

const char* TlbPolicyName(TlbPolicy policy) {
  switch (policy) {
    case TlbPolicy::kSync:
      return "sync";
    case TlbPolicy::kEarlyAck:
      return "early-ack";
    case TlbPolicy::kLatr:
      return "latr";
  }
  return "unknown";
}

TlbSystem& TlbSystem::Instance() {
  static TlbSystem system;
  return system;
}

// Weak-memory audit (PR 9): the publish/tick/ack protocol is TSO-safe as
// written, model-checked by MakeLatrLitmus (src/verif/litmus_model.cc).
// Entries are published and scanned under the per-CPU buffer spinlock, whose
// Lock() is an RMW — the initiator's buffered entry stores must commit before
// its lock-release store (FIFO), so a target that acquires the lock sees a
// fully-written entry. TryAck/HasAcked are an RMW and an acquire load on the
// same word, so an ack is visible to every later tick; removing the HasAcked
// skip re-invalidates acked entries (the LatrVariant::kNoHasAckedCheck litmus
// regression), and the fetch_sub on `remaining` orders FinishEntry after both
// flushes.
bool TlbSystem::LatrEntry::TryAck(CpuId cpu) {
  uint64_t bit = 1ull << (cpu % 64);
  uint64_t prev = acked_mask[cpu / 64].fetch_or(bit, std::memory_order_acq_rel);
  if (prev & bit) {
    return false;  // Already acknowledged.
  }
  return remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;  // Last ack?
}

bool TlbSystem::LatrEntry::HasAcked(CpuId cpu) const {
  return acked_mask[cpu / 64].load(std::memory_order_acquire) & (1ull << (cpu % 64));
}

namespace {

// Weighted frame count of a batch: an order-9 record is one RECORD but 512
// frames of reclaim, and the telemetry reports reclaim volume.
uint64_t TotalFrames(const PageRun* runs, size_t num_runs) {
  uint64_t total = 0;
  for (size_t i = 0; i < num_runs; ++i) {
    total += runs[i].num_frames();
  }
  return total;
}

void FreeRuns(const PageRun* runs, size_t num_runs, RunFreer freer) {
  if (freer != nullptr) {
    for (size_t i = 0; i < num_runs; ++i) {
      freer(runs[i]);
    }
  }
}

}  // namespace

void TlbSystem::FinishEntry(LatrEntry* entry) {
  FreeRuns(entry->runs.data(), entry->runs.size(), entry->freer);
  pending_latr_.fetch_sub(1, std::memory_order_relaxed);
  delete entry;
}

void TlbSystem::Shootdown(Asid asid, VaRange range, const CpuMask& mask, TlbPolicy policy,
                          std::vector<PageRun> runs, RunFreer freer) {
  ShootdownBatch(asid, &range, 1, /*full_asid=*/false, mask, policy, runs.data(),
                 runs.size(), freer);
}

void TlbSystem::ShootdownBatch(Asid asid, const VaRange* ranges, size_t num_ranges,
                               bool full_asid, const CpuMask& mask, TlbPolicy policy,
                               const PageRun* runs, size_t num_runs, RunFreer freer) {
  if (num_ranges == 0 && !full_asid) {
    // Run-only batch: nothing was ever visible in a TLB, dispose directly.
    FreeRuns(runs, num_runs, freer);
    return;
  }
  // The whole batch is one shootdown event — that is the point of gathering.
  CountEvent(Counter::kTlbShootdowns);
  // Initiator-side wait: for kSync/kEarlyAck this covers the full remote
  // invalidation sweep; for kLatr only the local flush + buffer publish.
  ScopedPhaseTimer telemetry_timer(LockPhase::kShootdownWait);
  CpuId self = CurrentCpu();
  uint64_t total_frames = TotalFrames(runs, num_runs);
  Telemetry::Instance().Trace(TraceKind::kShootdown, total_frames,
                              static_cast<uint64_t>(mask.Count()));
  Telemetry::Instance().RecordBatch(BatchStat::kShootdownRanges,
                                    full_asid ? 0 : num_ranges);
  Telemetry::Instance().RecordBatch(BatchStat::kShootdownFrames, total_frames);

  // One pass over a target's TLB covers every range in the batch (or the
  // whole ASID once the gather fell back).
  auto invalidate = [&](CpuId cpu) {
    if (full_asid) {
      CpuTlb(cpu).InvalidateAsid(asid);
    } else {
      CpuTlb(cpu).InvalidateRanges(asid, ranges, num_ranges);
    }
  };

  if (policy == TlbPolicy::kLatr) {
    // Flush locally now; defer remote flushes and frame reclamation.
    invalidate(self);
    bool any_remote = false;
    mask.ForEach([&](CpuId cpu) { any_remote |= cpu != self; });
    if (!any_remote) {
      FreeRuns(runs, num_runs, freer);
      return;
    }
    // One deferred entry for the whole batch: each target acks once however
    // many ranges the transaction gathered.
    auto* entry = new LatrEntry;
    entry->asid = asid;
    entry->full_asid = full_asid;
    if (!full_asid) {
      entry->ranges.assign(ranges, ranges + num_ranges);
    }
    entry->runs.assign(runs, runs + num_runs);
    entry->freer = freer;
    mask.ForEach([&](CpuId cpu) {
      if (cpu != self) {
        entry->targets.push_back(cpu);
      }
    });
    entry->remaining.store(static_cast<uint32_t>(entry->targets.size()),
                           std::memory_order_relaxed);
    pending_latr_.fetch_add(1, std::memory_order_relaxed);
    LatrBuffer& buffer = latr_[self].value;
    SpinGuard guard(buffer.lock);
    buffer.entries.push_back(entry);
    return;
  }

  // Synchronous variants: the initiator invalidates every target inline.
  // kSync models the serial IPI round-trip protocol: one target at a time,
  // with the "wait for ack" expressed by completing each invalidation before
  // starting the next. kEarlyAck issues all invalidations in one sweep (the
  // remote flush work overlaps; the initiator does not serialize on acks).
  if (policy == TlbPolicy::kSync) {
    mask.ForEach([&](CpuId cpu) {
      // Chaos: a straggler target delays before servicing the invalidation
      // IPI, so the initiator's serial ack wait stretches.
      FaultInjector::Instance().MaybeStall(FaultSite::kShootdownStraggler);
      invalidate(cpu);
      // Serial ack round trip: a full acquire/release per target is already
      // enforced by the per-TLB lock; nothing further to model.
    });
  } else {  // kEarlyAck
    mask.ForEach([&](CpuId cpu) {
      FaultInjector::Instance().MaybeStall(FaultSite::kShootdownStraggler);
      invalidate(cpu);
    });
  }
  if (!mask.Test(self)) {
    invalidate(self);
  }
  FreeRuns(runs, num_runs, freer);
}

void TlbSystem::Tick(CpuId cpu) {
  // Scan every CPU's lazy buffer for entries addressed to |cpu| (LATR: "each
  // CPU checks other CPUs' buffers and flushes the relevant TLB entries").
  int limit = OnlineCpuCount();
  for (int origin = 0; origin < limit && origin < kMaxCpus; ++origin) {
    LatrBuffer& buffer = latr_[origin].value;
    std::vector<LatrEntry*> finished;
    {
      SpinGuard guard(buffer.lock);
      size_t keep = 0;
      for (size_t i = 0; i < buffer.entries.size(); ++i) {
        LatrEntry* entry = buffer.entries[i];
        bool is_target = false;
        for (CpuId t : entry->targets) {
          if (t == cpu) {
            is_target = true;
            break;
          }
        }
        bool done = false;
        // An already-acked target must not re-flush: the entry only lingers
        // in the buffer because some OTHER target's ack is still outstanding.
        if (is_target && !entry->HasAcked(cpu)) {
          // Chaos: a lazy-TLB straggler acks an entry late (LATR's whole bet
          // is that this is tolerable; the chaos suite verifies it).
          FaultInjector::Instance().MaybeStall(FaultSite::kShootdownStraggler);
          if (entry->full_asid) {
            CpuTlb(cpu).InvalidateAsid(entry->asid);
          } else {
            CpuTlb(cpu).InvalidateRanges(entry->asid, entry->ranges.data(),
                                         entry->ranges.size());
          }
          CountEvent(Counter::kTlbLazyFlushes);
          done = entry->TryAck(cpu);
        }
        if (done) {
          finished.push_back(entry);
        } else {
          buffer.entries[keep++] = entry;
        }
      }
      buffer.entries.resize(keep);
    }
    for (LatrEntry* entry : finished) {
      FinishEntry(entry);
    }
  }
}

void TlbSystem::DrainAll() {
  int limit = OnlineCpuCount();
  for (int cpu = 0; cpu < limit && cpu < kMaxCpus; ++cpu) {
    Tick(cpu);
  }
}

}  // namespace cortenmm
