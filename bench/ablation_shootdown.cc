// Ablation: the TLB shootdown strategies of §4.5 — synchronous IPI-style,
// early-acknowledgement [Amit et al.], and LATR-style lazy — on the workload
// that exercises them hardest (multithreaded munmap of mapped pages, plus the
// mixed map/unmap churn where lazy reclamation pays off).
//
// Expected shape: sync <= early-ack <= latr on unmap throughput once more
// than one CPU is active, because sync serializes a round trip per target
// CPU, early-ack overlaps the flushes, and latr defers them to the targets'
// ticks entirely.
//
// Second part: the mmu_gather ablation. A transaction that unmaps N sparse
// pages used to issue one shootdown per page (unbatched) or flush the whole
// bounding box; with the gather it submits all N discrete ranges as ONE
// batch. The counter-based comparison below is deterministic — batched must
// issue N× fewer kTlbShootdowns than unbatched at N ranges per transaction —
// and the binary exits nonzero if the reduction falls under 4×, so the
// bench-smoke ctest target doubles as a regression gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/stats.h"
#include "src/core/addr_space.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/sim/workloads.h"
#include "src/tlb/gather.h"

namespace cortenmm {
namespace {

double RunUnmapChurn(TlbPolicy policy, int threads) {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  options.tlb_policy = policy;
  CortenVm mm(options);

  constexpr int kRegions = 256;
  constexpr uint64_t kRegionBytes = 16 * 1024;
  std::vector<std::vector<Vaddr>> regions(threads);

  PhasedSpec spec;
  spec.threads = threads;
  spec.rounds = 3;
  spec.ops_per_round = kRegions;
  spec.setup = [&](int t, int) {
    for (int i = 0; i < kRegions; ++i) {
      Result<Vaddr> va = mm.MmapAnon(kRegionBytes, Perm::RW());
      assert(va.ok());
      MmuSim::TouchRange(mm, *va, kRegionBytes, /*write=*/true);
      regions[t].push_back(*va);
    }
  };
  spec.timed_op = [&](int t, int, int op) {
    // Unmap + immediately touch a neighbour: keeps every CPU active so the
    // shootdown strategies actually differ (idle CPUs never tick).
    mm.Munmap(regions[t][op], kRegionBytes);
    if (op + 1 < kRegions) {
      uint64_t value = 0;
      MmuSim::Read(mm, regions[t][op + 1], &value);
    }
  };
  spec.teardown = [&](int t, int) { regions[t].clear(); };
  return RunPhased(spec);
}

// ---------------------------------------------------------------------------
// Gather ablation: batched vs. unbatched sparse unmap
// ---------------------------------------------------------------------------

struct SparseResult {
  uint64_t shootdowns = 0;  // kTlbShootdowns delta across every unmap pass.
  double unmap_seconds = 0.0;
  int passes = 0;
};

// Unmaps kMaxRanges single pages spaced 2 MiB apart, |reps| times. Batched:
// one transaction covering the span, so the gather submits all 16 discrete
// ranges as one ShootdownBatch. Unbatched: one single-page transaction per
// victim, the pre-gather behaviour. Only the counter delta differs between
// the two — the pages unmapped and the frames freed are identical.
SparseResult RunSparseUnmap(TlbPolicy policy, bool batched, int reps) {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  options.tlb_policy = policy;
  AddrSpace space(options);
  space.NoteCpuActive(CurrentCpu());

  // Exactly kMaxRanges victims: the largest batch that stays precise (the
  // full-ASID fallback triggers only on the 17th distinct range).
  constexpr int kPages = static_cast<int>(TlbGather::kMaxRanges);
  constexpr uint64_t kStride = 2ull << 20;  // 2 MiB spacing: nothing coalesces.
  const Vaddr base = 1ull << 32;
  const VaRange span(base, base + static_cast<uint64_t>(kPages) * kStride);

  SparseResult result;
  result.passes = reps;
  for (int rep = 0; rep < reps; ++rep) {
    {
      RCursor cursor = space.Lock(span);
      for (int i = 0; i < kPages; ++i) {
        Result<Pfn> frame = BuddyAllocator::Instance().AllocZeroedFrame();
        assert(frame.ok());
        PhysMem::Instance().Descriptor(*frame).ResetForAlloc(FrameType::kAnon);
        VoidResult mapped =
            cursor.Map(base + static_cast<uint64_t>(i) * kStride, *frame, Perm::RW());
        assert(mapped.ok());
        (void)mapped;
      }
    }
    uint64_t before = GlobalStats().Total(Counter::kTlbShootdowns);
    auto t0 = std::chrono::steady_clock::now();
    if (batched) {
      RCursor cursor = space.Lock(span);
      for (int i = 0; i < kPages; ++i) {
        Vaddr va = base + static_cast<uint64_t>(i) * kStride;
        VoidResult r = cursor.Unmap(VaRange(va, va + kPageSize));
        assert(r.ok());
        (void)r;
      }
    } else {
      for (int i = 0; i < kPages; ++i) {
        Vaddr va = base + static_cast<uint64_t>(i) * kStride;
        RCursor cursor = space.Lock(VaRange(va, va + kPageSize));
        VoidResult r = cursor.Unmap(VaRange(va, va + kPageSize));
        assert(r.ok());
        (void)r;
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    result.unmap_seconds += std::chrono::duration<double>(t1 - t0).count();
    result.shootdowns += GlobalStats().Total(Counter::kTlbShootdowns) - before;
  }
  // Under kLatr the batches' dead frames sit in deferred entries; drain them
  // so consecutive runs do not accumulate pending reclamation.
  TlbSystem::Instance().DrainAll();
  return result;
}

}  // namespace
}  // namespace cortenmm

int main(int argc, char** argv) {
  using namespace cortenmm;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  TelemetrySink sink("shootdown");

  PrintHeader("Ablation — TLB shootdown strategies (paper §4.5)",
              "design-choice ablation (DESIGN.md §4); feeds the Fig. 16 adv_base rows",
              "latr >= early-ack >= sync once multiple CPUs are active.");
  std::vector<int> sweep = smoke ? std::vector<int>{2} : SweepThreads();
  std::printf("%-16s", "threads:");
  for (int t : sweep) {
    std::printf(" %9d", t);
  }
  std::printf("   [unmap+touch ops/s]\n");
  for (TlbPolicy policy : {TlbPolicy::kSync, TlbPolicy::kEarlyAck, TlbPolicy::kLatr}) {
    std::vector<double> row;
    for (int threads : sweep) {
      row.push_back(RunUnmapChurn(policy, threads));
    }
    PrintRow(TlbPolicyName(policy), row);
    sink.Snapshot(std::string("churn/") + TlbPolicyName(policy));
  }

  PrintHeader("Ablation — multi-range shootdown gather (mmu_gather)",
              "gather batching (DESIGN.md, \"Multi-range shootdown gather\")",
              "batched issues ~16x fewer shootdowns than unbatched; >=4x is the gate.");
  const int reps = smoke ? 4 : 64;
  std::printf("%-16s %12s %12s %12s   [16 sparse pages/pass, %d passes]\n", "policy:",
              "batched", "unbatched", "reduction", reps);
  for (TlbPolicy policy : {TlbPolicy::kSync, TlbPolicy::kEarlyAck, TlbPolicy::kLatr}) {
    SparseResult with_gather = RunSparseUnmap(policy, /*batched=*/true, reps);
    sink.Snapshot(std::string("sparse_unmap/") + TlbPolicyName(policy) + "/batched");
    SparseResult without = RunSparseUnmap(policy, /*batched=*/false, reps);
    sink.Snapshot(std::string("sparse_unmap/") + TlbPolicyName(policy) + "/unbatched");
    double reduction = with_gather.shootdowns == 0
                           ? 0.0
                           : static_cast<double>(without.shootdowns) /
                                 static_cast<double>(with_gather.shootdowns);
    std::printf("%-16s %12llu %12llu %11.1fx\n", TlbPolicyName(policy),
                static_cast<unsigned long long>(with_gather.shootdowns),
                static_cast<unsigned long long>(without.shootdowns), reduction);
    sink.Gate(std::string("gather_reduction/") + TlbPolicyName(policy),
              reduction, 4.0, reduction >= 4.0,
              "%s reduction %.1fx is below the 4x gate", TlbPolicyName(policy),
              reduction);
  }

  return sink.Finish();
}
