// Ablation: transparent huge pages end-to-end. A 64 MiB 2 MiB-aligned
// anonymous region is touched page by page with the huge policy off (every
// touch demand-fills one 4 KiB frame) and on (the first touch of each 2 MiB
// slot installs one level-2 leaf). Three effects are measured:
//
//   * fault count — 16384 4 KiB demand fills collapse into 32 huge faults,
//     so the reduction is ~512x; >=8x is the regression gate.
//   * gathered shootdown ranges — unmapping the region gathers one range per
//     cleared leaf before coalescing: 32 with huge leaves vs 16384 without.
//     The gate requires strictly fewer.
//   * simulated-TLB miss rate on a steady-state second pass — one TLB entry
//     covers 512 base pages, so the huge run must miss less.
//
// The binary exits nonzero when a gate fails, so the bench-smoke ctest
// target doubles as a regression gate (BENCH_huge.json carries the numbers).
#include <cassert>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/stats.h"
#include "src/core/addr_space.h"
#include "src/obs/telemetry.h"
#include "src/sim/bench_util.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/tlb/shootdown.h"
#include "src/tlb/tlb.h"

namespace cortenmm {
namespace {

constexpr uint64_t kRegionBytes = 64ull << 20;  // 64 MiB = 32 huge slots.

struct HugeTouchResult {
  uint64_t faults = 0;        // kPageFaults during the first (faulting) pass.
  uint64_t ranges = 0;        // kTlbRangesGathered during the munmap.
  uint64_t shootdowns = 0;    // kTlbShootdowns during the munmap.
  uint64_t huge_faults = 0;   // 2 MiB leaves installed.
  uint64_t fallbacks = 0;     // Huge attempts that fell back to 4 KiB.
  double tlb_miss_rate = 0.0;  // Steady-state second pass.
};

HugeTouchResult RunHugeTouch(bool huge) {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  options.huge_pages = huge;
  HugeTouchResult result;
  {
    CortenVm mm(options);
    mm.NoteCpuActive(CurrentCpu());

    Result<Vaddr> va = mm.MmapAnon(kRegionBytes, Perm::RW());
    assert(va.ok());

    uint64_t faults_before = GlobalStats().Total(Counter::kPageFaults);
    uint64_t huge_before = GlobalStats().Total(Counter::kHugeFaults);
    uint64_t fallback_before = GlobalStats().Total(Counter::kHugeFallbacks);
    VoidResult touched = MmuSim::TouchRange(mm, *va, kRegionBytes, /*write=*/true);
    assert(touched.ok());
    (void)touched;
    result.faults = GlobalStats().Total(Counter::kPageFaults) - faults_before;
    result.huge_faults = GlobalStats().Total(Counter::kHugeFaults) - huge_before;
    result.fallbacks =
        GlobalStats().Total(Counter::kHugeFallbacks) - fallback_before;

    // Steady state: everything is resident, so the second pass measures pure
    // translation behaviour — how far 2 MiB entries stretch the TLB.
    Tlb& tlb = TlbSystem::Instance().CpuTlb(CurrentCpu());
    uint64_t lookups_before = tlb.lookups();
    uint64_t hits_before = tlb.hits();
    touched = MmuSim::TouchRange(mm, *va, kRegionBytes, /*write=*/false);
    assert(touched.ok());
    uint64_t lookups = tlb.lookups() - lookups_before;
    uint64_t hits = tlb.hits() - hits_before;
    result.tlb_miss_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(lookups - hits) / static_cast<double>(lookups);

    uint64_t ranges_before = GlobalStats().Total(Counter::kTlbRangesGathered);
    uint64_t shootdowns_before = GlobalStats().Total(Counter::kTlbShootdowns);
    VoidResult unmapped = mm.Munmap(*va, kRegionBytes);
    assert(unmapped.ok());
    (void)unmapped;
    result.ranges =
        GlobalStats().Total(Counter::kTlbRangesGathered) - ranges_before;
    result.shootdowns =
        GlobalStats().Total(Counter::kTlbShootdowns) - shootdowns_before;
  }
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
  (void)smoke;  // The workload is deterministic and fast; smoke runs it whole.

  BuildConfig::Set("protocol", "adv");
  BuildConfig::Set("page_size_policy", "thp-ablation");
  TelemetrySink sink("huge");

  PrintHeader("Ablation — transparent huge pages (multi-size page runs)",
              "THP policy on the multi-size substrate (DESIGN.md §4)",
              ">=8x fewer faults and fewer gathered ranges with huge=on.");
  std::printf("%-8s %12s %12s %12s %12s %12s %10s\n", "policy:", "faults",
              "huge_faults", "fallbacks", "ranges", "shootdowns", "tlb_miss");

  HugeTouchResult off = RunHugeTouch(/*huge=*/false);
  sink.Snapshot("touch64M/4k");
  HugeTouchResult on = RunHugeTouch(/*huge=*/true);
  sink.Snapshot("touch64M/thp");

  for (const auto& [label, r] :
       {std::pair<const char*, const HugeTouchResult&>{"4k", off},
        std::pair<const char*, const HugeTouchResult&>{"thp", on}}) {
    std::printf("%-8s %12llu %12llu %12llu %12llu %12llu %9.2f%%\n", label,
                static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.huge_faults),
                static_cast<unsigned long long>(r.fallbacks),
                static_cast<unsigned long long>(r.ranges),
                static_cast<unsigned long long>(r.shootdowns),
                r.tlb_miss_rate * 100.0);
  }

  double fault_reduction =
      on.faults == 0 ? 0.0
                     : static_cast<double>(off.faults) / static_cast<double>(on.faults);
  std::printf("\nfault reduction: %.1fx (gate: >=8x)\n", fault_reduction);
  sink.Gate("fault_reduction", fault_reduction, 8.0, fault_reduction >= 8.0,
            "fault reduction %.1fx is below the 8x gate", fault_reduction);
  sink.Gate("gathered_ranges", static_cast<double>(on.ranges),
            static_cast<double>(off.ranges), on.ranges < off.ranges,
            "huge=on gathered %llu ranges, not fewer than %llu",
            static_cast<unsigned long long>(on.ranges),
            static_cast<unsigned long long>(off.ranges));
  if (on.tlb_miss_rate > off.tlb_miss_rate) {
    std::printf("  note: huge=on TLB miss rate %.2f%% above 4k %.2f%%\n",
                on.tlb_miss_rate * 100.0, off.tlb_miss_rate * 100.0);
  }

  return sink.Finish();
}
