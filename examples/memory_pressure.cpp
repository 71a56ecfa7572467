// Memory pressure: page swapping through the transactional interface
// (paper Table 2 / §4.3).
//
// An in-memory cache holds more data than its physical budget. A tiny
// "kswapd" policy evicts the coldest regions to the simulated swap device;
// later touches fault the pages back in transparently with their contents
// intact. The example verifies every byte survives the round trip.
//
// Build & run:  cmake --build build && ./build/examples/memory_pressure
#include <cstdio>
#include <vector>

#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"

using namespace cortenmm;

int main() {
  std::printf("memory pressure / swapping example\n==================================\n\n");

  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  CortenVm mm(options);

  constexpr int kSegments = 8;
  constexpr uint64_t kSegmentPages = 128;  // 512 KiB each, 4 MiB total data.
  constexpr uint64_t kResidentBudgetPages = 3 * kSegmentPages;  // Only 1.5 MiB "RAM".

  // Fill the cache: newest segments are hottest.
  std::vector<Vaddr> segments;
  for (int s = 0; s < kSegments; ++s) {
    Result<Vaddr> va = mm.MmapAnon(kSegmentPages * kPageSize, Perm::RW());
    if (!va.ok()) {
      std::printf("mmap failed\n");
      return 1;
    }
    segments.push_back(*va);
    for (uint64_t p = 0; p < kSegmentPages; ++p) {
      MmuSim::Write(mm, *va + p * kPageSize, (uint64_t{0xcafe} << 32) | (s << 16) | p);
    }
    // kswapd policy: when over budget, swap out the coldest (oldest) segment.
    while (mm.vm().addr_space().ResidentPagesFast() > kResidentBudgetPages) {
      static int next_victim = 0;
      Result<uint64_t> evicted =
          mm.SwapOut(segments[next_victim], kSegmentPages * kPageSize);
      std::printf("  over budget after segment %d: swapped out segment %d "
                  "(%llu pages)\n",
                  s, next_victim, static_cast<unsigned long long>(evicted.value_or(0)));
      ++next_victim;
    }
  }

  std::printf("\nresident: %llu pages; swap device holds %llu blocks\n",
              static_cast<unsigned long long>(mm.vm().addr_space().ResidentPagesFast()),
              static_cast<unsigned long long>(SwapDevice::Instance().blocks_in_use()));

  // Random-access verification: every word of every segment must read back
  // exactly, swapped or not (swap-ins happen transparently in the fault
  // handler's Status::kSwapped arm).
  uint64_t swap_ins_before = GlobalStats().Total(Counter::kSwapIns);
  uint64_t errors = 0;
  for (int s = 0; s < kSegments; ++s) {
    for (uint64_t p = 0; p < kSegmentPages; ++p) {
      uint64_t expect = (uint64_t{0xcafe} << 32) | (static_cast<uint64_t>(s) << 16) | p;
      uint64_t got = 0;
      if (!MmuSim::Read(mm, segments[s] + p * kPageSize, &got).ok() || got != expect) {
        ++errors;
      }
    }
  }
  std::printf("verified %d segments x %llu pages: %llu errors, %llu pages "
              "swapped back in\n",
              kSegments, static_cast<unsigned long long>(kSegmentPages),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(GlobalStats().Total(Counter::kSwapIns) -
                                              swap_ins_before));
  std::printf("\n%s\n", errors == 0 ? "OK: all data survived the swap round trip."
                                    : "FAILURE: data corruption!");
  return errors == 0 ? 0 : 1;
}
