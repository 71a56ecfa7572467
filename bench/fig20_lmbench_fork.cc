// Figure 20: the LMbench-style address-space-enumeration benchmarks — fork,
// fork+exec, and shell — CortenMM vs Linux.
//
// Paper shape: fork is CortenMM's worst case (it must walk the page table to
// enumerate the address space where Linux walks its VMA list): ~18% slower.
// fork+exec flips in CortenMM's favour (~23% faster: the exec'd child's
// page-fault storm dominates), and shell is a wash.
//
// Both systems are driven through the MmInterface facade — Fork() is a
// first-class facade operation, so no per-system adapters are needed.
//
// Every run also gates the deterministic cost of one fork+exit on each
// system: shootdowns per fork+exit, PT pages allocated (all freed again by
// the exit), and zero frames leaked. Wall clock is printed only. `--smoke`
// runs fewer timing iterations; BENCH_fig20.json carries the gates.
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/sim/bench_util.h"
#include "src/sim/mmu.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

// The "parent process" image: a moderately populated address space (text,
// heap, stacks), sparse like a real dummy process.
void PopulateParent(MmInterface& mm, std::vector<std::pair<Vaddr, uint64_t>>* regions) {
  struct Region {
    uint64_t bytes;
    uint64_t touch_bytes;
  };
  const Region layout[] = {
      {512 * 1024, 256 * 1024},  // text
      {256 * 1024, 128 * 1024},  // data/heap
      {1ull << 20, 64 * 1024},   // stack (sparse)
      {128 * 1024, 128 * 1024},  // libs
  };
  for (const Region& region : layout) {
    Result<Vaddr> va = mm.MmapAnon(region.bytes, Perm::RW());
    assert(va.ok());
    MmuSim::TouchRange(mm, *va, region.touch_bytes, /*write=*/true);
    regions->push_back({*va, region.bytes});
  }
}

// One "exec": tear down the child's mappings and build a fresh small image.
void ExecInto(MmInterface& child, const std::vector<std::pair<Vaddr, uint64_t>>& regions) {
  for (auto [va, bytes] : regions) {
    child.Munmap(va, bytes);
  }
  Result<Vaddr> text = child.MmapAnon(256 * 1024, Perm::RWX());
  assert(text.ok());
  MmuSim::TouchRange(child, *text, 128 * 1024, /*write=*/true);
}

struct Timings {
  double fork_us;
  double fork_exec_us;
  double shell_us;
};

Timings MeasureVia(MmKind kind, int iters) {
  std::unique_ptr<MmInterface> parent_owner = MakeMm(kind);
  MmInterface& parent = *parent_owner;
  std::vector<std::pair<Vaddr, uint64_t>> regions;
  PopulateParent(parent, &regions);
  Timings timings{};

  auto time_us = [&](auto&& body) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      body();
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
  };

  timings.fork_us = time_us([&] { auto child = parent.Fork(); });
  timings.fork_exec_us = time_us([&] {
    auto child = parent.Fork();
    ExecInto(*child, regions);
  });
  timings.shell_us = time_us([&] {
    auto child = parent.Fork();       // sh
    ExecInto(*child, regions);        // exec sh
    auto grandchild = child->Fork();  // sh -c echo: fork again...
    ExecInto(*grandchild, regions);   // ...exec echo...
    Result<Vaddr> out = grandchild->MmapAnon(64 * 1024, Perm::RW());  // echo buffers
    assert(out.ok());
    (void)out;
  });
  return timings;
}

// Means per fork+exit of the Fig. 20 parent image; deterministic for a given
// tree, so a fractional mean means some fork+exit differed from the rest.
struct ForkExitCounts {
  double shootdowns = 0;
  double pt_pages_allocated = 0;
  double pt_pages_freed = 0;
  int64_t leaked_frames = 0;  // Over all forks, against the pre-fork count.
};

ForkExitCounts CountForkExit(MmKind kind, int forks) {
  std::unique_ptr<MmInterface> parent = MakeMm(kind);
  std::vector<std::pair<Vaddr, uint64_t>> regions;
  PopulateParent(*parent, &regions);
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  uint64_t free_before = BuddyAllocator::Instance().FreeFrameCount();
  uint64_t shootdowns = GlobalStats().Total(Counter::kTlbShootdowns);
  uint64_t allocated = GlobalStats().Total(Counter::kPtPagesAllocated);
  uint64_t freed = GlobalStats().Total(Counter::kPtPagesFreed);
  for (int i = 0; i < forks; ++i) {
    std::unique_ptr<MmInterface> child = parent->Fork();
    assert(child != nullptr);
  }
  auto per_fork = [forks](uint64_t total) { return static_cast<double>(total) / forks; };
  ForkExitCounts counts;
  counts.shootdowns = per_fork(GlobalStats().Total(Counter::kTlbShootdowns) - shootdowns);
  counts.pt_pages_allocated =
      per_fork(GlobalStats().Total(Counter::kPtPagesAllocated) - allocated);
  counts.pt_pages_freed = per_fork(GlobalStats().Total(Counter::kPtPagesFreed) - freed);
  counts.leaked_frames = CheckFrameLeaks(free_before).leaked;
  return counts;
}

}  // namespace
}  // namespace cortenmm

int main(int argc, char** argv) {
  using namespace cortenmm;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  TelemetrySink sink("fig20");
  PrintHeader("Figure 20 — LMbench fork / fork+exec / shell",
              "Fig. 20 (latency, lower is better)",
              "fork: CortenMM slower than Linux (page-table walk vs VMA list); "
              "fork+exec: CortenMM faster (fault handling dominates); shell: "
              "comparable.");
  const int iters = smoke ? 3 : 12;
  Timings corten = MeasureVia(MmKind::kCortenAdv, iters);
  sink.Snapshot("cortenmm-adv");
  Timings linux_mm = MeasureVia(MmKind::kLinux, iters);
  sink.Snapshot("linux");
  std::printf("%-16s %12s %12s %12s   [us/op]\n", "system", "fork", "fork+exec", "shell");
  std::printf("%-16s %12.1f %12.1f %12.1f\n", "CortenMM-adv", corten.fork_us,
              corten.fork_exec_us, corten.shell_us);
  std::printf("%-16s %12.1f %12.1f %12.1f\n", "Linux", linux_mm.fork_us,
              linux_mm.fork_exec_us, linux_mm.shell_us);
  std::printf("\nCortenMM vs Linux: fork %+.0f%%, fork+exec %+.0f%%, shell %+.0f%% "
              "(paper: +17.7%%, -23.0%%, ~0%%; positive = slower)\n",
              (corten.fork_us / linux_mm.fork_us - 1) * 100,
              (corten.fork_exec_us / linux_mm.fork_exec_us - 1) * 100,
              (corten.shell_us / linux_mm.shell_us - 1) * 100);

  // Exact per-fork+exit costs of the parent image above.
  struct Expected {
    MmKind kind;
    const char* name;
    double shootdowns;
    double pt_pages;
  };
  constexpr int kGateForks = 8;
  std::printf("\nper fork+exit: %-14s %10s %10s %10s %8s\n", "system", "shootdowns",
              "pt_alloc", "pt_freed", "leaked");
  for (const Expected& e : {Expected{MmKind::kCortenAdv, "cortenmm-adv", 2, 4},
                            Expected{MmKind::kLinux, "linux", 2, 4}}) {
    ForkExitCounts c = CountForkExit(e.kind, kGateForks);
    std::printf("               %-14s %10g %10g %10g %8lld\n", e.name, c.shootdowns,
                c.pt_pages_allocated, c.pt_pages_freed,
                static_cast<long long>(c.leaked_frames));
    std::string prefix = std::string(e.name) + ".";
    sink.Gate(prefix + "shootdowns_per_fork_exit", c.shootdowns, e.shootdowns,
              c.shootdowns == e.shootdowns, "%s: %g shootdowns per fork+exit, expected %g",
              e.name, c.shootdowns, e.shootdowns);
    sink.Gate(prefix + "pt_pages_allocated_per_fork_exit", c.pt_pages_allocated, e.pt_pages,
              c.pt_pages_allocated == e.pt_pages,
              "%s: %g PT pages allocated per fork+exit, expected %g", e.name,
              c.pt_pages_allocated, e.pt_pages);
    sink.Gate(prefix + "pt_pages_freed_per_fork_exit", c.pt_pages_freed,
              c.pt_pages_allocated, c.pt_pages_freed == c.pt_pages_allocated,
              "%s: exit freed %g PT pages of the %g the fork allocated", e.name,
              c.pt_pages_freed, c.pt_pages_allocated);
    sink.Gate(prefix + "leaked_frames", static_cast<double>(c.leaked_frames), 0.0,
              c.leaked_frames == 0, "%s: %lld frames not back after %d fork+exits", e.name,
              static_cast<long long>(c.leaked_frames), kGateForks);
  }
  return sink.Finish();
}
