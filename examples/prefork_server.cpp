// Pre-fork server (zygote pattern): the workload the paper's fork/COW
// machinery (§4.3) serves in practice.
//
// A parent "server" process loads its configuration (a private file mapping)
// and builds an in-memory template heap, then forks N workers. Every worker
// shares the parent's memory copy-on-write; only the pages a worker actually
// writes get copied. The example prints the sharing economics.
//
// Build & run:  cmake --build build && ./build/examples/prefork_server
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/pmm/buddy.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"

using namespace cortenmm;

namespace {

// fork() is a first-class MmInterface operation, so the example drives
// everything through the facade; CortenVm is only named to construct the
// parent (and to read its resident-page counter, a CortenMM-specific
// accounting hook).
std::unique_ptr<CortenVm> MakeParent() {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  return std::make_unique<CortenVm>(options);
}

}  // namespace

int main() {
  std::printf("pre-fork server example\n=======================\n\n");
  constexpr int kWorkers = 4;
  constexpr uint64_t kHeapPages = 256;       // 1 MiB template heap.
  constexpr uint64_t kConfigPages = 64;      // 256 KiB config file.

  // --- Parent: load config (private file mapping) + build template heap. ---
  std::unique_ptr<CortenVm> parent = MakeParent();

  SimFile* config = FileRegistry::Instance().CreateFile(kConfigPages);
  Result<Vaddr> config_va = parent->MmapFilePrivate(
      config, 0, kConfigPages * kPageSize, Perm::R());
  Result<Vaddr> heap = parent->MmapAnon(kHeapPages * kPageSize, Perm::RW());
  if (!config_va.ok() || !heap.ok()) {
    std::printf("setup failed\n");
    return 1;
  }
  // Parse the config (reads fault the page cache in, shared read-only)...
  for (uint64_t p = 0; p < kConfigPages; ++p) {
    uint64_t word = 0;
    MmuSim::Read(*parent, *config_va + p * kPageSize, &word);
  }
  // ...and precompute the template heap.
  for (uint64_t p = 0; p < kHeapPages; ++p) {
    MmuSim::Write(*parent, *heap + p * kPageSize, 0xc0ffee00 + p);
  }
  std::printf("parent resident pages: %llu (heap %llu + config %llu)\n",
              static_cast<unsigned long long>(parent->vm().addr_space().ResidentPagesFast()),
              static_cast<unsigned long long>(kHeapPages),
              static_cast<unsigned long long>(kConfigPages));

  // --- Fork the worker pool. Each fork is one whole-space transaction. ---
  uint64_t frames_before = GlobalStats().Total(Counter::kFramesAllocated) -
                           GlobalStats().Total(Counter::kFramesFreed);
  std::vector<std::unique_ptr<MmInterface>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(parent->Fork());
  }
  uint64_t frames_after_fork = GlobalStats().Total(Counter::kFramesAllocated) -
                               GlobalStats().Total(Counter::kFramesFreed);
  std::printf("forked %d workers: +%llu frames (page tables only — every heap "
              "page is shared COW)\n",
              kWorkers,
              static_cast<unsigned long long>(frames_after_fork - frames_before));

  // --- Workers serve requests: mostly reads, a few writes (COW copies). ---
  uint64_t cow_before = GlobalStats().Total(Counter::kCowFaults);
  for (int w = 0; w < kWorkers; ++w) {
    MmInterface& worker = *workers[w];
    // Read the shared template (no copies)...
    uint64_t checksum = 0;
    for (uint64_t p = 0; p < kHeapPages; p += 4) {
      uint64_t word = 0;
      MmuSim::Read(worker, *heap + p * kPageSize, &word);
      checksum += word;
    }
    // ...then scribble session state into 8 private pages (COW copies).
    for (uint64_t p = 0; p < 8; ++p) {
      MmuSim::Write(worker, *heap + p * kPageSize, 0xdead0000 + w);
    }
    std::printf("worker %d served: checksum %llx, wrote 8 pages\n", w,
                static_cast<unsigned long long>(checksum));
  }
  uint64_t frames_after_serve = GlobalStats().Total(Counter::kFramesAllocated) -
                                GlobalStats().Total(Counter::kFramesFreed);
  std::printf("\nCOW faults during serving: %llu; private copies created: %llu "
              "frames (of %llu shared heap pages x %d workers)\n",
              static_cast<unsigned long long>(GlobalStats().Total(Counter::kCowFaults) -
                                              cow_before),
              static_cast<unsigned long long>(frames_after_serve - frames_after_fork),
              static_cast<unsigned long long>(kHeapPages), kWorkers);

  // Parent's template is intact despite worker writes.
  uint64_t word = 0;
  MmuSim::Read(*parent, *heap, &word);
  std::printf("parent heap page 0 still reads 0x%llx (expected 0xc0ffee00)\n",
              static_cast<unsigned long long>(word));
  return 0;
}
