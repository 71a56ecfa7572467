// Figure 17: dedup and psearchy under the two allocator models.
//
// Paper shape: with ptmalloc (memory returned to the OS eagerly) Linux stops
// scaling early — dedup munmaps constantly and serializes on mmap_lock —
// while CortenMM keeps scaling (2.69x at 64 threads in the paper); with
// tcmalloc (memory retained) the OS is mostly out of the loop and Linux
// catches up. psearchy: CortenMM ~2x Linux with ptmalloc.
#include <cstdio>

#include "src/sim/workloads.h"

namespace cortenmm {
namespace {

using TraceFn = TraceResult (*)(MmKind, AllocModel, int, int);

void Panel(const char* title, TraceFn fn, int per_thread) {
  std::vector<int> sweep = SweepThreads();
  for (AllocModel model : {AllocModel::kPtmalloc, AllocModel::kTcmalloc}) {
    std::printf("\n--- %s / %s --- threads:", title, AllocModelName(model));
    for (int t : sweep) {
      std::printf(" %8d", t);
    }
    std::printf("  [items/s | kernel%%]\n");
    for (MmKind kind : {MmKind::kCortenAdv, MmKind::kCortenRw, MmKind::kLinux}) {
      std::printf("%-16s", MmKindName(kind));
      for (int threads : sweep) {
        TraceResult r = fn(kind, model, threads, per_thread);
        std::printf(" %6.3g|%3s", r.throughput(), KernelShare(r, threads).c_str());
      }
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace cortenmm

int main() {
  using namespace cortenmm;
  PrintHeader("Figure 17 — dedup & psearchy under allocator models",
              "Fig. 17",
              "ptmalloc: Linux flat (mmap_lock contention on munmap), CortenMM "
              "scales; tcmalloc: gap narrows (OS rarely involved).");
  Panel("dedup", &RunDedup, 100);
  Panel("psearchy", &RunPsearchy, 60);
  return 0;
}
