// Figure 16: JVM thread creation (latency, lower is better) and metis
// (throughput, higher is better), with kernel/user time breakdowns and the
// CortenMM_adv ablations (adv_base = no per-core VA allocator + plain
// shootdown; adv_+vpa = per-core VA allocator only).
//
// Paper shape: JVM thread creation — CortenMM ~32% faster than Linux at high
// thread counts (Linux bottlenecked in the page-fault handler on thread-stack
// faults); metis — CortenMM_adv up to 26x Linux (15x for rw); the two
// optimizations contribute little on metis (mmap/munmap are rare there);
// kernel-time share grows with threads on Linux, stays modest on CortenMM.
#include <cstdio>

#include "src/sim/workloads.h"

namespace cortenmm {
namespace {

void JvmPanel() {
  std::vector<int> sweep = SweepThreads();
  std::printf("\n--- JVM thread creation (total latency; lower is better) ---\n");
  std::printf("%-16s", "threads:");
  for (int t : sweep) {
    std::printf(" %9d", t);
  }
  std::printf("   [ms | kernel%%]\n");
  for (MmKind kind : {MmKind::kCortenAdv, MmKind::kCortenRw, MmKind::kLinux}) {
    std::printf("%-16s", MmKindName(kind));
    for (int threads : sweep) {
      TraceResult r = RunJvmThreadCreation(kind, threads);
      std::printf(" %6.2f|%3s", r.seconds * 1e3, KernelShare(r, threads).c_str());
    }
    std::printf("\n");
  }
}

void MetisPanel() {
  std::vector<int> sweep = SweepThreads();
  std::printf("\n--- metis map-reduce (pages/s; higher is better) ---\n");
  std::printf("%-16s", "threads:");
  for (int t : sweep) {
    std::printf(" %9d", t);
  }
  std::printf("   [pages/s | kernel%%]\n");
  std::vector<MmKind> kinds = {MmKind::kCortenAdv, MmKind::kCortenRw, MmKind::kLinux,
                               MmKind::kRadixVm, MmKind::kCortenAdvVpa,
                               MmKind::kCortenAdvBase};
  for (MmKind kind : kinds) {
    std::printf("%-16s", MmKindName(kind));
    for (int threads : sweep) {
      TraceResult r = RunMetis(kind, threads);
      std::printf(" %7.3g|%3s", r.throughput(), KernelShare(r, threads).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace cortenmm

int main() {
  using namespace cortenmm;
  PrintHeader("Figure 16 — JVM thread creation & metis (+ breakdowns, ablations)",
              "Fig. 16",
              "JVM: CortenMM below Linux latency as threads grow. metis: adv "
              "highest, rw next, Linux lowest; adv_base/adv_+vpa close to adv "
              "(mmap/munmap rare in metis); Linux kernel-time share grows.");
  JvmPanel();
  MetisPanel();
  return 0;
}
