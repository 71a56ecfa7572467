#include "src/common/cpu.h"

#include <atomic>
#include <cassert>

namespace cortenmm {
namespace {

std::atomic<int> g_next_auto_cpu{0};
std::atomic<int> g_online_count{1};

void NoteCpu(CpuId cpu) {
  int seen = g_online_count.load(std::memory_order_relaxed);
  while (cpu + 1 > seen &&
         !g_online_count.compare_exchange_weak(seen, cpu + 1, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace cpu_detail {

thread_local constinit CpuId tls_cpu = -1;

CpuId AssignAutoCpu() {
  CpuId cpu = g_next_auto_cpu.fetch_add(1, std::memory_order_relaxed) % kMaxCpus;
  tls_cpu = cpu;
  NoteCpu(cpu);
  return cpu;
}

}  // namespace cpu_detail

void BindThisThreadToCpu(CpuId cpu) {
  assert(cpu >= 0 && cpu < kMaxCpus);
  cpu_detail::tls_cpu = cpu;
  NoteCpu(cpu);
}

int OnlineCpuCount() { return g_online_count.load(std::memory_order_relaxed); }

}  // namespace cortenmm
