// Simulated-CPU identity. Each OS thread participating in the simulation is
// bound to a logical CPU id; per-CPU data structures (TLBs, RCU slots,
// per-CPU allocator caches, LATR buffers) are indexed by it.
//
// Threads that never bind explicitly get a unique auto-assigned CPU, so unit
// tests can ignore the machinery entirely.
#ifndef SRC_COMMON_CPU_H_
#define SRC_COMMON_CPU_H_

#include <cstdint>

namespace cortenmm {

inline constexpr int kMaxCpus = 512;

using CpuId = int;

// Binds the calling thread to |cpu| for the remainder of its life (or until
// rebound). |cpu| must be in [0, kMaxCpus).
void BindThisThreadToCpu(CpuId cpu);

namespace cpu_detail {
// -1 until bound or auto-assigned. constinit: reads skip GCC's TLS init
// wrapper, which UBSan reported as a null-pointer load.
extern thread_local constinit CpuId tls_cpu;
CpuId AssignAutoCpu();
}  // namespace cpu_detail

// Returns the calling thread's CPU id, auto-assigning one if unbound. Inline
// fast path: per-CPU hot paths (stats, telemetry) call this per event.
inline CpuId CurrentCpu() {
  CpuId cpu = cpu_detail::tls_cpu;
  return cpu >= 0 ? cpu : cpu_detail::AssignAutoCpu();
}

// Highest CPU id ever observed + 1; used to bound scans over per-CPU state.
int OnlineCpuCount();

// A cache-line sized/aligned wrapper to keep per-CPU slots from false sharing.
inline constexpr int kCacheLineSize = 64;

template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};
};

}  // namespace cortenmm

#endif  // SRC_COMMON_CPU_H_
