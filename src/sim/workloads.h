// Workload generators for every experiment in the paper's evaluation (§6):
// the Table 3 microbenchmarks in low/high-contention variants, and the
// real-world application traces (JVM thread creation, metis, dedup, psearchy,
// PARSEC-like compute apps) expressed as the MM-operation patterns the paper
// attributes each application's behaviour to (DESIGN.md substitution table).
#ifndef SRC_SIM_WORKLOADS_H_
#define SRC_SIM_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/sim/bench_util.h"

namespace cortenmm {

// ---------------------------------------------------------------------------
// Table 3 microbenchmarks
// ---------------------------------------------------------------------------

enum class Micro {
  kMmap,       // mmap() a 16 KiB region.
  kMmapPf,     // mmap() a 16 KiB region and then access it.
  kUnmapVirt,  // munmap() a 16 KiB region not backed by physical pages.
  kUnmap,      // munmap() a 16 KiB region backed by physical pages.
  kPf,         // access a 16 KiB region not backed by physical pages.
};

const char* MicroName(Micro micro);

enum class Contention {
  kLow,   // Each thread works on a private memory region.
  kHigh,  // Threads work on interleaved chunks of one shared region.
};

// Ops/second of the microbenchmark (one op = one 16 KiB region operation).
// |placement| pins the workers onto the NodeTopology (fig14's NUMA axis);
// same-node is the historical flat-machine binding.
double RunMicro(Micro micro, MmKind kind, int threads, Contention contention,
                Arch arch = Arch::kX86_64,
                Placement placement = Placement::kSameNode);

// True if the paper evaluates this microbenchmark for this system (NrOS lacks
// demand paging, so only mmap-PF and unmap apply, §6.2).
bool MicroSupported(Micro micro, MmKind kind);

// ---------------------------------------------------------------------------
// User-level allocator models (Figures 17, 18)
// ---------------------------------------------------------------------------

enum class AllocModel {
  kPtmalloc,  // Returns large allocations to the OS immediately (munmap).
  kTcmalloc,  // Caches freed spans per thread; rarely returns memory.
};

const char* AllocModelName(AllocModel model);

// ---------------------------------------------------------------------------
// Application traces
// ---------------------------------------------------------------------------

struct TraceResult {
  double seconds = 0;         // Wall time of the traced phase.
  // Time inside MM entry points, from the MmOp histograms (0 with telemetry
  // compiled out).
  double kernel_seconds = 0;
  uint64_t work_units = 0;    // Workload-specific unit (pages, items, files).
  uint64_t peak_os_bytes = 0; // Allocator-model OS footprint peak (fig 18).

  double throughput() const { return seconds > 0 ? work_units / seconds : 0; }
};

// The kernel-time share of |r| over |threads| workers as "NN%" (Figures 16
// and 17), or "n/a" when telemetry, the source of kernel_seconds, is
// compiled out.
std::string KernelShare(const TraceResult& r, int threads);

// JVM thread creation (Figure 16 left): N threads spawn concurrently, each
// mmaps and faults its stack + TLS. Returns total latency (lower is better);
// work_units = N.
TraceResult RunJvmThreadCreation(MmKind kind, int nthreads);

// metis map-reduce (Figure 16 right): each thread allocates 8 MiB chunks,
// never returns them, and streams writes/reads over them; work_units = pages.
TraceResult RunMetis(MmKind kind, int threads, int chunks_per_thread = 6);

// dedup (Figure 17 top): a pipeline that allocates/frees 256 KiB buffers at
// high rate plus a small serial section per item; work_units = items.
TraceResult RunDedup(MmKind kind, AllocModel model, int threads,
                     int items_per_thread = 120);

// psearchy file indexing (Figure 17 bottom): per-thread file loop with
// variable-size buffers and a growing index; work_units = files.
TraceResult RunPsearchy(MmKind kind, AllocModel model, int threads,
                        int files_per_thread = 80);

// A compute-bound PARSEC-style app (Figures 15/21): working set allocated
// once, then compute rounds; MM activity is negligible by design.
// |app| picks the working-set size / access mix.
TraceResult RunParsecLike(MmKind kind, const std::string& app, int threads);

// The PARSEC-like apps reported in Figure 21.
const std::vector<std::string>& ParsecApps();

}  // namespace cortenmm

#endif  // SRC_SIM_WORKLOADS_H_
