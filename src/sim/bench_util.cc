#include "src/sim/bench_util.h"

#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/baseline/linux_mm.h"
#include "src/common/topology.h"
#include "src/obs/telemetry.h"
#include "src/pmm/phys_mem.h"
#include "src/baseline/nros_mm.h"
#include "src/baseline/radixvm_mm.h"
#include "src/sim/corten_vm.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {

const char* MmKindName(MmKind kind) {
  switch (kind) {
    case MmKind::kCortenAdv:
      return "CortenMM-adv";
    case MmKind::kCortenRw:
      return "CortenMM-rw";
    case MmKind::kLinux:
      return "Linux";
    case MmKind::kRadixVm:
      return "RadixVM";
    case MmKind::kNros:
      return "NrOS";
    case MmKind::kCortenAdvVpa:
      return "adv_+vpa";
    case MmKind::kCortenAdvBase:
      return "adv_base";
  }
  return "unknown";
}

std::unique_ptr<MmInterface> MakeMm(MmKind kind, Arch arch) {
  // All benchmark comparisons go through this factory: warm the simulated
  // physical arena exactly once so no system pays the host's demand-zero
  // faults during a timed phase.
  static const bool warmed = [] {
    PhysMem::Instance().Prewarm();
    return true;
  }();
  (void)warmed;
  switch (kind) {
    case MmKind::kCortenAdv: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kAdv;
      options.tlb_policy = TlbPolicy::kLatr;
      options.per_core_va = true;
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kCortenRw: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kRw;
      options.tlb_policy = TlbPolicy::kLatr;
      options.per_core_va = true;
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kCortenAdvVpa: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kAdv;
      options.tlb_policy = TlbPolicy::kSync;  // No advanced shootdowns.
      options.per_core_va = true;
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kCortenAdvBase: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kAdv;
      options.tlb_policy = TlbPolicy::kSync;
      options.per_core_va = false;  // Shared VA allocator.
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kLinux: {
      LinuxVmaMm::Options options;
      options.arch = arch;
      return std::make_unique<LinuxVmaMm>(options);
    }
    case MmKind::kRadixVm: {
      RadixVmMm::Options options;
      options.arch = arch;
      return std::make_unique<RadixVmMm>(options);
    }
    case MmKind::kNros: {
      NrosMm::Options options;
      options.arch = arch;
      return std::make_unique<NrosMm>(options);
    }
  }
  return nullptr;
}

std::vector<MmKind> ComparisonSet() {
  return {MmKind::kCortenAdv, MmKind::kCortenRw, MmKind::kLinux, MmKind::kRadixVm,
          MmKind::kNros};
}

const char* PlacementName(Placement placement) {
  return placement == Placement::kSameNode ? "same-node" : "striped";
}

CpuId PlacementCpu(Placement placement, int thread) {
  const NodeTopology& topo = NodeTopology::Instance();
  if (placement == Placement::kSameNode || topo.nodes() < 2) {
    // FirstCpuOfNode(0) is 0, so this is bind-to-CPU-t — the pre-topology
    // behavior every existing bench baked its numbers against.
    return topo.FirstCpuOfNode(0) + thread;
  }
  int node = thread % topo.nodes();
  return topo.FirstCpuOfNode(node) + thread / topo.nodes();
}

double RunPhased(const PhasedSpec& spec) {
  std::barrier barrier(spec.threads);
  std::atomic<int64_t> timed_nanos{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(PlacementCpu(spec.placement, t));
      for (int round = 0; round < spec.rounds; ++round) {
        if (spec.setup) {
          spec.setup(t, round);
        }
        barrier.arrive_and_wait();
        auto t0 = std::chrono::steady_clock::now();
        for (int op = 0; op < spec.ops_per_round; ++op) {
          spec.timed_op(t, round, op);
        }
        barrier.arrive_and_wait();
        auto t1 = std::chrono::steady_clock::now();
        if (t == 0 && round > 0) {  // Round 0 is warmup (cold PT paths, caches).
          timed_nanos.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        }
        if (spec.teardown) {
          spec.teardown(t, round);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  double seconds = static_cast<double>(timed_nanos.load()) * 1e-9;
  double total_ops =
      static_cast<double>(spec.rounds - 1) * spec.ops_per_round * spec.threads;
  return seconds > 0 ? total_ops / seconds : 0;
}

double RunParallel(int threads, const std::function<void(int)>& fn) {
  std::barrier barrier(threads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      barrier.arrive_and_wait();
      fn(t);
    });
  }
  // t0 is taken *before* the barrier: taking it after would undercount the
  // window whenever the main thread is descheduled at barrier release (the
  // workers may then run to completion before the clock is read). The skew
  // included here — the last worker's arrival at the barrier — is bounded by
  // thread startup, which the traces legitimately include (JVM thread
  // creation measures exactly that).
  auto t0 = std::chrono::steady_clock::now();
  barrier.arrive_and_wait();
  for (auto& w : workers) {
    w.join();
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void GateFrameLeaks(TelemetrySink& sink, uint64_t baseline_free) {
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  if (leaks.ok) {
    std::printf("frame leaks after drain: 0\n");
  }
  sink.Gate("frame_leaks", static_cast<double>(leaks.leaked), 0, leaks.ok,
            "leaked %lld frames (baseline %llu, now %llu, stranded cached "
            "%llu, stranded anon %llu, misplaced %llu)",
            static_cast<long long>(leaks.leaked),
            static_cast<unsigned long long>(leaks.baseline_free),
            static_cast<unsigned long long>(leaks.current_free),
            static_cast<unsigned long long>(leaks.stranded_cached),
            static_cast<unsigned long long>(leaks.stranded_anon),
            static_cast<unsigned long long>(leaks.misplaced_home));
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper reference: %s\n", paper_ref.c_str());
  std::printf("Expected shape:  %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::string& label, const std::vector<double>& values,
              const std::vector<std::string>& units) {
  std::printf("%-16s", label.c_str());
  for (size_t i = 0; i < values.size(); ++i) {
    const char* unit = i < units.size() ? units[i].c_str() : "";
    if (values[i] >= 1e6) {
      std::printf(" %10.3gM%s", values[i] / 1e6, unit);
    } else if (values[i] >= 1e3) {
      std::printf(" %10.3gk%s", values[i] / 1e3, unit);
    } else {
      std::printf(" %10.3g%s", values[i], unit);
    }
  }
  std::printf("\n");
}

std::vector<int> SweepThreads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) {
    hw = 2;
  }
  std::vector<int> sweep;
  for (int t = 1; t <= 2 * hw && t <= 16; t *= 2) {
    sweep.push_back(t);
  }
  return sweep;
}

}  // namespace cortenmm
