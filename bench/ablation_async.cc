// Ablation: the asynchronous submission rings (DESIGN.md §7). The same
// fixed-address mmap/fault/munmap storm is driven two ways against CortenMM:
//
//  * direct  — one synchronous facade call per operation. Every munmap of a
//    resident region pays its own cursor transaction and its own TlbGather
//    flush, so shootdown batches scale with the operation count.
//  * batched — the operations are enqueued as MmSqe descriptors on each
//    CPU's submission ring and forced through with DrainBarrier. The flat
//    combiner fuses each ring's batch (one 1 GiB subtree per thread) into a
//    single RCursor transaction, so ALL the batch's unmaps leave through ONE
//    gathered flush.
//
// The counter-based comparison is the gate: batched must issue at least 2x
// fewer kTlbShootdowns per 1000 operations than direct (the binary exits
// nonzero otherwise), and its throughput is printed alongside so regressions
// in the combiner show up as ops/s, not just counters. Snapshot labels carry
// ops_per_sec and sd_per_1k, so BENCH_async.json is self-contained.
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/stats.h"
#include "src/obs/telemetry.h"
#include "src/sim/bench_util.h"
#include "src/sim/corten_vm.h"

namespace cortenmm {
namespace {

// Per batch: kRegions fixed-placement regions, each mapped, faulted resident,
// and unmapped — 3 ops per region, 24 ops per batch, under the ring's
// kMaxFusedOps so a whole batch fuses into one transaction.
constexpr int kRegions = 8;
constexpr uint64_t kRegionPages = 4;
constexpr uint64_t kRegionBytes = kRegionPages * kPageSize;
constexpr int kOpsPerBatch = kRegions * 3;

struct StormResult {
  double ops_per_sec = 0.0;
  uint64_t shootdowns = 0;
  uint64_t ops = 0;
  double PerThousandOps() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(shootdowns) * 1000.0 / static_cast<double>(ops);
  }
};

// One thread's round, synchronous flavor.
void DirectRound(CortenVm& mm, Vaddr base) {
  for (int i = 0; i < kRegions; ++i) {
    Vaddr va = base + static_cast<uint64_t>(i) * 2 * kRegionBytes;
    Result<Vaddr> mapped = mm.MmapAnon(MmapArgs::At(va, kRegionBytes, Perm::RW()));
    assert(mapped.ok());
    (void)mapped;
    VoidResult faulted = mm.HandleFault(va, Access::kWrite);
    assert(faulted.ok());
    (void)faulted;
    VoidResult unmapped = mm.Munmap(va, kRegionBytes);
    assert(unmapped.ok());
    (void)unmapped;
  }
}

// The identical round through the ring: submit the whole batch, barrier,
// reap every completion (they must all be kOk and arrive in order).
void BatchedRound(CortenVm& mm, Vaddr base) {
  uint64_t cookie = 0;
  auto submit = [&](MmSqe sqe) {
    sqe.user_data = cookie++;
    bool queued = mm.Submit(sqe);
    assert(queued);
    (void)queued;
  };
  for (int i = 0; i < kRegions; ++i) {
    Vaddr va = base + static_cast<uint64_t>(i) * 2 * kRegionBytes;
    MmSqe map;
    map.op = MmOpCode::kMmapAnonFixed;
    map.va = va;
    map.len = kRegionBytes;
    map.perm = Perm::RW();
    submit(map);
    MmSqe fault;
    fault.op = MmOpCode::kFault;
    fault.va = va;
    fault.access = Access::kWrite;
    submit(fault);
    MmSqe unmap;
    unmap.op = MmOpCode::kMunmap;
    unmap.va = va;
    unmap.len = kRegionBytes;
    submit(unmap);
  }
  mm.DrainBarrier();
  MmCqe cqe;
  for (uint64_t expect = 0; expect < cookie; ++expect) {
    bool reaped = mm.Reap(&cqe);
    assert(reaped && cqe.user_data == expect && cqe.err == ErrCode::kOk);
    (void)reaped;
  }
}

StormResult RunStorm(bool batched, int threads, int rounds) {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  CortenVm mm(options);

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  uint64_t before = GlobalStats().Total(Counter::kTlbShootdowns);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      mm.NoteCpuActive(static_cast<CpuId>(t));
      // Private 1 GiB lock subtree per thread: batches fuse without
      // cross-thread serialization beyond the combiner handoff itself.
      const Vaddr base = (50ull + static_cast<uint64_t>(t)) << 30;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int round = 0; round < rounds; ++round) {
        if (batched) {
          BatchedRound(mm, base);
        } else {
          DirectRound(mm, base);
        }
      }
    });
  }
  while (ready.load() != threads) {
  }
  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) {
    w.join();
  }
  auto t1 = std::chrono::steady_clock::now();

  StormResult result;
  result.ops = static_cast<uint64_t>(threads) * rounds * kOpsPerBatch;
  result.shootdowns = GlobalStats().Total(Counter::kTlbShootdowns) - before;
  double seconds = std::chrono::duration<double>(t1 - t0).count();
  result.ops_per_sec = seconds > 0 ? static_cast<double>(result.ops) / seconds : 0.0;
  return result;
}

std::string SnapshotLabel(const char* mode, int threads, const StormResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "storm/t%d/%s ops_per_sec=%.0f sd_per_1k=%.2f",
                threads, mode, r.ops_per_sec, r.PerThousandOps());
  return buf;
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

  TelemetrySink sink("async");

  PrintHeader("Ablation — asynchronous submission rings (DESIGN.md §7)",
              "per-CPU rings + flat-combining transaction fusion (ROADMAP item 4)",
              "batched needs >=2x fewer shootdowns per 1k ops than direct; "
              "throughput should not regress.");
  std::vector<int> sweep = smoke ? std::vector<int>{2} : SweepThreads();
  const int rounds = smoke ? 40 : 400;

  std::printf("%-10s %14s %14s %12s %12s %10s\n", "threads", "direct ops/s",
              "batched ops/s", "direct/1k", "batched/1k", "reduction");
  for (int threads : sweep) {
    StormResult direct = RunStorm(/*batched=*/false, threads, rounds);
    sink.Snapshot(SnapshotLabel("direct", threads, direct));
    StormResult batched = RunStorm(/*batched=*/true, threads, rounds);
    sink.Snapshot(SnapshotLabel("batched", threads, batched));

    double reduction = batched.shootdowns == 0
                           ? 0.0
                           : direct.PerThousandOps() / batched.PerThousandOps();
    std::printf("%-10d %14.0f %14.0f %12.1f %12.1f %9.1fx\n", threads,
                direct.ops_per_sec, batched.ops_per_sec, direct.PerThousandOps(),
                batched.PerThousandOps(), reduction);
    // Shootdowns need a second active CPU to exist at all; the single-thread
    // row is throughput-only.
    if (threads >= 2) {
      sink.Gate("shootdown_reduction/t" + std::to_string(threads), reduction,
                2.0, reduction >= 2.0,
                "t=%d shootdowns-per-1k reduction %.1fx is below the 2x gate",
                threads, reduction);
    }
  }

  return sink.Finish();
}
