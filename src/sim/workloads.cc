#include "src/sim/workloads.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/obs/telemetry.h"
#include "src/sim/mmu.h"
#include "src/sync/spinlock.h"

namespace cortenmm {
namespace {

constexpr uint64_t kRegionBytes = 4 * kPageSize;  // Table 3: 16 KiB regions.
// Timed phases must span several milliseconds or scheduler ticks dominate the
// measurement; cheap ops (mmap, unmap-virt) get more ops per round, ops that
// back pages with frames are bounded by the simulated physical memory.
constexpr int kCheapOpsPerRound = 4096;
constexpr int kBackedOpsPerRound = 1024;
// Fixed VA window for high-contention variants (shared by all threads).
constexpr Vaddr kSharedBase = 64ull << 30;

}  // namespace

const char* MicroName(Micro micro) {
  switch (micro) {
    case Micro::kMmap:
      return "mmap";
    case Micro::kMmapPf:
      return "mmap-PF";
    case Micro::kUnmapVirt:
      return "unmap-virt";
    case Micro::kUnmap:
      return "unmap";
    case Micro::kPf:
      return "PF";
  }
  return "unknown";
}

const char* AllocModelName(AllocModel model) {
  return model == AllocModel::kPtmalloc ? "ptmalloc" : "tcmalloc";
}

bool MicroSupported(Micro micro, MmKind kind) {
  if (kind == MmKind::kNros) {
    // NrOS has no demand paging (paper Table 2 / §6.2): only mmap-PF (which
    // is just mmap there) and unmap are meaningful.
    return micro == Micro::kMmapPf || micro == Micro::kUnmap;
  }
  return true;
}

double RunMicro(Micro micro, MmKind kind, int threads, Contention contention, Arch arch,
                Placement placement) {
  std::unique_ptr<MmInterface> mm = MakeMm(kind, arch);
  MmInterface& m = *mm;

  // Per-thread region bookkeeping.
  struct ThreadState {
    std::vector<Vaddr> regions;
    Rng rng{0};
  };
  std::vector<ThreadState> states(threads);
  for (int t = 0; t < threads; ++t) {
    states[t].rng = Rng(0xbeef + t);
  }

  auto chunk_va = [&](int t, int op) {
    // Interleaved disjoint chunks of one shared window.
    return kSharedBase + (static_cast<uint64_t>(op) * threads + t) * kRegionBytes;
  };

  bool backed = micro == Micro::kMmapPf || micro == Micro::kUnmap || micro == Micro::kPf;
  // Backed workloads on many threads are clamped so frames fit in the arena.
  int ops = backed ? kBackedOpsPerRound : kCheapOpsPerRound;
  while (backed && static_cast<uint64_t>(ops) * threads * kRegionBytes > (512ull << 20)) {
    ops /= 2;
  }
  PhasedSpec spec;
  spec.threads = threads;
  spec.rounds = 3;
  spec.ops_per_round = ops;
  spec.placement = placement;

  bool low = contention == Contention::kLow;
  switch (micro) {
    case Micro::kMmap:
    case Micro::kMmapPf: {
      bool touch = micro == Micro::kMmapPf;
      spec.timed_op = [&, touch, low](int t, int, int op) {
        Vaddr va;
        if (low) {
          Result<Vaddr> r = m.MmapAnon(kRegionBytes, Perm::RW());
          assert(r.ok());
          va = *r;
        } else {
          va = chunk_va(t, op);
          Result<Vaddr> r = m.MmapAnon(MmapArgs::At(va, kRegionBytes, Perm::RW()));
          assert(r.ok());
          (void)r;
        }
        states[t].regions.push_back(va);
        if (touch) {
          MmuSim::TouchRange(m, va, kRegionBytes, /*write=*/true);
        }
      };
      spec.teardown = [&](int t, int) {
        for (Vaddr va : states[t].regions) {
          m.Munmap(va, kRegionBytes);
        }
        states[t].regions.clear();
      };
      break;
    }
    case Micro::kUnmapVirt:
    case Micro::kUnmap: {
      bool touch = micro == Micro::kUnmap;
      spec.setup = [&, touch, low, ops](int t, int) {
        for (int op = 0; op < ops; ++op) {
          Vaddr va;
          if (low) {
            Result<Vaddr> r = m.MmapAnon(kRegionBytes, Perm::RW());
            assert(r.ok());
            va = *r;
          } else {
            va = chunk_va(t, op);
            m.MmapAnon(MmapArgs::At(va, kRegionBytes, Perm::RW()));
          }
          states[t].regions.push_back(va);
          if (touch || !m.demand_paging()) {
            MmuSim::TouchRange(m, va, kRegionBytes, /*write=*/true);
          }
        }
      };
      spec.timed_op = [&](int t, int, int op) {
        m.Munmap(states[t].regions[op], kRegionBytes);
      };
      spec.teardown = [&](int t, int) { states[t].regions.clear(); };
      break;
    }
    case Micro::kPf: {
      spec.setup = [&, low, ops](int t, int) {
        for (int op = 0; op < ops; ++op) {
          Vaddr va;
          if (low) {
            Result<Vaddr> r = m.MmapAnon(kRegionBytes, Perm::RW());
            assert(r.ok());
            va = *r;
          } else {
            va = chunk_va(t, op);
            m.MmapAnon(MmapArgs::At(va, kRegionBytes, Perm::RW()));
          }
          states[t].regions.push_back(va);
        }
      };
      spec.timed_op = [&, low](int t, int, int op) {
        Vaddr va;
        if (low) {
          va = states[t].regions[op];
        } else {
          // Random chunk anywhere in the shared window: threads collide on
          // the same leaf PT pages (the paper's high-contention PF).
          uint64_t chunk = states[t].rng.Below(
              static_cast<uint64_t>(threads) * ops);
          va = kSharedBase + chunk * kRegionBytes;
        }
        MmuSim::TouchRange(m, va, kRegionBytes, /*write=*/true);
      };
      spec.teardown = [&](int t, int) {
        for (Vaddr va : states[t].regions) {
          m.Munmap(va, kRegionBytes);
        }
        states[t].regions.clear();
      };
      break;
    }
  }
  // Median of three runs: the evaluation machine is small and shared, and a
  // single scheduler hiccup inside a timed phase would otherwise leak into
  // the figure.
  double a = RunPhased(spec);
  double b = RunPhased(spec);
  double c = RunPhased(spec);
  double lo = std::min(std::min(a, b), c);
  double hi = std::max(std::max(a, b), c);
  return a + b + c - lo - hi;
}

// ---------------------------------------------------------------------------
// User-level allocator models
// ---------------------------------------------------------------------------

namespace {

class UserAllocator {
 public:
  UserAllocator(MmInterface& mm, AllocModel model) : mm_(mm), model_(model) {}

  ~UserAllocator() {
    // Return every cached span (process exit).
    for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
      Cache& cache = caches_[cpu].value;
      for (auto& [size, spans] : cache.spans) {
        for (Vaddr va : spans) {
          mm_.Munmap(va, size);
        }
      }
    }
  }

  Vaddr Malloc(uint64_t size) {
    size = AlignUp(size, kPageSize);
    if (model_ == AllocModel::kTcmalloc) {
      Cache& cache = caches_[CurrentCpu()].value;
      SpinGuard guard(cache.lock);
      auto it = cache.spans.find(size);
      if (it != cache.spans.end() && !it->second.empty()) {
        Vaddr va = it->second.back();
        it->second.pop_back();
        return va;
      }
    }
    Result<Vaddr> va = mm_.MmapAnon(size, Perm::RW());
    if (!va.ok()) {
      // Surface exhaustion loudly: silent failures would fake throughput.
      std::fprintf(stderr, "UserAllocator: out of memory for %llu bytes\n",
                   static_cast<unsigned long long>(size));
      std::abort();
    }
    uint64_t now = os_bytes_.fetch_add(size, std::memory_order_relaxed) + size;
    uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_bytes_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return *va;
  }

  void Free(Vaddr va, uint64_t size) {
    size = AlignUp(size, kPageSize);
    if (model_ == AllocModel::kTcmalloc) {
      // Cache the span; memory stays with the process (Figure 18's overhead).
      Cache& cache = caches_[CurrentCpu()].value;
      SpinGuard guard(cache.lock);
      cache.spans[size].push_back(va);
      return;
    }
    mm_.Munmap(va, size);
    os_bytes_.fetch_sub(size, std::memory_order_relaxed);
  }

  uint64_t peak_os_bytes() const { return peak_bytes_.load(std::memory_order_relaxed); }

 private:
  struct Cache {
    SpinLock lock;
    std::unordered_map<uint64_t, std::vector<Vaddr>> spans;
  };

  MmInterface& mm_;
  AllocModel model_;
  std::atomic<uint64_t> os_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  CacheAligned<Cache> caches_[kMaxCpus];
};

// A touch-write then touch-read pass over a buffer through the MMU.
void UseBuffer(MmInterface& mm, Vaddr va, uint64_t bytes) {
  MmuSim::TouchRange(mm, va, bytes, /*write=*/true);
  for (Vaddr page = va; page < va + bytes; page += kPageSize) {
    uint64_t value = 0;
    MmuSim::Read(mm, page, &value);
  }
}

}  // namespace

namespace {

// Runs a trace three times and keeps the run with the median wall time (the
// same scheduler-noise defense as RunMicro).
TraceResult Median3(const std::function<TraceResult()>& run) {
  TraceResult a = run();
  TraceResult b = run();
  TraceResult c = run();
  if ((a.seconds <= b.seconds) == (b.seconds <= c.seconds)) {
    return b;
  }
  if ((b.seconds <= a.seconds) == (a.seconds <= c.seconds)) {
    return a;
  }
  return c;
}

// Nanoseconds spent inside MM entry points so far, across all threads: the
// summed op histograms, which ScopedOpTimer fills on the outermost call of
// every entry point of all five backends. A trace's kernel time is the delta
// over its run. Always 0 with telemetry compiled out.
uint64_t MmEntryNanos() {
  uint64_t total = 0;
  for (int op = 0; op < static_cast<int>(MmOp::kCount); ++op) {
    total += Telemetry::Instance().MergedOp(static_cast<MmOp>(op)).sum_ns;
  }
  return total;
}

TraceResult RunJvmThreadCreationOnce(MmKind kind, int nthreads);
TraceResult RunMetisOnce(MmKind kind, int threads, int chunks_per_thread);
TraceResult RunDedupOnce(MmKind kind, AllocModel model, int threads,
                         int items_per_thread);
TraceResult RunPsearchyOnce(MmKind kind, AllocModel model, int threads,
                            int files_per_thread);
TraceResult RunParsecLikeOnce(MmKind kind, const std::string& app, int threads);

}  // namespace

std::string KernelShare(const TraceResult& r, int threads) {
  if (!CORTENMM_TELEMETRY) {
    return "n/a";
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%2.0f%%",
                r.seconds > 0 ? 100 * r.kernel_seconds / (r.seconds * threads) : 0);
  return buf;
}

// ---------------------------------------------------------------------------
// JVM thread creation (Figure 16 left)
// ---------------------------------------------------------------------------

TraceResult RunJvmThreadCreation(MmKind kind, int nthreads) {
  return Median3([&] { return RunJvmThreadCreationOnce(kind, nthreads); });
}

namespace {
TraceResult RunJvmThreadCreationOnce(MmKind kind, int nthreads) {
  std::unique_ptr<MmInterface> owner = MakeMm(kind);
  MmInterface& mm = *owner;
  const uint64_t mm_ns0 = MmEntryNanos();
  TraceResult result;
  result.work_units = nthreads;

  constexpr uint64_t kStackBytes = 1ull << 20;  // 1 MiB Java thread stack.
  constexpr uint64_t kTlsBytes = 64 * 1024;
  constexpr int kWaves = 8;  // Each core starts several Java threads in turn.
  result.seconds = RunParallel(nthreads, [&mm](int t) {
    for (int wave = 0; wave < kWaves; ++wave) {
      // A Java thread start: stack mapping + first-touch faults on the hot
      // top pages + TLS segment. This is exactly the pattern the paper's
      // Android app-startup discussion blames on page-fault scalability.
      Result<Vaddr> stack = mm.MmapAnon(kStackBytes, Perm::RW());
      assert(stack.ok());
      MmuSim::TouchRange(mm, *stack + kStackBytes - 64 * kPageSize, 64 * kPageSize,
                         true);
      Result<Vaddr> tls = mm.MmapAnon(kTlsBytes, Perm::RW());
      assert(tls.ok());
      MmuSim::TouchRange(mm, *tls, 8 * kPageSize, true);
      // Thread init compute (class loading etc.) — touch-read the stack top.
      for (int i = 0; i < 64; ++i) {
        uint64_t v;
        MmuSim::Read(mm, *stack + kStackBytes - (i + 1) * kPageSize, &v);
      }
    }
  });
  result.kernel_seconds = static_cast<double>(MmEntryNanos() - mm_ns0) * 1e-9;
  return result;
}
}  // namespace

// ---------------------------------------------------------------------------
// metis (Figure 16 right)
// ---------------------------------------------------------------------------

TraceResult RunMetis(MmKind kind, int threads, int chunks_per_thread) {
  return Median3([&] { return RunMetisOnce(kind, threads, chunks_per_thread); });
}

namespace {
TraceResult RunMetisOnce(MmKind kind, int threads, int chunks_per_thread) {
  std::unique_ptr<MmInterface> owner = MakeMm(kind);
  MmInterface& mm = *owner;
  const uint64_t mm_ns0 = MmEntryNanos();
  TraceResult result;

  constexpr uint64_t kChunkBytes = 8ull << 20;  // 8 MiB, as in the RadixVM setup.
  result.work_units =
      static_cast<uint64_t>(threads) * chunks_per_thread * (kChunkBytes >> kPageBits);

  result.seconds = RunParallel(threads, [&mm, chunks_per_thread](int t) {
    for (int c = 0; c < chunks_per_thread; ++c) {
      // Allocate an 8 MiB chunk and never return it (the paper's setup).
      Result<Vaddr> chunk = mm.MmapAnon(kChunkBytes, Perm::RW());
      assert(chunk.ok());
      // Map phase: first-touch write every page (the page-fault storm).
      MmuSim::TouchRange(mm, *chunk, kChunkBytes, /*write=*/true);
      // Reduce phase: streaming reads.
      for (Vaddr page = *chunk; page < *chunk + kChunkBytes; page += kPageSize) {
        uint64_t value = 0;
        MmuSim::Read(mm, page, &value);
      }
    }
  });
  result.kernel_seconds = static_cast<double>(MmEntryNanos() - mm_ns0) * 1e-9;
  return result;
}
}  // namespace

// ---------------------------------------------------------------------------
// dedup (Figure 17 top)
// ---------------------------------------------------------------------------

TraceResult RunDedup(MmKind kind, AllocModel model, int threads, int items_per_thread) {
  return Median3([&] { return RunDedupOnce(kind, model, threads, items_per_thread); });
}

namespace {
TraceResult RunDedupOnce(MmKind kind, AllocModel model, int threads, int items_per_thread) {
  std::unique_ptr<MmInterface> owner = MakeMm(kind);
  MmInterface& mm = *owner;
  const uint64_t mm_ns0 = MmEntryNanos();
  TraceResult result;
  result.work_units = static_cast<uint64_t>(threads) * items_per_thread;

  UserAllocator allocator(mm, model);
  SpinLock pipeline_lock;
  uint64_t pipeline_counter = 0;

  result.seconds = RunParallel(threads, [&](int t) {
    for (int i = 0; i < items_per_thread; ++i) {
      // Chunk sizes vary (dedup chunks do): ptmalloc returns each to the OS;
      // tcmalloc retains one span per size class per core — the memory
      // overhead Figure 18 measures.
      uint64_t item_bytes = (128 + 128 * (i % 4)) * 1024;
      Vaddr buf = allocator.Malloc(item_bytes);
      UseBuffer(mm, buf, item_bytes);
      // Serial pipeline stage (the application's own locking, which caps
      // dedup's scaling beyond ~64 threads in the paper).
      {
        SpinGuard guard(pipeline_lock);
        for (int k = 0; k < 64; ++k) {
          pipeline_counter += k;
        }
      }
      allocator.Free(buf, item_bytes);
    }
  });
  (void)pipeline_counter;
  result.kernel_seconds = static_cast<double>(MmEntryNanos() - mm_ns0) * 1e-9;
  result.peak_os_bytes = allocator.peak_os_bytes();
  return result;
}
}  // namespace

// ---------------------------------------------------------------------------
// psearchy (Figure 17 bottom)
// ---------------------------------------------------------------------------

TraceResult RunPsearchy(MmKind kind, AllocModel model, int threads, int files_per_thread) {
  return Median3(
      [&] { return RunPsearchyOnce(kind, model, threads, files_per_thread); });
}

namespace {
TraceResult RunPsearchyOnce(MmKind kind, AllocModel model, int threads,
                            int files_per_thread) {
  std::unique_ptr<MmInterface> owner = MakeMm(kind);
  MmInterface& mm = *owner;
  const uint64_t mm_ns0 = MmEntryNanos();
  TraceResult result;
  result.work_units = static_cast<uint64_t>(threads) * files_per_thread;

  UserAllocator allocator(mm, model);
  result.seconds = RunParallel(threads, [&](int t) {
    // Per-core index buffer that doubles as it fills (the BDB-style index).
    uint64_t index_bytes = 256 * 1024;
    Vaddr index = allocator.Malloc(index_bytes);
    MmuSim::TouchRange(mm, index, index_bytes, true);
    Rng rng(0x9ea4c4 + t);
    for (int f = 0; f < files_per_thread; ++f) {
      uint64_t file_bytes = (1 + rng.Below(4)) * 64 * 1024;
      Vaddr buf = allocator.Malloc(file_bytes);
      UseBuffer(mm, buf, file_bytes);  // Read the file, build postings.
      allocator.Free(buf, file_bytes);
      if ((f & 15) == 15) {
        // Index overflow: grow 2x (allocate new, copy-touch, free old).
        Vaddr bigger = allocator.Malloc(index_bytes * 2);
        MmuSim::TouchRange(mm, bigger, index_bytes, true);
        allocator.Free(index, index_bytes);
        index = bigger;
        index_bytes *= 2;
        if (index_bytes > (8ull << 20)) {
          // Flush the index to "disk" and start over (bounds memory).
          allocator.Free(index, index_bytes);
          index_bytes = 256 * 1024;
          index = allocator.Malloc(index_bytes);
        }
      }
    }
    allocator.Free(index, index_bytes);
  });
  result.kernel_seconds = static_cast<double>(MmEntryNanos() - mm_ns0) * 1e-9;
  result.peak_os_bytes = allocator.peak_os_bytes();
  return result;
}
}  // namespace

// ---------------------------------------------------------------------------
// PARSEC-like compute apps (Figures 15, 21)
// ---------------------------------------------------------------------------

namespace {

struct ParsecParams {
  uint64_t ws_bytes;
  int rounds;
  int write_percent;
};

ParsecParams ParamsFor(const std::string& app) {
  if (app == "blackscholes") {
    return {4ull << 20, 6, 10};
  }
  if (app == "swaptions") {
    return {2ull << 20, 8, 20};
  }
  if (app == "fluidanimate") {
    return {8ull << 20, 4, 50};
  }
  if (app == "streamcluster") {
    return {8ull << 20, 4, 10};
  }
  if (app == "canneal") {
    return {12ull << 20, 3, 30};
  }
  if (app == "ferret") {
    return {4ull << 20, 6, 30};
  }
  return {4ull << 20, 4, 25};  // freqmine and anything else.
}

}  // namespace

const std::vector<std::string>& ParsecApps() {
  static const std::vector<std::string> apps = {
      "blackscholes", "swaptions", "fluidanimate", "streamcluster",
      "canneal",      "ferret",    "freqmine"};
  return apps;
}

TraceResult RunParsecLike(MmKind kind, const std::string& app, int threads) {
  return Median3([&] { return RunParsecLikeOnce(kind, app, threads); });
}

namespace {
TraceResult RunParsecLikeOnce(MmKind kind, const std::string& app, int threads) {
  std::unique_ptr<MmInterface> owner = MakeMm(kind);
  MmInterface& mm = *owner;
  const uint64_t mm_ns0 = MmEntryNanos();
  ParsecParams params = ParamsFor(app);
  TraceResult result;
  uint64_t pages = params.ws_bytes >> kPageBits;
  result.work_units = static_cast<uint64_t>(threads) * params.rounds * pages;

  result.seconds = RunParallel(threads, [&](int t) {
    Result<Vaddr> ws = mm.MmapAnon(params.ws_bytes, Perm::RW());
    assert(ws.ok());
    MmuSim::TouchRange(mm, *ws, params.ws_bytes, true);  // One-time init.
    Rng rng(0xca11ab1e + t);
    for (int round = 0; round < params.rounds; ++round) {
      for (Vaddr page = *ws; page < *ws + params.ws_bytes; page += kPageSize) {
        if (rng.Chance(params.write_percent, 100)) {
          MmuSim::Write(mm, page + 8 * (round % 8), page);
        } else {
          uint64_t value = 0;
          MmuSim::Read(mm, page + 8 * (round % 8), &value);
        }
      }
    }
  });
  result.kernel_seconds = static_cast<double>(MmEntryNanos() - mm_ns0) * 1e-9;
  return result;
}
}  // namespace

}  // namespace cortenmm
