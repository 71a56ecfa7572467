// Fleet chaos workload: survive memory pressure (DESIGN.md §8).
//
// A multi-tenant fleet at 2x overcommit: N worker threads each own a parent
// tenant whose working set, summed across the fleet, is twice simulated
// physical memory. Every worker then runs hundreds of fork/exec/exit child
// lifecycles with Zipf-skewed page touching, so cold parent pages are
// continuously evicted by the background reclaimers while hot pages fault
// back in. Half the tenants carry a resident-set limit at half their working
// set; their touches go through the submission ring, where over-limit
// submissions bounce (kRingLimitRejects) and degrade to the synchronous
// fault path.
//
// Gates (nonzero exit on failure):
//  * >= 1000 completed fork/exec/exit lifecycles across the fleet.
//  * No kNoMem ever surfaces to an unlimited tenant: reclaim + the fault
//    retry loop must absorb the pressure (faults degrade to slow, not dead).
//  * reclaim_pages_evicted and reclaim_wakeups are both nonzero — the run
//    actually exercised background reclaim, it did not just fit in RAM.
//  * Zero frame leaks once the fleet is destroyed (CheckFrameLeaks).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/reclaim/reclaim.h"
#include "src/sim/bench_util.h"
#include "src/sim/corten_vm.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {
namespace {

// Zipf(s) over [0, n): CDF table + binary search. Ranks map to pages through
// a multiplicative scatter so the hot set is spread across the region rather
// than packed at its start (packed hot pages would all share pt leaves and
// understate lock/TLB traffic).
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s, uint64_t seed) : rng_(seed), n_(n), cdf_(n) {
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }

  // A page index in [0, n), rank-1 being the hottest.
  uint64_t NextPage() {
    double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
    uint64_t rank =
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return (rank * 0x9e3779b1ull) % n_;
  }

 private:
  Rng rng_;
  uint64_t n_;
  std::vector<double> cdf_;
};

struct FleetScale {
  size_t phys_bytes;
  int workers;
  uint64_t ws_pages;        // Parent working set, pages, per tenant.
  int lifecycles_per_worker;
  int parent_touches;       // Zipf touches on the parent per lifecycle.
  int child_touches;        // Zipf touches in the forked child.
  uint64_t exec_pages;      // Fresh image the "exec" builds.
};

FleetScale SmokeScale() {
  // 4 tenants x 16 MiB over 32 MiB of phys = 2x overcommit.
  return {32ull << 20, 4, 4096, 256, 32, 16, 16};
}

FleetScale FullScale() {
  // 8 tenants x 16 MiB over 64 MiB of phys = 2x overcommit.
  return {64ull << 20, 8, 4096, 256, 64, 32, 32};
}

struct WorkerStats {
  uint64_t lifecycles = 0;
  uint64_t touches = 0;
  uint64_t nomem_unlimited = 0;  // Gate: must stay zero.
  uint64_t nomem_limited = 0;    // Reported only.
  uint64_t fork_failures = 0;
  uint64_t ring_submissions = 0;
  uint64_t ring_completions = 0;
  uint64_t ring_fallbacks = 0;   // Submit bounced -> synchronous fault.
};

// Notes one fault status: kNoMem against the right bucket; everything else
// must be kOk (the VA is inside a mapped RW region by construction).
void NoteFaultStatus(const VoidResult& r, bool limited, WorkerStats* stats) {
  ++stats->touches;
  if (r.ok()) {
    return;
  }
  if (r.error() == ErrCode::kNoMem) {
    if (limited) {
      ++stats->nomem_limited;
    } else {
      ++stats->nomem_unlimited;
    }
  }
}

// Drains every ready completion; ring kNoMem degrades to the synchronous
// fault path (which runs the governor's direct-reclaim retry loop).
void ReapAll(CortenVm& mm, bool limited, WorkerStats* stats) {
  MmCqe cqe;
  while (mm.Reap(&cqe)) {
    ++stats->ring_completions;
    if (cqe.err == ErrCode::kNoMem) {
      NoteFaultStatus(mm.vm().HandleFault(Vaddr{cqe.user_data}, Access::kWrite),
                      limited, stats);
    } else {
      ++stats->touches;
    }
  }
}

// One touch: limited tenants go through the submission ring (exercising the
// over-limit bounce), unlimited tenants fault synchronously.
void Touch(CortenVm& mm, Vaddr va, bool limited, WorkerStats* stats) {
  if (!limited) {
    NoteFaultStatus(mm.vm().HandleFault(va, Access::kWrite), limited, stats);
    return;
  }
  MmSqe sqe;
  sqe.op = MmOpCode::kFault;
  sqe.va = va;
  sqe.access = Access::kWrite;
  sqe.user_data = va;
  if (mm.Submit(sqe)) {
    ++stats->ring_submissions;
  } else {
    // Backpressure — over the resident limit (or a full ring). Degrade to
    // the slow path, which reclaims this tenant's own cold pages first.
    ++stats->ring_fallbacks;
    NoteFaultStatus(mm.vm().HandleFault(va, Access::kWrite), limited, stats);
  }
  ReapAll(mm, limited, stats);
}

void Worker(int id, const FleetScale& scale, WorkerStats* stats) {
  BindThisThreadToCpu(id);
  const bool limited = (id % 2) == 1;

  AddrSpace::Options options;
  options.huge_pages = (id % 4) == 0;  // Some tenants bring THP pressure.
  CortenVm mm(options);

  const uint64_t ws_bytes = scale.ws_pages << kPageBits;
  Result<Vaddr> base = mm.vm().MmapAnon(ws_bytes, Perm::RW());
  if (!base.ok()) {
    ++stats->nomem_unlimited;  // mmap itself must never fail at this scale.
    return;
  }
  if (limited) {
    ReclaimSystem::Instance().SetResidentLimit(&mm.vm(), scale.ws_pages / 2);
  }

  // Warm the full working set once: this is what pushes the fleet to 2x
  // overcommit and forces the reclaimers to start evicting.
  for (uint64_t page = 0; page < scale.ws_pages; ++page) {
    Touch(mm, *base + (page << kPageBits), limited, stats);
  }

  ZipfSampler zipf(scale.ws_pages, 0.99, 0xf1ee7ull + id);
  for (int cycle = 0; cycle < scale.lifecycles_per_worker; ++cycle) {
    // Parent activity: skewed re-touching keeps the hot set resident.
    for (int i = 0; i < scale.parent_touches; ++i) {
      Touch(mm, *base + (zipf.NextPage() << kPageBits), limited, stats);
    }
    if (limited) {
      mm.DrainBarrier();
      ReapAll(mm, limited, stats);
    }

    // fork: COW child of the full parent image. Under pressure the clone may
    // see kNoMem; direct reclaim plus retry must absorb it.
    std::unique_ptr<MmInterface> child;
    for (int attempt = 0; attempt < 8 && child == nullptr; ++attempt) {
      child = mm.Fork();
      if (child == nullptr) {
        ReclaimSystem::Instance().ReclaimPages(64);
      }
    }
    if (child == nullptr) {
      ++stats->fork_failures;
      if (!limited) {
        ++stats->nomem_unlimited;
      }
      continue;
    }

    // Child touches break COW sharing; statuses follow the parent's bucket
    // (the child of a limited tenant is itself unlimited, so gate it).
    for (int i = 0; i < scale.child_touches; ++i) {
      Vaddr va = *base + (zipf.NextPage() << kPageBits);
      NoteFaultStatus(child->HandleFault(va, Access::kWrite), /*limited=*/false,
                      stats);
    }

    // exec: drop the inherited image, build and touch a fresh one.
    (void)child->Munmap(*base, ws_bytes);
    Result<Vaddr> image =
        child->MmapAnon(scale.exec_pages << kPageBits, Perm::RWX());
    if (image.ok()) {
      for (uint64_t page = 0; page < scale.exec_pages; ++page) {
        NoteFaultStatus(child->HandleFault(*image + (page << kPageBits),
                                           Access::kWrite),
                        /*limited=*/false, stats);
      }
    } else if (image.error() == ErrCode::kNoMem) {
      ++stats->nomem_unlimited;
    }

    // exit: the child dies here; its frames must flow back to the buddy.
    child.reset();
    ++stats->lifecycles;
  }

  if (limited) {
    mm.DrainBarrier();
    ReapAll(mm, limited, stats);
  }
}

int Run(bool smoke) {
  const FleetScale scale = smoke ? SmokeScale() : FullScale();
  PhysMem::Configure(scale.phys_bytes);
  PhysMem::Instance().Prewarm();

  PrintHeader("fleet", "DESIGN.md §8 (reclaim)",
              "fleet at 2x overcommit completes; faults degrade, never die");

  // Quiesce and snapshot the allocator before any tenant exists.
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  const uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();

  TelemetrySink sink("fleet");
  std::vector<WorkerStats> stats(scale.workers);
  {
    ReclaimConfig config;
    config.bg_batch = 128;
    config.throttle_us = 100;
    ScopedReclaim reclaim(config);

    std::vector<std::thread> workers;
    for (int t = 0; t < scale.workers; ++t) {
      workers.emplace_back(Worker, t, scale, &stats[t]);
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }  // Reclaim stops here: daemons joined, tenant registry emptied.

  WorkerStats total;
  for (const WorkerStats& s : stats) {
    total.lifecycles += s.lifecycles;
    total.touches += s.touches;
    total.nomem_unlimited += s.nomem_unlimited;
    total.nomem_limited += s.nomem_limited;
    total.fork_failures += s.fork_failures;
    total.ring_submissions += s.ring_submissions;
    total.ring_completions += s.ring_completions;
    total.ring_fallbacks += s.ring_fallbacks;
  }

  const uint64_t evicted = GlobalStats().Total(Counter::kReclaimPagesEvicted);
  const uint64_t wakeups = GlobalStats().Total(Counter::kReclaimWakeups);
  const uint64_t direct = GlobalStats().Total(Counter::kReclaimDirectRuns);
  const uint64_t throttles = GlobalStats().Total(Counter::kReclaimThrottles);
  const uint64_t limit_hits = GlobalStats().Total(Counter::kReclaimLimitHits);
  const uint64_t ring_rejects = GlobalStats().Total(Counter::kRingLimitRejects);
  const uint64_t huge_suppressed =
      GlobalStats().Total(Counter::kReclaimHugeSuppressed);

  std::printf("%-24s %12llu\n", "lifecycles",
              static_cast<unsigned long long>(total.lifecycles));
  std::printf("%-24s %12llu\n", "touches",
              static_cast<unsigned long long>(total.touches));
  std::printf("%-24s %12llu\n", "pages evicted",
              static_cast<unsigned long long>(evicted));
  std::printf("%-24s %12llu\n", "kswapd wakeups",
              static_cast<unsigned long long>(wakeups));
  std::printf("%-24s %12llu\n", "direct reclaims",
              static_cast<unsigned long long>(direct));
  std::printf("%-24s %12llu\n", "fault throttles",
              static_cast<unsigned long long>(throttles));
  std::printf("%-24s %12llu\n", "limit hits",
              static_cast<unsigned long long>(limit_hits));
  std::printf("%-24s %12llu\n", "ring limit rejects",
              static_cast<unsigned long long>(ring_rejects));
  std::printf("%-24s %12llu\n", "thp suppressed",
              static_cast<unsigned long long>(huge_suppressed));
  std::printf("%-24s %12llu\n", "ring fallbacks",
              static_cast<unsigned long long>(total.ring_fallbacks));
  std::printf("%-24s %12llu\n", "fork failures",
              static_cast<unsigned long long>(total.fork_failures));
  std::printf("%-24s %12llu\n", "kNoMem (limited)",
              static_cast<unsigned long long>(total.nomem_limited));
  sink.Gate("lifecycles", static_cast<double>(total.lifecycles), 1000,
            total.lifecycles >= 1000,
            "only %llu lifecycles completed (gate: >= 1000)",
            static_cast<unsigned long long>(total.lifecycles));
  sink.Gate("nomem_under_limit", static_cast<double>(total.nomem_unlimited), 0,
            total.nomem_unlimited == 0,
            "%llu kNoMem surfaced to tenants under their limit",
            static_cast<unsigned long long>(total.nomem_unlimited));
  sink.Gate("ring_completions", static_cast<double>(total.ring_completions),
            static_cast<double>(total.ring_submissions),
            total.ring_completions == total.ring_submissions,
            "%llu ring submissions but %llu completions",
            static_cast<unsigned long long>(total.ring_submissions),
            static_cast<unsigned long long>(total.ring_completions));
  sink.Gate("reclaim_pages_evicted", static_cast<double>(evicted), 0,
            evicted > 0, "reclaim_pages_evicted is zero — no pressure exercised");
  sink.Gate("reclaim_wakeups", static_cast<double>(wakeups), 0, wakeups > 0,
            "reclaim_wakeups is zero — kswapd never woke");

  // Every frame any tenant ever held must be back in the buddy.
  GateFrameLeaks(sink, baseline_free);

  sink.Snapshot("fleet");
  return sink.Finish();
}

}  // namespace
}  // namespace cortenmm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  return cortenmm::Run(smoke);
}
