// mm_bench — one closed-loop workload against CortenMM_adv (MakeMm(kCortenAdv):
// adv protocol, LATR shootdowns, per-core VA), driven only through the public
// MmInterface / MmuSim / ring entry points. run.py builds and runs it; see
// README.md for the workloads, the metrics and how to read them.
//
//   mm_bench --workload W --seed S --seconds T [--trace 0|1] [--ops N]
//            [--spans-out PATH]
//
// The last stdout line is one JSON object with every raw figure; run.py turns
// it into the benchmark's result line. Every output check is a counted
// runtime check (the build defines NDEBUG), and the exit code is 1 when any
// check failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/cpu.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sim/bench_util.h"
#include "src/sim/mm_interface.h"
#include "src/sim/mmu.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

// steady_clock, not the program's rdtsc clock: TelemetryNowNanos calibrates
// the TSC once over 200 us, and a host preemption inside that window skews
// every later reading of the process by a fixed factor.
uint64_t Now() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

// Counts failed checks; prints the first few so a failing run says why.
class Checks {
 public:
  explicit Checks(bool quiet = false) : quiet_(quiet) {}
  bool Expect(bool ok, const char* what) {
    if (!ok && failures_.fetch_add(1, std::memory_order_relaxed) < 8 && !quiet_) {
      std::fprintf(stderr, "check failed: %s\n", what);
    }
    return ok;
  }
  bool ExpectOk(const VoidResult& r, const char* what) { return Expect(r.ok(), what); }
  uint64_t failures() const { return failures_.load(std::memory_order_relaxed); }

 private:
  const bool quiet_;
  std::atomic<uint64_t> failures_{0};
};

// Where the workloads' checks count; the defect probes swap in their own.
Checks g_run_checks;
Checks* g_checks = &g_run_checks;

// The value the workload writes to |page| on op |op|: seeded, never zero, so
// a demand-zero page can never pass as written.
uint64_t Value(uint64_t seed, uint64_t op, uint64_t page) {
  uint64_t state = seed ^ (op * 0x9e3779b97f4a7c15ull) ^ (page << 20) ^ page;
  return SplitMix64(state) | 1;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// Every public call the workloads make, plus the op that encloses them.
enum SpanKind : uint16_t {
  kOpSpan = 0,
  kMmap,
  kMunmap,
  kMprotect,
  kFault,
  kAccess,
  kFork,
  kExit,
  kSubmit,
  kDrain,
  kReap,
  kNumSpanKinds,
};

const char* const kSpanNames[kNumSpanKinds] = {
    "op", "mmap", "munmap", "mprotect", "fault", "access",
    "fork", "exit", "submit", "drain", "reap"};

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t parent = 0;  // Index of the enclosing op span in the same buffer.
  uint32_t op = 0;      // Op id, shared by the op span and its children.
  uint16_t kind = kOpSpan;
  uint16_t thread = 0;
};

// Per-thread and preallocated (and pre-touched, so no host page fault lands
// inside a span): recording is a few stores, no lookup and no allocation.
class Tracer {
 public:
  Tracer(size_t capacity, uint16_t thread) : spans_(capacity), thread_(thread) {}
  size_t Room() const { return spans_.size() - size_; }
  void BeginOp(uint32_t op) {
    current_ = static_cast<uint32_t>(size_);
    spans_[size_++] = {Now(), 0, current_, op, kOpSpan, thread_};
  }
  void EndOp() { spans_[current_].end = Now(); }
  void Add(SpanKind kind, uint64_t start, uint64_t end) {
    spans_[size_++] = {start, end, current_, spans_[current_].op, kind, thread_};
  }
  const Span* begin() const { return spans_.data(); }
  const Span* end() const { return spans_.data() + size_; }
  size_t size() const { return size_; }

 private:
  std::vector<Span> spans_;
  size_t size_ = 0;
  uint16_t thread_;
  uint32_t current_ = 0;
};

// Runs |fn|, recording it as a |kind| span when |tr| is set.
template <typename Fn>
auto Call(Tracer* tr, SpanKind kind, Fn&& fn) {
  if (tr == nullptr) {
    return fn();
  }
  uint64_t t0 = Now();
  auto result = fn();
  tr->Add(kind, t0, Now());
  return result;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Per-thread state of one closed-loop client.
struct Client {
  int thread = 0;
  uint64_t seed = 0;
  Rng rng{0};
  Tracer* tr = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const { return 1; }
  virtual int warmup_ops() const = 0;
  // Upper bound on the spans one op records (the traced phase stops before an
  // op that might not fit).
  virtual size_t max_spans_per_op() const = 0;
  virtual void Setup(uint64_t seed) = 0;
  // One op; false when any of its checks failed.
  virtual bool Op(Client& c, uint64_t op) = 0;
  // Checks after the op window: not part of the op's latency.
  virtual bool AfterOp(Client& c, uint64_t op) { return true; }
  // mm_overhead_pct: (PtBytes + MetaBytes) / resident x 100 with one op's
  // memory resident, on an address space that ran nothing else. MetaBytes()
  // never shrinks (freed metadata arrays are not subtracted), so on the
  // long-lived space the figure would grow with the ops run before it.
  virtual double SampleOverhead(uint64_t seed) = 0;
  // MetaBytes() of the long-lived address space.
  virtual uint64_t MetaBytes() const = 0;
  virtual void Teardown() = 0;
};

double OverheadPct(std::initializer_list<MmInterface*> mms, uint64_t resident_pages) {
  uint64_t bytes = 0;
  for (MmInterface* mm : mms) {
    bytes += mm->PtBytes() + mm->MetaBytes();
  }
  return 100.0 * static_cast<double>(bytes) / static_cast<double>(resident_pages * kPageSize);
}

// Writes |value| at |page| through the MMU. The traced run first calls
// HandleFault on the page, so that the fault and the access are separate
// spans: the same work minus one failed walk.
bool TouchWrite(Client& c, MmInterface& mm, Vaddr page, uint64_t value) {
  bool ok = true;
  if (c.tr != nullptr) {
    ok &= g_checks->ExpectOk(
        Call(c.tr, kFault, [&] { return mm.HandleFault(page, Access::kWrite); }), "fault");
  }
  return ok & g_checks->ExpectOk(
                  Call(c.tr, kAccess, [&] { return MmuSim::Write(mm, page, value); }), "write");
}

// Reads |page| through the MMU; it must hold |want|.
bool ReadBack(Client& c, MmInterface& mm, Vaddr page, uint64_t want) {
  uint64_t got = 0;
  VoidResult r = Call(c.tr, kAccess, [&] { return MmuSim::Read(mm, page, &got); });
  return g_checks->Expect(r.ok() && got == want, "read-back");
}

// One op: mmap |pages| anonymous pages, write-touch each, mprotect read-only
// when |protect|, read every page back, munmap.
//  * fault_stream: 1024 pages (4 MiB): 1024 demand-zero faults, and a read
//    pass that walks because 1024 pages exceed the 256-entry TLB.
//  * map_churn: 4 pages with mprotect: the small-region malloc pattern on the
//    direct path; the frames stay in the per-CPU magazine.
class MapTouch final : public Workload {
 public:
  MapTouch(uint64_t pages, bool protect, int warmup_ops)
      : pages_(pages), protect_(protect), warmup_ops_(warmup_ops) {}
  int warmup_ops() const override { return warmup_ops_; }
  size_t max_spans_per_op() const override { return 3 * pages_ + 4; }
  void Setup(uint64_t) override { mm_ = MakeMm(MmKind::kCortenAdv); }
  bool Op(Client& c, uint64_t op) override {
    MmInterface& mm = *mm_;
    const uint64_t len = pages_ * kPageSize;
    Result<Vaddr> va = Call(c.tr, kMmap, [&] { return mm.MmapAnon(len, Perm::RW()); });
    if (!g_checks->Expect(va.ok(), "mmap")) {
      return false;
    }
    bool ok = true;
    for (uint64_t p = 0; p < pages_; ++p) {
      ok &= TouchWrite(c, mm, *va + p * kPageSize, Value(c.seed, op, p));
    }
    if (protect_) {
      ok &= g_checks->ExpectOk(
          Call(c.tr, kMprotect, [&] { return mm.Mprotect(*va, len, Perm::R()); }), "mprotect");
    }
    for (uint64_t p = 0; p < pages_; ++p) {
      ok &= ReadBack(c, mm, *va + p * kPageSize, Value(c.seed, op, p));
    }
    return ok & g_checks->ExpectOk(Call(c.tr, kMunmap, [&] { return mm.Munmap(*va, len); }),
                                   "munmap");
  }
  double SampleOverhead(uint64_t) override {
    std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
    const uint64_t len = pages_ * kPageSize;
    Result<Vaddr> va = mm->MmapAnon(len, Perm::RW());
    if (!g_checks->Expect(va.ok(), "sample mmap")) {
      return 0;
    }
    g_checks->ExpectOk(MmuSim::TouchRange(*mm, *va, len, /*write=*/true), "sample touch");
    if (protect_) {
      g_checks->ExpectOk(mm->Mprotect(*va, len, Perm::R()), "sample mprotect");
    }
    double pct = OverheadPct({mm.get()}, pages_);
    g_checks->ExpectOk(mm->Munmap(*va, len), "sample munmap");
    return pct;
  }
  uint64_t MetaBytes() const override { return mm_->MetaBytes(); }
  void Teardown() override { mm_.reset(); }

 private:
  const uint64_t pages_;
  const bool protect_;
  const int warmup_ops_;
  std::unique_ptr<MmInterface> mm_;
};

// fork_cow: a parent with 16 MiB resident forks; the child write-touches one
// seeded page in every eight (COW) and reads each back; the child exits. After
// the op the parent's copies of those pages must still hold its own values.
class ForkCow final : public Workload {
 public:
  static constexpr uint64_t kParentPages = 4096;
  static constexpr uint64_t kStride = 8;
  static constexpr uint64_t kChildPages = kParentPages / kStride;
  int warmup_ops() const override { return 32; }
  size_t max_spans_per_op() const override { return 3 * kChildPages + 4; }
  void Setup(uint64_t seed) override {
    parent_ = MakeMm(MmKind::kCortenAdv);
    Result<Vaddr> va = parent_->MmapAnon(kParentPages * kPageSize, Perm::RW());
    if (!g_checks->Expect(va.ok(), "parent mmap")) {
      return;
    }
    base_ = *va;
    for (uint64_t p = 0; p < kParentPages; ++p) {
      g_checks->ExpectOk(MmuSim::Write(*parent_, base_ + p * kPageSize, ParentValue(seed, p)),
                         "parent write");
    }
    touched_.resize(kChildPages);
  }
  bool Op(Client& c, uint64_t op) override {
    for (uint64_t g = 0; g < kChildPages; ++g) {
      touched_[g] = g * kStride + c.rng.Below(kStride);
    }
    std::unique_ptr<MmInterface> child = Call(c.tr, kFork, [&] { return parent_->Fork(); });
    if (!g_checks->Expect(child != nullptr, "fork")) {
      return false;
    }
    bool ok = true;
    for (uint64_t p : touched_) {
      // The child must see its own write.
      ok &= TouchWrite(c, *child, base_ + p * kPageSize, Value(c.seed, op, p));
      ok &= ReadBack(c, *child, base_ + p * kPageSize, Value(c.seed, op, p));
    }
    Call(c.tr, kExit, [&] {
      child.reset();
      return 0;
    });
    return ok;
  }
  bool AfterOp(Client& c, uint64_t) override {
    bool ok = true;
    for (uint64_t p : touched_) {
      uint64_t got = 0;
      VoidResult r = MmuSim::Read(*parent_, base_ + p * kPageSize, &got);
      ok &= g_checks->Expect(r.ok() && got == ParentValue(c.seed, p),
                             "parent unchanged after child exit");
    }
    return ok;
  }
  // The parent never unmaps, so its metadata is all live; the child is
  // fresh. Sampled after the child's COW writes.
  double SampleOverhead(uint64_t seed) override {
    std::unique_ptr<MmInterface> child = parent_->Fork();
    if (!g_checks->Expect(child != nullptr, "sample fork")) {
      return 0;
    }
    Rng rng(seed);
    for (uint64_t g = 0; g < kChildPages; ++g) {
      Vaddr page = base_ + (g * kStride + rng.Below(kStride)) * kPageSize;
      g_checks->ExpectOk(MmuSim::Write(*child, page, 1), "sample COW write");
    }
    return OverheadPct({parent_.get(), child.get()}, kParentPages + kChildPages);
  }
  uint64_t MetaBytes() const override { return parent_->MetaBytes(); }
  void Teardown() override { parent_.reset(); }

 private:
  static uint64_t ParentValue(uint64_t seed, uint64_t p) { return Value(~seed, 0, p); }

  std::unique_ptr<MmInterface> parent_;
  Vaddr base_ = 0;
  std::vector<uint64_t> touched_;
};

// ring_shared: two submitters (simulated CPUs 0 and 1) with interleaved
// 16 KiB regions in one shared 1 GiB lock subtree. One op is one batch of one
// submitter: mmap-fixed + 4 write faults for each of 8 regions through the
// ring, drain, reap; write and verify the pages through the MMU; munmap the
// regions through the ring, drain, reap.
//
// Consecutive batches of a submitter use 4 different region sets.
// When the other submitter's drain unmaps this submitter's regions, the LATR
// invalidation of this CPU's TLB waits for its next tick (one per 64
// accesses, so one per batch); re-mapping the same VA before that tick leaves
// a stale translation to the old frame, and the write-then-read check fails.
// That defect is measured by StaleTlbFailPct in the traced run instead.
class RingShared final : public Workload {
 public:
  static constexpr int kThreads = 2;
  static constexpr uint64_t kRegions = 8;
  static constexpr uint64_t kPages = 4;
  static constexpr uint64_t kRegionBytes = kPages * kPageSize;
  static constexpr Vaddr kBase = 64ull << 30;  // One 1 GiB-aligned subtree.

  // |slot_sets| = 1 re-maps the same VAs every batch: the defect's shape.
  explicit RingShared(uint64_t slot_sets = 4) : slot_sets_(slot_sets) {}
  int threads() const override { return kThreads; }
  int warmup_ops() const override { return 2000; }
  size_t max_spans_per_op() const override {
    return 2 * kRegions * (1 + kPages) + 4 * kRegions * kPages + 4 * kRegions + 4;
  }
  void Setup(uint64_t) override { mm_ = MakeMm(MmKind::kCortenAdv); }
  bool Op(Client& c, uint64_t op) override {
    MmInterface& mm = *mm_;
    const uint64_t set = op % slot_sets_;
    uint64_t order[kRegions];
    for (uint64_t i = 0; i < kRegions; ++i) {
      order[i] = i;
    }
    for (uint64_t i = kRegions - 1; i > 0; --i) {
      std::swap(order[i], order[c.rng.Below(i + 1)]);
    }
    std::vector<MmSqe> batch;
    batch.reserve(kRegions * (1 + kPages));
    for (uint64_t i : order) {
      AppendMapAndFaults(RegionVa(c.thread, set, i), &batch);
    }
    bool ok = RunBatch(c, mm, &batch);
    for (uint64_t i : order) {
      for (uint64_t p = 0; p < kPages; ++p) {
        Vaddr page = RegionVa(c.thread, set, i) + p * kPageSize;
        uint64_t value = Value(c.seed, op, i * kPages + p);
        // The ring already faulted the page in: no fault span.
        ok &= g_checks->ExpectOk(
            Call(c.tr, kAccess, [&] { return MmuSim::Write(mm, page, value); }), "write");
        ok &= ReadBack(c, mm, page, value);
      }
    }
    batch.clear();
    for (uint64_t i : order) {
      batch.push_back(Unmap(RegionVa(c.thread, set, i)));
    }
    ok &= RunBatch(c, mm, &batch);
    return ok;
  }
  // Both submitters' regions of one set mapped and faulted (one batch per
  // submitter, from one thread).
  double SampleOverhead(uint64_t) override {
    std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
    Client c;
    std::vector<MmSqe> batch;
    for (int t = 0; t < kThreads; ++t) {
      batch.clear();
      for (uint64_t i = 0; i < kRegions; ++i) {
        AppendMapAndFaults(RegionVa(t, 0, i), &batch);
      }
      RunBatch(c, *mm, &batch);
    }
    double pct = OverheadPct({mm.get()}, kThreads * kRegions * kPages);
    for (int t = 0; t < kThreads; ++t) {
      batch.clear();
      for (uint64_t i = 0; i < kRegions; ++i) {
        batch.push_back(Unmap(RegionVa(t, 0, i)));
      }
      RunBatch(c, *mm, &batch);
    }
    return pct;
  }
  uint64_t MetaBytes() const override { return mm_->MetaBytes(); }
  void Teardown() override { mm_.reset(); }

 private:
  static Vaddr RegionVa(int thread, uint64_t set, uint64_t region) {
    return kBase +
           (2 * (set * kRegions + region) + static_cast<uint64_t>(thread)) * kRegionBytes;
  }

  // Submits |batch| (user_data = index), drains, and reaps: every sqe must
  // complete exactly once with kOk.
  bool RunBatch(Client& c, MmInterface& mm, std::vector<MmSqe>* batch) {
    bool ok = true;
    for (size_t i = 0; i < batch->size(); ++i) {
      (*batch)[i].user_data = i;
      ok &= g_checks->Expect(Call(c.tr, kSubmit, [&] { return mm.Submit((*batch)[i]); }),
                             "submit accepted");
    }
    Call(c.tr, kDrain, [&] {
      mm.DrainBarrier();
      return 0;
    });
    std::vector<bool> seen(batch->size(), false);
    MmCqe cqe;
    for (size_t n = 0; n < batch->size(); ++n) {
      bool reaped = Call(c.tr, kReap, [&] { return mm.Reap(&cqe); });
      if (!g_checks->Expect(reaped, "reap after drain")) {
        return false;
      }
      bool fresh = cqe.user_data < seen.size() && !seen[cqe.user_data];
      ok &= g_checks->Expect(fresh, "cqe reaped exactly once");
      if (fresh) {
        seen[cqe.user_data] = true;
      }
      ok &= g_checks->Expect(cqe.err == ErrCode::kOk, "cqe kOk");
    }
    ok &= g_checks->Expect(!mm.Reap(&cqe), "no extra completion");
    return ok;
  }

  // mmap-fixed of the region at |va|, then a write fault on each page.
  static void AppendMapAndFaults(Vaddr va, std::vector<MmSqe>* batch) {
    MmSqe map;
    map.op = MmOpCode::kMmapAnonFixed;
    map.va = va;
    map.len = kRegionBytes;
    map.perm = Perm::RW();
    batch->push_back(map);
    for (uint64_t p = 0; p < kPages; ++p) {
      MmSqe fault;
      fault.op = MmOpCode::kFault;
      fault.va = va + p * kPageSize;
      fault.access = Access::kWrite;
      batch->push_back(fault);
    }
  }
  static MmSqe Unmap(Vaddr va) {
    MmSqe unmap;
    unmap.op = MmOpCode::kMunmap;
    unmap.va = va;
    unmap.len = kRegionBytes;
    return unmap;
  }

  const uint64_t slot_sets_;
  std::unique_ptr<MmInterface> mm_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fault_stream") {
    return std::make_unique<MapTouch>(1024, /*protect=*/false, /*warmup_ops=*/32);
  }
  if (name == "map_churn") {
    return std::make_unique<MapTouch>(4, /*protect=*/true, /*warmup_ops=*/20000);
  }
  if (name == "fork_cow") {
    return std::make_unique<ForkCow>();
  }
  if (name == "ring_shared") {
    return std::make_unique<RingShared>();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

// The host's speed drifts. Other tenants share its cores, and this code runs
// up to about 2x slower while they are busy, switching every 0.1-1 s, and
// whole stretches of minutes run slow. A fixed probe (independent multiply chains: they
// touch nothing of the program and are slowed by a busy sibling hyperthread
// as the simulator is) times how fast the host runs the calling thread. The
// end-to-end times are host-normalised: each stretch of wall time is scaled
// by kProbeRefNs / the probe's time at its start, so they read as on a host
// where the probe takes kProbeRefNs (its time on a quiet core of this host,
// a 4-vCPU KVM guest).
constexpr double kProbeRefNs = 125000;

uint64_t ProbeNs() {
  uint64_t t0 = Now();
  uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 32000; ++i) {
    for (uint64_t& x : a) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
  }
  uint64_t ns = Now() - t0;
  volatile uint64_t sink = a[0] ^ a[7];
  (void)sink;
  return std::max<uint64_t>(ns, 1);
}

// Host-normalised time of one thread, cut into windows at each Mark.
class HostClock {
 public:
  // Closes the open window and opens the next one with a fresh probe. The
  // probe's own time lies between the windows.
  void Mark() {
    const uint64_t now = Now();
    if (started_) {
      raw_ns_ += static_cast<double>(now - open_);
      scaled_ns_ += static_cast<double>(now - open_) * scale_;
    }
    started_ = true;
    scale_ = kProbeRefNs / static_cast<double>(ProbeNs());
    open_ = Now();
  }
  // kProbeRefNs / the probe time of the open window.
  double scale() const { return scale_; }
  // Totals over the closed windows.
  double raw_s() const { return raw_ns_ * 1e-9; }
  double scaled_s() const { return scaled_ns_ * 1e-9; }

 private:
  bool started_ = false;
  uint64_t open_ = 0;
  double scale_ = 1;
  double raw_ns_ = 0;
  double scaled_ns_ = 0;
};

struct PhaseSpec {
  double seconds = 0;    // Time bound (ignored when ops > 0).
  uint64_t ops = 0;      // Fixed op count per client; 0 = time-bounded.
  size_t span_capacity = 0;  // > 0: trace, with this many spans per client.
  uint64_t salt = 0;     // Separates the phases' RNG streams and op ids.
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint32_t> latency_ns;  // Every op, all clients: wall time.
  std::vector<uint32_t> scaled_ns;   // The same, host-normalised.
  // Successful ops per second of each client's own time, summed.
  double throughput = 0;
  double scaled_throughput = 0;
  // The slowest client's phase time (probes excluded).
  double raw_s = 0;
  double scaled_s = 0;
  std::vector<std::unique_ptr<Tracer>> tracers;
};

PhaseResult RunPhase(Workload& w, uint64_t seed, const PhaseSpec& spec) {
  const int threads = w.threads();
  const bool timed = spec.ops == 0;
  PhaseResult result;
  std::vector<std::vector<uint32_t>> latencies(threads);
  std::vector<std::vector<uint32_t>> scaled(threads);
  std::vector<Client> clients(threads);
  std::vector<HostClock> clocks(threads);
  std::vector<uint64_t> failed(threads);
  for (int t = 0; t < threads; ++t) {
    clients[t].thread = t;
    clients[t].seed = seed;
    clients[t].rng = Rng(seed ^ (spec.salt * 0x100000001b3ull) ^ (0xabcdull * (t + 1)));
    if (spec.span_capacity > 0) {
      result.tracers.push_back(
          std::make_unique<Tracer>(spec.span_capacity, static_cast<uint16_t>(t)));
      clients[t].tr = result.tracers.back().get();
    }
    latencies[t].reserve(timed ? 1u << 20 : spec.ops);
    scaled[t].reserve(timed ? 1u << 20 : spec.ops);
  }
  // Each client re-times the host probe every 10 ms (1% of its time), well
  // inside the 0.1-1 s over which the host's speed switches.
  constexpr uint64_t kWindowNs = 10'000'000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  uint64_t start = 0;
  auto body = [&](int t) {
    BindThisThreadToCpu(t);
    Client& c = clients[t];
    HostClock& clock = clocks[t];
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
      CpuRelax();
    }
    const uint64_t end = start + static_cast<uint64_t>(spec.seconds * 1e9);
    uint64_t next_mark = 0;
    for (uint64_t i = 0;; ++i) {
      const uint64_t now = Now();
      if (timed ? now >= end : i >= spec.ops) {
        break;
      }
      if (c.tr != nullptr && c.tr->Room() < w.max_spans_per_op()) {
        break;
      }
      if (now >= next_mark) {
        clock.Mark();
        next_mark = now + kWindowNs;
      }
      const uint64_t op = spec.salt * (1ull << 32) + i;
      uint64_t t0 = Now();
      if (c.tr != nullptr) {
        c.tr->BeginOp(static_cast<uint32_t>(i));
      }
      bool ok = w.Op(c, op);
      if (c.tr != nullptr) {
        c.tr->EndOp();
      }
      uint64_t t1 = Now();
      ok &= w.AfterOp(c, op);
      uint64_t ns = t1 - t0;
      latencies[t].push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
      scaled[t].push_back(static_cast<uint32_t>(
          std::min<double>(static_cast<double>(ns) * clock.scale(), UINT32_MAX)));
      failed[t] += !ok;
    }
    clock.Mark();
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(body, t);
  }
  while (ready.load() != threads) {
    CpuRelax();
  }
  start = Now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (int t = 0; t < threads; ++t) {
    const double ok = static_cast<double>(latencies[t].size() - failed[t]);
    result.attempted += latencies[t].size();
    result.failed += failed[t];
    result.latency_ns.insert(result.latency_ns.end(), latencies[t].begin(),
                             latencies[t].end());
    result.scaled_ns.insert(result.scaled_ns.end(), scaled[t].begin(), scaled[t].end());
    result.throughput += ok / std::max(clocks[t].raw_s(), 1e-9);
    result.scaled_throughput += ok / std::max(clocks[t].scaled_s(), 1e-9);
    result.raw_s = std::max(result.raw_s, clocks[t].raw_s());
    result.scaled_s = std::max(result.scaled_s, clocks[t].scaled_s());
  }
  return result;
}

// The |p| quantile (0..1) by nearest rank; 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T> v, double p) {
  if (v.empty()) {
    return 0;
  }
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

std::vector<uint64_t> CounterTotals() {
  std::vector<uint64_t> totals(static_cast<size_t>(Counter::kCount));
  for (size_t i = 0; i < totals.size(); ++i) {
    totals[i] = GlobalStats().Total(static_cast<Counter>(i));
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Traced-run helpers
// ---------------------------------------------------------------------------

using KindSamples = std::vector<uint64_t>[kNumSpanKinds];

// Per-layer costs for the call kinds this workload does not make, measured
// on a side address space so every per-layer metric is defined.
int ProbeMissingKinds(KindSamples& samples) {
  bool missing[kNumSpanKinds] = {};
  int probed = 0;
  for (int k = kMmap; k < kNumSpanKinds; ++k) {
    missing[k] = samples[k].empty();
    probed += missing[k];
  }
  if (probed == 0) {
    return 0;
  }
  auto timed = [&](SpanKind kind, auto&& fn) {
    uint64_t t0 = Now();
    auto result = fn();
    if (missing[kind]) {
      samples[kind].push_back(Now() - t0);
    }
    return result;
  };
  BindThisThreadToCpu(0);
  std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
  const uint64_t len = 4 * kPageSize;
  for (int i = 0; i < 256; ++i) {
    Result<Vaddr> va = timed(kMmap, [&] { return mm->MmapAnon(len, Perm::RW()); });
    if (!g_checks->Expect(va.ok(), "probe mmap")) {
      continue;
    }
    g_checks->ExpectOk(timed(kFault, [&] { return mm->HandleFault(*va, Access::kWrite); }),
                      "probe fault");
    g_checks->ExpectOk(timed(kAccess, [&] { return MmuSim::Write(*mm, *va, 1); }),
                      "probe access");
    g_checks->ExpectOk(timed(kMprotect, [&] { return mm->Mprotect(*va, len, Perm::R()); }),
                      "probe mprotect");
    g_checks->ExpectOk(timed(kMunmap, [&] { return mm->Munmap(*va, len); }), "probe munmap");
  }
  if (missing[kFork] || missing[kExit]) {
    Result<Vaddr> va = mm->MmapAnon(64 * kPageSize, Perm::RW());
    if (g_checks->Expect(va.ok(), "probe fork parent mmap")) {
      g_checks->ExpectOk(MmuSim::TouchRange(*mm, *va, 64 * kPageSize, true),
                        "probe fork parent touch");
      for (int i = 0; i < 64; ++i) {
        std::unique_ptr<MmInterface> child = timed(kFork, [&] { return mm->Fork(); });
        g_checks->Expect(child != nullptr, "probe fork");
        timed(kExit, [&] {
          child.reset();
          return 0;
        });
      }
      g_checks->ExpectOk(mm->Munmap(*va, 64 * kPageSize), "probe fork parent munmap");
    }
  }
  if (missing[kSubmit] || missing[kDrain] || missing[kReap]) {
    const Vaddr va = 80ull << 30;
    for (int i = 0; i < 256; ++i) {
      MmSqe sqes[3];
      sqes[0].op = MmOpCode::kMmapAnonFixed;
      sqes[0].va = va;
      sqes[0].len = len;
      sqes[0].perm = Perm::RW();
      sqes[1].op = MmOpCode::kFault;
      sqes[1].va = va;
      sqes[1].access = Access::kWrite;
      sqes[2].op = MmOpCode::kMunmap;
      sqes[2].va = va;
      sqes[2].len = len;
      for (MmSqe& sqe : sqes) {
        g_checks->Expect(timed(kSubmit, [&] { return mm->Submit(sqe); }), "probe submit");
      }
      timed(kDrain, [&] {
        mm->DrainBarrier();
        return 0;
      });
      MmCqe cqe;
      for (int n = 0; n < 3; ++n) {
        bool reaped = timed(kReap, [&] { return mm->Reap(&cqe); });
        g_checks->Expect(reaped && cqe.err == ErrCode::kOk, "probe reap kOk");
      }
    }
  }
  return probed;
}

// The known fused-drain defect, kept visible: ablation_async's storm shape
// (per region: mmap-fixed, 4 write faults, munmap, all fused in one drain)
// with 2 submitters. Returns the % of fault sqes that did not complete kOk.
// Not an output check: the failure rate is the report.
double FusedFailPct(double seconds) {
  constexpr int kThreads = 2;
  constexpr uint64_t kRegions = 8;
  constexpr uint64_t kPages = 4;
  constexpr uint64_t kRegionBytes = kPages * kPageSize;
  std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
  std::atomic<uint64_t> faults{0};
  std::atomic<uint64_t> fault_fails{0};
  std::atomic<uint64_t> other_fails{0};
  const uint64_t end = Now() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      const Vaddr base = (50ull + static_cast<uint64_t>(t)) << 30;
      while (Now() < end) {
        uint64_t n = 0;
        for (uint64_t r = 0; r < kRegions; ++r) {
          Vaddr va = base + r * 2 * kRegionBytes;
          MmSqe map;
          map.op = MmOpCode::kMmapAnonFixed;
          map.va = va;
          map.len = kRegionBytes;
          map.perm = Perm::RW();
          map.user_data = n++;
          mm->Submit(map);
          for (uint64_t p = 0; p < kPages; ++p) {
            MmSqe fault;
            fault.op = MmOpCode::kFault;
            fault.va = va + p * kPageSize;
            fault.access = Access::kWrite;
            fault.user_data = (1ull << 63) | n++;
            mm->Submit(fault);
          }
          MmSqe unmap;
          unmap.op = MmOpCode::kMunmap;
          unmap.va = va;
          unmap.len = kRegionBytes;
          unmap.user_data = n++;
          mm->Submit(unmap);
        }
        mm->DrainBarrier();
        MmCqe cqe;
        while (mm->Reap(&cqe)) {
          bool is_fault = (cqe.user_data >> 63) != 0;
          faults.fetch_add(is_fault, std::memory_order_relaxed);
          if (cqe.err != ErrCode::kOk) {
            (is_fault ? fault_fails : other_fails).fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  mm.reset();
  std::printf("fused probe: %llu fault sqes, %llu not kOk; %llu mmap/munmap not kOk\n",
              static_cast<unsigned long long>(faults.load()),
              static_cast<unsigned long long>(fault_fails.load()),
              static_cast<unsigned long long>(other_fails.load()));
  return faults.load() == 0 ? 0.0 : 100.0 * fault_fails.load() / faults.load();
}

// The stale-TLB defect, kept visible: ring_shared with the same VAs re-mapped
// every batch. Returns the % of batches whose write-then-read check failed;
// the probe's checks count apart from the run's.
double StaleTlbFailPct(uint64_t seed, double seconds) {
  Checks probe_checks(/*quiet=*/true);
  g_checks = &probe_checks;
  RingShared w(/*slot_sets=*/1);
  w.Setup(seed);
  PhaseSpec spec;
  spec.seconds = seconds;
  spec.salt = 4;
  PhaseResult r = RunPhase(w, seed, spec);
  w.Teardown();
  g_checks = &g_run_checks;
  std::printf("stale-TLB probe: %llu batches, %llu failed, %llu failed checks\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(probe_checks.failures()));
  return r.attempted == 0 ? 0.0 : 100.0 * r.failed / r.attempted;
}

// A fixed compute-plus-memset kernel (~50 ms on a 2020s x86 core): a host
// that drifts shows here, not only in the workload figures.
double HostRefMs() {
  std::vector<uint8_t> buf(16u << 20);
  auto t0 = std::chrono::steady_clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int rep = 0; rep < 8; ++rep) {
    for (int i = 0; i < 2000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    std::memset(buf.data(), static_cast<int>(x & 0xff), buf.size());
    x += buf[x % buf.size()];
  }
  auto t1 = std::chrono::steady_clock::now();
  volatile uint64_t sink = x;
  (void)sink;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void WriteSpans(const std::string& path, const std::vector<std::unique_ptr<Tracer>>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // Format: "MMSPANS1", u64 count, then |count| Span records (see Span).
  uint64_t count = 0;
  for (const auto& tr : tracers) {
    count += tr->size();
  }
  std::fwrite("MMSPANS1", 1, 8, f);
  std::fwrite(&count, sizeof(count), 1, f);
  for (const auto& tr : tracers) {
    std::fwrite(tr->begin(), sizeof(Span), tr->size(), f);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--ops") {
      args->ops = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mm_bench --workload W --seed S --seconds T [--trace 0|1] "
                 "[--ops N] [--spans-out PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const double host_ref_ms = HostRefMs();

  // --- Set-up: arena prewarm, manager, initial state, the mm_overhead_pct
  // sample, warm-up. Host-normalised like the op times. ---
  HostClock setup_clock;
  setup_clock.Mark();
  BindThisThreadToCpu(0);
  PhysMem::Instance().Prewarm();
  BuddyAllocator::Instance().FlushCpuCaches();
  const uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();
  w->Setup(args.seed);
  const double overhead_pct = w->SampleOverhead(args.seed);
  setup_clock.Mark();
  PhaseSpec warm;
  warm.ops = static_cast<uint64_t>(w->warmup_ops());
  warm.salt = 1;
  PhaseResult warmed = RunPhase(*w, args.seed, warm);
  const double setup_s = setup_clock.scaled_s() + warmed.scaled_s;
  const double raw_setup_s = setup_clock.raw_s() + warmed.raw_s;

  BuildConfig::Set("protocol", "adv");
  BuildConfig::Set("mm", MmKindName(MmKind::kCortenAdv));
  TelemetrySink sink("perfbench");
  JsonObject e2e;
  JsonObject layer;
  // --- The measured phase (untraced). ---
  Telemetry::Instance().Reset();
  PhaseSpec measure;
  measure.seconds = args.trace ? args.seconds / 2 : args.seconds;
  measure.ops = args.ops;
  measure.salt = 2;
  const std::vector<uint64_t> before = CounterTotals();
  const uint64_t meta_before = w->MetaBytes();
  const uint64_t tsc0 = TelemetryNowNanos();
  const uint64_t steady0 = Now();
  PhaseResult m = RunPhase(*w, args.seed, measure);
  // How far the program's TSC clock is off steady_clock in this process;
  // run.py rescales the telemetry phase times by it.
  const double clock_scale =
      static_cast<double>(Now() - steady0) /
      static_cast<double>(std::max<uint64_t>(TelemetryNowNanos() - tsc0, 1));
  const uint64_t meta_after = w->MetaBytes();
  const std::vector<uint64_t> after = CounterTotals();
  sink.Snapshot("measure");
  uint64_t attempted = m.attempted;
  uint64_t failed = m.failed;
  e2e.Num("throughput", m.scaled_throughput);
  e2e.Num("op_p50_us", Quantile(m.scaled_ns, 0.50) * 1e-3);
  e2e.Num("op_p99_us", Quantile(m.scaled_ns, 0.99) * 1e-3);
  e2e.Num("raw_throughput", m.throughput);
  e2e.Num("raw_op_p50_us", Quantile(m.latency_ns, 0.50) * 1e-3);
  e2e.Num("raw_op_p99_us", Quantile(m.latency_ns, 0.99) * 1e-3);
  e2e.Num("ops", static_cast<double>(m.attempted));
  e2e.Num("mm_overhead_pct", overhead_pct);

  if (args.trace) {
    auto delta = [&](Counter c) {
      return static_cast<double>(after[static_cast<size_t>(c)] -
                                 before[static_cast<size_t>(c)]);
    };
    const double ops = std::max<double>(1, static_cast<double>(m.attempted));
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    layer.Num("sim.tlb_misses_per_op", delta(Counter::kTlbMisses) / ops);
    layer.Num("pmm.frames_per_op", delta(Counter::kFramesAllocated) / ops);
    layer.Num("pmm.mag_hit_pct",
              100 * ratio(delta(Counter::kMagHits),
                          delta(Counter::kMagHits) + delta(Counter::kMagRefills)));
    layer.Num("pmm.buddy_locks_per_kop", 1000 * delta(Counter::kBuddyLockAcquisitions) / ops);
    layer.Num("pt.pages_per_op", delta(Counter::kPtPagesAllocated) / ops);
    layer.Num("core.meta_growth_bytes_per_op",
              static_cast<double>(meta_after - meta_before) / ops);
    layer.Num("tlb.shootdowns_per_op", delta(Counter::kTlbShootdowns) / ops);
    layer.Num("tlb.ranges_per_shootdown",
              ratio(delta(Counter::kTlbRangesGathered) - delta(Counter::kTlbRangesCoalesced),
                    delta(Counter::kTlbShootdowns)));
    layer.Num("sync.lock_retries_per_kop", 1000 * delta(Counter::kLockRetries) / ops);
    layer.Num("sync.cna_handoffs_per_kop", 1000 * delta(Counter::kCnaBatchedHandoffs) / ops);
    layer.Num("ring.ops_per_drain",
              ratio(delta(Counter::kRingOpsCompleted), delta(Counter::kRingDrains)));
    layer.Num("ring.fused_pct", 100 * ratio(delta(Counter::kFusedTxnOps),
                                            delta(Counter::kRingOpsCompleted)));

    // --- The traced phase: same workload, every public call in a span. ---
    PhaseSpec traced;
    traced.seconds = args.seconds / 2;
    traced.ops = args.ops;
    traced.span_capacity = size_t{1} << 19;
    traced.salt = 3;
    PhaseResult tr = RunPhase(*w, args.seed, traced);
    attempted += tr.attempted;
    failed += tr.failed;
    KindSamples samples;
    double kind_ns[kNumSpanKinds] = {};
    for (const auto& tracer : tr.tracers) {
      for (const Span& s : *tracer) {
        samples[s.kind].push_back(s.end - s.start);
        kind_ns[s.kind] += static_cast<double>(s.end - s.start);
      }
    }
    const double op_ns = kind_ns[kOpSpan];
    double child_ns = 0;
    for (int k = kMmap; k < kNumSpanKinds; ++k) {
      // Call spans have no children of their own: self time = duration.
      layer.Num(std::string("trace.self.") + kSpanNames[k] + "_pct",
                100 * ratio(kind_ns[k], op_ns));
      child_ns += kind_ns[k];
    }
    layer.Num("trace.unattributed_pct", 100 * ratio(op_ns - child_ns, op_ns));
    layer.Num("trace.ops", static_cast<double>(samples[kOpSpan].size()));
    layer.Num("trace.overhead_pct",
              100 * (ratio(Quantile(tr.scaled_ns, 0.5), Quantile(m.scaled_ns, 0.5)) - 1));
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, tr.tracers);
    }
    layer.Num("trace.probed_kinds", ProbeMissingKinds(samples));
    layer.Num("sim.access_ns_p50", Quantile(samples[kAccess], 0.5));
    layer.Num("core.fault_ns_p50", Quantile(samples[kFault], 0.5));
    layer.Num("core.fault_ns_p99", Quantile(samples[kFault], 0.99));
    layer.Num("core.mmap_ns_p50", Quantile(samples[kMmap], 0.5));
    layer.Num("core.mprotect_ns_p50", Quantile(samples[kMprotect], 0.5));
    layer.Num("core.munmap_ns_p50", Quantile(samples[kMunmap], 0.5));
    layer.Num("core.fork_us_p50", Quantile(samples[kFork], 0.5) * 1e-3);
    layer.Num("core.exit_us_p50", Quantile(samples[kExit], 0.5) * 1e-3);
    layer.Num("ring.submit_ns_p50", Quantile(samples[kSubmit], 0.5));
    layer.Num("ring.drain_us_p50", Quantile(samples[kDrain], 0.5) * 1e-3);
    layer.Num("host.ref_ms", host_ref_ms);
  }

  // --- Teardown and the frame-leak check. ---
  w->Teardown();
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  g_checks->Expect(leaks.ok, "CheckFrameLeaks reports zero leaks");
  if (args.trace) {
    const double probe_s = std::min(1.0, args.seconds / 10);
    layer.Num("ring.fused_fail_pct", FusedFailPct(probe_s));
    layer.Num("ring.stale_tlb_fail_pct", StaleTlbFailPct(args.seed, probe_s));
  }
  sink.Write();

  const bool correct = g_checks->failures() == 0;
  JsonObject context;
  context.Raw("workload", "\"" + args.workload + "\"");
  context.Num("seed", static_cast<double>(args.seed));
  const char* nodes = std::getenv("CORTENMM_NODES");
  const char* phys_mb = std::getenv("CORTENMM_PHYS_MB");
  context.Raw("CORTENMM_NODES", "\"" + std::string(nodes ? nodes : "") + "\"");
  context.Raw("CORTENMM_PHYS_MB", "\"" + std::string(phys_mb ? phys_mb : "") + "\"");
  context.Num("arena_mb", static_cast<double>(PhysMem::Instance().bytes() >> 20));
  context.Raw("build", BuildConfig::Json());
  context.Num("host_ref_ms", host_ref_ms);
  context.Num("telemetry_clock_scale", clock_scale);
  context.Num("leaked_frames", static_cast<double>(leaks.leaked));
  context.Num("failed_checks", static_cast<double>(g_checks->failures()));
  JsonObject out;
  out.Raw("correct", correct ? "true" : "false");
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("setup_s", setup_s);
  out.Num("raw_setup_s", raw_setup_s);
  out.Raw("context", context.str());
  out.Raw("e2e", e2e.str());
  out.Raw("layer", layer.str());
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cortenmm

int main(int argc, char** argv) { return cortenmm::Main(argc, argv); }
