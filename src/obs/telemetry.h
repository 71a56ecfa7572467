// Telemetry: the observability layer behind the paper's time-attribution
// figures (14, 16, 17, 20). Three pieces:
//
//   * LatencyHistogram — log2-bucketed nanosecond histograms, one slot per
//     CPU, recording every MM entry point (MmOp) and every lock-protocol
//     phase (LockPhase: rw descent, adv RCU traversal, CNA acquire, DFS
//     subtree lock, TLB shootdown wait, ...). Merging and percentile math
//     happen off the hot path.
//   * TraceRing — a fixed-size per-CPU ring of transaction events (acquire
//     end + retries + covering level, shootdown batch sizes, BRAVO
//     revocations). Writers pay one timestamp and a few relaxed stores; a
//     post-hoc merger sorts all CPUs' events by timestamp.
//   * Telemetry::DumpJson — a JSON snapshot (histogram percentiles, counters,
//     trace accounting) that benches append to BENCH_*.json via TelemetrySink.
//
// Hot-path cost: timestamps use rdtsc where available (calibrated once
// against steady_clock); recording is a relaxed fetch_add on a per-CPU cache
// line. Building with -DCORTENMM_TELEMETRY=0 compiles every probe to a no-op
// with zero data footprint.
#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/cpu.h"

#ifndef CORTENMM_TELEMETRY
#define CORTENMM_TELEMETRY 1
#endif

namespace cortenmm {

// MM entry points, one histogram each (the facade's operation set).
enum class MmOp : int {
  kMmap = 0,      // MmapAnon (auto and fixed placement)
  kMunmap,
  kMprotect,
  kFault,         // HandleFault
  kMmapFile,      // MmapFilePrivate / MmapShared
  kMsync,
  kPkeyMprotect,
  kSwapOut,
  kFork,
  kCount,
};

// Lock-protocol and reclamation phases, one histogram each.
enum class LockPhase : int {
  kRwDescent = 0,       // kRw: hand-over-hand BRAVO read descent + covering write lock
  kAdvRcuTraversal,     // kAdv: lock-free traversal inside the RCU read section
  kMcsAcquire,          // kAdv: CNA lock on the covering candidate (incl. stale
                        // retries); keeps its historical "mcs_acquire" JSON name
  kDfsSubtreeLock,      // kAdv: preorder DFS over existing descendants
  kShootdownWait,       // TLB shootdown issue-to-done (initiator side)
  kBravoRevocation,     // BRAVO writer bias-revocation scan
  kRcuSynchronize,      // RCU grace-period waits
  kSeqlockWait,         // SeqCount::ReadBegin waiting out a writer
  kCount,
};

// Per-batch size distributions (values, not nanoseconds): the log2 histogram
// machinery is reused, so "p50" etc. read as batch sizes.
enum class BatchStat : int {
  kShootdownRanges = 0,  // Discrete ranges per ShootdownBatch (0 = full-ASID).
  kShootdownFrames,      // Dead frames per ShootdownBatch.
  kRingSqDepth,          // Per-CPU submission-ring occupancy at drain collect.
  kRingOpsPerDrain,      // Ops one flat-combining drain pass collected.
  kRingOpsPerFusedTxn,   // Ops fused into one RCursor transaction.
  kMagOccupancy,         // Per-CPU frame-magazine occupancy after a hit.
  kCount,
};

const char* MmOpName(MmOp op);
const char* LockPhaseName(LockPhase phase);
const char* BatchStatName(BatchStat stat);

// Transaction-event kinds recorded in the trace ring.
enum class TraceKind : int {
  kAcquireEnd = 0,  // arg0 = stale retries, arg1 = covering PT level
  kAcquireRetry,    // arg0 = retry ordinal
  kPagesTouched,    // arg0 = pages mutated by the transaction, arg1 = covering level
  kShootdown,       // arg0 = batch size (frames), arg1 = target CPU count
  kBravoRevoke,     // arg0 = scan nanoseconds
  kOpEnd,           // arg0 = MmOp, arg1 = latency ns
  kCount,
};

const char* TraceKindName(TraceKind kind);

namespace obs_detail {
// TSC→ns ratio as 40.24 fixed point (ns = tsc * mul >> 24), 0 until
// calibrated (or forever, when the TSC is unusable): the fast path costs one
// 128-bit multiply and a shift instead of two int<->double conversions. Every
// timestamp — fast or slow path — comes from this one multiplier, so all
// recorded times share a single monotonic clock.
extern std::atomic<uint64_t> g_tsc_ns_mul24;
// Calibrates on first call; steady_clock when the TSC is unusable.
uint64_t SlowNowNanos();
}  // namespace obs_detail

// Monotonic nanoseconds for telemetry timestamps: rdtsc scaled by a
// once-calibrated ratio on x86-64, steady_clock elsewhere. Inline fast path —
// probes call this twice per timed section.
inline uint64_t TelemetryNowNanos() {
#if defined(__x86_64__)
  uint64_t m = obs_detail::g_tsc_ns_mul24.load(std::memory_order_relaxed);
  if (m != 0) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(__builtin_ia32_rdtsc()) * m) >> 24);
  }
#endif
  return obs_detail::SlowNowNanos();
}

// Log-linear bucketing (HdrHistogram style): every power-of-two octave is
// split into kLatencySubBuckets linear sub-buckets, so relative resolution is
// 1/kLatencySubBuckets (12.5%) at any magnitude — enough to resolve a 1.5x
// latency gate, which pure log2 buckets (100% resolution) cannot: two
// distributions whose medians differ by less than 2x can land in the same
// octave and report near-identical interpolated percentiles. Values below
// kLatencySubBuckets get one bucket each (exact). Octave 47 (2^47 ns ≈ 39
// hours) tops out any latency.
inline constexpr int kLatencySubBucketBits = 3;
inline constexpr int kLatencySubBuckets = 1 << kLatencySubBucketBits;
inline constexpr int kLatencyMaxOctave = 47;
inline constexpr int kLatencyBuckets =
    kLatencySubBuckets * (kLatencyMaxOctave - kLatencySubBucketBits) +
    2 * kLatencySubBuckets;

#if CORTENMM_TELEMETRY

class LatencyHistogram;

// A plain (non-atomic) copy of histogram state: what merging per-CPU slots
// produces and what the percentile/reporting math runs on.
struct HistogramSnapshot {
  uint64_t counts[kLatencyBuckets] = {};
  uint64_t sum_ns = 0;
  uint64_t max_ns = 0;

  void Merge(const LatencyHistogram& other);
  uint64_t TotalCount() const;
  // Nanoseconds below which fraction |p| (0 < p <= 1) of samples fall,
  // linearly interpolated inside the winning bucket. 0 if empty.
  uint64_t Percentile(double p) const;
};

// A single log2-bucketed latency histogram. Thread-safe via relaxed atomics;
// intended use is one instance per CPU so contention is nil.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = kLatencyBuckets;

  static int BucketFor(uint64_t ns) {
    if (ns < static_cast<uint64_t>(kLatencySubBuckets)) {
      return static_cast<int>(ns);
    }
    int msb = 63 - __builtin_clzll(ns);
    if (msb > kLatencyMaxOctave) {
      return kBuckets - 1;
    }
    int shift = msb - kLatencySubBucketBits;
    // (ns >> shift) is in [kSub, 2*kSub): the leading bit plus the next
    // kLatencySubBucketBits bits select the sub-bucket within the octave.
    return (shift << kLatencySubBucketBits) + static_cast<int>(ns >> shift);
  }
  static uint64_t BucketLowerBound(int bucket) {
    if (bucket < 2 * kLatencySubBuckets) {
      return static_cast<uint64_t>(bucket);
    }
    int shift = (bucket >> kLatencySubBucketBits) - 1;
    uint64_t sub = static_cast<uint64_t>(bucket) -
                   (static_cast<uint64_t>(shift) << kLatencySubBucketBits);
    return sub << shift;
  }

  void Record(uint64_t ns) {
    counts_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (ns > prev &&
           !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
    }
  }

  void Reset();

  uint64_t TotalCount() const;
  uint64_t SumNanos() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t MaxNanos() const { return max_ns_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int bucket) const {
    return counts_[bucket].load(std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snap;
    snap.Merge(*this);
    return snap;
  }
  uint64_t Percentile(double p) const { return Snapshot().Percentile(p); }

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

// One trace event. 32 bytes so a ring slot is two cache lines per four events.
struct TraceEvent {
  uint64_t ns = 0;       // TelemetryNowNanos() at record time.
  uint32_t cpu = 0;
  TraceKind kind = TraceKind::kAcquireEnd;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

// Per-CPU ring with runtime-configurable capacity. Overwrites the oldest
// events when full and counts how many were lost; MergeSorted() returns the
// surviving events of all CPUs ordered by timestamp. Buffers are allocated
// lazily on each CPU's first Record, so idle CPUs cost 0 bytes at any size.
class TraceRing {
 public:
  // Default per-CPU capacity — 16x the original 1024, because the measured
  // >90% drop rate under bench load was first a capacity problem. Benches
  // that need more pass a capacity to TelemetrySink, which lands here via
  // SetCapacity.
  static constexpr uint64_t kCapacity = 16384;  // Per CPU.

  TraceRing() = default;
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(TraceKind kind, uint64_t arg0, uint64_t arg1) {
    Cpu& c = cpus_[CurrentCpu() % kMaxCpus].value;
    TraceEvent* buf = c.events.load(std::memory_order_acquire);
    if (buf == nullptr) {
      buf = AllocateBuffer(c);
    }
    uint64_t slot = c.head.fetch_add(1, std::memory_order_relaxed);
    TraceEvent& e = buf[slot % c.cap];
    e.ns = TelemetryNowNanos();
    e.cpu = static_cast<uint32_t>(CurrentCpu());
    e.kind = kind;
    e.arg0 = arg0;
    e.arg1 = arg1;
  }

  uint64_t Capacity() const { return capacity_.load(std::memory_order_relaxed); }

  // Resizes the per-CPU rings. Quiescent-only (no concurrent Record): frees
  // every existing buffer and zeroes the heads, so each CPU's next Record
  // allocates at the new size. Values are clamped to at least 1.
  void SetCapacity(uint64_t capacity);

  // Total events ever recorded / lost to overwriting, across all CPUs.
  uint64_t Recorded() const;
  uint64_t Dropped() const;

  // Per-CPU accounting — the drop-blindness fix: a ring that silently
  // overwrote 90% of one hot CPU's events is invisible in the all-CPU totals
  // only until you look here.
  struct CpuStats {
    int cpu = 0;
    uint64_t recorded = 0;
    uint64_t dropped = 0;
  };
  // Only CPUs that recorded at least one event.
  std::vector<CpuStats> PerCpuStats() const;

  std::vector<TraceEvent> MergeSorted() const;
  void Reset();

 private:
  struct Cpu {
    std::atomic<uint64_t> head{0};  // Total records; head % cap = next slot.
    std::atomic<TraceEvent*> events{nullptr};  // Lazy buffer of |cap| slots.
    uint64_t cap = 0;  // Valid once events is non-null.
  };

  // Publishes a buffer for |c| (first Record on this CPU). Two threads
  // sharing a CPU id race benignly: CAS picks a winner, the loser frees its
  // attempt and uses the winner's buffer.
  TraceEvent* AllocateBuffer(Cpu& c);

  std::atomic<uint64_t> capacity_{kCapacity};
  CacheAligned<Cpu> cpus_[kMaxCpus];
};

class Telemetry {
 public:
  static Telemetry& Instance();

  void RecordOp(MmOp op, uint64_t ns) {
    cpus_[CurrentCpu() % kMaxCpus].value.ops[static_cast<int>(op)].Record(ns);
  }
  void RecordPhase(LockPhase phase, uint64_t ns) {
    cpus_[CurrentCpu() % kMaxCpus].value.phases[static_cast<int>(phase)].Record(ns);
  }
  void RecordBatch(BatchStat stat, uint64_t size) {
    cpus_[CurrentCpu() % kMaxCpus].value.batches[static_cast<int>(stat)].Record(size);
  }
  void Trace(TraceKind kind, uint64_t arg0 = 0, uint64_t arg1 = 0) {
    trace_.Record(kind, arg0, arg1);
  }

  // Merged (all-CPU) views, for reporting.
  HistogramSnapshot MergedOp(MmOp op) const;
  HistogramSnapshot MergedPhase(LockPhase phase) const;
  HistogramSnapshot MergedBatch(BatchStat stat) const;
  TraceRing& trace() { return trace_; }

  void Reset();

  // Registers (or replaces) an auxiliary JSON section emitted into every
  // DumpJson document under |key|. The provider returns a complete JSON
  // value. This is how subsystems above obs (reclaim's watermark state block)
  // get into the telemetry document without obs depending on them.
  void AddJsonSection(const std::string& key,
                      std::function<std::string()> provider);

  // One JSON snapshot object: {"label": ..., "ops": {...}, "phases": {...},
  // "counters": {...}, "traces": {...}}. Histograms report count/p50/p99/
  // mean/max in nanoseconds; empty histograms are omitted. The "traces"
  // block carries total + per-CPU recorded/dropped counts and the drop rate.
  std::string DumpJson(const std::string& label) const;

 private:
  Telemetry() = default;

  struct Cpu {
    LatencyHistogram ops[static_cast<int>(MmOp::kCount)];
    LatencyHistogram phases[static_cast<int>(LockPhase::kCount)];
    LatencyHistogram batches[static_cast<int>(BatchStat::kCount)];
  };
  CacheAligned<Cpu> cpus_[kMaxCpus];
  TraceRing trace_;
  mutable std::mutex sections_mu_;
  std::map<std::string, std::function<std::string()>> sections_;
};

// RAII probe for an MM entry point.
class ScopedOpTimer {
 public:
  // Only the outermost timer on a thread records: MM entry points delegate to
  // one another (MmapAnon -> fixed-placement helpers, Fork -> mmap paths), and each call
  // through the facade must count as one sample, not one per layer.
  explicit ScopedOpTimer(MmOp op) : op_(op), outermost_(depth_++ == 0) {
    if (outermost_) {
      start_ = TelemetryNowNanos();
    }
  }
  ~ScopedOpTimer() {
    --depth_;
    if (outermost_) {
      Telemetry::Instance().RecordOp(op_, TelemetryNowNanos() - start_);
    }
  }
  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  static thread_local int depth_;
  MmOp op_;
  bool outermost_;
  uint64_t start_ = 0;
};

// RAII probe for a lock-protocol phase. |enabled| = false skips both
// timestamps, so sampled call sites pay only the flag check.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(LockPhase phase, bool enabled = true)
      : phase_(phase), enabled_(enabled),
        start_(enabled ? TelemetryNowNanos() : 0) {}
  ~ScopedPhaseTimer() {
    if (enabled_) {
      Telemetry::Instance().RecordPhase(phase_, TelemetryNowNanos() - start_);
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  LockPhase phase_;
  bool enabled_;
  uint64_t start_;
};

// 1-in-kEvery per-thread sampling decision for the acquisition-path probes:
// a lock acquisition is tens of nanoseconds, so timing every one would
// dominate it. The first call on each thread samples, making single-shot
// unit tests deterministic. Heavyweight phases (shootdown, RCU grace
// periods, BRAVO revocation) are recorded unsampled.
class AcquireSampler {
 public:
  static constexpr uint32_t kEvery = 32;
  static bool Sample() { return (counter_++ % kEvery) == 0; }

 private:
  static thread_local uint32_t counter_;
};

#else  // !CORTENMM_TELEMETRY — every probe compiles to nothing.

class LatencyHistogram;

struct HistogramSnapshot {
  uint64_t sum_ns = 0;
  void Merge(const LatencyHistogram&) {}
  uint64_t TotalCount() const { return 0; }
  uint64_t Percentile(double) const { return 0; }
};

class LatencyHistogram {
 public:
  static constexpr int kBuckets = kLatencyBuckets;
  static int BucketFor(uint64_t) { return 0; }
  static uint64_t BucketLowerBound(int) { return 0; }
  void Record(uint64_t) {}
  void Reset() {}
  uint64_t TotalCount() const { return 0; }
  uint64_t SumNanos() const { return 0; }
  uint64_t MaxNanos() const { return 0; }
  uint64_t BucketCount(int) const { return 0; }
  HistogramSnapshot Snapshot() const { return {}; }
  uint64_t Percentile(double) const { return 0; }
};

struct TraceEvent {
  uint64_t ns = 0;
  uint32_t cpu = 0;
  TraceKind kind = TraceKind::kAcquireEnd;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

class TraceRing {
 public:
  static constexpr uint64_t kCapacity = 0;
  void Record(TraceKind, uint64_t, uint64_t) {}
  uint64_t Capacity() const { return 0; }
  void SetCapacity(uint64_t) {}
  uint64_t Recorded() const { return 0; }
  uint64_t Dropped() const { return 0; }
  struct CpuStats {
    int cpu = 0;
    uint64_t recorded = 0;
    uint64_t dropped = 0;
  };
  std::vector<CpuStats> PerCpuStats() const { return {}; }
  std::vector<TraceEvent> MergeSorted() const { return {}; }
  void Reset() {}
};

class Telemetry {
 public:
  static Telemetry& Instance() {
    static Telemetry t;
    return t;
  }
  void RecordOp(MmOp, uint64_t) {}
  void RecordPhase(LockPhase, uint64_t) {}
  void RecordBatch(BatchStat, uint64_t) {}
  void Trace(TraceKind, uint64_t = 0, uint64_t = 0) {}
  HistogramSnapshot MergedOp(MmOp) const { return {}; }
  HistogramSnapshot MergedPhase(LockPhase) const { return {}; }
  HistogramSnapshot MergedBatch(BatchStat) const { return {}; }
  TraceRing& trace() { return trace_; }
  void Reset() {}
  void AddJsonSection(const std::string&, std::function<std::string()>) {}
  std::string DumpJson(const std::string&) const { return "{}"; }

 private:
  TraceRing trace_;
};

class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(MmOp) {}
};

class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(LockPhase, bool = true) {}
};

class AcquireSampler {
 public:
  static constexpr uint32_t kEvery = 32;
  static bool Sample() { return false; }
};

#endif  // CORTENMM_TELEMETRY

// The build/run configuration block stamped into every telemetry document:
// compile-time flags (telemetry, fault injection) are pre-populated; run-
// dependent keys (arch, protocol, page_size_policy) default conservatively
// and benches override them via Set. Keys emit in sorted order so documents
// diff cleanly across runs.
class BuildConfig {
 public:
  static void Set(const std::string& key, const std::string& value);
  // The whole block as a JSON object, e.g.
  // {"arch":"x86_64","faultinj":"on","page_size_policy":"4k",...}.
  static std::string Json();
};

// Accumulates labelled Telemetry snapshots and writes them as one JSON
// document, so every bench emits a machine-readable BENCH_<name>.json next to
// its stdout tables. The output path defaults to BENCH_<name>.json in the
// working directory; the CORTENMM_TELEMETRY_JSON environment variable
// overrides it. With telemetry compiled out the file records only
// {"telemetry": "disabled"} plus the gates. Every document carries the
// BuildConfig block so a result can never be mistaken for one produced under
// different flags.
//
// It is also the smoke benches' gate harness: each Gate() verdict lands in
// the document's top-level "gates" array, and Finish() turns them into the
// process exit code.
class TelemetrySink {
 public:
  // |trace_capacity| > 0 resizes the per-CPU trace rings for the bench's
  // lifetime (TraceRing::SetCapacity); 0 keeps the current size. Benches
  // whose smoke output warns about trace drop rates raise this.
  explicit TelemetrySink(const std::string& bench_name,
                         uint64_t trace_capacity = 0);
  ~TelemetrySink();  // Writes the file.

  // Captures the current Telemetry state under |label| and resets it so the
  // next snapshot starts clean.
  void Snapshot(const std::string& label);

  // Records the gate {name, measured, threshold, pass}; a failing gate also
  // prints "  FAIL: " followed by the printf-formatted |fail_fmt|.
  void Gate(const std::string& name, double measured, double threshold,
            bool pass, const char* fail_fmt, ...)
      __attribute__((format(printf, 6, 7)));

  // Writes the document now (also called by the destructor). Returns the
  // path written, empty on failure.
  std::string Write();

  // The smoke-bench tail: prints the whole run's trace-ring drop rate (a
  // loud warning above 50% — the cue to raise |trace_capacity|), writes the
  // document, and returns the exit code: 0 iff every gate passed.
  int Finish();

 private:
  struct GateRecord {
    std::string name;
    double measured;
    double threshold;
    bool pass;
  };

  // Folds the trace ring's accounting into the run totals; called before
  // every reset so Finish() reports the whole run, not the last window.
  void AccumulateTraceDrops();

  std::string bench_name_;
  std::vector<std::string> snapshots_;
  std::vector<GateRecord> gates_;
  uint64_t trace_recorded_ = 0;
  uint64_t trace_dropped_ = 0;
  double worst_cpu_drop_rate_ = 0.0;
  int worst_cpu_ = -1;
  bool written_ = false;
};

}  // namespace cortenmm

#endif  // SRC_OBS_TELEMETRY_H_
