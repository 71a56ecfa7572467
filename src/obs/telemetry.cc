#include "src/obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"

namespace cortenmm {

const char* MmOpName(MmOp op) {
  switch (op) {
    case MmOp::kMmap:
      return "mmap";
    case MmOp::kMunmap:
      return "munmap";
    case MmOp::kMprotect:
      return "mprotect";
    case MmOp::kFault:
      return "fault";
    case MmOp::kMmapFile:
      return "mmap_file";
    case MmOp::kMsync:
      return "msync";
    case MmOp::kPkeyMprotect:
      return "pkey_mprotect";
    case MmOp::kSwapOut:
      return "swap_out";
    case MmOp::kFork:
      return "fork";
    case MmOp::kCount:
      break;
  }
  return "unknown";
}

const char* LockPhaseName(LockPhase phase) {
  switch (phase) {
    case LockPhase::kRwDescent:
      return "rw_descent";
    case LockPhase::kAdvRcuTraversal:
      return "adv_rcu_traversal";
    case LockPhase::kMcsAcquire:
      return "mcs_acquire";
    case LockPhase::kDfsSubtreeLock:
      return "dfs_subtree_lock";
    case LockPhase::kShootdownWait:
      return "shootdown_wait";
    case LockPhase::kBravoRevocation:
      return "bravo_revocation";
    case LockPhase::kRcuSynchronize:
      return "rcu_synchronize";
    case LockPhase::kSeqlockWait:
      return "seqlock_wait";
    case LockPhase::kCount:
      break;
  }
  return "unknown";
}

const char* BatchStatName(BatchStat stat) {
  switch (stat) {
    case BatchStat::kShootdownRanges:
      return "shootdown_ranges";
    case BatchStat::kShootdownFrames:
      return "shootdown_frames";
    case BatchStat::kRingSqDepth:
      return "ring_sq_depth";
    case BatchStat::kRingOpsPerDrain:
      return "ring_ops_per_drain";
    case BatchStat::kRingOpsPerFusedTxn:
      return "ring_ops_per_fused_txn";
    case BatchStat::kMagOccupancy:
      return "mag_occupancy";
    case BatchStat::kCount:
      break;
  }
  return "unknown";
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kAcquireEnd:
      return "acquire_end";
    case TraceKind::kAcquireRetry:
      return "acquire_retry";
    case TraceKind::kPagesTouched:
      return "pages_touched";
    case TraceKind::kShootdown:
      return "shootdown";
    case TraceKind::kBravoRevoke:
      return "bravo_revoke";
    case TraceKind::kOpEnd:
      return "op_end";
    case TraceKind::kCount:
      break;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

namespace {

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__)
// Nanoseconds per TSC tick, measured once over a short busy window. The
// 200 us calibration happens on the first timestamp; subsequent reads are
// one rdtsc + one multiply on the inline path.
double CalibrateTscNsPerTick() {
  uint64_t t0_ns = SteadyNanos();
  uint64_t t0_tsc = __builtin_ia32_rdtsc();
  while (SteadyNanos() - t0_ns < 200 * 1000) {
  }
  uint64_t t1_ns = SteadyNanos();
  uint64_t t1_tsc = __builtin_ia32_rdtsc();
  if (t1_tsc <= t0_tsc) {
    return 0;  // Non-monotonic TSC: fall back to steady_clock.
  }
  return static_cast<double>(t1_ns - t0_ns) / static_cast<double>(t1_tsc - t0_tsc);
}
#endif

}  // namespace

namespace obs_detail {

std::atomic<uint64_t> g_tsc_ns_mul24{0};

uint64_t SlowNowNanos() {
#if defined(__x86_64__)
  static std::once_flag calibrated;
  std::call_once(calibrated, [] {
    double r = CalibrateTscNsPerTick();
    if (r > 0) {
      g_tsc_ns_mul24.store(static_cast<uint64_t>(r * (1 << 24)),
                           std::memory_order_relaxed);
    }
  });
  // Use the same 40.24 fixed-point conversion as the TelemetryNowNanos fast
  // path — not the double ratio it was derived from. The truncated multiplier
  // lags the double by up to ~6e-8 ns/tick, which at boot-scale TSC values is
  // hundreds of microseconds: timestamps from the two formulas would not be
  // mutually monotonic, and trace merging relies on one shared clock.
  uint64_t m = g_tsc_ns_mul24.load(std::memory_order_relaxed);
  if (m != 0) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(__builtin_ia32_rdtsc()) * m) >> 24);
  }
#endif
  return SteadyNanos();
}

}  // namespace obs_detail

#if CORTENMM_TELEMETRY

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

void HistogramSnapshot::Merge(const LatencyHistogram& other) {
  for (int b = 0; b < kLatencyBuckets; ++b) {
    counts[b] += other.BucketCount(b);
  }
  sum_ns += other.SumNanos();
  max_ns = std::max(max_ns, other.MaxNanos());
}

uint64_t HistogramSnapshot::TotalCount() const {
  uint64_t total = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    total += counts[b];
  }
  return total;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  uint64_t total = TotalCount();
  if (total == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  // The smallest rank such that |rank| samples lie at or below the result.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cumulative = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    uint64_t n = counts[b];
    if (cumulative + n >= rank) {
      // Interpolate linearly inside the bucket (log-linear buckets: the width
      // is the gap to the next lower bound, not the lower bound itself).
      uint64_t lower = LatencyHistogram::BucketLowerBound(b);
      uint64_t width = LatencyHistogram::BucketLowerBound(b + 1) - lower;
      double frac = n == 0 ? 0
                           : static_cast<double>(rank - cumulative) /
                                 static_cast<double>(n);
      return lower + static_cast<uint64_t>(frac * static_cast<double>(width));
    }
    cumulative += n;
  }
  return max_ns;
}

void LatencyHistogram::Reset() {
  for (int b = 0; b < kBuckets; ++b) {
    counts_[b].store(0, std::memory_order_relaxed);
  }
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    total += counts_[b].load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TraceRing::~TraceRing() {
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    delete[] cpus_[cpu].value.events.load(std::memory_order_relaxed);
  }
}

TraceEvent* TraceRing::AllocateBuffer(Cpu& c) {
  uint64_t cap = Capacity();
  TraceEvent* buf = new TraceEvent[cap];
  c.cap = cap;
  TraceEvent* expected = nullptr;
  if (c.events.compare_exchange_strong(expected, buf, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return buf;
  }
  // A thread sharing this CPU id published first (same capacity — resizes
  // are quiescent-only); use its buffer.
  delete[] buf;
  return expected;
}

void TraceRing::SetCapacity(uint64_t capacity) {
  capacity_.store(std::max<uint64_t>(capacity, 1), std::memory_order_relaxed);
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    Cpu& c = cpus_[cpu].value;
    delete[] c.events.exchange(nullptr, std::memory_order_acq_rel);
    c.cap = 0;
    c.head.store(0, std::memory_order_relaxed);
  }
}

uint64_t TraceRing::Recorded() const {
  uint64_t total = 0;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    total += cpus_[cpu].value.head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TraceRing::Dropped() const {
  uint64_t dropped = 0;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    const Cpu& c = cpus_[cpu].value;
    uint64_t head = c.head.load(std::memory_order_relaxed);
    if (c.events.load(std::memory_order_acquire) != nullptr && head > c.cap) {
      dropped += head - c.cap;
    }
  }
  return dropped;
}

std::vector<TraceRing::CpuStats> TraceRing::PerCpuStats() const {
  std::vector<CpuStats> stats;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    const Cpu& c = cpus_[cpu].value;
    uint64_t head = c.head.load(std::memory_order_relaxed);
    if (head == 0 || c.events.load(std::memory_order_acquire) == nullptr) {
      continue;
    }
    CpuStats s;
    s.cpu = cpu;
    s.recorded = head;
    s.dropped = head > c.cap ? head - c.cap : 0;
    stats.push_back(s);
  }
  return stats;
}

std::vector<TraceEvent> TraceRing::MergeSorted() const {
  std::vector<TraceEvent> merged;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    const Cpu& c = cpus_[cpu].value;
    const TraceEvent* buf = c.events.load(std::memory_order_acquire);
    if (buf == nullptr) {
      continue;
    }
    uint64_t head = c.head.load(std::memory_order_acquire);
    uint64_t live = std::min(head, c.cap);
    for (uint64_t i = head - live; i < head; ++i) {
      merged.push_back(buf[i % c.cap]);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.ns < b.ns; });
  return merged;
}

void TraceRing::Reset() {
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    cpus_[cpu].value.head.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

thread_local int ScopedOpTimer::depth_ = 0;
thread_local uint32_t AcquireSampler::counter_ = 0;

Telemetry& Telemetry::Instance() {
  static Telemetry* telemetry = new Telemetry();  // Leaked: ~7 MB of slots.
  return *telemetry;
}

HistogramSnapshot Telemetry::MergedOp(MmOp op) const {
  HistogramSnapshot merged;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    merged.Merge(cpus_[cpu].value.ops[static_cast<int>(op)]);
  }
  return merged;
}

HistogramSnapshot Telemetry::MergedPhase(LockPhase phase) const {
  HistogramSnapshot merged;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    merged.Merge(cpus_[cpu].value.phases[static_cast<int>(phase)]);
  }
  return merged;
}

HistogramSnapshot Telemetry::MergedBatch(BatchStat stat) const {
  HistogramSnapshot merged;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    merged.Merge(cpus_[cpu].value.batches[static_cast<int>(stat)]);
  }
  return merged;
}

void Telemetry::Reset() {
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    for (auto& h : cpus_[cpu].value.ops) {
      h.Reset();
    }
    for (auto& h : cpus_[cpu].value.phases) {
      h.Reset();
    }
    for (auto& h : cpus_[cpu].value.batches) {
      h.Reset();
    }
  }
  trace_.Reset();
}

namespace {

void AppendHistogramJson(std::ostringstream& os, const char* name,
                         const HistogramSnapshot& h, bool* first) {
  uint64_t count = h.TotalCount();
  if (count == 0) {
    return;
  }
  if (!*first) {
    os << ",";
  }
  *first = false;
  os << "\"" << name << "\":{\"count\":" << count
     << ",\"p50_ns\":" << h.Percentile(0.50) << ",\"p99_ns\":" << h.Percentile(0.99)
     << ",\"mean_ns\":" << (h.sum_ns / count) << ",\"max_ns\":" << h.max_ns
     << "}";
}

// Same shape for value-domain (batch-size) histograms: the sums and maxima
// are sizes, so the keys drop the _ns suffix.
void AppendValueHistogramJson(std::ostringstream& os, const char* name,
                              const HistogramSnapshot& h, bool* first) {
  uint64_t count = h.TotalCount();
  if (count == 0) {
    return;
  }
  if (!*first) {
    os << ",";
  }
  *first = false;
  os << "\"" << name << "\":{\"count\":" << count
     << ",\"p50\":" << h.Percentile(0.50) << ",\"p99\":" << h.Percentile(0.99)
     << ",\"mean\":" << (h.sum_ns / count) << ",\"max\":" << h.max_ns << "}";
}

}  // namespace

void Telemetry::AddJsonSection(const std::string& key,
                               std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(sections_mu_);
  sections_[key] = std::move(provider);
}

std::string Telemetry::DumpJson(const std::string& label) const {
  std::ostringstream os;
  os << "{\"label\":\"" << label << "\",\"ops\":{";
  bool first = true;
  for (int i = 0; i < static_cast<int>(MmOp::kCount); ++i) {
    MmOp op = static_cast<MmOp>(i);
    AppendHistogramJson(os, MmOpName(op), MergedOp(op), &first);
  }
  os << "},\"phases\":{";
  first = true;
  for (int i = 0; i < static_cast<int>(LockPhase::kCount); ++i) {
    LockPhase phase = static_cast<LockPhase>(i);
    AppendHistogramJson(os, LockPhaseName(phase), MergedPhase(phase), &first);
  }
  os << "},\"batches\":{";
  first = true;
  for (int i = 0; i < static_cast<int>(BatchStat::kCount); ++i) {
    BatchStat stat = static_cast<BatchStat>(i);
    AppendValueHistogramJson(os, BatchStatName(stat), MergedBatch(stat), &first);
  }
  os << "},\"counters\":{";
  first = true;
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    Counter c = static_cast<Counter>(i);
    uint64_t total = GlobalStats().Total(c);
    if (total == 0) {
      continue;
    }
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << CounterName(c) << "\":" << total;
  }
  uint64_t recorded = trace_.Recorded();
  uint64_t dropped = trace_.Dropped();
  os << "},\"traces\":{\"recorded\":" << recorded << ",\"dropped\":" << dropped
     << ",\"drop_rate\":"
     << (recorded > 0 ? static_cast<double>(dropped) / recorded : 0.0)
     << ",\"per_cpu\":[";
  first = true;
  for (const TraceRing::CpuStats& s : trace_.PerCpuStats()) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"cpu\":" << s.cpu << ",\"recorded\":" << s.recorded
       << ",\"dropped\":" << s.dropped << "}";
  }
  os << "]}";
  {
    std::lock_guard<std::mutex> lock(sections_mu_);
    for (const auto& [key, provider] : sections_) {
      os << ",\"" << key << "\":" << provider();
    }
  }
  // Chaos-mode accounting: per-site injected/survived/rolled-back counters.
  // Omitted entirely when no fault site was ever checked (the common case).
  std::string faults = FaultInjector::Instance().DumpJson();
  if (faults != "{}") {
    os << ",\"faults\":" << faults;
  }
  os << "}";
  return os.str();
}

#endif  // CORTENMM_TELEMETRY

// ---------------------------------------------------------------------------
// BuildConfig
// ---------------------------------------------------------------------------

namespace {

std::map<std::string, std::string>& BuildConfigMap() {
  static std::map<std::string, std::string> config = {
      {"arch", "x86_64"},
      {"protocol", "default"},
      {"telemetry", CORTENMM_TELEMETRY ? "on" : "off"},
      {"faultinj", CORTENMM_FAULTINJ ? "on" : "off"},
      {"page_size_policy", "4k"},
  };
  return config;
}

std::mutex& BuildConfigMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

void BuildConfig::Set(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> guard(BuildConfigMutex());
  BuildConfigMap()[key] = value;
}

std::string BuildConfig::Json() {
  std::lock_guard<std::mutex> guard(BuildConfigMutex());
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : BuildConfigMap()) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << key << "\":\"" << value << "\"";
  }
  os << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// TelemetrySink
// ---------------------------------------------------------------------------

namespace {

// A JSON number for |v|; JSON has no inf/nan, so those become null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

TelemetrySink::TelemetrySink(const std::string& bench_name, uint64_t trace_capacity)
    : bench_name_(bench_name) {
#if CORTENMM_TELEMETRY
  if (trace_capacity > 0) {
    Telemetry::Instance().trace().SetCapacity(trace_capacity);
  }
#else
  (void)trace_capacity;
#endif
}

TelemetrySink::~TelemetrySink() {
  if (!written_) {
    Write();
  }
}

void TelemetrySink::Snapshot(const std::string& label) {
#if CORTENMM_TELEMETRY
  snapshots_.push_back(Telemetry::Instance().DumpJson(label));
  AccumulateTraceDrops();
  Telemetry::Instance().Reset();
  GlobalStats().Reset();
#else
  (void)label;
#endif
}

void TelemetrySink::Gate(const std::string& name, double measured,
                         double threshold, bool pass, const char* fail_fmt,
                         ...) {
  gates_.push_back({name, measured, threshold, pass});
  if (!pass) {
    std::va_list args;
    va_start(args, fail_fmt);
    std::printf("  FAIL: ");
    std::vprintf(fail_fmt, args);
    std::printf("\n");
    va_end(args);
  }
}

void TelemetrySink::AccumulateTraceDrops() {
  const TraceRing& ring = Telemetry::Instance().trace();
  trace_recorded_ += ring.Recorded();
  trace_dropped_ += ring.Dropped();
  for (const TraceRing::CpuStats& s : ring.PerCpuStats()) {
    double rate =
        s.recorded > 0 ? static_cast<double>(s.dropped) / s.recorded : 0.0;
    if (rate > worst_cpu_drop_rate_) {
      worst_cpu_drop_rate_ = rate;
      worst_cpu_ = s.cpu;
    }
  }
}

int TelemetrySink::Finish() {
  AccumulateTraceDrops();
  double rate = trace_recorded_ > 0
                    ? static_cast<double>(trace_dropped_) / trace_recorded_
                    : 0.0;
  std::printf("trace drops: %llu/%llu events (%.1f%% drop rate",
              static_cast<unsigned long long>(trace_dropped_),
              static_cast<unsigned long long>(trace_recorded_), rate * 100.0);
  if (worst_cpu_ >= 0) {
    std::printf(", worst cpu %d at %.1f%%", worst_cpu_,
                worst_cpu_drop_rate_ * 100.0);
  }
  std::printf(")\n");
  if (rate > 0.5) {
    std::printf(
        "WARN: trace drop rate %.1f%% exceeds 50%% — the ring overwrote most "
        "of what this bench recorded; raise the TelemetrySink trace capacity\n",
        rate * 100.0);
  }
  std::printf("\ntelemetry: %s\n", Write().c_str());
  for (const GateRecord& g : gates_) {
    if (!g.pass) {
      return 1;
    }
  }
  return 0;
}

std::string TelemetrySink::Write() {
  written_ = true;
  std::string path;
  const char* env = std::getenv("CORTENMM_TELEMETRY_JSON");
  if (env != nullptr && env[0] != '\0') {
    path = env;
  } else {
    path = "BENCH_" + bench_name_ + ".json";
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
    return "";
  }
  std::ostringstream os;
  os << "{\"bench\":\"" << bench_name_ << "\",\"telemetry\":\""
     << (CORTENMM_TELEMETRY ? "enabled" : "disabled")
     << "\",\"build\":" << BuildConfig::Json() << ",\"snapshots\":[";
  for (size_t i = 0; i < snapshots_.size(); ++i) {
    if (i != 0) {
      os << ",";
    }
    os << snapshots_[i];
  }
  os << "],\"gates\":[";
  for (size_t i = 0; i < gates_.size(); ++i) {
    const GateRecord& g = gates_[i];
    os << (i != 0 ? "," : "") << "{\"name\":\"" << g.name
       << "\",\"measured\":" << JsonNumber(g.measured)
       << ",\"threshold\":" << JsonNumber(g.threshold)
       << ",\"pass\":" << (g.pass ? "true" : "false") << "}";
  }
  os << "]}\n";
  std::string doc = os.str();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "telemetry: wrote %s (%zu snapshots)\n", path.c_str(),
               snapshots_.size());
  return path;
}

}  // namespace cortenmm
