#include "src/reclaim/reclaim.h"

#include <chrono>
#include <sstream>

#include "src/common/cpu.h"
#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"

namespace cortenmm {

ReclaimSystem& ReclaimSystem::Instance() {
  static ReclaimSystem* system = new ReclaimSystem();  // Never destroyed.
  return *system;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

namespace {
void PressureHookTrampoline() { ReclaimSystem::Instance().Wake(); }
void ScrubHookTrampoline() { ReclaimSystem::Instance().WakeScrubber(); }
}  // namespace

void ReclaimSystem::Start(const ReclaimConfig& config) {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  config_ = config;
  stop_.store(false, std::memory_order_relaxed);
  wake_pending_.store(false, std::memory_order_relaxed);
  scrub_pending_.store(false, std::memory_order_relaxed);

  BuddyAllocator& buddy = BuddyAllocator::Instance();
  if (config_.low_watermark != 0 || config_.min_watermark != 0) {
    uint64_t low = config_.low_watermark != 0 ? config_.low_watermark
                                              : buddy.LowWatermark();
    uint64_t min = config_.min_watermark != 0 ? config_.min_watermark
                                              : buddy.MinWatermark();
    buddy.SetWatermarks(low, min);
  }

  int groups = (OnlineCpuCount() + config_.cpus_per_group - 1) /
               (config_.cpus_per_group > 0 ? config_.cpus_per_group : 1);
  if (groups < 1) {
    groups = 1;
  }
  // One kswapd per CPU group, each adopted by a NUMA node round-robin: with
  // the default 8-CPU groups and 2 nodes, every node gets its own daemons
  // sweeping its own arena's PFN range (node-local reclaim), while the wake
  // machinery and watermarks stay shared.
  const int nodes = buddy.NumNodes();
  for (int g = 0; g < groups; ++g) {
    daemons_.emplace_back([this, g, nodes] { DaemonLoop(g % nodes); });
  }

  if (config_.prescrub) {
    scrubber_ = std::thread([this] { ScrubberLoop(); });
    buddy.SetScrubHook(&ScrubHookTrampoline);
  }

  running_.store(true, std::memory_order_release);
  SetPressureGovernor(this);
  buddy.SetPressureHook(&PressureHookTrampoline);
  Telemetry::Instance().AddJsonSection(
      "reclaim", [] { return ReclaimSystem::Instance().DumpJson(); });
}

void ReclaimSystem::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  // Unhook first so no new governor calls or wakes start after this point.
  BuddyAllocator::Instance().SetPressureHook(nullptr);
  BuddyAllocator::Instance().SetScrubHook(nullptr);
  SetPressureGovernor(nullptr);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    std::lock_guard<std::mutex> scrub_lock(scrub_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  scrub_cv_.notify_all();
  for (std::thread& daemon : daemons_) {
    daemon.join();
  }
  daemons_.clear();
  if (scrubber_.joinable()) {
    scrubber_.join();
  }
  // Spaces destroyed after Stop() no longer call OnSpaceDestroying, so the
  // registry must not outlive this run. Wait out in-flight pins (a concurrent
  // direct reclaimer may still hold one), then drop every entry.
  {
    std::unique_lock<std::mutex> lock(registry_mu_);
    for (auto& [space, tenant] : tenants_) {
      registry_cv_.wait(lock, [&] { return tenant->pins == 0; });
    }
    tenants_.clear();
  }
  running_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Tenant registry
// ---------------------------------------------------------------------------

void ReclaimSystem::OnSpaceCreated(VmSpace* space) {
  auto tenant = std::make_shared<Tenant>();
  tenant->vm = space;
  std::lock_guard<std::mutex> lock(registry_mu_);
  tenants_[&space->addr_space()] = std::move(tenant);
}

void ReclaimSystem::OnSpaceDestroying(VmSpace* space) {
  std::unique_lock<std::mutex> lock(registry_mu_);
  auto it = tenants_.find(&space->addr_space());
  if (it == tenants_.end()) {
    return;
  }
  std::shared_ptr<Tenant> tenant = std::move(it->second);
  tenants_.erase(it);
  // After the erase no reclaimer can take a NEW pin; wait out existing ones
  // so ~VmSpace never races an in-flight SwapOut on this space.
  registry_cv_.wait(lock, [&] { return tenant->pins == 0; });
}

std::shared_ptr<ReclaimSystem::Tenant> ReclaimSystem::Pin(AddrSpace* owner) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = tenants_.find(owner);
  if (it == tenants_.end()) {
    return nullptr;
  }
  ++it->second->pins;
  return it->second;
}

void ReclaimSystem::Unpin(const std::shared_ptr<Tenant>& tenant) {
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    --tenant->pins;
  }
  registry_cv_.notify_all();
}

void ReclaimSystem::SetResidentLimit(VmSpace* space, uint64_t limit_pages) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = tenants_.find(&space->addr_space());
  if (it != tenants_.end()) {
    it->second->limit_pages.store(limit_pages, std::memory_order_relaxed);
  }
}

uint64_t ReclaimSystem::ResidentLimit(VmSpace* space) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = tenants_.find(&space->addr_space());
  return it == tenants_.end()
             ? 0
             : it->second->limit_pages.load(std::memory_order_relaxed);
}

size_t ReclaimSystem::TenantCount() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return tenants_.size();
}

// ---------------------------------------------------------------------------
// The clock
// ---------------------------------------------------------------------------

uint64_t ReclaimSystem::ReclaimPages(uint64_t target_pages, AddrSpace* only,
                                     uint64_t max_scan, int node) {
  PhysMem& mem = PhysMem::Instance();
  uint64_t frames = mem.num_frames();
  if (frames <= 1 || target_pages == 0) {
    return 0;
  }
  // Sweep range: the whole machine (node < 0), or one node's arena with its
  // own clock hand, so node-local daemons evict node-local frames and their
  // hands do not thrash each other's second-chance state.
  Pfn range_begin = 1;
  uint64_t range_frames = frames - 1;
  std::atomic<uint64_t>* hand = &clock_hand_;
  if (node >= 0) {
    Pfn begin, end;
    BuddyAllocator::Instance().NodePfnRange(node, &begin, &end);
    range_begin = begin == 0 ? 1 : begin;  // Frame 0 is reserved.
    range_frames = end - range_begin;
    hand = &node_clock_hands_[node];
  }
  if (range_frames == 0) {
    return 0;
  }
  if (max_scan == 0) {
    // Two full sweeps: the first clears `young` everywhere, the second may
    // evict — the clock's second chance, bounded.
    max_scan = 2 * range_frames;
  }
  uint64_t evicted = 0;
  uint64_t scanned = 0;
  while (evicted < target_pages && scanned < max_scan) {
    Pfn pfn = range_begin +
              (hand->fetch_add(1, std::memory_order_relaxed) % range_frames);
    ++scanned;
    PageDescriptor& desc = mem.Descriptor(pfn);
    if (desc.type.load(std::memory_order_relaxed) != FrameType::kAnon) {
      continue;
    }
    // Only exclusive anon pages are candidates — the same criterion SwapOut
    // re-checks authoritatively under the subtree lock.
    if (!(desc.Counts() == FrameRefs{1, 1})) {
      continue;
    }
    if (desc.young.exchange(false, std::memory_order_relaxed)) {
      continue;  // Second chance: referenced since the last pass.
    }
    AddrSpace* owner;
    Vaddr va;
    {
      SpinGuard guard(desc.rmap_lock);
      owner = static_cast<AddrSpace*>(desc.owner.load(std::memory_order_relaxed));
      va = desc.owner_key.load(std::memory_order_relaxed);
    }
    if (owner == nullptr || (only != nullptr && owner != only)) {
      continue;
    }
    std::shared_ptr<Tenant> tenant = Pin(owner);
    if (tenant == nullptr) {
      continue;  // Tenant gone (or never registered); hint is stale.
    }
    // The authoritative eviction: SwapOut revalidates under the subtree lock
    // (splitting a huge leaf first if the hint points into one), so a stale
    // hint is at worst a no-op.
    Result<uint64_t> swapped = tenant->vm->SwapOut(va, kPageSize);
    Unpin(tenant);
    if (swapped.ok() && *swapped > 0) {
      evicted += *swapped;
    }
  }
  CountEvent(Counter::kReclaimScannedFrames, scanned);
  if (evicted > 0) {
    CountEvent(Counter::kReclaimPagesEvicted, evicted);
  }
  return evicted;
}

// ---------------------------------------------------------------------------
// kswapd
// ---------------------------------------------------------------------------

void ReclaimSystem::Wake() {
  if (stop_.load(std::memory_order_acquire)) {
    return;
  }
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    CountEvent(Counter::kReclaimWakeups);
    wake_cv_.notify_all();
  }
}

void ReclaimSystem::DaemonLoop(int node) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    // Periodic tick besides the explicit wake: a notify that raced the wait
    // is covered, and sustained pressure keeps being worked on.
    wake_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
      return stop_.load(std::memory_order_acquire) ||
             wake_pending_.load(std::memory_order_acquire);
    });
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    wake_pending_.store(false, std::memory_order_release);
    lock.unlock();
    if (buddy.BelowLow()) {
      // Watermark drain ordering: magazines first, clock second. Frames
      // parked in per-CPU magazines and depot shelves are counted free but
      // only reachable from their own CPU (or a lucky depot swap); under
      // pressure they go back to the global lists — where every CPU, and the
      // buddy's coalescing, can use them — before any page is evicted.
      buddy.DrainMagazines();
    }
    while (!stop_.load(std::memory_order_acquire) && buddy.BelowLow()) {
      // Node-local sweep first; if the home arena yields nothing, help the
      // rest of the machine (global pressure is what woke us, and another
      // node's cold pages are better than a stall).
      uint64_t got = ReclaimPages(config_.bg_batch, nullptr, /*max_scan=*/0,
                                  /*node=*/node);
      if (got == 0) {
        got = ReclaimPages(config_.bg_batch);
      }
      if (got == 0) {
        CountEvent(Counter::kReclaimStalls);
        break;  // Nothing evictable; wait for the next wake/tick.
      }
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Pre-scrubber
// ---------------------------------------------------------------------------

void ReclaimSystem::WakeScrubber() {
  if (stop_.load(std::memory_order_acquire)) {
    return;
  }
  if (!scrub_pending_.exchange(true, std::memory_order_acq_rel)) {
    scrub_cv_.notify_all();
  }
}

void ReclaimSystem::ScrubberLoop() {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  std::unique_lock<std::mutex> lock(scrub_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    // Same wake discipline as kswapd: an explicit hook wake (a dirty magazine
    // landed in the depot) plus a periodic tick covering missed notifies.
    scrub_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
      return stop_.load(std::memory_order_acquire) ||
             scrub_pending_.load(std::memory_order_acquire);
    });
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    scrub_pending_.store(false, std::memory_order_release);
    lock.unlock();
    // Zero until the dirty shelves are empty, in bounded batches so shutdown
    // is never more than one batch away. Don't scrub below the low watermark:
    // kswapd is about to drain these very magazines to the global lists
    // (which discards the zeroed flag), so the memset work would be wasted
    // bandwidth exactly when the machine has none to spare.
    while (!stop_.load(std::memory_order_acquire) && !buddy.BelowLow() &&
           buddy.ScrubBatch(config_.scrub_batch) > 0) {
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Governor hooks (the fault path's view)
// ---------------------------------------------------------------------------

void ReclaimSystem::BeforeFault(VmSpace* space) {
  // Per-tenant resident limit: reclaim the tenant's own cold pages before the
  // fault grows its RSS further. Bounded scan — a fully-hot working set must
  // not turn every fault into a full PFN sweep.
  std::shared_ptr<Tenant> self = Pin(&space->addr_space());
  if (self != nullptr) {
    uint64_t limit = self->limit_pages.load(std::memory_order_relaxed);
    uint64_t resident = space->addr_space().ResidentPagesFast();
    if (limit != 0 && resident >= limit) {
      CountEvent(Counter::kReclaimLimitHits);
      CountEvent(Counter::kReclaimDirectRuns);
      uint64_t want = resident - limit + 1;
      ReclaimPages(want, &space->addr_space(),
                   /*max_scan=*/2048 + 8 * want);
    }
  }
  if (self != nullptr) {
    Unpin(self);
  }

  // Min-watermark throttle: allocations below MIN would race kswapd to the
  // floor, so the fault trades latency for progress — bounded, so a fault
  // can degrade to slow but never block forever.
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  for (int round = 0; round < config_.max_throttle_rounds && buddy.BelowMin();
       ++round) {
    CountEvent(Counter::kReclaimThrottles);
    Wake();
    uint64_t got = ReclaimPages(config_.direct_batch, nullptr, /*max_scan=*/4096);
    if (got == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(config_.throttle_us));
    }
  }
}

bool ReclaimSystem::OnFaultNoMem(VmSpace* space, int attempt) {
  (void)space;
  if (attempt >= config_.max_fault_retries) {
    return false;
  }
  CountEvent(Counter::kReclaimDirectRuns);
  uint64_t got = ReclaimPages(config_.direct_batch);
  if (got > 0) {
    return true;
  }
  CountEvent(Counter::kReclaimStalls);
  // Nothing evictable. Frames parked in OTHER CPUs' buddy caches are
  // invisible to this CPU's allocation path; flushing them to the global
  // lists may be all the fault needs.
  BuddyAllocator::Instance().FlushCpuCaches();
  // A couple of blind retries also absorb transient failures (a racing freer,
  // an injected allocator fault) without letting a truly-exhausted machine
  // spin forever.
  return attempt < 2 && BuddyAllocator::Instance().FreeFrameCount() > 0;
}

bool ReclaimSystem::AllowHugeFaultIn(VmSpace* space) {
  (void)space;
  return !BuddyAllocator::Instance().BelowLow();
}

uint64_t ReclaimSystem::FaultAroundBudget(VmSpace* space) {
  if (BuddyAllocator::Instance().BelowLow()) {
    return 0;  // No speculation while kswapd is fighting for frames.
  }
  std::shared_ptr<Tenant> tenant = Pin(&space->addr_space());
  if (tenant == nullptr) {
    return ~0ull;
  }
  uint64_t limit = tenant->limit_pages.load(std::memory_order_relaxed);
  uint64_t budget = ~0ull;
  if (limit != 0) {
    // Around-mapped pages count against the tenant's RSS like any others:
    // the budget is the headroom left after the faulting page itself.
    uint64_t resident = space->addr_space().ResidentPagesFast();
    budget = resident + 1 >= limit ? 0 : limit - resident - 1;
  }
  Unpin(tenant);
  return budget;
}

bool ReclaimSystem::OverLimit(VmSpace* space) {
  std::shared_ptr<Tenant> tenant = Pin(&space->addr_space());
  if (tenant == nullptr) {
    return false;
  }
  uint64_t limit = tenant->limit_pages.load(std::memory_order_relaxed);
  bool over = limit != 0 && space->addr_space().ResidentPagesFast() >= limit;
  Unpin(tenant);
  return over;
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

std::string ReclaimSystem::DumpJson() {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  std::ostringstream os;
  os << "{\"total_frames\":" << buddy.TotalFrameCount()
     << ",\"free_frames\":" << buddy.FreeFrameCount()
     << ",\"low_watermark\":" << buddy.LowWatermark()
     << ",\"min_watermark\":" << buddy.MinWatermark()
     << ",\"below_low\":" << (buddy.BelowLow() ? 1 : 0)
     << ",\"below_min\":" << (buddy.BelowMin() ? 1 : 0)
     << ",\"tenants\":" << TenantCount()
     << ",\"kswapd_threads\":" << daemons_.size()
     << ",\"running\":" << (running() ? 1 : 0) << "}";
  return os.str();
}

}  // namespace cortenmm
