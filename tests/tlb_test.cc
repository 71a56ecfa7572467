// Tests for the TLB substrate: lookup/insert/invalidate semantics, ASID
// isolation, huge-page entries, and the three shootdown policies including
// LATR's deferred frame reclamation, and the shared ASID allocator.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/addr_space.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/pt/pte.h"
#include "src/sim/bench_util.h"
#include "src/tlb/gather.h"
#include "src/tlb/shootdown.h"
#include "src/tlb/tlb.h"

namespace cortenmm {
namespace {

uint64_t LeafRaw(Pfn pfn) { return MakeLeafPte(Arch::kX86_64, pfn, Perm::RW(), 1).raw; }

TEST(TlbTest, InsertLookupHit) {
  Tlb tlb;
  tlb.Insert(1, 0x1000, LeafRaw(7), 1);
  auto hit = tlb.Lookup(1, 0x1000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(PtePfn(Arch::kX86_64, Pte(hit->pte_raw)), 7u);
  EXPECT_FALSE(tlb.Lookup(1, 0x2000).has_value());
}

TEST(TlbTest, AsidIsolation) {
  Tlb tlb;
  tlb.Insert(1, 0x1000, LeafRaw(7), 1);
  EXPECT_FALSE(tlb.Lookup(2, 0x1000).has_value());
  tlb.InvalidateAsid(1);
  EXPECT_FALSE(tlb.Lookup(1, 0x1000).has_value());
}

TEST(TlbTest, RangeInvalidation) {
  Tlb tlb;
  for (int i = 0; i < 8; ++i) {
    tlb.Insert(1, 0x10000 + i * kPageSize, LeafRaw(i + 1), 1);
  }
  tlb.InvalidateRange(1, VaRange(0x10000 + 2 * kPageSize, 0x10000 + 5 * kPageSize));
  for (int i = 0; i < 8; ++i) {
    bool expect_hit = i < 2 || i >= 5;
    EXPECT_EQ(tlb.Lookup(1, 0x10000 + i * kPageSize).has_value(), expect_hit) << i;
  }
}

TEST(TlbTest, HugePageEntryCoversWholeSpan) {
  Tlb tlb;
  Vaddr base = 4ull << 20;  // 2 MiB aligned.
  tlb.Insert(1, base, MakeLeafPte(Arch::kX86_64, 0x200, Perm::RW(), 2).raw, 2);
  auto hit = tlb.Lookup(1, base + 123 * kPageSize);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->level, 2);
  // A range invalidation intersecting the huge span kills it.
  tlb.InvalidateRange(1, VaRange(base + (1ull << 20), base + (1ull << 20) + kPageSize));
  EXPECT_FALSE(tlb.Lookup(1, base).has_value());
}

TEST(TlbTest, ReplacementEvictsLru) {
  Tlb tlb;
  // Fill one set: addresses mapping to the same set differ by kSets pages.
  Vaddr stride = Tlb::kSets * kPageSize;
  for (int i = 0; i < Tlb::kWays; ++i) {
    tlb.Insert(1, i * stride, LeafRaw(i + 1), 1);
  }
  tlb.Lookup(1, 0);  // Touch way 0 so it is most recent.
  tlb.Insert(1, Tlb::kWays * stride, LeafRaw(99), 1);  // Forces an eviction.
  EXPECT_TRUE(tlb.Lookup(1, 0).has_value());  // Recently-used entry survives.
  int present = 0;
  for (int i = 0; i <= Tlb::kWays; ++i) {
    if (tlb.Lookup(1, i * stride).has_value()) {
      ++present;
    }
  }
  EXPECT_EQ(present, Tlb::kWays);
}

// ---------------------------------------------------------------------------
// Shootdown policies
// ---------------------------------------------------------------------------

class ShootdownTest : public ::testing::Test {
 protected:
  void SeedTlbs(Asid asid, Vaddr va, const std::vector<CpuId>& cpus) {
    for (CpuId cpu : cpus) {
      TlbSystem::Instance().CpuTlb(cpu).Insert(asid, va, LeafRaw(5), 1);
      mask_.Set(cpu);
    }
  }
  CpuMask mask_;
};

TEST_F(ShootdownTest, SyncInvalidatesAllTargets) {
  Asid asid = 900;
  Vaddr va = 0x40000000;
  SeedTlbs(asid, va, {2, 3, 4});
  TlbSystem::Instance().Shootdown(asid, VaRange(va, va + kPageSize), mask_,
                                  TlbPolicy::kSync, {}, nullptr);
  for (CpuId cpu : {2, 3, 4}) {
    EXPECT_FALSE(TlbSystem::Instance().CpuTlb(cpu).Lookup(asid, va).has_value()) << cpu;
  }
}

TEST_F(ShootdownTest, EarlyAckInvalidatesAllTargets) {
  Asid asid = 901;
  Vaddr va = 0x40100000;
  SeedTlbs(asid, va, {2, 3});
  TlbSystem::Instance().Shootdown(asid, VaRange(va, va + kPageSize), mask_,
                                  TlbPolicy::kEarlyAck, {}, nullptr);
  for (CpuId cpu : {2, 3}) {
    EXPECT_FALSE(TlbSystem::Instance().CpuTlb(cpu).Lookup(asid, va).has_value()) << cpu;
  }
}

TEST_F(ShootdownTest, LatrDefersRemoteFlushAndFrameFree) {
  BindThisThreadToCpu(0);
  Asid asid = 902;
  Vaddr va = 0x40200000;
  SeedTlbs(asid, va, {0, 5});

  Result<Pfn> frame = BuddyAllocator::Instance().AllocFrame();
  ASSERT_TRUE(frame.ok());
  static std::atomic<int> freed;
  freed.store(0);
  RunFreer freer = [](PageRun run) {
    freed.fetch_add(1);
    BuddyAllocator::Instance().FreeFrame(run.pfn);
  };

  TlbSystem::Instance().Shootdown(asid, VaRange(va, va + kPageSize), mask_,
                                  TlbPolicy::kLatr, {PageRun(*frame, 0)}, freer);
  // Local TLB flushed immediately; remote entry still live; frame not freed.
  EXPECT_FALSE(TlbSystem::Instance().CpuTlb(0).Lookup(asid, va).has_value());
  EXPECT_TRUE(TlbSystem::Instance().CpuTlb(5).Lookup(asid, va).has_value());
  EXPECT_EQ(freed.load(), 0);
  EXPECT_GE(TlbSystem::Instance().pending_latr_entries(), 1u);

  // CPU 5 ticks (timer interrupt): it flushes its own TLB, which completes the
  // shootdown and releases the frame.
  TlbSystem::Instance().Tick(5);
  EXPECT_FALSE(TlbSystem::Instance().CpuTlb(5).Lookup(asid, va).has_value());
  EXPECT_EQ(freed.load(), 1);
}

TEST_F(ShootdownTest, LatrLocalOnlyFreesImmediately) {
  BindThisThreadToCpu(0);
  Asid asid = 903;
  Vaddr va = 0x40300000;
  CpuMask self_only;
  self_only.Set(0);
  TlbSystem::Instance().CpuTlb(0).Insert(asid, va, LeafRaw(5), 1);

  Result<Pfn> frame = BuddyAllocator::Instance().AllocFrame();
  ASSERT_TRUE(frame.ok());
  static std::atomic<int> freed;
  freed.store(0);
  RunFreer freer = [](PageRun run) {
    freed.fetch_add(1);
    BuddyAllocator::Instance().FreeFrame(run.pfn);
  };
  TlbSystem::Instance().Shootdown(asid, VaRange(va, va + kPageSize), self_only,
                                  TlbPolicy::kLatr, {PageRun(*frame, 0)}, freer);
  EXPECT_EQ(freed.load(), 1);  // No remote targets: nothing to defer.
}

// ---------------------------------------------------------------------------
// TlbGather: coalescing, fallback, batched submission
// ---------------------------------------------------------------------------

// Counters are process-global and cumulative across tests, so every assertion
// below is on a before/after delta.
uint64_t CounterNow(Counter c) { return GlobalStats().Total(c); }

TEST(TlbGatherTest, AdjacentRangesMerge) {
  TlbGather gather;
  Vaddr base = 0x50000000;
  uint64_t coalesced = CounterNow(Counter::kTlbRangesCoalesced);
  gather.AddRange(VaRange(base, base + kPageSize));
  gather.AddRange(VaRange(base + kPageSize, base + 2 * kPageSize));
  ASSERT_EQ(gather.range_count(), 1u);
  EXPECT_EQ(gather.ranges()[0], VaRange(base, base + 2 * kPageSize));
  EXPECT_EQ(CounterNow(Counter::kTlbRangesCoalesced) - coalesced, 1u);
}

TEST(TlbGatherTest, OverlappingRangesMerge) {
  TlbGather gather;
  Vaddr base = 0x50100000;
  gather.AddRange(VaRange(base, base + 3 * kPageSize));
  gather.AddRange(VaRange(base + kPageSize, base + 5 * kPageSize));
  ASSERT_EQ(gather.range_count(), 1u);
  EXPECT_EQ(gather.ranges()[0], VaRange(base, base + 5 * kPageSize));
}

TEST(TlbGatherTest, BridgingRangeAbsorbsBothNeighbors) {
  TlbGather gather;
  Vaddr base = 0x50200000;
  gather.AddRange(VaRange(base, base + kPageSize));
  gather.AddRange(VaRange(base + 2 * kPageSize, base + 3 * kPageSize));
  ASSERT_EQ(gather.range_count(), 2u);
  uint64_t coalesced = CounterNow(Counter::kTlbRangesCoalesced);
  // The middle page abuts both: all three collapse into one range.
  gather.AddRange(VaRange(base + kPageSize, base + 2 * kPageSize));
  ASSERT_EQ(gather.range_count(), 1u);
  EXPECT_EQ(gather.ranges()[0], VaRange(base, base + 3 * kPageSize));
  EXPECT_EQ(CounterNow(Counter::kTlbRangesCoalesced) - coalesced, 2u);
}

TEST(TlbGatherTest, RangesStaySortedAndDisjoint) {
  TlbGather gather;
  Vaddr base = 0x50300000;
  // Out-of-order, disjoint (one guard page between each pair).
  for (int i : {5, 1, 3}) {
    Vaddr va = base + i * 2 * kPageSize;
    gather.AddRange(VaRange(va, va + kPageSize));
  }
  ASSERT_EQ(gather.range_count(), 3u);
  for (size_t i = 1; i < gather.range_count(); ++i) {
    EXPECT_GT(gather.ranges()[i].start, gather.ranges()[i - 1].end);
  }
}

TEST(TlbGatherTest, FallbackTriggersOnlyPastMaxRanges) {
  TlbGather gather;
  Vaddr base = 0x50400000;
  uint64_t fallbacks = CounterNow(Counter::kTlbFullFlushFallbacks);
  uint64_t gathered = CounterNow(Counter::kTlbRangesGathered);
  // Exactly kMaxRanges distinct ranges must stay precise (the ablation's
  // 16-ranges-per-transaction workload depends on this).
  for (size_t i = 0; i < TlbGather::kMaxRanges; ++i) {
    Vaddr va = base + i * 2 * kPageSize;
    gather.AddRange(VaRange(va, va + kPageSize));
  }
  EXPECT_EQ(gather.range_count(), TlbGather::kMaxRanges);
  EXPECT_FALSE(gather.full_flush());
  EXPECT_EQ(CounterNow(Counter::kTlbFullFlushFallbacks) - fallbacks, 0u);
  // One more distinct range tips it into full-ASID mode.
  Vaddr extra = base + 100 * kPageSize;
  gather.AddRange(VaRange(extra, extra + kPageSize));
  EXPECT_TRUE(gather.full_flush());
  EXPECT_EQ(gather.range_count(), 0u);
  EXPECT_FALSE(gather.empty());
  EXPECT_EQ(CounterNow(Counter::kTlbFullFlushFallbacks) - fallbacks, 1u);
  // Later ranges are still counted as gathered but change nothing.
  gather.AddRange(VaRange(base, base + kPageSize));
  EXPECT_TRUE(gather.full_flush());
  EXPECT_EQ(CounterNow(Counter::kTlbRangesGathered) - gathered,
            TlbGather::kMaxRanges + 2);
}

TEST(TlbGatherTest, CoalescedRangesDoNotTriggerFallback) {
  TlbGather gather;
  Vaddr base = 0x50500000;
  // 64 adjacent pages collapse into one range: no fallback however many.
  for (int i = 0; i < 64; ++i) {
    gather.AddRange(VaRange(base + i * kPageSize, base + (i + 1) * kPageSize));
  }
  EXPECT_EQ(gather.range_count(), 1u);
  EXPECT_FALSE(gather.full_flush());
}

class GatherFlushTest : public ShootdownTest {};

TEST_F(GatherFlushTest, EmptyGatherFlushesNothing) {
  TlbGather gather;
  uint64_t shootdowns = CounterNow(Counter::kTlbShootdowns);
  mask_.Set(2);
  gather.Flush(950, mask_, TlbPolicy::kEarlyAck, nullptr);
  EXPECT_EQ(CounterNow(Counter::kTlbShootdowns) - shootdowns, 0u);
}

TEST_F(GatherFlushTest, MultiRangeBatchIsOneShootdownCoveringAllRanges) {
  Asid asid = 951;
  Vaddr base = 0x60000000;
  std::vector<Vaddr> vas = {base, base + 4 * kPageSize, base + 9 * kPageSize};
  Vaddr untouched = base + 6 * kPageSize;  // Between gathered ranges.
  for (Vaddr va : vas) {
    SeedTlbs(asid, va, {2, 3});
  }
  SeedTlbs(asid, untouched, {2, 3});
  TlbGather gather;
  for (Vaddr va : vas) {
    gather.AddRange(VaRange(va, va + kPageSize));
  }
  uint64_t shootdowns = CounterNow(Counter::kTlbShootdowns);
  gather.Flush(asid, mask_, TlbPolicy::kEarlyAck, nullptr);
  EXPECT_EQ(CounterNow(Counter::kTlbShootdowns) - shootdowns, 1u);
  for (CpuId cpu : {2, 3}) {
    for (Vaddr va : vas) {
      EXPECT_FALSE(TlbSystem::Instance().CpuTlb(cpu).Lookup(asid, va).has_value())
          << "cpu " << cpu << " va " << va;
    }
    // Discrete ranges, not a bounding box: the page in between survives.
    EXPECT_TRUE(TlbSystem::Instance().CpuTlb(cpu).Lookup(asid, untouched).has_value())
        << cpu;
  }
  EXPECT_TRUE(gather.empty());  // Flush resets the gather.
}

TEST_F(GatherFlushTest, FullFlushFallbackNukesWholeAsid) {
  Asid asid = 952;
  Vaddr base = 0x61000000;
  SeedTlbs(asid, base + 200 * kPageSize, {2});  // Outside every gathered range.
  TlbGather gather;
  for (size_t i = 0; i <= TlbGather::kMaxRanges; ++i) {
    Vaddr va = base + i * 2 * kPageSize;
    gather.AddRange(VaRange(va, va + kPageSize));
  }
  ASSERT_TRUE(gather.full_flush());
  gather.Flush(asid, mask_, TlbPolicy::kEarlyAck, nullptr);
  EXPECT_FALSE(
      TlbSystem::Instance().CpuTlb(2).Lookup(asid, base + 200 * kPageSize).has_value());
}

TEST_F(GatherFlushTest, FrameOnlyGatherFreesWithoutShootdown) {
  BindThisThreadToCpu(0);
  Result<Pfn> frame = BuddyAllocator::Instance().AllocFrame();
  ASSERT_TRUE(frame.ok());
  static std::atomic<int> freed;
  freed.store(0);
  RunFreer freer = [](PageRun run) {
    freed.fetch_add(1);
    BuddyAllocator::Instance().FreeFrame(run.pfn);
  };
  TlbGather gather;
  gather.AddFrame(*frame);
  mask_.Set(0);
  uint64_t shootdowns = CounterNow(Counter::kTlbShootdowns);
  gather.Flush(953, mask_, TlbPolicy::kSync, freer);
  EXPECT_EQ(CounterNow(Counter::kTlbShootdowns) - shootdowns, 0u);
  EXPECT_EQ(freed.load(), 1);
}

TEST_F(GatherFlushTest, LatrBatchIsOneEntryAndDefersFrames) {
  BindThisThreadToCpu(0);
  Asid asid = 954;
  Vaddr va_a = 0x62000000;
  Vaddr va_b = va_a + 8 * kPageSize;
  SeedTlbs(asid, va_a, {0, 6});
  SeedTlbs(asid, va_b, {0, 6});
  Result<Pfn> frame = BuddyAllocator::Instance().AllocFrame();
  ASSERT_TRUE(frame.ok());
  static std::atomic<int> freed;
  freed.store(0);
  RunFreer freer = [](PageRun run) {
    freed.fetch_add(1);
    BuddyAllocator::Instance().FreeFrame(run.pfn);
  };
  TlbGather gather;
  gather.AddRange(VaRange(va_a, va_a + kPageSize));
  gather.AddRange(VaRange(va_b, va_b + kPageSize));
  gather.AddFrame(*frame);
  uint64_t pending = TlbSystem::Instance().pending_latr_entries();
  gather.Flush(asid, mask_, TlbPolicy::kLatr, freer);
  // One deferred entry for the two-range batch; frame held until the ack.
  EXPECT_EQ(TlbSystem::Instance().pending_latr_entries() - pending, 1u);
  EXPECT_EQ(freed.load(), 0);
  TlbSystem::Instance().Tick(6);
  for (Vaddr va : {va_a, va_b}) {
    EXPECT_FALSE(TlbSystem::Instance().CpuTlb(6).Lookup(asid, va).has_value()) << va;
  }
  EXPECT_EQ(freed.load(), 1);
}

// Regression for the LATR re-flush bug: a target that already acked an entry
// must not invalidate again (or re-count kTlbLazyFlushes) while the entry
// waits for its other targets. Lazy flushes must total exactly
// targets x entries no matter how often the targets tick.
TEST_F(ShootdownTest, LatrLazyFlushesExactlyTargetsTimesEntries) {
  BindThisThreadToCpu(0);
  Asid asid = 955;
  Vaddr va_a = 0x63000000;
  Vaddr va_b = va_a + 16 * kPageSize;
  SeedTlbs(asid, va_a, {6, 7});
  SeedTlbs(asid, va_b, {6, 7});
  uint64_t lazy = GlobalStats().Total(Counter::kTlbLazyFlushes);
  uint64_t pending = TlbSystem::Instance().pending_latr_entries();
  TlbSystem::Instance().Shootdown(asid, VaRange(va_a, va_a + kPageSize), mask_,
                                  TlbPolicy::kLatr, {}, nullptr);
  TlbSystem::Instance().Shootdown(asid, VaRange(va_b, va_b + kPageSize), mask_,
                                  TlbPolicy::kLatr, {}, nullptr);
  // CPU 6 ticks repeatedly while CPU 7 lags: without the acked_mask check it
  // would re-flush both still-pending entries on every tick.
  TlbSystem::Instance().Tick(6);
  TlbSystem::Instance().Tick(6);
  TlbSystem::Instance().Tick(6);
  TlbSystem::Instance().Tick(7);
  // Late ticks after completion change nothing either.
  TlbSystem::Instance().Tick(6);
  TlbSystem::Instance().Tick(7);
  EXPECT_EQ(GlobalStats().Total(Counter::kTlbLazyFlushes) - lazy,
            2u * 2u);  // 2 targets x 2 entries.
  EXPECT_EQ(TlbSystem::Instance().pending_latr_entries(), pending);
}

// ---------------------------------------------------------------------------
// Set-indexed invalidation
// ---------------------------------------------------------------------------

// One cached translation, keyed the way Insert files it.
struct CachedKey {
  Asid asid;
  Vaddr base;
  int level;
  friend bool operator<(const CachedKey& a, const CachedKey& b) {
    return std::tie(a.asid, a.base, a.level) < std::tie(b.asid, b.base, b.level);
  }
};

bool StillCached(Tlb& tlb, const CachedKey& key) {
  auto hit = tlb.Lookup(key.asid, key.base);
  return hit.has_value() && hit->va_base == key.base && hit->level == key.level;
}

// Disjoint windows per level, so no two live translations of one ASID
// overlap and Lookup(base) finds exactly the entry filed under |base|.
constexpr Vaddr k4kWindow = 1ull << 30;   // 1024 pages: every set, many evictions.
constexpr uint64_t k4kPages = 1024;
constexpr Vaddr k2mWindow = 8ull << 30;   // 64 slots of 2 MiB.
constexpr uint64_t k2mSlots = 64;
constexpr Vaddr k1gWindow = 64ull << 30;  // 8 slots of 1 GiB.
constexpr uint64_t k1gSlots = 8;

CachedKey RandomKey(Rng& rng) {
  Asid asid = static_cast<Asid>(1 + rng.Below(2));
  uint64_t kind = rng.Below(20);
  if (kind == 0) {
    return {asid, k2mWindow + rng.Below(k2mSlots) * PtEntrySpan(2), 2};
  }
  if (kind == 1) {
    return {asid, k1gWindow + rng.Below(k1gSlots) * PtEntrySpan(3), 3};
  }
  return {asid, k4kWindow + rng.Below(k4kPages) * kPageSize, 1};
}

// A range of |pages| pages starting in one of the windows: anywhere among the
// 4K entries, at a set-63 page so it wraps to set 0, or inside a huge entry.
// Some start or end mid-page.
VaRange RandomRange(Rng& rng, uint64_t pages) {
  Vaddr start;
  switch (rng.Below(4)) {
    case 0:
      start = k4kWindow + rng.Below(k4kPages) * kPageSize;
      break;
    case 1:
      start = k4kWindow + (rng.Below(k4kPages / Tlb::kSets) * Tlb::kSets +
                           (Tlb::kSets - 1)) * kPageSize;
      break;
    case 2:
      start = k2mWindow + rng.Below(k2mSlots) * PtEntrySpan(2) + rng.Range(1, 400) * kPageSize;
      break;
    default:
      start = k1gWindow + rng.Below(k1gSlots) * PtEntrySpan(3) +
              rng.Range(1, 200000) * kPageSize;
      break;
  }
  Vaddr end = start + pages * kPageSize;
  if (rng.Chance(1, 8)) {
    end -= 8 * rng.Range(1, kPageSize / 8);  // Ends mid-page.
  }
  if (pages > 1 && rng.Chance(1, 8)) {
    start += 8 * rng.Below(kPageSize / 8);  // Starts mid-page.
  }
  return VaRange(start, end);
}

// Splits |total| pages into |parts| positive shares.
std::vector<uint64_t> SplitPages(Rng& rng, uint64_t total, uint64_t parts) {
  std::vector<uint64_t> shares(parts, 1);
  for (uint64_t left = total - parts; left > 0; --left) {
    ++shares[rng.Below(parts)];
  }
  return shares;
}

// Probing only the sets a batch can occupy must kill exactly what a sweep of
// every entry against every range kills, on both sides of the kSets-page
// ceiling, for wrapping ranges and for ranges inside huge entries.
TEST(TlbTest, SetIndexedInvalidationMatchesFullSweep) {
  Rng rng(0x7e57);
  uint64_t killed[4] = {};
  uint64_t kept[4] = {};
  for (int trial = 0; trial < 600; ++trial) {
    Tlb tlb;
    std::set<CachedKey> inserted;
    for (int i = 0; i < 400; ++i) {
      CachedKey key = RandomKey(rng);
      tlb.Insert(key.asid, key.base, LeafRaw(i + 1), key.level);
      inserted.insert(key);
    }
    std::vector<CachedKey> cached;
    for (const CachedKey& key : inserted) {
      if (StillCached(tlb, key)) {
        cached.push_back(key);
      }
    }

    // Below, at and above the ceiling, in turn.
    uint64_t parts = rng.Range(1, 17);
    uint64_t total = 0;
    switch (trial % 3) {
      case 0:
        total = rng.Range(parts, Tlb::kSets);
        break;
      case 1:
        total = Tlb::kSets;
        break;
      default:
        total = rng.Range(Tlb::kSets + 1, 4 * Tlb::kSets);
        break;
    }
    std::vector<VaRange> ranges;
    for (uint64_t pages : SplitPages(rng, total, parts)) {
      ranges.push_back(RandomRange(rng, pages));
    }
    Asid target = static_cast<Asid>(1 + rng.Below(2));
    tlb.InvalidateRanges(target, ranges.data(), ranges.size());

    for (const CachedKey& key : cached) {
      bool hit = false;
      VaRange span(key.base, key.base + PtEntrySpan(key.level));
      for (const VaRange& range : ranges) {
        hit |= span.Overlaps(range);
      }
      bool expect_kept = key.asid != target || !hit;
      ASSERT_EQ(StillCached(tlb, key), expect_kept)
          << "trial " << trial << " asid " << key.asid << " base " << std::hex << key.base
          << " level " << key.level;
      ++(expect_kept ? kept : killed)[key.level];
    }
  }
  // The fill and the ranges reached every kind of entry on both sides.
  for (int level = 1; level <= 3; ++level) {
    EXPECT_GT(killed[level], 0u) << level;
    EXPECT_GT(kept[level], 0u) << level;
  }
}

// The same rule through every shootdown policy: a one-page batch kills the
// 4K entry of its page, or the huge entry around it, and nothing else.
TEST(TlbTest, SetIndexedOnePageShootdownUnderEveryPolicy) {
  BindThisThreadToCpu(0);
  const std::vector<CpuId> cpus = {0, 2, 3};
  CpuMask mask;
  for (CpuId cpu : cpus) {
    mask.Set(cpu);
  }
  Asid asid = 960;
  Asid other = 961;
  for (TlbPolicy policy : {TlbPolicy::kSync, TlbPolicy::kEarlyAck, TlbPolicy::kLatr}) {
    for (bool inside_huge : {false, true}) {
      Vaddr base = inside_huge ? 0x70000000 : 0x70400000;  // Both 2 MiB aligned.
      Vaddr page = base + (Tlb::kSets + 5) * kPageSize;
      std::vector<CachedKey> dies;
      std::vector<CachedKey> lives = {
          {asid, 0x70800000, 2},                    // Another huge entry in set 0.
          {asid, 0x70c00000 + 5 * kPageSize, 1},    // Same set as |page|.
          {other, 0x70c00000 + 6 * kPageSize, 1},   // Next set, other ASID.
      };
      if (inside_huge) {
        dies.push_back({asid, base, 2});
        lives.push_back({other, base, 2});
      } else {
        dies.push_back({asid, page, 1});
        lives.push_back({asid, page + kPageSize, 1});  // Next set.
        lives.push_back({other, page, 1});
      }
      for (CpuId cpu : cpus) {
        Tlb& tlb = TlbSystem::Instance().CpuTlb(cpu);
        tlb.InvalidateAll();
        for (const std::vector<CachedKey>* keys : {&dies, &lives}) {
          for (const CachedKey& key : *keys) {
            tlb.Insert(key.asid, key.base, LeafRaw(9), key.level);
          }
        }
      }
      VaRange range(page, page + kPageSize);
      TlbSystem::Instance().ShootdownBatch(asid, &range, 1, /*full_asid=*/false, mask,
                                           policy, nullptr, 0, nullptr);
      if (policy == TlbPolicy::kLatr) {
        TlbSystem::Instance().Tick(2);
        TlbSystem::Instance().Tick(3);
      }
      for (CpuId cpu : cpus) {
        Tlb& tlb = TlbSystem::Instance().CpuTlb(cpu);
        for (const CachedKey& key : dies) {
          EXPECT_FALSE(StillCached(tlb, key))
              << TlbPolicyName(policy) << " cpu " << cpu << " huge " << inside_huge;
        }
        for (const CachedKey& key : lives) {
          EXPECT_TRUE(StillCached(tlb, key)) << TlbPolicyName(policy) << " cpu " << cpu
                                             << " base " << std::hex << key.base;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ASID allocation
// ---------------------------------------------------------------------------

// Spaces of every manager kind stay alive while 70000 short-lived spaces come
// and go — more creations than there are ASIDs, so a wrapping counter would
// hand a live ASID out again and two spaces would share TLB entries.
TEST(AsidTest, LiveAsidIsNeverHandedOutTwice) {
  std::vector<std::unique_ptr<MmInterface>> live;
  std::set<Asid> live_asids;
  for (MmKind kind : {MmKind::kCortenAdv, MmKind::kLinux, MmKind::kRadixVm, MmKind::kNros}) {
    live.push_back(MakeMm(kind));
    live_asids.insert(live.back()->asid());
  }
  ASSERT_EQ(live_asids.size(), live.size());
  for (int i = 0; i < 70000; ++i) {
    AddrSpace transient{AddrSpace::Options()};
    ASSERT_EQ(live_asids.count(transient.asid()), 0u) << "creation " << i;
  }
}

}  // namespace
}  // namespace cortenmm
