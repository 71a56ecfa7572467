// Tests for the physical memory manager: buddy allocator (split/coalesce,
// exhaustion behaviour, per-CPU caches), slab allocator, page descriptors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/stats.h"
#include "src/common/topology.h"
#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"
#include "src/pmm/slab.h"

namespace cortenmm {
namespace {

TEST(PhysMemTest, FramesAreDistinctAndWritable) {
  PhysMem& mem = PhysMem::Instance();
  ASSERT_GT(mem.num_frames(), 1000u);
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  Result<Pfn> a = buddy.AllocFrame();
  Result<Pfn> b = buddy.AllocFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  std::memset(mem.FrameData(*a), 0xaa, kPageSize);
  std::memset(mem.FrameData(*b), 0xbb, kPageSize);
  EXPECT_EQ(static_cast<uint8_t>(*mem.FrameData(*a)), 0xaa);
  EXPECT_EQ(static_cast<uint8_t>(*mem.FrameData(*b)), 0xbb);
  buddy.FreeFrame(*a);
  buddy.FreeFrame(*b);
}

TEST(PhysMemTest, ZeroAndCopyFrame) {
  PhysMem& mem = PhysMem::Instance();
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  Result<Pfn> src = buddy.AllocFrame();
  Result<Pfn> dst = buddy.AllocFrame();
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  std::memset(mem.FrameData(*src), 0x5c, kPageSize);
  mem.CopyFrame(*dst, *src);
  EXPECT_EQ(std::memcmp(mem.FrameData(*dst), mem.FrameData(*src), kPageSize), 0);
  mem.ZeroFrame(*dst);
  for (uint64_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(static_cast<uint8_t>(mem.FrameData(*dst)[i]), 0u);
  }
  buddy.FreeFrame(*src);
  buddy.FreeFrame(*dst);
}

TEST(BuddyTest, BlockAllocationIsAligned) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  for (int order = 0; order <= BuddyAllocator::kMaxOrder; ++order) {
    Result<Pfn> block = buddy.AllocBlock(order);
    ASSERT_TRUE(block.ok()) << "order " << order;
    EXPECT_TRUE(IsAligned(*block, 1ull << order)) << "order " << order;
    buddy.FreeBlock(*block, order);
  }
}

TEST(BuddyTest, SplitAndCoalesceRoundTrip) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  buddy.FlushCpuCaches();
  uint64_t free_before = buddy.FreeFrameCount();
  // Allocate an order-6 block as 64 singles, free them all; coalescing must
  // restore the free count exactly.
  std::vector<Pfn> singles;
  for (int i = 0; i < 64; ++i) {
    Result<Pfn> f = buddy.AllocBlock(0);
    ASSERT_TRUE(f.ok());
    singles.push_back(*f);
  }
  for (Pfn f : singles) {
    buddy.FreeBlock(f, 0);
  }
  // The frees parked in the per-CPU magazines, which count as allocated;
  // flushing returns them to the free lists and must restore the count
  // exactly (coalescing included).
  buddy.FlushCpuCaches();
  EXPECT_EQ(buddy.FreeFrameCount(), free_before);
}

TEST(BuddyTest, DistinctFramesUnderConcurrency) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  constexpr int kPerThread = 2000;
  int threads = 4;
  std::vector<std::vector<Pfn>> got(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t + 30);
      for (int i = 0; i < kPerThread; ++i) {
        Result<Pfn> f = buddy.AllocFrame();
        ASSERT_TRUE(f.ok());
        got[t].push_back(*f);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::set<Pfn> all;
  for (auto& v : got) {
    for (Pfn f : v) {
      EXPECT_TRUE(all.insert(f).second) << "double allocation of frame " << f;
    }
  }
  for (auto& v : got) {
    for (Pfn f : v) {
      buddy.FreeFrame(f);
    }
  }
}

TEST(BuddyTest, ZeroedFrameIsZero) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  Result<Pfn> f = buddy.AllocFrame();
  ASSERT_TRUE(f.ok());
  std::memset(PhysMem::Instance().FrameData(*f), 0xff, kPageSize);
  buddy.FreeFrame(*f);
  Result<Pfn> z = buddy.AllocZeroedFrame();
  ASSERT_TRUE(z.ok());
  for (uint64_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(static_cast<uint8_t>(PhysMem::Instance().FrameData(*z)[i]), 0u);
  }
  buddy.FreeFrame(*z);
}

TEST(BuddyTest, DescriptorStateTracksAllocation) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  Result<Pfn> f = buddy.AllocFrame();
  ASSERT_TRUE(f.ok());
  PageDescriptor& desc = PhysMem::Instance().Descriptor(*f);
  EXPECT_EQ(desc.type.load(), FrameType::kKernel);
  EXPECT_EQ(desc.refcount(), 1u);
  buddy.FlushCpuCaches();  // Guarantee the per-CPU cache has room to park.
  buddy.FreeFrame(*f);
  // An order-0 free parks the frame in the current CPU's cache: it reads as
  // kCached (not kFree) until the cache drains back to the buddy free lists.
  EXPECT_EQ(desc.type.load(), FrameType::kCached);
  buddy.FlushCpuCaches();
  EXPECT_EQ(desc.type.load(), FrameType::kFree);
}

// ---------------------------------------------------------------------------
// Magazine / depot / pre-scrub layer
// ---------------------------------------------------------------------------

uint64_t Count(Counter c) { return GlobalStats().Total(c); }

// The refs word: refcount in the low half, mapcount in the high half, moved
// by one RMW that returns the prior pair.
TEST(PageDescriptorTest, RefsHalvesStayIndependent) {
  PageDescriptor desc;
  desc.InitRefs(1, 0);
  EXPECT_EQ(desc.Counts(), (FrameRefs{1, 0}));
  // Each half moves alone.
  EXPECT_EQ(desc.AddRefs(0, 3), (FrameRefs{1, 0}));
  EXPECT_EQ(desc.AddRefs(2, 0), (FrameRefs{1, 3}));
  EXPECT_EQ(desc.refcount(), 3u);
  EXPECT_EQ(desc.mapcount(), 3u);
  EXPECT_EQ(desc.DropRefs(0, 2), (FrameRefs{3, 3}));
  EXPECT_EQ(desc.DropRefs(2, 0), (FrameRefs{3, 1}));
  EXPECT_EQ(desc.DropRefs(1, 1), (FrameRefs{1, 1}));
  EXPECT_EQ(desc.Counts(), (FrameRefs{0, 0}));
  // A half at the top of its range does not carry into the other.
  desc.InitRefs(0xfffffffeu, 1);
  EXPECT_EQ(desc.AddRefs(1, 0), (FrameRefs{0xfffffffeu, 1}));
  EXPECT_EQ(desc.Counts(), (FrameRefs{0xffffffffu, 1}));
  desc.InitRefs(1, 0xfffffffeu);
  EXPECT_EQ(desc.AddRefs(0, 1), (FrameRefs{1, 0xfffffffeu}));
  EXPECT_EQ(desc.Counts(), (FrameRefs{1, 0xffffffffu}));

  // Racing drops: every RMW moves both halves together, so every pair any
  // thread sees (a prior pair or a snapshot) has equal halves, and exactly
  // one drop takes the refcount through 1 to 0.
  constexpr int kThreads = 8;
  constexpr uint32_t kIters = 4000;
  desc.InitRefs(kThreads * kIters, kThreads * kIters);
  std::atomic<int> zero_crossings{0};
  std::atomic<int> torn{0};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint32_t i = 0; i < kIters; ++i) {
        FrameRefs added = desc.AddRefs(1, 1);
        FrameRefs dropped = desc.DropRefs(1, 1);
        FrameRefs last = desc.DropRefs(1, 1);
        for (const FrameRefs& seen : {added, dropped, last}) {
          if (seen.refcount != seen.mapcount) {
            torn.fetch_add(1);
          }
        }
        if (last.refcount == 1) {
          zero_crossings.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    FrameRefs snap = desc.Counts();
    if (snap.refcount != snap.mapcount) {
      torn.fetch_add(1);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(zero_crossings.load(), 1);
  EXPECT_EQ(desc.Counts(), (FrameRefs{0, 0}));
}

TEST(MagazineTest, SteadyStateServesFromMagazineWithoutGlobalLock) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  buddy.FlushCpuCaches();
  // Warm the current CPU's magazine: allocate a magazine's worth, free it
  // back — every frame parks locally.
  std::vector<Pfn> warm;
  for (uint32_t i = 0; i < BuddyAllocator::kMagSlots; ++i) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok());
    warm.push_back(*f);
  }
  for (Pfn f : warm) {
    buddy.FreeFrame(f);
  }

  uint64_t locks_before = Count(Counter::kBuddyLockAcquisitions);
  uint64_t hits_before = Count(Counter::kMagHits);
  constexpr int kIters = 1000;
  for (int i = 0; i < kIters; ++i) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok());
    buddy.FreeFrame(*f);
  }
  // A full magazine absorbs every alloc/free pair: zero global-lock traffic.
  EXPECT_EQ(Count(Counter::kBuddyLockAcquisitions), locks_before);
  EXPECT_EQ(Count(Counter::kMagHits), hits_before + kIters);
}

TEST(MagazineTest, OverflowSpillsToDepotAndScrubProducesPrezeroedFrames) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  PhysMem& mem = PhysMem::Instance();
  buddy.FlushCpuCaches();

  // Dirty two magazines' worth of frames, then free them all: the first
  // kMagSlots fill the local magazine, the overflow spills one full magazine
  // to the depot's dirty shelf.
  constexpr uint32_t kFrames = 2 * BuddyAllocator::kMagSlots;
  std::vector<Pfn> frames;
  for (uint32_t i = 0; i < kFrames; ++i) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok());
    std::memset(mem.FrameData(*f), 0xff, kPageSize);
    frames.push_back(*f);
  }
  uint64_t flushes_before = Count(Counter::kMagFlushes);
  for (Pfn f : frames) {
    buddy.FreeFrame(f);
  }
  EXPECT_GT(Count(Counter::kMagFlushes), flushes_before);

  // The pre-scrubber zeroes the dirty magazine off the allocation path.
  uint64_t scrubbed = buddy.ScrubBatch(BuddyAllocator::kMagSlots);
  EXPECT_EQ(scrubbed, uint64_t{BuddyAllocator::kMagSlots});

  // Drain the (dirty) local magazine, then one more allocation swaps the
  // scrubbed magazine in from the depot's clean shelf: a prezero hit, and
  // the frame really is zero.
  uint64_t prezero_before = Count(Counter::kPrezeroHits);
  std::vector<Pfn> drained;
  for (uint32_t i = 0; i <= BuddyAllocator::kMagSlots; ++i) {
    Result<Pfn> f = buddy.AllocZeroedFrame();
    ASSERT_TRUE(f.ok());
    drained.push_back(*f);
    for (uint64_t b = 0; b < kPageSize; b += 512) {
      ASSERT_EQ(static_cast<uint8_t>(mem.FrameData(*f)[b]), 0u);
    }
  }
  EXPECT_GT(Count(Counter::kPrezeroHits), prezero_before);
  for (Pfn f : drained) {
    buddy.FreeFrame(f);
  }
  buddy.FlushCpuCaches();
}

TEST(MagazineTest, ScrubBatchIsBoundedAndIdle) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  buddy.FlushCpuCaches();
  // Nothing dirty parked: the scrubber finds no work.
  EXPECT_EQ(buddy.ScrubBatch(1024), 0u);
}

TEST(MagazineTest, DrainReturnsParkedStockToFreeLists) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  buddy.FlushCpuCaches();
  uint64_t free_baseline = buddy.FreeFrameCount();

  std::vector<Pfn> frames;
  for (uint32_t i = 0; i < BuddyAllocator::kMagSlots; ++i) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok());
    frames.push_back(*f);
  }
  for (Pfn f : frames) {
    buddy.FreeFrame(f);
  }
  // Batch-boundary accounting: parked frames still read as allocated...
  EXPECT_EQ(buddy.FreeFrameCount(),
            free_baseline - BuddyAllocator::kMagSlots);
  // ...and a pressure-driven drain visibly raises the free count.
  uint64_t drains_before = Count(Counter::kMagDrains);
  buddy.DrainMagazines();
  EXPECT_EQ(buddy.FreeFrameCount(), free_baseline);
  EXPECT_GT(Count(Counter::kMagDrains), drains_before);
}

TEST(MagazineTest, DisableBypassesToGlobalLockAndReenableRestores) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  buddy.FlushCpuCaches();
  uint64_t free_baseline = buddy.FreeFrameCount();

  buddy.SetMagazinesEnabled(false);
  // Disabling flushed everything parked; the direct path hits the lock.
  uint64_t locks_before = Count(Counter::kBuddyLockAcquisitions);
  Result<Pfn> f = buddy.AllocFrame();
  ASSERT_TRUE(f.ok());
  buddy.FreeFrame(*f);
  EXPECT_EQ(Count(Counter::kBuddyLockAcquisitions), locks_before + 2);
  EXPECT_EQ(buddy.FreeFrameCount(), free_baseline);

  buddy.SetMagazinesEnabled(true);
  EXPECT_TRUE(buddy.MagazinesEnabled());
  EXPECT_EQ(buddy.FreeFrameCount(), free_baseline);
}

// ---------------------------------------------------------------------------
// NUMA arenas
// ---------------------------------------------------------------------------

TEST(NumaTest, NodeRangesPartitionPfnSpace) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  PhysMem& mem = PhysMem::Instance();
  Pfn expect_begin = 0;
  for (int node = 0; node < buddy.NumNodes(); ++node) {
    Pfn begin = 0;
    Pfn end = 0;
    buddy.NodePfnRange(node, &begin, &end);
    EXPECT_EQ(begin, expect_begin) << "arena " << node << " leaves a PFN gap";
    EXPECT_GT(end, begin);
    // A frame's home is derivable from its PFN alone — both endpoints of the
    // range must map back to this node.
    EXPECT_EQ(buddy.NodeOfPfn(begin), node);
    EXPECT_EQ(buddy.NodeOfPfn(end - 1), node);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, mem.num_frames());
}

// Draining node 0's arena dry must steer further allocations to the nearest
// remote arena (never fail while any node has frames), and freeing everything
// must put every frame back on its *home* node's free lists.
TEST(NumaTest, ExhaustionSpillsToNearestRemoteAndFreesReturnHome) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  if (buddy.NumNodes() < 2) {
    GTEST_SKIP() << "single-node topology: no remote arena to spill to";
  }
  const NodeTopology& topo = NodeTopology::Instance();
  BindThisThreadToCpu(topo.FirstCpuOfNode(0));
  buddy.FlushCpuCaches();
  buddy.SetMagazinesEnabled(false);  // Every alloc/free hits the arenas directly.
  StatsDomain& stats = GlobalStats();

  const uint64_t node0_before = buddy.NodeFreeFrameCount(0);
  const uint64_t node1_before = buddy.NodeFreeFrameCount(1);
  std::vector<Pfn> held;
  held.reserve(node0_before + 64);
  while (buddy.NodeFreeFrameCount(0) > 0) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok());
    held.push_back(*f);
  }

  const uint64_t spills0 = stats.Total(Counter::kNumaSpills);
  const uint64_t remote0 = stats.Total(Counter::kNumaRemoteAllocs);
  int foreign = 0;
  constexpr int kSpillAllocs = 64;
  for (int i = 0; i < kSpillAllocs; ++i) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok()) << "exhausting the home node must spill, not fail";
    if (buddy.NodeOfPfn(*f) != 0) {
      ++foreign;
    }
    held.push_back(*f);
  }
  EXPECT_EQ(foreign, kSpillAllocs);
  EXPECT_GE(stats.Total(Counter::kNumaSpills) - spills0,
            static_cast<uint64_t>(kSpillAllocs));
  EXPECT_GE(stats.Total(Counter::kNumaRemoteAllocs) - remote0,
            static_cast<uint64_t>(kSpillAllocs));

  for (Pfn f : held) {
    buddy.FreeFrame(f);
  }
  // Frees route by PFN: both arenas end exactly where they started, and no
  // frame sits on a foreign free list.
  EXPECT_EQ(buddy.NodeFreeFrameCount(0), node0_before);
  EXPECT_EQ(buddy.NodeFreeFrameCount(1), node1_before);
  EXPECT_EQ(buddy.CountMisplacedFreeFrames(), 0u);
  buddy.SetMagazinesEnabled(true);
}

// Freeing from a CPU on another node must still return the frame to its home
// arena — the free routes by PFN, not by the freeing CPU.
TEST(NumaTest, FreesFromForeignCpuReturnToHomeArena) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  if (buddy.NumNodes() < 2) {
    GTEST_SKIP() << "single-node topology: every CPU is home";
  }
  const NodeTopology& topo = NodeTopology::Instance();
  buddy.FlushCpuCaches();
  buddy.SetMagazinesEnabled(false);

  BindThisThreadToCpu(topo.FirstCpuOfNode(0));
  const uint64_t node0_before = buddy.NodeFreeFrameCount(0);
  std::vector<Pfn> held;
  for (int i = 0; i < 32; ++i) {
    Result<Pfn> f = buddy.AllocFrame();
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(buddy.NodeOfPfn(*f), 0) << "home arena has frames; alloc must be local";
    held.push_back(*f);
  }

  BindThisThreadToCpu(topo.FirstCpuOfNode(1));
  for (Pfn f : held) {
    buddy.FreeFrame(f);
  }
  EXPECT_EQ(buddy.NodeFreeFrameCount(0), node0_before);
  EXPECT_EQ(buddy.CountMisplacedFreeFrames(), 0u);

  BindThisThreadToCpu(topo.FirstCpuOfNode(0));
  buddy.SetMagazinesEnabled(true);
}

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

TEST(SlabTest, AllocFreeReuse) {
  SlabCache cache(48, "test-48");
  void* a = cache.Alloc();
  void* b = cache.Alloc();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  cache.Free(a);
  cache.Free(b);
  // Reuse comes from the per-CPU magazine.
  void* c = cache.Alloc();
  EXPECT_TRUE(c == a || c == b);
  cache.Free(c);
}

TEST(SlabTest, ObjectsDoNotOverlap) {
  SlabCache cache(64, "test-64");
  std::vector<void*> objs;
  for (int i = 0; i < 500; ++i) {
    void* p = cache.Alloc();
    ASSERT_NE(p, nullptr);
    std::memset(p, i & 0xff, 64);
    objs.push_back(p);
  }
  // Writing a distinct pattern into each object must not corrupt others.
  for (int i = 0; i < 500; ++i) {
    auto* bytes = static_cast<uint8_t*>(objs[i]);
    std::memset(bytes, (i * 7) & 0xff, 64);
  }
  std::set<void*> unique(objs.begin(), objs.end());
  EXPECT_EQ(unique.size(), objs.size());
  for (void* p : objs) {
    cache.Free(p);
  }
}

TEST(SlabTest, TypedSlabConstructsAndDestroys) {
  struct Probe {
    explicit Probe(int* counter) : counter_(counter) { ++*counter_; }
    ~Probe() { --*counter_; }
    int* counter_;
    char pad[40];
  };
  TypedSlab<Probe> slab("probe");
  int live = 0;
  Probe* a = slab.New(&live);
  Probe* b = slab.New(&live);
  EXPECT_EQ(live, 2);
  slab.Delete(a);
  slab.Delete(b);
  EXPECT_EQ(live, 0);
}

TEST(SlabTest, ConcurrentAllocFree) {
  SlabCache cache(32, "test-mt");
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t + 40);
      std::vector<void*> mine;
      for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 32; ++i) {
          void* p = cache.Alloc();
          if (p == nullptr) {
            failed.store(true);
            return;
          }
          *static_cast<uint64_t*>(p) = static_cast<uint64_t>(t) << 32 | i;
          mine.push_back(p);
        }
        for (void* p : mine) {
          cache.Free(p);
        }
        mine.clear();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace cortenmm
