// MmRing conformance: submission ordering, per-op Status fidelity against the
// equivalent synchronous sequence, ring-full backpressure, and the
// flat-combining drain's fusion/ordering rules — both at the raw MmRing level
// (scripted executor) and through every facade backend.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "src/pmm/buddy.h"
#include "src/ring/mm_ring.h"
#include "src/sim/bench_util.h"
#include "src/sim/mmu.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

MmSqe MakeMunmapSqe(Vaddr va, uint64_t len, uint64_t cookie) {
  MmSqe sqe;
  sqe.op = MmOpCode::kMunmap;
  sqe.va = va;
  sqe.len = len;
  sqe.user_data = cookie;
  return sqe;
}

// --- Raw ring: drain grouping and ordering, scripted executor --------------

TEST(MmRingTest, SingleOpRoundTrip) {
  BindThisThreadToCpu(0);
  std::atomic<int> executed{0};
  MmRing ring([&](const MmSqe* sqes, MmCqe* cqes, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      executed.fetch_add(1);
      cqes[i].err = ErrCode::kOk;
      cqes[i].va = sqes[i].va;
    }
  });
  MmSqe sqe;
  sqe.op = MmOpCode::kNop;
  sqe.user_data = 42;
  ASSERT_TRUE(ring.Submit(sqe));
  EXPECT_EQ(ring.Outstanding(), 1u);
  ring.DrainBarrier();
  MmCqe cqe;
  ASSERT_TRUE(ring.Reap(&cqe));
  EXPECT_EQ(cqe.user_data, 42u);
  EXPECT_EQ(cqe.err, ErrCode::kOk);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_FALSE(ring.Reap(&cqe));
  EXPECT_EQ(ring.Outstanding(), 0u);
}

TEST(MmRingTest, SameSubtreeOpsFuseIntoOneExecutorCall) {
  BindThisThreadToCpu(0);
  std::vector<size_t> group_sizes;
  MmRing ring([&](const MmSqe*, MmCqe*, size_t n) { group_sizes.push_back(n); });
  constexpr Vaddr kBase = 64ull << 30;  // One 1 GiB subtree.
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kBase + i * kPageSize, kPageSize, i)));
  }
  ring.DrainBarrier();
  ASSERT_EQ(group_sizes.size(), 1u);
  EXPECT_EQ(group_sizes[0], 8u);
  MmCqe cqe;
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.Reap(&cqe));
    EXPECT_EQ(cqe.user_data, i);  // Per-CPU FIFO completion order.
  }
}

TEST(MmRingTest, DistinctSubtreesFormDistinctGroups) {
  BindThisThreadToCpu(0);
  std::vector<size_t> group_sizes;
  MmRing ring([&](const MmSqe*, MmCqe*, size_t n) { group_sizes.push_back(n); });
  constexpr Vaddr kTreeA = 64ull << 30;
  constexpr Vaddr kTreeB = 96ull << 30;
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kTreeA + i * kPageSize, kPageSize, i)));
    ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kTreeB + i * kPageSize, kPageSize, 10 + i)));
  }
  ring.DrainBarrier();
  ASSERT_EQ(group_sizes.size(), 2u);
  EXPECT_EQ(group_sizes[0], 3u);
  EXPECT_EQ(group_sizes[1], 3u);
}

TEST(MmRingTest, NonFusableOpCutsTheWaveButKeepsOrder) {
  BindThisThreadToCpu(0);
  std::vector<std::vector<uint64_t>> calls;  // user_data per executor call.
  MmRing ring([&](const MmSqe* sqes, MmCqe* cqes, size_t n) {
    std::vector<uint64_t> cookies;
    for (size_t i = 0; i < n; ++i) {
      cookies.push_back(sqes[i].user_data);
      cqes[i].err = ErrCode::kOk;
    }
    calls.push_back(std::move(cookies));
  });
  constexpr Vaddr kBase = 64ull << 30;
  ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kBase, kPageSize, 0)));
  ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kBase + kPageSize, kPageSize, 1)));
  MmSqe nop;  // Not fusable: must cut the wave, not be reordered around.
  nop.op = MmOpCode::kNop;
  nop.user_data = 2;
  ASSERT_TRUE(ring.Submit(nop));
  ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kBase + 2 * kPageSize, kPageSize, 3)));
  ring.DrainBarrier();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(calls[1], (std::vector<uint64_t>{2}));
  EXPECT_EQ(calls[2], (std::vector<uint64_t>{3}));
  MmCqe cqe;
  for (uint64_t expect : {0, 1, 2, 3}) {
    ASSERT_TRUE(ring.Reap(&cqe));
    EXPECT_EQ(cqe.user_data, expect);
  }
}

TEST(MmRingTest, LargeGroupsChunkAtMaxFusedOps) {
  BindThisThreadToCpu(0);
  std::vector<size_t> group_sizes;
  MmRing ring([&](const MmSqe*, MmCqe*, size_t n) { group_sizes.push_back(n); });
  constexpr Vaddr kBase = 64ull << 30;
  const uint64_t total = MmRing::kMaxFusedOps + 7;
  for (uint64_t i = 0; i < total; ++i) {
    ASSERT_TRUE(ring.Submit(MakeMunmapSqe(kBase + i * kPageSize, kPageSize, i)));
  }
  ring.DrainBarrier();
  ASSERT_EQ(group_sizes.size(), 2u);
  EXPECT_EQ(group_sizes[0], MmRing::kMaxFusedOps);
  EXPECT_EQ(group_sizes[1], 7u);
}

TEST(MmRingTest, BackpressureAtDepthUnreapedCompletions) {
  BindThisThreadToCpu(0);
  MmRing ring([](const MmSqe*, MmCqe* cqes, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      cqes[i].err = ErrCode::kOk;
    }
  });
  MmSqe nop;
  nop.op = MmOpCode::kNop;
  for (uint32_t i = 0; i < MmRing::kDepth; ++i) {
    nop.user_data = i;
    ASSERT_TRUE(ring.Submit(nop)) << i;
  }
  // At the limit: the inline drain posts completions, but with none reaped
  // the CPU still has kDepth outstanding — Submit must refuse, not drop.
  nop.user_data = MmRing::kDepth;
  EXPECT_FALSE(ring.Submit(nop));
  MmCqe cqe;
  ASSERT_TRUE(ring.Reap(&cqe));
  EXPECT_EQ(cqe.user_data, 0u);
  EXPECT_TRUE(ring.Submit(nop));  // One reap frees exactly one slot.
  ring.DrainBarrier();
  uint64_t reaped = 1;
  while (ring.Reap(&cqe)) {
    ++reaped;
  }
  EXPECT_EQ(reaped, static_cast<uint64_t>(MmRing::kDepth) + 1);
  EXPECT_EQ(cqe.user_data, MmRing::kDepth);  // The retried op completes last.
}

// Flat-combining handoff under contention: several bound threads submit and
// barrier concurrently; every thread must reap exactly its own completions in
// its own submission order, whichever thread ends up combining. (The tsan
// preset runs this to race-check the MCS handoff and SPSC index protocol.)
TEST(MmRingTest, ConcurrentSubmittersEachReapTheirOwnInOrder) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr int kOpsPerRound = 8;
  std::atomic<uint64_t> executed{0};
  MmRing ring([&](const MmSqe*, MmCqe* cqes, size_t n) {
    executed.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      cqes[i].err = ErrCode::kOk;
    }
  });
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      uint64_t next_cookie = 0;
      uint64_t expect_cookie = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kOpsPerRound; ++i) {
          // Each thread works a private subtree so cross-CPU fusion is
          // possible within a thread but never across threads' cookies.
          MmSqe sqe = MakeMunmapSqe((uint64_t(t + 1) << 40) + i * kPageSize,
                                    kPageSize, next_cookie++);
          if (!ring.Submit(sqe)) {
            failed.store(true);
            return;
          }
        }
        ring.DrainBarrier();
        MmCqe cqe;
        for (int i = 0; i < kOpsPerRound; ++i) {
          if (!ring.Reap(&cqe) || cqe.user_data != expect_cookie++) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(executed.load(), uint64_t(kThreads) * kRounds * kOpsPerRound);
}

// --- Facade rings: every backend, batched == synchronous -------------------

class RingFacadeTest : public ::testing::TestWithParam<MmKind> {};

MmSqe FixedMmapSqe(Vaddr va, uint64_t len, Perm perm, uint64_t cookie) {
  MmSqe sqe;
  sqe.op = MmOpCode::kMmapAnonFixed;
  sqe.va = va;
  sqe.len = len;
  sqe.perm = perm;
  sqe.user_data = cookie;
  return sqe;
}

MmSqe FaultSqe(Vaddr va, Access access, uint64_t cookie) {
  MmSqe sqe;
  sqe.op = MmOpCode::kFault;
  sqe.va = va;
  sqe.access = access;
  sqe.user_data = cookie;
  return sqe;
}

// The io_uring ordering contract + per-op Status fidelity: a same-CPU
// submission sequence completes in order with exactly the statuses the
// synchronous call sequence would produce — including the trailing SEGV.
TEST_P(RingFacadeTest, BatchedSequenceMatchesSyncStatuses) {
  BindThisThreadToCpu(0);
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  ASSERT_NE(mm, nullptr);
  constexpr Vaddr kBase = 72ull << 30;
  constexpr uint64_t kLen = 2 * kPageSize;

  ASSERT_TRUE(mm->Submit(FixedMmapSqe(kBase, kLen, Perm::RW(), 1)));
  ASSERT_TRUE(mm->Submit(FaultSqe(kBase, Access::kWrite, 2)));
  MmSqe prot;
  prot.op = MmOpCode::kMprotect;
  prot.va = kBase;
  prot.len = kLen;
  prot.perm = Perm::R();
  prot.user_data = 3;
  ASSERT_TRUE(mm->Submit(prot));
  ASSERT_TRUE(mm->Submit(FaultSqe(kBase, Access::kWrite, 4)));  // Read-only now.
  MmSqe unmap = MakeMunmapSqe(kBase, kLen, 5);
  ASSERT_TRUE(mm->Submit(unmap));
  ASSERT_TRUE(mm->Submit(FaultSqe(kBase, Access::kRead, 6)));  // Unmapped now.
  mm->DrainBarrier();

  struct Expect {
    uint64_t cookie;
    ErrCode err;
  };
  const Expect expects[] = {
      {1, ErrCode::kOk},    {2, ErrCode::kOk},   {3, ErrCode::kOk},
      {4, ErrCode::kFault}, {5, ErrCode::kOk},   {6, ErrCode::kFault},
  };
  for (const Expect& expect : expects) {
    MmCqe cqe;
    ASSERT_TRUE(mm->Reap(&cqe));
    EXPECT_EQ(cqe.user_data, expect.cookie);
    EXPECT_EQ(cqe.err, expect.err) << "op " << expect.cookie;
  }
  MmCqe leftover;
  EXPECT_FALSE(mm->Reap(&leftover));
}

// An address-allocating mmap rides the ring as a serial op and still returns
// its placement through the completion.
TEST_P(RingFacadeTest, AddressAllocatingMmapCompletesWithPlacement) {
  BindThisThreadToCpu(0);
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  MmSqe sqe;
  sqe.op = MmOpCode::kMmapAnon;
  sqe.len = 4 * kPageSize;
  sqe.perm = Perm::RW();
  sqe.user_data = 7;
  ASSERT_TRUE(mm->Submit(sqe));
  mm->DrainBarrier();
  MmCqe cqe;
  ASSERT_TRUE(mm->Reap(&cqe));
  ASSERT_EQ(cqe.err, ErrCode::kOk);
  ASSERT_NE(cqe.va, 0u);
  EXPECT_TRUE(mm->Munmap(cqe.va, 4 * kPageSize).ok());
}

// Multi-thread storm through the facade ring: per-thread disjoint regions,
// every op must come back kOk, and the space must be empty at the end.
TEST_P(RingFacadeTest, ConcurrentBatchesAllSucceed) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      const Vaddr base = (100ull + t) << 30;
      for (int round = 0; round < kRounds && !failed.load(); ++round) {
        uint64_t cookie = 0;
        for (int i = 0; i < 8; ++i) {
          Vaddr va = base + uint64_t(i) * 4 * kPageSize;
          if (!mm->Submit(FixedMmapSqe(va, 4 * kPageSize, Perm::RW(), cookie++)) ||
              !mm->Submit(FaultSqe(va, Access::kWrite, cookie++))) {
            failed.store(true);
            return;
          }
        }
        for (int i = 0; i < 8; ++i) {
          Vaddr va = base + uint64_t(i) * 4 * kPageSize;
          if (!mm->Submit(MakeMunmapSqe(va, 4 * kPageSize, cookie++))) {
            failed.store(true);
            return;
          }
        }
        mm->DrainBarrier();
        MmCqe cqe;
        for (uint64_t expect = 0; expect < cookie; ++expect) {
          if (!mm->Reap(&cqe) || cqe.user_data != expect ||
              cqe.err != ErrCode::kOk) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
}

INSTANTIATE_TEST_SUITE_P(AllManagers, RingFacadeTest,
                         ::testing::ValuesIn(ComparisonSet()),
                         [](const ::testing::TestParamInfo<MmKind>& info) {
                           std::string name = MmKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- LATR through the ring: DrainBarrier acknowledges lazy shootdowns ------

// CortenMM-adv defers remote flushes (kLatr): a dead frame is freed only once
// every target CPU has ticked. Submitters that never touch memory tick only
// at the end of DrainBarrier, so these run without MmuSim access in between.
class RingLatrTest : public ::testing::Test {
 protected:
  static constexpr int kThreads = 2;
  static constexpr uint64_t kRegions = 8;
  static constexpr uint64_t kPages = 4;
  static constexpr uint64_t kRegionBytes = kPages * kPageSize;

  void SetUp() override {
    TlbSystem::Instance().DrainAll();
    Rcu::Instance().DrainAll();
    BuddyAllocator::Instance().FlushCpuCaches();
    baseline_free_ = BuddyAllocator::Instance().FreeFrameCount();
  }

  // Every frame went back once the manager is gone.
  void ExpectNoLeaks() {
    LeakReport leaks = CheckFrameLeaks(baseline_free_);
    EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
  }

  uint64_t baseline_free_ = 0;
};

// The storm shape (per region: mmap-fixed, 4 write faults, munmap, all in one
// drain) from two bound submitters in lockstep. Every fault completes kOk and
// the lazy entries do not pile up: each round's are acknowledged by the next
// round's DrainBarrier on the other CPU.
TEST_F(RingLatrTest, SubmitOnlyStormAcknowledgesLazyShootdowns) {
  constexpr int kRounds = 200;
  std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
  uint64_t pending_before = TlbSystem::Instance().pending_latr_entries();
  std::atomic<uint64_t> faults{0};
  std::atomic<uint64_t> not_ok{0};
  std::barrier round_end(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      const Vaddr base = (50ull + t) << 30;
      for (int round = 0; round < kRounds; ++round) {
        uint64_t cookie = 0;
        for (uint64_t r = 0; r < kRegions; ++r) {
          Vaddr va = base + r * 2 * kRegionBytes;
          bool queued = mm->Submit(FixedMmapSqe(va, kRegionBytes, Perm::RW(), cookie++));
          for (uint64_t p = 0; p < kPages; ++p) {
            queued &= mm->Submit(FaultSqe(va + p * kPageSize, Access::kWrite,
                                          (1ull << 63) | cookie++));
          }
          queued &= mm->Submit(MakeMunmapSqe(va, kRegionBytes, cookie++));
          not_ok.fetch_add(!queued);
        }
        mm->DrainBarrier();
        MmCqe cqe;
        for (uint64_t n = 0; n < cookie; ++n) {
          if (!mm->Reap(&cqe)) {
            not_ok.fetch_add(1);
            break;
          }
          faults.fetch_add(cqe.user_data >> 63);
          not_ok.fetch_add(cqe.err != ErrCode::kOk);
        }
        round_end.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(faults.load(), uint64_t(kThreads) * kRounds * kRegions * kPages);
  EXPECT_EQ(not_ok.load(), 0u);
  // Only the last round's entries may still wait for a tick.
  EXPECT_LE(TlbSystem::Instance().pending_latr_entries() - pending_before,
            uint64_t(kThreads) * kRegions);
  mm.reset();
  ExpectNoLeaks();
}

// Two submitters re-map the same VAs of one shared 1 GiB subtree every round,
// so one CPU's drain often unmaps the other's regions and leaves it a lazy
// flush. A re-mapped, re-faulted page must read as the fresh zero page and
// then as its new value, never through a stale translation to the old frame.
TEST_F(RingLatrTest, SameVaRemapReadsNewValue) {
  constexpr int kRounds = 200;
  constexpr Vaddr kBase = 64ull << 30;
  std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      auto region_va = [t](uint64_t r) { return kBase + (2 * r + t) * kRegionBytes; };
      auto run_batch = [&](uint64_t cookies) {
        mm->DrainBarrier();
        MmCqe cqe;
        for (uint64_t n = 0; n < cookies; ++n) {
          failures.fetch_add(!mm->Reap(&cqe) || cqe.err != ErrCode::kOk);
        }
      };
      for (int round = 0; round < kRounds; ++round) {
        uint64_t cookie = 0;
        for (uint64_t r = 0; r < kRegions; ++r) {
          mm->Submit(FixedMmapSqe(region_va(r), kRegionBytes, Perm::RW(), cookie++));
          for (uint64_t p = 0; p < kPages; ++p) {
            mm->Submit(FaultSqe(region_va(r) + p * kPageSize, Access::kWrite, cookie++));
          }
        }
        run_batch(cookie);
        for (uint64_t r = 0; r < kRegions; ++r) {
          for (uint64_t p = 0; p < kPages; ++p) {
            Vaddr va = region_va(r) + p * kPageSize;
            uint64_t value = (uint64_t(round) << 32) | (uint64_t(t) << 16) | (r * kPages + p);
            uint64_t fresh = ~0ull;
            uint64_t back = 0;
            bool ok = MmuSim::Read(*mm, va, &fresh).ok() && fresh == 0 &&
                      MmuSim::Write(*mm, va, value).ok() &&
                      MmuSim::Read(*mm, va, &back).ok() && back == value;
            failures.fetch_add(!ok);
          }
        }
        cookie = 0;
        for (uint64_t r = 0; r < kRegions; ++r) {
          mm->Submit(MakeMunmapSqe(region_va(r), kRegionBytes, cookie++));
        }
        run_batch(cookie);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  mm.reset();
  ExpectNoLeaks();
}

}  // namespace
}  // namespace cortenmm
