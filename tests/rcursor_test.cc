// Unit tests of the transactional interface itself (paper Figure 4): the
// Query/Map/Mark/Unmap/Protect semantics, upper-level metadata marks with
// push-down, huge-page mapping and splitting, and status enumeration.
#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/addr_space.h"
#include "src/core/backing.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

class RCursorTest : public ::testing::TestWithParam<Protocol> {
 protected:
  AddrSpace::Options MakeOptions() const {
    AddrSpace::Options options;
    options.protocol = GetParam();
    return options;
  }

  Pfn AllocAnon() {
    Result<Pfn> frame = BuddyAllocator::Instance().AllocZeroedFrame();
    EXPECT_TRUE(frame.ok());
    PhysMem::Instance().Descriptor(*frame).ResetForAlloc(FrameType::kAnon);
    return *frame;
  }
};

TEST_P(RCursorTest, QueryInvalidByDefault) {
  AddrSpace space(MakeOptions());
  RCursor cursor = space.Lock(VaRange(0x100000, 0x110000));
  EXPECT_TRUE(cursor.Query(0x100000).invalid());
  EXPECT_TRUE(cursor.Query(0x10f000).invalid());
}

TEST_P(RCursorTest, MapThenQueryRoundTrip) {
  AddrSpace space(MakeOptions());
  Pfn frame = AllocAnon();
  {
    RCursor cursor = space.Lock(VaRange(0x200000, 0x201000));
    ASSERT_TRUE(cursor.Map(0x200000, frame, Perm::RW()).ok());
    Status status = cursor.Query(0x200000);
    EXPECT_TRUE(status.mapped());
    EXPECT_EQ(status.pfn, frame);
    EXPECT_TRUE(status.perm.write());
  }
  // A fresh transaction sees the same state.
  RCursor cursor = space.Lock(VaRange(0x200000, 0x201000));
  EXPECT_TRUE(cursor.Query(0x200000).mapped());
}

TEST_P(RCursorTest, MarkCoversLargeRangeWithOneUpperLevelMark) {
  AddrSpace space(MakeOptions());
  // 8 MiB range: 4 aligned 2 MiB slots => marks land on level-2 slots and
  // allocate no leaf PT pages.
  VaRange range(1ull << 30, (1ull << 30) + (8ull << 20));
  uint64_t pt_before = space.page_table().CountPtPages();
  {
    RCursor cursor = space.Lock(range);
    ASSERT_TRUE(cursor.Mark(range, Status::PrivateAnon(Perm::RW())).ok());
  }
  uint64_t pt_after = space.page_table().CountPtPages();
  // Only the path down to one level-2 PT page (which holds 4 marked slots).
  EXPECT_LE(pt_after - pt_before, 3u);
  RCursor cursor = space.Lock(range);
  Status status = cursor.Query(range.start + (3ull << 20));
  EXPECT_EQ(status.tag, StatusTag::kPrivateAnon);
  EXPECT_TRUE(status.perm.write());
}

TEST_P(RCursorTest, MarkPushdownOnPartialOverwrite) {
  SwapDevice& swap = SwapDevice::Instance();
  uint64_t blocks_before = swap.blocks_in_use();
  {
    AddrSpace space(MakeOptions());
    VaRange big(1ull << 31, (1ull << 31) + (2ull << 20));  // One whole 2 MiB slot.
    {
      RCursor cursor = space.Lock(big);
      ASSERT_TRUE(cursor.Mark(big, Status::PrivateAnon(Perm::RW())).ok());
    }
    // Overwrite one page in the middle with a Swapped status on a real block:
    // the mark must be pushed down and only that page changed.
    std::byte contents[kPageSize] = {};
    Result<uint32_t> block = swap.WriteNewBlock(contents);
    ASSERT_TRUE(block.ok());
    Vaddr victim = big.start + (1ull << 20);
    {
      RCursor cursor = space.Lock(VaRange(victim, victim + kPageSize));
      ASSERT_TRUE(cursor
                      .Mark(VaRange(victim, victim + kPageSize),
                            Status::Swapped(0, *block, Perm::RW()))
                      .ok());
    }
    RCursor cursor = space.Lock(big);
    EXPECT_EQ(cursor.Query(big.start).tag, StatusTag::kPrivateAnon);
    EXPECT_EQ(cursor.Query(victim).tag, StatusTag::kSwapped);
    EXPECT_EQ(cursor.Query(victim).page_offset, *block);
    EXPECT_EQ(cursor.Query(victim + kPageSize).tag, StatusTag::kPrivateAnon);
  }
  // The mark took the block reference; teardown's Unmap gave it back.
  EXPECT_EQ(swap.blocks_in_use(), blocks_before);
}

TEST_P(RCursorTest, OffsetBearingMarkDecodesPerPage) {
  AddrSpace space(MakeOptions());
  VaRange range(1ull << 32, (1ull << 32) + (2ull << 20));
  RCursor cursor = space.Lock(range);
  ASSERT_TRUE(cursor.Mark(range, Status::PrivateFileMapped(7, 100, Perm::R())).ok());
  // Page i of the range maps file page 100 + i.
  Status s0 = cursor.Query(range.start);
  Status s5 = cursor.Query(range.start + 5 * kPageSize);
  EXPECT_EQ(s0.page_offset, 100u);
  EXPECT_EQ(s5.page_offset, 105u);
  EXPECT_EQ(s5.object_id, 7u);
}

TEST_P(RCursorTest, UnmapClearsMarksAndMappings) {
  AddrSpace space(MakeOptions());
  VaRange range(0x300000, 0x304000);
  Pfn frame = AllocAnon();
  {
    RCursor cursor = space.Lock(range);
    ASSERT_TRUE(cursor.Mark(range, Status::PrivateAnon(Perm::RW())).ok());
    ASSERT_TRUE(cursor.Map(0x301000, frame, Perm::RW()).ok());
    ASSERT_TRUE(cursor.Unmap(VaRange(0x300000, 0x302000)).ok());
    EXPECT_TRUE(cursor.Query(0x300000).invalid());
    EXPECT_TRUE(cursor.Query(0x301000).invalid());
    EXPECT_EQ(cursor.Query(0x302000).tag, StatusTag::kPrivateAnon);
  }
}

TEST_P(RCursorTest, ProtectRewritesMappedAndMarked) {
  AddrSpace space(MakeOptions());
  VaRange range(0x400000, 0x402000);
  Pfn frame = AllocAnon();
  RCursor cursor = space.Lock(range);
  ASSERT_TRUE(cursor.Map(0x400000, frame, Perm::RW()).ok());
  ASSERT_TRUE(
      cursor.Mark(VaRange(0x401000, 0x402000), Status::PrivateAnon(Perm::RW())).ok());
  ASSERT_TRUE(cursor.Protect(range, Perm::R()).ok());
  EXPECT_FALSE(cursor.Query(0x400000).perm.write());
  EXPECT_FALSE(cursor.Query(0x401000).perm.write());
}

TEST_P(RCursorTest, MapHugeAndQueryInterior) {
  AddrSpace space(MakeOptions());
  Result<Pfn> block = BuddyAllocator::Instance().AllocBlock(9);  // 2 MiB.
  ASSERT_TRUE(block.ok());
  for (uint64_t i = 0; i < 512; ++i) {
    PhysMem::Instance().Descriptor(*block + i).ResetForAlloc(FrameType::kAnon);
  }
  Vaddr va = 8ull << 30;  // 2 MiB aligned.
  VaRange range(va, va + (2ull << 20));
  {
    RCursor cursor = space.Lock(range);
    ASSERT_TRUE(cursor.MapHuge(va, *block, Perm::RW(), 2).ok());
    Status interior = cursor.Query(va + 37 * kPageSize);
    EXPECT_TRUE(interior.mapped());
    EXPECT_EQ(interior.pfn, *block + 37);
  }
  WfReport report = CheckWellFormed(space);
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(RCursorTest, PartialUnmapSplitsHugeLeaf) {
  AddrSpace space(MakeOptions());
  Result<Pfn> block = BuddyAllocator::Instance().AllocBlock(9);
  ASSERT_TRUE(block.ok());
  for (uint64_t i = 0; i < 512; ++i) {
    PhysMem::Instance().Descriptor(*block + i).ResetForAlloc(FrameType::kAnon);
  }
  Vaddr va = 10ull << 30;
  VaRange range(va, va + (2ull << 20));
  {
    RCursor cursor = space.Lock(range);
    ASSERT_TRUE(cursor.MapHuge(va, *block, Perm::RW(), 2).ok());
    // Unmap one 4K page in the middle: the huge leaf must split.
    Vaddr hole = va + 100 * kPageSize;
    ASSERT_TRUE(cursor.Unmap(VaRange(hole, hole + kPageSize)).ok());
    EXPECT_TRUE(cursor.Query(hole).invalid());
    EXPECT_TRUE(cursor.Query(hole - kPageSize).mapped());
    EXPECT_TRUE(cursor.Query(hole + kPageSize).mapped());
    EXPECT_EQ(cursor.Query(hole + kPageSize).pfn, *block + 101);
  }
  WfReport report = CheckWellFormed(space);
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(RCursorTest, ForEachStatusEnumeratesMixedState) {
  AddrSpace space(MakeOptions());
  VaRange range(0x500000, 0x506000);
  Pfn frame = AllocAnon();
  RCursor cursor = space.Lock(range);
  ASSERT_TRUE(cursor.Map(0x500000, frame, Perm::RW()).ok());
  ASSERT_TRUE(
      cursor.Mark(VaRange(0x502000, 0x504000), Status::PrivateAnon(Perm::R())).ok());
  int mapped_runs = 0;
  int marked_pages = 0;
  cursor.ForEachStatus(range, [&](VaRange run, const Status& status) {
    if (status.mapped()) {
      ++mapped_runs;
      EXPECT_EQ(run.start, 0x500000u);
    } else if (status.tag == StatusTag::kPrivateAnon) {
      marked_pages += static_cast<int>(run.num_pages());
    }
  });
  EXPECT_EQ(mapped_runs, 1);
  EXPECT_EQ(marked_pages, 2);
}

TEST_P(RCursorTest, RangeContainmentEnforced) {
  AddrSpace space(MakeOptions());
  RCursor cursor = space.Lock(VaRange(0x600000, 0x601000));
  Pfn frame = AllocAnon();
  EXPECT_EQ(cursor.Map(0x700000, frame, Perm::RW()).error(), ErrCode::kInval);
  EXPECT_EQ(cursor.Unmap(VaRange(0x600000, 0x700000)).error(), ErrCode::kInval);
  EXPECT_EQ(cursor.Mark(VaRange(0x5ff000, 0x601000), Status::PrivateAnon(Perm::R())).error(),
            ErrCode::kInval);
  BuddyAllocator::Instance().FreeFrame(frame);
}

TEST_P(RCursorTest, MarkMappedStatusRejected) {
  AddrSpace space(MakeOptions());
  RCursor cursor = space.Lock(VaRange(0x600000, 0x601000));
  EXPECT_EQ(
      cursor.Mark(VaRange(0x600000, 0x601000), Status::Mapped(1, Perm::RW())).error(),
      ErrCode::kInval);
}

TEST_P(RCursorTest, CoveringPageLevelMatchesRange) {
  AddrSpace space(MakeOptions());
  // A 4 KiB range within one leaf PT page's span locks deep; a 100 GiB range
  // must lock near the root. Both must work and stay well-formed.
  {
    RCursor small = space.Lock(VaRange(0x1000, 0x2000));
    EXPECT_TRUE(small.Query(0x1000).invalid());
  }
  {
    VaRange wide(0, 100ull << 30);
    RCursor big = space.Lock(wide);
    ASSERT_TRUE(big.Mark(VaRange(0, 1ull << 30), Status::PrivateAnon(Perm::RW())).ok());
  }
  WfReport report = CheckWellFormed(space);
  EXPECT_TRUE(report.ok) << report.first_error;
}

// A transaction that only reads (or that rolled back before mutating
// anything) gathers nothing, so its destructor must not issue a shootdown.
TEST_P(RCursorTest, ReadOnlyCursorIssuesNoShootdown) {
  AddrSpace space(MakeOptions());
  uint64_t before = GlobalStats().Total(Counter::kTlbShootdowns);
  {
    RCursor cursor = space.Lock(VaRange(0x700000, 0x710000));
    cursor.Query(0x700000);
    cursor.Query(0x70f000);
  }
  EXPECT_EQ(GlobalStats().Total(Counter::kTlbShootdowns) - before, 0u);
}

// The gather in action at the cursor level: a transaction unmapping several
// sparse pages flushes them as ONE batched shootdown, and a page between the
// gathered ranges keeps its (hypothetical) TLB entry — no bounding box.
TEST_P(RCursorTest, SparseUnmapFlushesOnceWithDiscreteRanges) {
  AddrSpace space(MakeOptions());
  VaRange range(0x800000, 0x800000 + 16 * kPageSize);
  std::vector<Vaddr> victims = {range.start, range.start + 5 * kPageSize,
                                range.start + 11 * kPageSize};
  Vaddr bystander = range.start + 8 * kPageSize;
  {
    RCursor cursor = space.Lock(range);
    for (Vaddr va : victims) {
      ASSERT_TRUE(cursor.Map(va, AllocAnon(), Perm::RW()).ok());
    }
    ASSERT_TRUE(cursor.Map(bystander, AllocAnon(), Perm::RW()).ok());
  }
  // Seed this CPU's TLB as if the MMU had cached all four translations.
  CpuId cpu = CurrentCpu();
  space.NoteCpuActive(cpu);
  Tlb& tlb = TlbSystem::Instance().CpuTlb(cpu);
  for (Vaddr va : victims) {
    tlb.Insert(space.asid(), va, 1, 1);
  }
  tlb.Insert(space.asid(), bystander, 1, 1);
  uint64_t before = GlobalStats().Total(Counter::kTlbShootdowns);
  {
    RCursor cursor = space.Lock(range);
    for (Vaddr va : victims) {
      ASSERT_TRUE(cursor.Unmap(VaRange(va, va + kPageSize)).ok());
    }
  }
  EXPECT_EQ(GlobalStats().Total(Counter::kTlbShootdowns) - before, 1u);
  for (Vaddr va : victims) {
    EXPECT_FALSE(tlb.Lookup(space.asid(), va).has_value()) << va;
  }
  EXPECT_TRUE(tlb.Lookup(space.asid(), bystander).has_value());
  // Clean up the remaining mapping.
  RCursor cursor = space.Lock(range);
  ASSERT_TRUE(cursor.Unmap(range).ok());
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, RCursorTest,
                         ::testing::Values(Protocol::kRw, Protocol::kAdv),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return info.param == Protocol::kRw ? "rw" : "adv";
                         });

}  // namespace
}  // namespace cortenmm
