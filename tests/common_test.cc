// Unit tests for the common substrate: SmallVec (hand-rolled inline-storage
// vector used on the transaction hot path), VaRange arithmetic, Perm bits,
// Result, the deterministic RNG, and the page-index math everything trusts.
#include <gtest/gtest.h>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/small_vec.h"
#include "src/common/types.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {
namespace {

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

TEST(SmallVecTest, StaysInlineUpToN) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(v[i], i);
  }
}

TEST(SmallVecTest, SpillsToHeapAndKeepsContents) {
  SmallVec<uint64_t, 4> v;
  for (uint64_t i = 0; i < 100; ++i) {
    v.push_back(i * 7);
  }
  ASSERT_EQ(v.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v[i], i * 7);
  }
}

TEST(SmallVecTest, MoveWhileInline) {
  SmallVec<int, 8> a;
  a.push_back(1);
  a.push_back(2);
  SmallVec<int, 8> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[1], 2);
}

TEST(SmallVecTest, MoveWhileSpilled) {
  SmallVec<int, 2> a;
  for (int i = 0; i < 50; ++i) {
    a.push_back(i);
  }
  SmallVec<int, 2> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  ASSERT_EQ(b.size(), 50u);
  EXPECT_EQ(b[49], 49);
  // The moved-from vector is reusable.
  a.push_back(7);
  EXPECT_EQ(a.size(), 1u);
}

TEST(SmallVecTest, MoveAssignReplacesContents) {
  SmallVec<int, 2> a;
  a.push_back(1);
  SmallVec<int, 2> b;
  for (int i = 0; i < 20; ++i) {
    b.push_back(i);
  }
  a = std::move(b);
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a[19], 19);
}

TEST(SmallVecTest, EraseAtShiftsTail) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(i);
  }
  v.erase_at(2);
  ASSERT_EQ(v.size(), 5u);
  int expected[] = {0, 1, 3, 4, 5};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(v[i], expected[i]);
  }
  v.erase_at(4);  // Last element.
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.back(), 4);
}

TEST(SmallVecTest, IterationAndClear) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(1);
  }
  int sum = 0;
  for (int x : v) {
    sum += x;
  }
  EXPECT_EQ(sum, 10);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(5);  // Capacity survives clear.
  EXPECT_EQ(v.back(), 5);
}

// ---------------------------------------------------------------------------
// VaRange / index math
// ---------------------------------------------------------------------------

TEST(VaRangeTest, ContainsOverlapsIntersect) {
  VaRange a(0x1000, 0x5000);
  EXPECT_TRUE(a.Contains(0x1000));
  EXPECT_FALSE(a.Contains(0x5000));  // Half-open.
  EXPECT_TRUE(a.Contains(VaRange(0x2000, 0x3000)));
  EXPECT_FALSE(a.Contains(VaRange(0x4000, 0x6000)));

  EXPECT_TRUE(a.Overlaps(VaRange(0x4fff, 0x6000)));
  EXPECT_FALSE(a.Overlaps(VaRange(0x5000, 0x6000)));  // Touching != overlap.

  VaRange inter = a.Intersect(VaRange(0x3000, 0x9000));
  EXPECT_EQ(inter, VaRange(0x3000, 0x5000));
  EXPECT_TRUE(a.Intersect(VaRange(0x8000, 0x9000)).empty());
}

TEST(VaRangeTest, PageMath) {
  EXPECT_TRUE(VaRange(0x1000, 0x3000).IsPageAligned());
  EXPECT_FALSE(VaRange(0x1001, 0x3000).IsPageAligned());
  EXPECT_EQ(VaRange(0x1000, 0x5000).num_pages(), 4u);
  EXPECT_EQ(AlignDown(0x1fff, kPageSize), 0x1000u);
  EXPECT_EQ(AlignUp(0x1001, kPageSize), 0x2000u);
  EXPECT_EQ(AlignUp(0x1000, kPageSize), 0x1000u);
}

// ---------------------------------------------------------------------------
// Perm
// ---------------------------------------------------------------------------

TEST(PermTest, WithWithoutAreNonDestructive) {
  Perm rw = Perm::RW();
  Perm cow = rw.With(Perm::kCow).Without(Perm::kWrite);
  EXPECT_TRUE(rw.write());
  EXPECT_FALSE(rw.cow());
  EXPECT_TRUE(cow.cow());
  EXPECT_FALSE(cow.write());
  EXPECT_TRUE(cow.read());
  EXPECT_EQ(cow.With(Perm::kWrite).Without(Perm::kCow), Perm::RW());
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(0), 42);

  Result<int> err = ErrCode::kNoMem;
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), ErrCode::kNoMem);
  EXPECT_EQ(err.value_or(-1), -1);

  VoidResult vok;
  EXPECT_TRUE(vok.ok());
  VoidResult verr(ErrCode::kFault);
  EXPECT_EQ(verr.error(), ErrCode::kFault);
  EXPECT_STREQ(ErrCodeName(ErrCode::kFault), "FAULT");
}

// ---------------------------------------------------------------------------
// Rng determinism
// ---------------------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(124);
  bool diverged = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    diverged |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    uint64_t r = rng.Range(100, 110);
    EXPECT_GE(r, 100u);
    EXPECT_LT(r, 110u);
  }
}

// ---------------------------------------------------------------------------
// CpuMask
// ---------------------------------------------------------------------------

TEST(CpuMaskTest, SetTestAndEnumerate) {
  CpuMask mask;
  EXPECT_FALSE(mask.Test(0));
  mask.Set(0);
  mask.Set(63);
  mask.Set(64);   // Crosses the word boundary.
  mask.Set(511);  // Last valid CPU.
  EXPECT_TRUE(mask.Test(0));
  EXPECT_TRUE(mask.Test(63));
  EXPECT_TRUE(mask.Test(64));
  EXPECT_TRUE(mask.Test(511));
  EXPECT_FALSE(mask.Test(1));
  std::vector<CpuId> cpus;
  mask.ForEach([&cpus](CpuId cpu) { cpus.push_back(cpu); });
  EXPECT_EQ(mask.Count(), 4);
  ASSERT_EQ(cpus.size(), 4u);
  EXPECT_EQ(cpus[0], 0);
  EXPECT_EQ(cpus[1], 63);
  EXPECT_EQ(cpus[2], 64);
  EXPECT_EQ(cpus[3], 511);
}

}  // namespace
}  // namespace cortenmm
