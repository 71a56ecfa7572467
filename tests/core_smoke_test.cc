// End-to-end smoke tests of the CortenMM core through the simulated MMU:
// mmap / touch / munmap / mprotect / fork+COW / swap / file mappings, under
// both locking protocols and both ISAs.
#include <gtest/gtest.h>

#include <cstring>

#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/sync/rcu.h"

namespace cortenmm {
namespace {

struct SmokeParam {
  Protocol protocol;
  Arch arch;
};

class CoreSmokeTest : public ::testing::TestWithParam<SmokeParam> {
 protected:
  AddrSpace::Options MakeOptions() const {
    AddrSpace::Options options;
    options.protocol = GetParam().protocol;
    options.arch = GetParam().arch;
    return options;
  }
};

TEST_P(CoreSmokeTest, MmapTouchRead) {
  CortenVm mm(MakeOptions());
  Result<Vaddr> va = mm.MmapAnon(16 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  for (int i = 0; i < 16; ++i) {
    Vaddr addr = *va + i * kPageSize;
    ASSERT_TRUE(MmuSim::Write(mm, addr, 0x1234 + i).ok());
  }
  for (int i = 0; i < 16; ++i) {
    uint64_t value = 0;
    ASSERT_TRUE(MmuSim::Read(mm, *va + i * kPageSize, &value).ok());
    EXPECT_EQ(value, 0x1234u + i);
  }
}

TEST_P(CoreSmokeTest, DemandZero) {
  CortenVm mm(MakeOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t value = 0xdead;
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 0u);  // Demand-zero fill.
}

TEST_P(CoreSmokeTest, MunmapMakesRangeInvalid) {
  CortenVm mm(MakeOptions());
  Result<Vaddr> va = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 4 * kPageSize, /*write=*/true).ok());
  ASSERT_TRUE(mm.Munmap(*va, 4 * kPageSize).ok());
  uint64_t value;
  EXPECT_EQ(MmuSim::Read(mm, *va, &value).error(), ErrCode::kFault);
}

TEST_P(CoreSmokeTest, UnmapVirtualOnly) {
  // unmap-virt microbenchmark shape: munmap of never-touched pages.
  CortenVm mm(MakeOptions());
  Result<Vaddr> va = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(mm.Munmap(*va, 4 * kPageSize).ok());
  uint64_t value;
  EXPECT_EQ(MmuSim::Read(mm, *va, &value).error(), ErrCode::kFault);
}

TEST_P(CoreSmokeTest, MprotectReadOnlyFaultsOnWrite) {
  CortenVm mm(MakeOptions());
  Result<Vaddr> va = mm.MmapAnon(2 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 2 * kPageSize, /*write=*/true).ok());
  ASSERT_TRUE(mm.Mprotect(*va, kPageSize, Perm::R()).ok());
  EXPECT_EQ(MmuSim::Write(mm, *va, 1).error(), ErrCode::kFault);
  uint64_t value;
  EXPECT_TRUE(MmuSim::Read(mm, *va, &value).ok());                  // Still readable.
  EXPECT_TRUE(MmuSim::Write(mm, *va + kPageSize, 1).ok());          // Unprotected page.
}

TEST_P(CoreSmokeTest, ForkCopyOnWrite) {
  CortenVm parent(MakeOptions());
  Result<Vaddr> va = parent.MmapAnon(2 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 77).ok());

  // Fork through the facade: the child is a full MmInterface, so the MMU can
  // drive it directly (no ad-hoc adapter).
  std::unique_ptr<MmInterface> child = parent.Fork();
  ASSERT_NE(child, nullptr);

  // Child sees the parent's value through the shared COW frame.
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(*child, *va, &value).ok());
  EXPECT_EQ(value, 77u);

  // Child write triggers COW; parent remains unchanged.
  ASSERT_TRUE(MmuSim::Write(*child, *va, 88).ok());
  ASSERT_TRUE(MmuSim::Read(*child, *va, &value).ok());
  EXPECT_EQ(value, 88u);
  ASSERT_TRUE(MmuSim::Read(parent, *va, &value).ok());
  EXPECT_EQ(value, 77u);

  // Parent write now reclaims its (sole-mapper) frame in place.
  ASSERT_TRUE(MmuSim::Write(parent, *va, 99).ok());
  ASSERT_TRUE(MmuSim::Read(parent, *va, &value).ok());
  EXPECT_EQ(value, 99u);
  ASSERT_TRUE(MmuSim::Read(*child, *va, &value).ok());
  EXPECT_EQ(value, 88u);
}

TEST_P(CoreSmokeTest, SwapOutAndBackIn) {
  CortenVm mm(MakeOptions());
  Result<Vaddr> va = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(MmuSim::Write(mm, *va + i * kPageSize, 1000 + i).ok());
  }
  Result<uint64_t> swapped = mm.SwapOut(*va, 4 * kPageSize);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(*swapped, 4u);
  for (int i = 0; i < 4; ++i) {
    uint64_t value = 0;
    ASSERT_TRUE(MmuSim::Read(mm, *va + i * kPageSize, &value).ok());
    EXPECT_EQ(value, 1000u + i);
  }
}

TEST_P(CoreSmokeTest, PrivateFileMapping) {
  CortenVm mm(MakeOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(8);
  Result<Vaddr> va = mm.MmapFilePrivate(file, 0, 8 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());

  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  uint64_t expected = 0;
  for (int b = 7; b >= 0; --b) {
    expected = (expected << 8) | SimFile::ContentByte(file->id(), b);
  }
  EXPECT_EQ(value, expected);

  // Private write copies; the page cache is untouched.
  ASSERT_TRUE(MmuSim::Write(mm, *va, 0xabcdef).ok());
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 0xabcdefu);
  Result<Pfn> cache_page = file->GetPage(0);
  ASSERT_TRUE(cache_page.ok());
  uint64_t cache_word;
  std::memcpy(&cache_word, PhysMem::Instance().FrameData(*cache_page), 8);
  EXPECT_EQ(cache_word, expected);
}

TEST_P(CoreSmokeTest, SharedMappingVisibleAcrossSpaces) {
  CortenVm a(MakeOptions());
  CortenVm b(MakeOptions());
  SimFile* segment = FileRegistry::Instance().CreateSharedAnonSegment(4);
  Result<Vaddr> va_a = a.MmapShared(segment, 0, 4 * kPageSize, Perm::RW());
  Result<Vaddr> va_b = b.MmapShared(segment, 0, 4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va_a.ok());
  ASSERT_TRUE(va_b.ok());
  ASSERT_TRUE(MmuSim::Write(a, *va_a, 4242).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(b, *va_b, &value).ok());
  EXPECT_EQ(value, 4242u);
}

TEST_P(CoreSmokeTest, FrameAccountingBalances) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  uint64_t before = GlobalStats().Total(Counter::kFramesAllocated) -
                    GlobalStats().Total(Counter::kFramesFreed);
  {
    CortenVm mm(MakeOptions());
    Result<Vaddr> va = mm.MmapAnon(64 * kPageSize, Perm::RW());
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 64 * kPageSize, /*write=*/true).ok());
    ASSERT_TRUE(mm.Munmap(*va, 64 * kPageSize).ok());
  }
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  uint64_t after = GlobalStats().Total(Counter::kFramesAllocated) -
                   GlobalStats().Total(Counter::kFramesFreed);
  EXPECT_EQ(before, after) << "leaked " << (after - before) << " frames";
  (void)buddy;
}

// PT pages that munmap detaches take their metadata arrays out of the
// space's MetaBytes() account, so the figure tracks live metadata instead of
// growing with every map/unmap cycle. The first cycle leaves the array of the
// upper PT page that held the region's marks: that page stays, and so does
// its (now empty) array. From then on every cycle returns to the same value.
TEST_P(CoreSmokeTest, MunmapReturnsMetadataBytes) {
  constexpr uint64_t kLen = 4ull << 20;
  CortenVm mm(MakeOptions());
  auto cycle = [&](uint64_t before) {
    Result<Vaddr> va = mm.MmapAnon(kLen, Perm::RW());
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(MmuSim::TouchRange(mm, *va, kLen, /*write=*/true).ok());
    EXPECT_GT(mm.MetaBytes(), before);
    ASSERT_TRUE(mm.Munmap(*va, kLen).ok());
  };
  cycle(mm.MetaBytes());
  uint64_t before = mm.MetaBytes();
  for (int i = 0; i < 3; ++i) {
    cycle(before);
    EXPECT_EQ(mm.MetaBytes(), before) << "cycle " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndArchs, CoreSmokeTest,
    ::testing::Values(SmokeParam{Protocol::kRw, Arch::kX86_64},
                      SmokeParam{Protocol::kAdv, Arch::kX86_64},
                      SmokeParam{Protocol::kRw, Arch::kRiscvSv48},
                      SmokeParam{Protocol::kAdv, Arch::kRiscvSv48}),
    [](const ::testing::TestParamInfo<SmokeParam>& info) {
      std::string name = info.param.protocol == Protocol::kRw ? "rw" : "adv";
      name += info.param.arch == Arch::kX86_64 ? "_x86" : "_riscv";
      return name;
    });

}  // namespace
}  // namespace cortenmm
