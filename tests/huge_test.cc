// End-to-end transparent-huge-page lifecycle tests at the VmSpace layer: a
// 2 MiB-aligned anonymous region faults in as one level-2 leaf, partial
// munmap splits it without disturbing bystander pages, fork COW-protects and
// then splits on first write, SwapOut forces a split down to the evicted
// base page, and the resident counter stays exact through every transition.
// The Linux-VMA baseline's THP knob gets the same treatment so the
// fig13/fig14 comparisons stay apples-to-apples.
#include <gtest/gtest.h>

#include <memory>

#include "src/baseline/linux_mm.h"
#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/fault/fault_inject.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

AddrSpace::Options HugeOptions(Protocol protocol) {
  AddrSpace::Options options;
  options.protocol = protocol;
  options.huge_pages = true;
  return options;
}

uint64_t CounterNow(Counter c) { return GlobalStats().Total(c); }

class HugePageTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(HugePageTest, MmapAnonAlignsHugeRegions) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(4 * kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  EXPECT_TRUE(IsAligned(*va, kHugePageSize));
  // Small regions keep base-page alignment; no need to burn 2 MiB slots.
  Result<Vaddr> small = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(IsAligned(*small, kPageSize));
}

TEST_P(HugePageTest, FaultInstallsOneHugeLeaf) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());

  uint64_t faults = CounterNow(Counter::kPageFaults);
  uint64_t huge_faults = CounterNow(Counter::kHugeFaults);
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, kHugePageSize, /*write=*/true).ok());
  // One fault covered all 512 pages; every later touch hit the leaf.
  EXPECT_EQ(CounterNow(Counter::kPageFaults) - faults, 1u);
  EXPECT_EQ(CounterNow(Counter::kHugeFaults) - huge_faults, 1u);

  // The leaf reports level 2 and a naturally-aligned run.
  RCursor cursor = mm.vm().addr_space().Lock(VaRange(*va, *va + kHugePageSize));
  Status status = cursor.Query(*va + 5 * kPageSize);
  ASSERT_TRUE(status.mapped());
  EXPECT_EQ(status.level, 2);
  EXPECT_EQ(status.pfn % (1ull << kHugeOrder), 5u);
}

TEST_P(HugePageTest, ResidentPagesWeighsLeafLevel) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 0u);
  ASSERT_TRUE(MmuSim::Write(mm, *va, 1).ok());
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 1ull << kHugeOrder);
}

TEST_P(HugePageTest, PartialMunmapSplitsAndBystandersSurvive) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  // Stamp every 64th page with a distinct value.
  for (uint64_t p = 0; p < (1ull << kHugeOrder); p += 64) {
    ASSERT_TRUE(MmuSim::Write(mm, *va + (p << kPageBits), 0xbeef00 + p).ok());
  }

  uint64_t splits = CounterNow(Counter::kHugeSplits);
  constexpr uint64_t kCutPages = 64;  // 256 KiB off the front.
  ASSERT_TRUE(mm.Munmap(*va, kCutPages << kPageBits).ok());
  EXPECT_GE(CounterNow(Counter::kHugeSplits) - splits, 1u);
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), (1ull << kHugeOrder) - kCutPages);

  // Bystanders: still mapped (now via level-1 leaves), values intact.
  for (uint64_t p = kCutPages; p < (1ull << kHugeOrder); p += 64) {
    uint64_t value = 0;
    ASSERT_TRUE(MmuSim::Read(mm, *va + (p << kPageBits), &value).ok()) << p;
    EXPECT_EQ(value, 0xbeef00 + p) << p;
  }
  // The unmapped prefix faults as SEGV-free demand-zero (still inside the
  // original region? No — it was unmapped, so a touch must fault-fail).
  uint64_t probe = 0;
  EXPECT_FALSE(MmuSim::Read(mm, *va, &probe).ok());

  WfReport report = CheckWellFormed(mm.vm().addr_space());
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(HugePageTest, ForkCowSplitsOnFirstWrite) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 41).ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va + 7 * kPageSize, 43).ok());

  std::unique_ptr<VmSpace> child_vm = mm.vm().Fork();
  ASSERT_NE(child_vm, nullptr);
  CortenVm child(std::move(child_vm));

  // Child write to one base page: the huge COW leaf splits, one frame copies.
  ASSERT_TRUE(MmuSim::Write(child, *va, 141).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(child, *va, &value).ok());
  EXPECT_EQ(value, 141u);
  // Parent unchanged, including the page adjacent to the copied one.
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 41u);
  ASSERT_TRUE(MmuSim::Read(mm, *va + 7 * kPageSize, &value).ok());
  EXPECT_EQ(value, 43u);
  // The still-shared page reads through in the child.
  ASSERT_TRUE(MmuSim::Read(child, *va + 7 * kPageSize, &value).ok());
  EXPECT_EQ(value, 43u);

  WfReport parent_report = CheckWellFormed(mm.vm().addr_space());
  EXPECT_TRUE(parent_report.ok) << parent_report.first_error;
  WfReport child_report = CheckWellFormed(child.vm().addr_space());
  EXPECT_TRUE(child_report.ok) << child_report.first_error;
}

TEST_P(HugePageTest, SwapOutForcesSplitAndSwapInRestores) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va + 3 * kPageSize, 0xabc).ok());

  uint64_t splits = CounterNow(Counter::kHugeSplits);
  Result<uint64_t> evicted = mm.vm().SwapOut(*va + 3 * kPageSize, kPageSize);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 1u);
  EXPECT_GE(CounterNow(Counter::kHugeSplits) - splits, 1u);
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), (1ull << kHugeOrder) - 1);

  // Touch swaps the page back in with its contents.
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(mm, *va + 3 * kPageSize, &value).ok());
  EXPECT_EQ(value, 0xabcu);
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 1ull << kHugeOrder);
}

#if CORTENMM_FAULTINJ
TEST_P(HugePageTest, AllocFailureFallsBackTo4K) {
  CortenVm mm(HugeOptions(GetParam()));
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());

  FaultConfig always;
  always.prob_num = 100;
  always.prob_den = 100;
  FaultInjector::Instance().Enable(FaultSite::kBuddyAllocBlock, always);
  uint64_t fallbacks = CounterNow(Counter::kHugeFallbacks);
  VoidResult wrote = MmuSim::Write(mm, *va, 7);
  FaultInjector::Instance().DisableAll();
  FaultInjector::Instance().ResetCounters();

  ASSERT_TRUE(wrote.ok());
  EXPECT_GE(CounterNow(Counter::kHugeFallbacks) - fallbacks, 1u);
  // The fault resolved at 4 KiB: exactly one base page is resident.
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 1u);
  RCursor cursor = mm.vm().addr_space().Lock(VaRange(*va, *va + kPageSize));
  Status status = cursor.Query(*va);
  ASSERT_TRUE(status.mapped());
  EXPECT_EQ(status.level, 1);
}
#endif  // CORTENMM_FAULTINJ

INSTANTIATE_TEST_SUITE_P(Protocols, HugePageTest,
                         ::testing::Values(Protocol::kAdv, Protocol::kRw),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           std::string name = ProtocolName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Linux-VMA baseline THP knob
// ---------------------------------------------------------------------------

TEST(LinuxHugeTest, FaultInstallsHugeLeafAndPartialMunmapSplits) {
  LinuxVmaMm::Options options;
  options.huge = true;
  LinuxVmaMm mm(options);

  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t faults = CounterNow(Counter::kPageFaults);
  uint64_t huge_faults = CounterNow(Counter::kHugeFaults);
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, kHugePageSize, /*write=*/true).ok());
  EXPECT_EQ(CounterNow(Counter::kPageFaults) - faults, 1u);
  EXPECT_EQ(CounterNow(Counter::kHugeFaults) - huge_faults, 1u);

  ASSERT_TRUE(MmuSim::Write(mm, *va + 100 * kPageSize, 0x5151).ok());
  uint64_t splits = CounterNow(Counter::kHugeSplits);
  ASSERT_TRUE(mm.Munmap(*va, 16 * kPageSize).ok());
  EXPECT_GE(CounterNow(Counter::kHugeSplits) - splits, 1u);
  // Bystander survives the split with its value.
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(mm, *va + 100 * kPageSize, &value).ok());
  EXPECT_EQ(value, 0x5151u);
  uint64_t probe = 0;
  EXPECT_FALSE(MmuSim::Read(mm, *va, &probe).ok());
}

TEST(LinuxHugeTest, ForkSplitsHugeLeavesAndCowWorks) {
  LinuxVmaMm::Options options;
  options.huge = true;
  auto mm = std::make_unique<LinuxVmaMm>(options);

  Result<Vaddr> va = mm->MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(*mm, *va, 99).ok());

  uint64_t splits = CounterNow(Counter::kHugeSplits);
  std::unique_ptr<MmInterface> child = mm->Fork();
  ASSERT_NE(child, nullptr);
  // Pre-THP fork: the huge leaf split so the COW demotion stays 4 KiB.
  EXPECT_GE(CounterNow(Counter::kHugeSplits) - splits, 1u);

  ASSERT_TRUE(MmuSim::Write(*child, *va, 199).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(*child, *va, &value).ok());
  EXPECT_EQ(value, 199u);
  ASSERT_TRUE(MmuSim::Read(*mm, *va, &value).ok());
  EXPECT_EQ(value, 99u);
}

TEST(LinuxHugeTest, HugeOffStays4K) {
  LinuxVmaMm mm;  // Default options: huge off.
  Result<Vaddr> va = mm.MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t huge_faults = CounterNow(Counter::kHugeFaults);
  uint64_t faults = CounterNow(Counter::kPageFaults);
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, kHugePageSize, /*write=*/true).ok());
  EXPECT_EQ(CounterNow(Counter::kHugeFaults) - huge_faults, 0u);
  EXPECT_EQ(CounterNow(Counter::kPageFaults) - faults, 1ull << kHugeOrder);
}

}  // namespace
}  // namespace cortenmm
