// Advanced memory-semantics tests (paper Table 2): reverse mapping, shared
// anonymous segments across fork, swap block sharing, file write-back
// visibility, huge-page lifecycles, on-demand paging edge cases, and the
// full-mm exit teardown.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/sync/rcu.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

AddrSpace::Options AdvOptions() {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  return options;
}

// ---------------------------------------------------------------------------
// Reverse mapping
// ---------------------------------------------------------------------------

TEST(ReverseMappingTest, AnonFrameRecordsOwnerSpaceAndVa) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 5).ok());

  // Find the frame via the page table, then check the descriptor's rmap.
  RCursor cursor = mm.vm().addr_space().Lock(VaRange(*va, *va + kPageSize));
  Status status = cursor.Query(*va);
  ASSERT_TRUE(status.mapped());
  PageDescriptor& desc = PhysMem::Instance().Descriptor(status.pfn);
  SpinGuard guard(desc.rmap_lock);
  EXPECT_EQ(desc.owner, &mm.vm().addr_space());
  EXPECT_EQ(desc.owner_key, *va);
  EXPECT_EQ(desc.type.load(), FrameType::kAnon);
}

TEST(ReverseMappingTest, FilePagesRecordFileAndIndex) {
  SimFile* file = FileRegistry::Instance().CreateFile(4);
  Result<Pfn> page = file->GetPage(2);
  ASSERT_TRUE(page.ok());
  PageDescriptor& desc = PhysMem::Instance().Descriptor(*page);
  SpinGuard guard(desc.rmap_lock);
  EXPECT_EQ(desc.owner, file);
  EXPECT_EQ(desc.owner_key, 2u);
  EXPECT_EQ(desc.type.load(), FrameType::kFileCache);
}

TEST(ReverseMappingTest, FileTracksMappingsForRmapWalks) {
  CortenVm a(AdvOptions());
  CortenVm b(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(16);
  Result<Vaddr> va_a = a.MmapFilePrivate(file, 0, 16 * kPageSize, Perm::R());
  Result<Vaddr> va_b = b.MmapFilePrivate(file, 4, 8 * kPageSize, Perm::R());
  ASSERT_TRUE(va_a.ok());
  ASSERT_TRUE(va_b.ok());

  // Page 6 is covered by both mappings; page 1 only by the first.
  EXPECT_EQ(file->MappingsOf(6).size(), 2u);
  EXPECT_EQ(file->MappingsOf(1).size(), 1u);
  // The rmap entries identify the exact (space, va) pairs.
  std::vector<FileMapping> hits = file->MappingsOf(6);
  bool saw_a = false;
  bool saw_b = false;
  for (const FileMapping& m : hits) {
    saw_a |= m.space == &a.vm().addr_space();
    saw_b |= m.space == &b.vm().addr_space();
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // Rmap entries go away with the mapping.
  file->RemoveMappings(&a.vm().addr_space(), *va_a);
  EXPECT_EQ(file->MappingsOf(6).size(), 1u);
}

// ---------------------------------------------------------------------------
// Shared anonymous segments
// ---------------------------------------------------------------------------

TEST(SharedAnonTest, SurvivesForkAndStaysCoherent) {
  CortenVm parent(AdvOptions());
  SimFile* segment = FileRegistry::Instance().CreateSharedAnonSegment(4);
  Result<Vaddr> va = parent.MmapShared(segment, 0, 4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 111).ok());

  // Fork through the facade: the child is itself a full MmInterface.
  std::unique_ptr<MmInterface> child = parent.Fork();
  ASSERT_NE(child, nullptr);

  // Shared mapping: the child's write must be visible to the parent (no COW).
  ASSERT_TRUE(MmuSim::Write(*child, *va, 222).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(parent, *va, &value).ok());
  EXPECT_EQ(value, 222u);
}

TEST(SharedAnonTest, MprotectAfterForkBreaksSharingCorrectly) {
  // Regression: a *read-only* private page shared by fork must still carry
  // the COW mark, or mprotect(RW)+write in one space corrupts the other.
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 1234).ok());
  ASSERT_TRUE(parent.Mprotect(*va, kPageSize, Perm::R()).ok());  // Now read-only.

  std::unique_ptr<VmSpace> child_vm = parent.vm().Fork();
  // Child re-enables writes and scribbles; the parent's view must not change.
  ASSERT_TRUE(child_vm->Mprotect(*va, kPageSize, Perm::RW()).ok());
  RCursor cursor = child_vm->addr_space().Lock(VaRange(*va, *va + kPageSize));
  Status status = cursor.Query(*va);
  ASSERT_TRUE(status.mapped());
  EXPECT_TRUE(status.perm.cow()) << "read-only private page lost its COW mark in fork";
}

// ---------------------------------------------------------------------------
// Swap semantics
// ---------------------------------------------------------------------------

TEST(SwapTest, ForkSharesSwapBlocks) {
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(2 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 4242).ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va + kPageSize, 4343).ok());
  Result<uint64_t> swapped = parent.SwapOut(*va, 2 * kPageSize);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(*swapped, 2u);

  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  std::unique_ptr<MmInterface> child = parent.Fork();
  ASSERT_NE(child, nullptr);
  // Fork shares the swapped pages via block refcounts: no new blocks.
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);

  // Both sides can fault their copy back in independently.
  ASSERT_TRUE(parent.HandleFault(*va, Access::kRead).ok());
  ASSERT_TRUE(child->HandleFault(*va, Access::kRead).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(parent, *va, &value).ok());
  EXPECT_EQ(value, 4242u);
}

// Every way a Swapped mark can die gives its blocks back: the mark holds one
// block reference per page, and the cursor drops it wherever the mark is
// erased or overwritten.
class SwapMarkReleaseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SwapMarkReleaseTest, BlocksReturnToBaseline) {
  constexpr uint64_t kLen = 4 * kPageSize;
  SwapDevice& swap = SwapDevice::Instance();
  uint64_t baseline = swap.blocks_in_use();
  auto mm = std::make_unique<CortenVm>(AdvOptions());
  Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(*mm, *va, kLen, true).ok());
  ASSERT_EQ(mm->SwapOut(*va, kLen).value_or(0), 4u);
  ASSERT_EQ(swap.blocks_in_use(), baseline + 4);

  const std::string& way = GetParam();
  if (way == "Munmap") {
    ASSERT_TRUE(mm->Munmap(*va, kLen).ok());
  } else if (way == "MapFixed") {
    ASSERT_TRUE(mm->vm().MmapAnonAt(*va, kLen, Perm::RW()).ok());
  } else if (way == "RingMunmap" || way == "RingMmapFixed") {
    MmOpCode op = way == "RingMunmap" ? MmOpCode::kMunmap : MmOpCode::kMmapAnonFixed;
    MmSqe sqe{.op = op, .perm = Perm::RW(), .va = *va, .len = kLen};
    MmCqe cqe;
    ASSERT_TRUE(mm->vm().TryExecuteFused(&sqe, &cqe, 1));
    ASSERT_EQ(cqe.err, ErrCode::kOk);
  } else if (way == "SwapInFault") {
    ASSERT_TRUE(MmuSim::TouchRange(*mm, *va, kLen, false).ok());
  } else {  // DestroySpace; ForkThenExits first forks a child and exits it.
    if (way == "ForkThenExits") {
      std::unique_ptr<VmSpace> child = mm->vm().Fork();
      ASSERT_NE(child, nullptr);
      child.reset();
      EXPECT_EQ(swap.blocks_in_use(), baseline + 4) << "child exit freed shared blocks";
    }
    mm.reset();
  }
  EXPECT_EQ(swap.blocks_in_use(), baseline);
}

INSTANTIATE_TEST_SUITE_P(EveryWay, SwapMarkReleaseTest,
                         ::testing::Values("Munmap", "MapFixed", "RingMunmap", "RingMmapFixed",
                                           "SwapInFault", "DestroySpace", "ForkThenExits"),
                         [](const auto& info) { return info.param; });

TEST(SwapTest, SwapSkipsSharedCowPages) {
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 9).ok());
  std::unique_ptr<MmInterface> child = parent.Fork();
  // The page is mapcount 2 (COW-shared): SwapOut must leave it alone.
  Result<uint64_t> swapped = parent.SwapOut(*va, kPageSize);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(*swapped, 0u);
}

// ---------------------------------------------------------------------------
// File mappings
// ---------------------------------------------------------------------------

TEST(FileMappingTest, SharedFileWritesHitThePageCache) {
  CortenVm mm(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(4);
  Result<Vaddr> va = mm.MmapShared(file, 0, 4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 0x5eed).ok());
  ASSERT_TRUE(mm.Msync(*va, 4 * kPageSize).ok());

  // The cache frame *is* the file: a second mapping observes the write.
  CortenVm other(AdvOptions());
  Result<Vaddr> va2 = other.MmapShared(file, 0, 4 * kPageSize, Perm::R());
  ASSERT_TRUE(va2.ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(other, *va2, &value).ok());
  EXPECT_EQ(value, 0x5eedu);
}

TEST(FileMappingTest, PrivateMapUnaffectedByLaterCacheWrites) {
  CortenVm reader(AdvOptions());
  CortenVm writer(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(2);
  Result<Vaddr> rva = reader.MmapFilePrivate(file, 0, kPageSize, Perm::RW());
  ASSERT_TRUE(rva.ok());
  // Private write: breaks to a private copy immediately.
  ASSERT_TRUE(MmuSim::Write(reader, *rva, 0x1111).ok());

  Result<Vaddr> wva = writer.MmapShared(file, 0, kPageSize, Perm::RW());
  ASSERT_TRUE(wva.ok());
  ASSERT_TRUE(MmuSim::Write(writer, *wva, 0x2222).ok());

  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(reader, *rva, &value).ok());
  EXPECT_EQ(value, 0x1111u);  // Still the private copy.
}

TEST(FileMappingTest, OffsetMappingsReadTheRightPages) {
  CortenVm mm(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(64);
  // Map pages [32, 40).
  Result<Vaddr> va = mm.MmapFilePrivate(file, 32, 8 * kPageSize, Perm::R());
  ASSERT_TRUE(va.ok());
  for (int i = 0; i < 8; ++i) {
    uint64_t value = 0;
    ASSERT_TRUE(MmuSim::Read(mm, *va + i * kPageSize, &value).ok());
    uint64_t expected = 0;
    uint64_t file_offset = static_cast<uint64_t>(32 + i) * kPageSize;
    for (int byte = 7; byte >= 0; --byte) {
      expected = (expected << 8) | SimFile::ContentByte(file->id(), file_offset + byte);
    }
    EXPECT_EQ(value, expected) << "page " << i;
  }
}

// ---------------------------------------------------------------------------
// On-demand paging edge cases
// ---------------------------------------------------------------------------

TEST(OnDemandTest, ReadBeforeWriteZeroFills) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t faults = GlobalStats().Total(Counter::kDemandZeroFills);
  uint64_t value = 0xffff;
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(GlobalStats().Total(Counter::kDemandZeroFills), faults + 1);
  // The second access takes no fault.
  ASSERT_TRUE(MmuSim::Write(mm, *va, 3).ok());
  EXPECT_EQ(GlobalStats().Total(Counter::kDemandZeroFills), faults + 1);
}

TEST(OnDemandTest, ExecFaultOnNoExecPage) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());  // rw-, no exec.
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 1).ok());
  EXPECT_EQ(MmuSim::Access(mm, *va, Access::kExec).error(), ErrCode::kFault);
}

TEST(OnDemandTest, HugeRegionMarksStayCoarseUntilTouched) {
  CortenVm mm(AdvOptions());
  uint64_t pt_before = GlobalStats().Total(Counter::kPtPagesAllocated) -
                       GlobalStats().Total(Counter::kPtPagesFreed);
  // 1 GiB mapping: should cost O(1) PT pages until pages are touched.
  Result<Vaddr> va = mm.MmapAnon(1ull << 30, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t pt_after_mmap = GlobalStats().Total(Counter::kPtPagesAllocated) -
                           GlobalStats().Total(Counter::kPtPagesFreed);
  EXPECT_LE(pt_after_mmap - pt_before, 8u);
  ASSERT_TRUE(MmuSim::Write(mm, *va + (512ull << 20), 1).ok());
  ASSERT_TRUE(mm.Munmap(*va, 1ull << 30).ok());
}

// ---------------------------------------------------------------------------
// Exit: the full-mm teardown of a dying space
// ---------------------------------------------------------------------------

uint64_t CounterNow(Counter c) { return GlobalStats().Total(c); }

Pfn PfnAt(CortenVm& mm, Vaddr va) {
  RCursor cursor = mm.vm().addr_space().Lock(VaRange(va, va + kPageSize));
  Status status = cursor.Query(va);
  EXPECT_TRUE(status.mapped());
  return status.pfn;
}

using FrameCounts = FrameRefs;

FrameCounts CountsOf(Pfn pfn) { return PhysMem::Instance().Descriptor(pfn).Counts(); }

TEST(ExitTest, ChildExitRestoresSharedFrameCounts) {
  constexpr uint64_t kPages = 16;
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPages * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(parent, *va, kPages * kPageSize, /*write=*/true).ok());
  std::vector<Pfn> frames;
  std::vector<FrameCounts> before;
  for (uint64_t p = 0; p < kPages; ++p) {
    frames.push_back(PfnAt(parent, *va + p * kPageSize));
    before.push_back(CountsOf(frames.back()));
  }
  {
    std::unique_ptr<MmInterface> child = parent.Fork();
    ASSERT_NE(child, nullptr);
    // The child copies every even page away and keeps sharing the odd ones.
    for (uint64_t p = 0; p < kPages; p += 2) {
      ASSERT_TRUE(MmuSim::Write(*child, *va + p * kPageSize, 7).ok());
    }
    EXPECT_EQ(CountsOf(frames[1]), (FrameCounts{before[1].refcount + 1, before[1].mapcount + 1}));
  }
  for (uint64_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(CountsOf(frames[p]), before[p]) << "page " << p;
  }
  // The parent is the sole mapper again: its write takes write access back
  // in place (SetLeafPerm) instead of copying.
  uint64_t cow_faults = CounterNow(Counter::kCowFaults);
  uint64_t allocated = CounterNow(Counter::kFramesAllocated);
  ASSERT_TRUE(MmuSim::Write(parent, *va + kPageSize, 9).ok());
  EXPECT_EQ(CounterNow(Counter::kCowFaults) - cow_faults, 1u);
  EXPECT_EQ(CounterNow(Counter::kFramesAllocated) - allocated, 0u);
  EXPECT_EQ(PfnAt(parent, *va + kPageSize), frames[1]);
}

TEST(ExitTest, HugeLeafChildFreesItsRunAsOneBlock) {
  AddrSpace::Options options = AdvOptions();
  options.huge_pages = true;
  auto parent = std::make_unique<CortenVm>(options);
  Result<Vaddr> va = parent->MmapAnon(kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(*parent, *va, 1).ok());
  {
    RCursor cursor = parent->vm().addr_space().Lock(VaRange(*va, *va + kHugePageSize));
    ASSERT_EQ(cursor.Query(*va).level, 2);
  }
  std::unique_ptr<MmInterface> child = parent->Fork();
  ASSERT_NE(child, nullptr);
  parent.reset();  // The child now holds the run's only references.
  uint64_t huge_frees = CounterNow(Counter::kHugeFrees);
  child.reset();
  EXPECT_EQ(CounterNow(Counter::kHugeFrees) - huge_frees, 1u);
}

TEST(ExitTest, PopulatedExitIsOneShootdownAndFreesEveryPtPage) {
  auto mm = std::make_unique<CortenVm>(AdvOptions());
  Result<Vaddr> va = mm->MmapAnon(1024 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(*mm, *va, 1024 * kPageSize, /*write=*/true).ok());
  ASSERT_TRUE(mm->Munmap(*va + 512 * kPageSize, 256 * kPageSize).ok());
  uint64_t pt_pages = mm->vm().addr_space().page_table().CountPtPages();
  // Settle the munmap's deferred frees first so only the exit is counted.
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  uint64_t shootdowns = CounterNow(Counter::kTlbShootdowns);
  uint64_t pt_freed = CounterNow(Counter::kPtPagesFreed);
  uint64_t retired = CounterNow(Counter::kRcuRetired);
  mm.reset();
  EXPECT_EQ(CounterNow(Counter::kTlbShootdowns) - shootdowns, 1u);
  EXPECT_EQ(CounterNow(Counter::kPtPagesFreed) - pt_freed, pt_pages);
  EXPECT_EQ(CounterNow(Counter::kRcuRetired) - retired, 0u);
}

TEST(ExitTest, LatrExitLeavesNoEntryInAnyActiveTlb) {
  constexpr uint64_t kPages = 8;
  AddrSpace::Options options = AdvOptions();
  options.tlb_policy = TlbPolicy::kLatr;
  auto mm = std::make_unique<CortenVm>(options);
  Result<Vaddr> va = mm->MmapAnon(kPages * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  const CpuId cpus[] = {6, 7};
  for (CpuId cpu : cpus) {
    BindThisThreadToCpu(cpu);
    ASSERT_TRUE(MmuSim::TouchRange(*mm, *va, kPages * kPageSize, /*write=*/true).ok());
  }
  const Asid asid = mm->asid();
  for (CpuId cpu : cpus) {
    for (uint64_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(TlbSystem::Instance().CpuTlb(cpu).Lookup(asid, *va + p * kPageSize))
          << "cpu " << cpu << " page " << p;
    }
  }
  mm.reset();
  for (CpuId cpu : cpus) {
    for (uint64_t p = 0; p < kPages; ++p) {
      EXPECT_FALSE(TlbSystem::Instance().CpuTlb(cpu).Lookup(asid, *va + p * kPageSize))
          << "cpu " << cpu << " page " << p;
    }
  }
}

// A fork that runs out of memory part-way through CloneSubtree destroys the
// half-built child through the same teardown; every frame reference, swap
// block reference and PT page the clone took must come back.
TEST(ExitTest, PartialCloneTearsDownLeakFree) {
#if !CORTENMM_FAULTINJ
  GTEST_SKIP() << "fault injection compiled out";
#else
  constexpr uint64_t kPages = 1024;  // Spans at least two leaf PT pages.
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();
  uint64_t baseline_blocks = SwapDevice::Instance().blocks_in_use();
  {
    CortenVm parent(AdvOptions());
    Result<Vaddr> va = parent.MmapAnon(kPages * kPageSize, Perm::RW());
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(MmuSim::TouchRange(parent, *va, kPages * kPageSize, /*write=*/true).ok());
    ASSERT_EQ(parent.SwapOut(*va, 4 * kPageSize).value_or(0), 4u);
    std::vector<Pfn> frames;
    std::vector<FrameCounts> before;
    for (uint64_t p = 4; p < kPages; ++p) {
      frames.push_back(PfnAt(parent, *va + p * kPageSize));
      before.push_back(CountsOf(frames.back()));
    }
    // Frame allocation fail_after + 1 of the fork fails. The child's root is
    // the first and the clone's PT pages follow in tree order (L3, L2, then
    // the leaf pages), so a failed fork that allocated four or more had
    // already cloned a leaf page's mappings.
    bool partial_clone_seen = false;
    for (uint64_t fail_after = 0; fail_after < 8; ++fail_after) {
      uint64_t pt_allocated = CounterNow(Counter::kPtPagesAllocated);
      FaultInjector::Instance().Enable(FaultSite::kBuddyAllocFrame,
                                       FaultConfig{.fail_after = fail_after,
                                                   .max_injections = 1});
      std::unique_ptr<VmSpace> child = parent.vm().Fork();
      FaultInjector::Instance().DisableAll();
      partial_clone_seen |=
          child == nullptr && CounterNow(Counter::kPtPagesAllocated) - pt_allocated >= 4;
      child.reset();
      for (size_t i = 0; i < frames.size(); ++i) {
        ASSERT_EQ(CountsOf(frames[i]), before[i]) << "fail_after " << fail_after;
      }
    }
    EXPECT_TRUE(partial_clone_seen);
    WfReport report = CheckWellFormed(parent.vm().addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
  }
  // A block reference the teardown missed keeps its block past the parent.
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), baseline_blocks);
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
#endif
}

// The clone publishes the child's resident count once per PT page, on its
// error returns too: the count equals what the child's tree maps after a
// whole clone and after every partial one.
TEST(ExitTest, CloneKeepsResidentCountExact) {
  constexpr uint64_t kPages = 1024;  // Spans at least two leaf PT pages.
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPages * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(parent, *va, kPages * kPageSize, /*write=*/true).ok());
  {
    std::unique_ptr<VmSpace> child = parent.vm().Fork();
    ASSERT_NE(child, nullptr);
    WfReport report = CheckWellFormed(child->addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
    EXPECT_EQ(report.resident_pages, kPages);
    EXPECT_EQ(child->addr_space().ResidentPagesFast(), report.resident_pages);
  }
#if CORTENMM_FAULTINJ
  // The child exists before injection starts, so allocation fail_after + 1
  // is the clone's own: L3, L2, then the leaf PT pages in tree order.
  bool partial_clone_seen = false;
  for (uint64_t fail_after = 0; fail_after < 8; ++fail_after) {
    Result<std::unique_ptr<VmSpace>> child = VmSpace::Create(AdvOptions());
    ASSERT_TRUE(child.ok());
    AddrSpace& child_space = (*child)->addr_space();
    FaultInjector::Instance().Enable(FaultSite::kBuddyAllocFrame,
                                     FaultConfig{.fail_after = fail_after,
                                                 .max_injections = 1});
    {
      RCursor parent_cursor = parent.vm().addr_space().Lock(VaRange(0, kVaLimit));
      RCursor child_cursor = child_space.Lock(VaRange(0, kVaLimit));
      (void)parent_cursor.CloneInto(child_cursor);
    }
    FaultInjector::Instance().DisableAll();
    WfReport report = CheckWellFormed(child_space);
    EXPECT_TRUE(report.ok) << "fail_after " << fail_after << ": " << report.first_error;
    EXPECT_EQ(child_space.ResidentPagesFast(), report.resident_pages)
        << "fail_after " << fail_after;
    partial_clone_seen |= report.resident_pages > 0 && report.resident_pages < kPages;
  }
  EXPECT_TRUE(partial_clone_seen);
#endif
}

// Exit runs an RCU grace period only for a space that retired PT pages: a
// fork child that only took COW faults skips it, and a space that unmapped a
// whole PT page still drains what it parked in the RCU monitor.
TEST(ExitTest, OnlyASpaceThatRetiredPtPagesWaitsForAGracePeriod) {
  if (!CORTENMM_TELEMETRY) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  auto grace_periods = [] {
    return Telemetry::Instance().MergedPhase(LockPhase::kRcuSynchronize).TotalCount();
  };
  constexpr uint64_t kPages = 64;
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPages * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(parent, *va, kPages * kPageSize, /*write=*/true).ok());
  uint64_t before = grace_periods();
  {
    std::unique_ptr<MmInterface> child = parent.Fork();
    ASSERT_NE(child, nullptr);
    for (uint64_t p = 0; p < kPages; p += 8) {
      ASSERT_TRUE(MmuSim::Write(*child, *va + p * kPageSize, p).ok());
    }
  }
  EXPECT_EQ(grace_periods(), before);

  {
    CortenVm mm(AdvOptions());
    Result<Vaddr> region = mm.MmapAnon(2 * kHugePageSize, Perm::RW());
    ASSERT_TRUE(region.ok());
    Vaddr huge = AlignUp(*region, kHugePageSize);
    ASSERT_TRUE(MmuSim::Write(mm, huge, 1).ok());
    // The whole 2 MiB slot goes, so its leaf PT page is retired.
    ASSERT_TRUE(mm.Munmap(huge, kHugePageSize).ok());
    EXPECT_GT(Rcu::Instance().PendingCount(), 0u);
  }
  EXPECT_GT(grace_periods(), before);
  EXPECT_EQ(Rcu::Instance().PendingCount(), 0u);
}

}  // namespace
}  // namespace cortenmm
