// Facade conformance: every manager the evaluation compares is driven purely
// through MmInterface — no downcasts — and capability gaps surface as
// kUnsupported (Fork: nullptr) rather than as missing methods. This pins the
// contract the benches rely on.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/backing.h"
#include "src/fault/fault_inject.h"
#include "src/obs/telemetry.h"
#include "src/sim/bench_util.h"
#include "src/sim/mmu.h"

namespace cortenmm {
namespace {

constexpr uint64_t kLen = 4 * kPageSize;

bool SupportsExtendedOps(MmKind kind) {
  return kind == MmKind::kCortenAdv || kind == MmKind::kCortenRw;
}

bool SupportsFork(MmKind kind) {
  return SupportsExtendedOps(kind) || kind == MmKind::kLinux;
}

class FacadeConformanceTest : public ::testing::TestWithParam<MmKind> {};

TEST_P(FacadeConformanceTest, CoreOpsWorkThroughTheFacade) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  ASSERT_NE(mm, nullptr);
  EXPECT_NE(std::string(mm->name()), "");

  Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());
  if (mm->demand_paging()) {
    for (uint64_t off = 0; off < kLen; off += kPageSize) {
      EXPECT_TRUE(mm->HandleFault(*va + off, Access::kWrite).ok());
    }
  }
  EXPECT_TRUE(mm->Mprotect(*va, kLen, Perm::R()).ok());
  EXPECT_TRUE(mm->Munmap(*va, kLen).ok());
}

// The Figure 16/17 kernel/user split sums the MmOp histograms, so every
// backend must record each facade entry point exactly once, on its outermost
// call.
TEST_P(FacadeConformanceTest, EntryPointsRecordOneOpSampleEach) {
  if (!CORTENMM_TELEMETRY) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  const Telemetry& telemetry = Telemetry::Instance();
  auto count = [&telemetry](MmOp op) {
    return telemetry.MergedOp(op).TotalCount();
  };
  const uint64_t mmaps = count(MmOp::kMmap);
  const uint64_t mprotects = count(MmOp::kMprotect);
  const uint64_t munmaps = count(MmOp::kMunmap);
  const uint64_t faults = count(MmOp::kFault);
  const uint64_t fault_ns = telemetry.MergedOp(MmOp::kFault).sum_ns;

  Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(*mm, *va, 1).ok());
  ASSERT_TRUE(mm->Mprotect(*va, kLen, Perm::R()).ok());
  ASSERT_TRUE(mm->Munmap(*va, kLen).ok());

  EXPECT_EQ(count(MmOp::kMmap), mmaps + 1);
  EXPECT_EQ(count(MmOp::kMprotect), mprotects + 1);
  EXPECT_EQ(count(MmOp::kMunmap), munmaps + 1);
  if (mm->demand_paging()) {  // NrOS maps eagerly: its write never faults.
    EXPECT_GE(count(MmOp::kFault), faults + 1);
    EXPECT_GT(telemetry.MergedOp(MmOp::kFault).sum_ns, fault_ns);
  }
}

TEST_P(FacadeConformanceTest, FileMappingsSupportedOrGated) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  SimFile* file = FileRegistry::Instance().CreateFile(4);

  Result<Vaddr> priv = mm->MmapFilePrivate(file, 0, kLen, Perm::RW());
  Result<Vaddr> shared = mm->MmapShared(file, 0, kLen, Perm::RW());
  if (SupportsExtendedOps(GetParam())) {
    ASSERT_TRUE(priv.ok());
    ASSERT_TRUE(shared.ok());
    EXPECT_TRUE(mm->Msync(*shared, kLen).ok());
    EXPECT_TRUE(mm->Munmap(*priv, kLen).ok());
    EXPECT_TRUE(mm->Munmap(*shared, kLen).ok());
  } else {
    ASSERT_FALSE(priv.ok());
    EXPECT_EQ(priv.error(), ErrCode::kUnsupported);
    ASSERT_FALSE(shared.ok());
    EXPECT_EQ(shared.error(), ErrCode::kUnsupported);
    Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
    ASSERT_TRUE(va.ok());
    VoidResult msync = mm->Msync(*va, kLen);
    ASSERT_FALSE(msync.ok());
    EXPECT_EQ(msync.error(), ErrCode::kUnsupported);
  }
}

TEST_P(FacadeConformanceTest, PkeyAndSwapSupportedOrGated) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());

  VoidResult pkey = mm->PkeyMprotect(*va, kLen, 1);
  if (SupportsExtendedOps(GetParam())) {
    EXPECT_TRUE(pkey.ok());
    // Make the pages resident so there is something to evict.
    for (uint64_t off = 0; off < kLen; off += kPageSize) {
      ASSERT_TRUE(mm->HandleFault(*va + off, Access::kWrite).ok());
    }
    Result<uint64_t> swapped = mm->SwapOut(*va, kLen);
    ASSERT_TRUE(swapped.ok());
    EXPECT_GE(*swapped, 1u);
  } else {
    ASSERT_FALSE(pkey.ok());
    EXPECT_EQ(pkey.error(), ErrCode::kUnsupported);
    Result<uint64_t> swapped = mm->SwapOut(*va, kLen);
    ASSERT_FALSE(swapped.ok());
    EXPECT_EQ(swapped.error(), ErrCode::kUnsupported);
  }
  EXPECT_TRUE(mm->Munmap(*va, kLen).ok());
}

TEST_P(FacadeConformanceTest, ForkSupportedOrNull) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());
  if (mm->demand_paging()) {
    ASSERT_TRUE(mm->HandleFault(*va, Access::kWrite).ok());
  }

  std::unique_ptr<MmInterface> child = mm->Fork();
  if (SupportsFork(GetParam())) {
    ASSERT_NE(child, nullptr);
    EXPECT_NE(child->asid(), mm->asid());
    // The child is a full manager: its inherited mapping faults and unmaps
    // through the same facade.
    EXPECT_TRUE(child->HandleFault(*va, Access::kWrite).ok());
    EXPECT_TRUE(child->Munmap(*va, kLen).ok());
    Result<Vaddr> child_va = child->MmapAnon(kLen, Perm::RW());
    EXPECT_TRUE(child_va.ok());
  } else {
    EXPECT_EQ(child, nullptr);
  }
  EXPECT_TRUE(mm->Munmap(*va, kLen).ok());
}

TEST_P(FacadeConformanceTest, FixedPlacementMapsAtTheRequestedAddress) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  constexpr Vaddr kFixedVa = 80ull << 30;

  Result<Vaddr> va = mm->MmapAnon(MmapArgs::At(kFixedVa, kLen, Perm::RW()));
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(*va, kFixedVa);
  EXPECT_TRUE(mm->HandleFault(kFixedVa, Access::kWrite).ok());

  // MAP_FIXED replacement: mapping over the live region succeeds and the
  // result is a fresh mapping at the same address.
  Result<Vaddr> again = mm->MmapAnon(MmapArgs::At(kFixedVa, kLen, Perm::RW()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, kFixedVa);
  EXPECT_TRUE(mm->HandleFault(kFixedVa, Access::kWrite).ok());
  EXPECT_TRUE(mm->Munmap(kFixedVa, kLen).ok());
}

// The HandleFault error-code contract (pinned in mm_interface.h): kOk when
// the VA lies in a mapping whose permissions allow the access, kFault both
// for VAs outside any mapping and for permission violations — never a third
// code, and identically across all four managers.
TEST_P(FacadeConformanceTest, FaultErrCodeContract) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());

  // Resolvable faults on an RW mapping: kOk for read and write.
  EXPECT_TRUE(mm->HandleFault(*va, Access::kWrite).ok());
  EXPECT_TRUE(mm->HandleFault(*va + kPageSize, Access::kRead).ok());
  // Exec on a mapping without exec permission: kFault, even though present.
  VoidResult exec = mm->HandleFault(*va, Access::kExec);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.error(), ErrCode::kFault);

  // After dropping to read-only: reads stay kOk, writes become kFault.
  ASSERT_TRUE(mm->Mprotect(*va, kLen, Perm::R()).ok());
  EXPECT_TRUE(mm->HandleFault(*va, Access::kRead).ok());
  VoidResult write = mm->HandleFault(*va, Access::kWrite);
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.error(), ErrCode::kFault);

  // A VA no mapping has ever covered.
  constexpr Vaddr kNowhere = 300ull << 30;
  VoidResult unmapped = mm->HandleFault(kNowhere, Access::kRead);
  ASSERT_FALSE(unmapped.ok());
  EXPECT_EQ(unmapped.error(), ErrCode::kFault);

  // After munmap the region is outside-any-mapping again.
  ASSERT_TRUE(mm->Munmap(*va, kLen).ok());
  VoidResult stale = mm->HandleFault(*va, Access::kRead);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error(), ErrCode::kFault);
}

#if CORTENMM_FAULTINJ

// Disarms the injector even when an EXPECT fails mid-test.
struct ScopedInjection {
  ~ScopedInjection() {
    FaultInjector::Instance().DisableAll();
    FaultInjector::Instance().ResetCounters();
  }
};

// The OOM contract every manager must honor through the facade: when the
// frame allocator refuses, an operation reports kNoMem (never crashes, never
// asserts), prior mappings are untouched, and the manager recovers fully once
// memory returns.
TEST_P(FacadeConformanceTest, NoMemSurfacesAsErrorNotCrash) {
  std::unique_ptr<MmInterface> mm = MakeMm(GetParam());
  ASSERT_NE(mm, nullptr);

  // Region A: established while memory is plentiful; must survive untouched.
  Result<Vaddr> a = mm->MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(a.ok());
  if (mm->demand_paging()) {
    for (uint64_t off = 0; off < kLen; off += kPageSize) {
      ASSERT_TRUE(mm->HandleFault(*a + off, Access::kWrite).ok());
    }
  }

  ScopedInjection disarm_on_exit;
  FaultConfig always;
  always.fail_after = 0;  // Every frame allocation fails.
  FaultInjector::Instance().Enable(FaultSite::kBuddyAllocFrame, always);
  FaultInjector::Instance().Enable(FaultSite::kBuddyAllocBlock, always);

  // Every facade op must come back ok or kNoMem — which one depends on
  // whether the manager's metadata path needed a fresh PT page, so only the
  // error-code discipline is pinned, not the split.
  auto ok_or_nomem = [](const VoidResult& r) {
    return r.ok() || r.error() == ErrCode::kNoMem;
  };
  Result<Vaddr> b = mm->MmapAnon(kLen, Perm::RW());
  EXPECT_TRUE(b.ok() || b.error() == ErrCode::kNoMem);
  bool b_faulted_in = true;
  if (b.ok() && mm->demand_paging()) {
    for (uint64_t off = 0; off < kLen; off += kPageSize) {
      VoidResult fault = mm->HandleFault(*b + off, Access::kWrite);
      EXPECT_TRUE(ok_or_nomem(fault));
      b_faulted_in = b_faulted_in && fault.ok();
    }
    // With every allocation failing, an anon fault cannot produce a frame.
    EXPECT_FALSE(b_faulted_in);
  }
  EXPECT_TRUE(ok_or_nomem(mm->Mprotect(*a, kLen, Perm::R())));
  EXPECT_TRUE(ok_or_nomem(mm->Mprotect(*a, kLen, Perm::RW())));
  // fork() needs a fresh page-table root, which cannot be had: every manager
  // must hand back nullptr, not a half-cloned child.
  EXPECT_EQ(mm->Fork(), nullptr);

  FaultInjector::Instance().DisableAll();

  // Recovery: region A is still fully usable, and whatever B's state is, the
  // manager completes the faults now that memory is back.
  if (mm->demand_paging()) {
    EXPECT_TRUE(mm->HandleFault(*a, Access::kWrite).ok());
  }
  if (b.ok()) {
    if (mm->demand_paging()) {
      for (uint64_t off = 0; off < kLen; off += kPageSize) {
        EXPECT_TRUE(mm->HandleFault(*b + off, Access::kWrite).ok());
      }
    }
    EXPECT_TRUE(mm->Munmap(*b, kLen).ok());
  }
  EXPECT_TRUE(mm->Munmap(*a, kLen).ok());
}

#endif  // CORTENMM_FAULTINJ

INSTANTIATE_TEST_SUITE_P(AllManagers, FacadeConformanceTest,
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

}  // namespace
}  // namespace cortenmm
