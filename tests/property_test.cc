// Property-based tests: randomized operation sequences checked against simple
// oracles, parameterized (TEST_P) over protocol x arch x seed.
//
//   P-A  MM-vs-oracle: a random mmap/munmap/mprotect/touch/swap sequence on a
//        CortenMM space must leave exactly the pages the oracle says, with
//        exactly the contents the oracle says, and a well-formed page table.
//   P-B  Buddy integrity: random alloc/free of random orders never hands out
//        overlapping blocks and restores the free count.
//   P-C  VA allocator: allocations never overlap, frees are reusable.
//   P-D  Model checker: randomized thread/target configurations all satisfy
//        the protocol invariants.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/common/rng.h"
#include "src/core/vm_space.h"
#include "src/pmm/buddy.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/verif/tree_model.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

// ---------------------------------------------------------------------------
// P-A: randomized MM operations vs. an oracle
// ---------------------------------------------------------------------------

struct FuzzParam {
  Protocol protocol;
  Arch arch;
  uint64_t seed;
};

class MmFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MmFuzzTest, RandomOpsMatchOracle) {
  AddrSpace::Options options;
  options.protocol = GetParam().protocol;
  options.arch = GetParam().arch;
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  auto owner = std::make_unique<CortenVm>(options);
  CortenVm& mm = *owner;
  Rng rng(GetParam().seed);

  // The oracle: per-page expected state. Absent = unmapped; value pair is
  // (expected word, writable).
  struct PageState {
    uint64_t value = 0;
    bool touched = false;  // False: would demand-zero on read.
    bool writable = true;
  };
  std::map<Vaddr, PageState> oracle;  // Key: page VA. Present = mmapped.

  constexpr Vaddr kBase = 40ull << 30;
  constexpr uint64_t kArenaPages = 512;
  constexpr int kOps = 600;

  auto page_at = [&](uint64_t index) { return kBase + index * kPageSize; };

  for (int op = 0; op < kOps; ++op) {
    uint64_t start = rng.Below(kArenaPages);
    uint64_t len = 1 + rng.Below(8);
    if (start + len > kArenaPages) {
      len = kArenaPages - start;
    }
    Vaddr va = page_at(start);
    switch (rng.Below(6)) {
      case 0: {  // mmap (fixed, replaces)
        ASSERT_TRUE(mm.MmapAnon(MmapArgs::At(va, len * kPageSize, Perm::RW())).ok());
        for (uint64_t p = 0; p < len; ++p) {
          oracle[va + p * kPageSize] = PageState{};
        }
        break;
      }
      case 1: {  // munmap
        ASSERT_TRUE(mm.Munmap(va, len * kPageSize).ok());
        for (uint64_t p = 0; p < len; ++p) {
          oracle.erase(va + p * kPageSize);
        }
        break;
      }
      case 2: {  // write touch
        for (uint64_t p = 0; p < len; ++p) {
          Vaddr page = va + p * kPageSize;
          auto it = oracle.find(page);
          uint64_t value = rng.Next();
          VoidResult r = MmuSim::Write(mm, page, value);
          if (it != oracle.end() && it->second.writable) {
            ASSERT_TRUE(r.ok()) << "write to mapped+writable page failed";
            it->second.value = value;
            it->second.touched = true;
          } else {
            ASSERT_FALSE(r.ok()) << "write to unmapped/read-only page succeeded";
          }
        }
        break;
      }
      case 3: {  // read touch
        for (uint64_t p = 0; p < len; ++p) {
          Vaddr page = va + p * kPageSize;
          auto it = oracle.find(page);
          uint64_t value = 0;
          VoidResult r = MmuSim::Read(mm, page, &value);
          if (it != oracle.end()) {
            ASSERT_TRUE(r.ok());
            ASSERT_EQ(value, it->second.touched ? it->second.value : 0)
                << "page " << std::hex << page;
          } else {
            ASSERT_FALSE(r.ok());
          }
        }
        break;
      }
      case 4: {  // mprotect toggle
        bool writable = rng.Chance(1, 2);
        ASSERT_TRUE(
            mm.Mprotect(va, len * kPageSize, writable ? Perm::RW() : Perm::R()).ok());
        for (uint64_t p = 0; p < len; ++p) {
          auto it = oracle.find(va + p * kPageSize);
          if (it != oracle.end()) {
            it->second.writable = writable;
          }
        }
        break;
      }
      case 5: {  // swap out (contents must survive)
        Result<uint64_t> swapped = mm.SwapOut(va, len * kPageSize);
        ASSERT_TRUE(swapped.ok());
        break;
      }
    }
    if (op % 50 == 49) {
      WfReport report = CheckWellFormed(mm.vm().addr_space());
      ASSERT_TRUE(report.ok) << "after op " << op << ": " << report.first_error;
    }
  }

  // Final sweep: every oracle page reads back exactly; every non-oracle page
  // in the arena faults.
  for (uint64_t p = 0; p < kArenaPages; ++p) {
    Vaddr page = page_at(p);
    auto it = oracle.find(page);
    uint64_t value = 0;
    VoidResult r = MmuSim::Read(mm, page, &value);
    if (it != oracle.end()) {
      ASSERT_TRUE(r.ok()) << "page " << std::hex << page;
      ASSERT_EQ(value, it->second.touched ? it->second.value : 0)
          << "page " << std::hex << page;
    } else {
      ASSERT_FALSE(r.ok()) << "page " << std::hex << page;
    }
  }
  WfReport report = CheckWellFormed(mm.vm().addr_space());
  EXPECT_TRUE(report.ok) << report.first_error;
  // Every Swapped mark the sequence left behind dies with the space.
  owner.reset();
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MmFuzzTest,
    ::testing::Values(FuzzParam{Protocol::kRw, Arch::kX86_64, 1},
                      FuzzParam{Protocol::kAdv, Arch::kX86_64, 1},
                      FuzzParam{Protocol::kRw, Arch::kRiscvSv48, 2},
                      FuzzParam{Protocol::kAdv, Arch::kRiscvSv48, 2},
                      FuzzParam{Protocol::kAdv, Arch::kX86_64, 3},
                      FuzzParam{Protocol::kAdv, Arch::kX86_64, 4},
                      FuzzParam{Protocol::kRw, Arch::kX86_64, 5},
                      FuzzParam{Protocol::kAdv, Arch::kX86_64, 6}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      std::string name = info.param.protocol == Protocol::kRw ? "rw" : "adv";
      name += info.param.arch == Arch::kX86_64 ? "_x86_" : "_riscv_";
      name += std::to_string(info.param.seed);
      return name;
    });

// ---------------------------------------------------------------------------
// P-B: buddy allocator integrity under random order churn
// ---------------------------------------------------------------------------

class BuddyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyFuzzTest, RandomOrderChurnNeverOverlaps) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  Rng rng(GetParam());
  struct Block {
    Pfn pfn;
    int order;
  };
  std::vector<Block> live;
  std::set<Pfn> owned;  // Every frame of every live block.

  for (int op = 0; op < 400; ++op) {
    if (live.empty() || rng.Chance(3, 5)) {
      int order = static_cast<int>(rng.Below(6));
      Result<Pfn> block = buddy.AllocBlock(order);
      ASSERT_TRUE(block.ok());
      EXPECT_TRUE(IsAligned(*block, 1ull << order));
      for (uint64_t f = 0; f < (1ull << order); ++f) {
        ASSERT_TRUE(owned.insert(*block + f).second)
            << "frame " << (*block + f) << " double-allocated";
      }
      live.push_back(Block{*block, order});
    } else {
      size_t victim = rng.Below(live.size());
      Block block = live[victim];
      live[victim] = live.back();
      live.pop_back();
      for (uint64_t f = 0; f < (1ull << block.order); ++f) {
        owned.erase(block.pfn + f);
      }
      buddy.FreeBlock(block.pfn, block.order);
    }
  }
  for (const Block& block : live) {
    buddy.FreeBlock(block.pfn, block.order);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyFuzzTest, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// P-C: VA allocator never hands out overlapping ranges
// ---------------------------------------------------------------------------

class VaAllocFuzzTest : public ::testing::TestWithParam<bool> {};

TEST_P(VaAllocFuzzTest, NoOverlapAndReuse) {
  VaAllocator alloc(/*per_core=*/GetParam());
  Rng rng(77);
  struct Run {
    Vaddr va;
    uint64_t len;
  };
  std::vector<Run> live;
  for (int op = 0; op < 500; ++op) {
    if (live.empty() || rng.Chance(2, 3)) {
      uint64_t len = (1 + rng.Below(64)) * kPageSize;
      Result<Vaddr> va = alloc.Alloc(len);
      ASSERT_TRUE(va.ok());
      for (const Run& run : live) {
        EXPECT_FALSE(VaRange(*va, *va + len).Overlaps(VaRange(run.va, run.va + run.len)))
            << "allocator returned overlapping ranges";
      }
      live.push_back(Run{*va, len});
    } else {
      size_t victim = rng.Below(live.size());
      alloc.Free(live[victim].va, live[victim].len);
      live[victim] = live.back();
      live.pop_back();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, VaAllocFuzzTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "per_core" : "shared";
                         });

// ---------------------------------------------------------------------------
// P-D: randomized model-checking configurations
// ---------------------------------------------------------------------------

class ModelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelFuzzTest, RandomConfigsSatisfyInvariants) {
  Rng rng(GetParam());
  // Random 2-thread configurations on a depth-3 tree (7 pages).
  for (int round = 0; round < 6; ++round) {
    int t0 = static_cast<int>(rng.Below(7));
    int t1 = static_cast<int>(rng.Below(7));
    {
      RwProtocolModel model(3, {{t0}, {t1}});
      ModelCheckResult result = ModelChecker::Run(model, 5'000'000);
      EXPECT_TRUE(result.ok) << "rw targets " << t0 << "," << t1 << ": "
                             << result.violation << result.deadlock_state;
    }
    {
      AdvProtocolModel model(3, {{t0, -1}, {t1, -1}});
      ModelCheckResult result = ModelChecker::Run(model, 5'000'000);
      EXPECT_TRUE(result.ok) << "adv targets " << t0 << "," << t1 << ": "
                             << result.violation << result.deadlock_state;
    }
    // Unmapper variant when a child of t0 exists.
    ModelTree tree{3};
    if (!tree.IsLeaf(t0)) {
      int child = ModelTree::LeftChild(t0) + static_cast<int>(rng.Below(2));
      AdvProtocolModel model(3, {{t0, child}, {t1, -1}});
      ModelCheckResult result = ModelChecker::Run(model, 5'000'000);
      EXPECT_TRUE(result.ok) << "adv unmap " << t0 << "->" << child << " vs " << t1
                             << ": " << result.violation << result.deadlock_state;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFuzzTest, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace cortenmm
