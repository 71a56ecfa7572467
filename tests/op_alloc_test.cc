// Heap traffic of one-page transactions. A counting global operator new (the
// only one in this binary) records the calling thread's allocations while a
// test arms it, so a steady-state COW fault or a map_churn-shaped op (16 KiB
// mmap, touch, mprotect, read, munmap) that reaches the heap through its TLB
// flush, its gather or its target walk shows up as a non-zero count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/common/cpu.h"
#include "src/sim/bench_util.h"
#include "src/sim/mm_interface.h"
#include "src/sim/mmu.h"

namespace {

thread_local constinit bool tls_counting = false;
thread_local constinit uint64_t tls_news = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (tls_counting) {
    ++tls_news;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cortenmm {
namespace {

// Operator-new calls |body| makes on this thread.
template <typename Body>
uint64_t CountNews(Body&& body) {
  tls_news = 0;
  tls_counting = true;
  body();
  tls_counting = false;
  return tls_news;
}

constexpr uint64_t kOps = 64;
constexpr uint64_t kWarmupOps = 8;

TEST(OpAllocTest, CowFaultsAllocateNothing) {
  BindThisThreadToCpu(0);
  constexpr uint64_t kPages = kWarmupOps + kOps;
  std::unique_ptr<MmInterface> parent = MakeMm(MmKind::kCortenAdv);
  Result<Vaddr> va = parent->MmapAnon(kPages * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(*parent, *va, kPages * kPageSize, /*write=*/true).ok());
  std::unique_ptr<MmInterface> child = parent->Fork();
  ASSERT_NE(child, nullptr);
  // Warm-up COW faults fill the lazily allocated per-CPU state (trace ring,
  // magazines, lock nodes) before counting starts.
  for (uint64_t p = 0; p < kWarmupOps; ++p) {
    ASSERT_TRUE(MmuSim::Write(*child, *va + p * kPageSize, p).ok());
  }
  bool ok = true;
  uint64_t news = CountNews([&] {
    for (uint64_t p = kWarmupOps; p < kPages; ++p) {
      ok &= MmuSim::Write(*child, *va + p * kPageSize, p).ok();
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(news, 0u) << "over " << kOps << " COW faults";
}

TEST(OpAllocTest, MapChurnOpsAllocateNothing) {
  BindThisThreadToCpu(0);
  constexpr uint64_t kPages = 4;
  constexpr uint64_t kLen = kPages * kPageSize;
  std::unique_ptr<MmInterface> mm = MakeMm(MmKind::kCortenAdv);
  auto op = [&mm](uint64_t value) {
    Result<Vaddr> va = mm->MmapAnon(kLen, Perm::RW());
    if (!va.ok()) {
      return false;
    }
    bool ok = true;
    for (uint64_t p = 0; p < kPages; ++p) {
      ok &= MmuSim::Write(*mm, *va + p * kPageSize, value + p).ok();
    }
    ok &= mm->Mprotect(*va, kLen, Perm::R()).ok();
    for (uint64_t p = 0; p < kPages; ++p) {
      uint64_t got = 0;
      ok &= MmuSim::Read(*mm, *va + p * kPageSize, &got).ok() && got == value + p;
    }
    return mm->Munmap(*va, kLen).ok() && ok;
  };
  for (uint64_t i = 0; i < kWarmupOps; ++i) {
    ASSERT_TRUE(op(i));
  }
  bool ok = true;
  uint64_t news = CountNews([&] {
    for (uint64_t i = 0; i < kOps; ++i) {
      ok &= op(i);
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(news, 0u) << "over " << kOps << " map_churn ops";
}

}  // namespace
}  // namespace cortenmm
