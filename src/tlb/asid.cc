#include "src/tlb/asid.h"

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/sync/spinlock.h"

namespace cortenmm {
namespace {

constexpr uint32_t kAsidCount = uint32_t{std::numeric_limits<Asid>::max()} + 1;
constexpr uint32_t kWords = kAsidCount / 64;

// A set bit is a live ASID. The search starts at the word of the last
// allocation, so it stays O(1) while most ASIDs are free.
struct AsidPool {
  SpinLock lock;
  uint64_t live[kWords] = {1};  // ASID 0 is reserved.
  uint32_t next_word = 0;
};

AsidPool& Pool() {
  static AsidPool pool;
  return pool;
}

}  // namespace

Asid AllocAsid() {
  AsidPool& pool = Pool();
  SpinGuard guard(pool.lock);
  for (uint32_t n = 0; n < kWords; ++n) {
    uint32_t word = (pool.next_word + n) % kWords;
    uint64_t free_bits = ~pool.live[word];
    if (free_bits != 0) {
      int bit = __builtin_ctzll(free_bits);
      pool.live[word] |= 1ull << bit;
      pool.next_word = word;
      return static_cast<Asid>(word * 64 + bit);
    }
  }
  std::fprintf(stderr, "cortenmm: all %u ASIDs are live\n", kAsidCount - 1);
  std::abort();
}

void FreeAsid(Asid asid) {
  AsidPool& pool = Pool();
  SpinGuard guard(pool.lock);
  uint64_t bit = 1ull << (asid % 64);
  assert(asid != 0 && (pool.live[asid / 64] & bit) && "freeing an ASID that is not live");
  pool.live[asid / 64] &= ~bit;
}

}  // namespace cortenmm
