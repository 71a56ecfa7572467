// Core address/page types shared by every subsystem.
//
// The simulated machine is a 48-bit virtual / 52-bit physical x86-64-like
// machine with 4 KiB base pages and a 4-level radix page table (512 entries
// per level). RISC-V Sv48 shares the same geometry, which is exactly the
// observation CortenMM builds on (§3.2 of the paper).
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace cortenmm {

using Vaddr = uint64_t;  // Virtual address.
using Paddr = uint64_t;  // Physical address.
using Pfn = uint64_t;    // Physical frame number (Paddr >> kPageBits).

inline constexpr uint64_t kPageBits = 12;
inline constexpr uint64_t kPageSize = 1ull << kPageBits;          // 4 KiB
inline constexpr uint64_t kPteIndexBits = 9;
inline constexpr uint64_t kPtesPerPage = 1ull << kPteIndexBits;   // 512
inline constexpr int kPtLevels = 4;                               // 4-level radix tree
inline constexpr uint64_t kVaBits = kPageBits + kPtLevels * kPteIndexBits;  // 48
inline constexpr Vaddr kVaLimit = 1ull << kVaBits;                // 256 TiB

// An entry at level L (1 = leaf level, kPtLevels = root level) spans this
// many bytes of virtual address space. A PT *page* at level L spans
// EntrySpan(L) * 512.
constexpr uint64_t PtEntrySpan(int level) {
  return kPageSize << (kPteIndexBits * (level - 1));
}

constexpr uint64_t PtPageSpan(int level) { return PtEntrySpan(level) * kPtesPerPage; }

// Index into the level-L page table page for |va|.
constexpr uint64_t PtIndex(Vaddr va, int level) {
  return (va >> (kPageBits + kPteIndexBits * (level - 1))) & (kPtesPerPage - 1);
}

constexpr uint64_t AlignDown(uint64_t x, uint64_t a) { return x & ~(a - 1); }
constexpr uint64_t AlignUp(uint64_t x, uint64_t a) { return (x + a - 1) & ~(a - 1); }
constexpr bool IsAligned(uint64_t x, uint64_t a) { return (x & (a - 1)) == 0; }

inline constexpr Pfn kInvalidPfn = ~0ull;

// A 2 MiB leaf (level-2 PTE) covers 2^kHugeOrder base frames.
inline constexpr uint64_t kHugeOrder = kPteIndexBits;               // 9
inline constexpr uint64_t kHugePageSize = kPageSize << kHugeOrder;  // 2 MiB

// A naturally-aligned run of 2^order physical frames starting at |pfn|.
// Order 0 is a single 4 KiB frame; order kHugeOrder backs a 2 MiB leaf.
// This is the unit the policy layers, the gather, and the reclaim path
// speak once the MM stops assuming "page == 4 KiB frame".
struct PageRun {
  Pfn pfn = kInvalidPfn;
  uint8_t order = 0;

  constexpr PageRun() = default;
  constexpr PageRun(Pfn p, uint8_t o) : pfn(p), order(o) {}

  constexpr uint64_t num_frames() const { return 1ull << order; }
  constexpr bool aligned() const { return IsAligned(pfn, num_frames()); }
  friend constexpr bool operator==(const PageRun&, const PageRun&) = default;
};

// A half-open virtual address range [start, end).
struct VaRange {
  Vaddr start = 0;
  Vaddr end = 0;

  constexpr VaRange() = default;
  constexpr VaRange(Vaddr s, Vaddr e) : start(s), end(e) {}

  constexpr uint64_t size() const { return end - start; }
  constexpr bool empty() const { return end <= start; }
  constexpr bool Contains(Vaddr va) const { return va >= start && va < end; }
  constexpr bool Contains(const VaRange& o) const { return o.start >= start && o.end <= end; }
  constexpr bool Overlaps(const VaRange& o) const { return start < o.end && o.start < end; }
  constexpr VaRange Intersect(const VaRange& o) const {
    Vaddr s = start > o.start ? start : o.start;
    Vaddr e = end < o.end ? end : o.end;
    return e > s ? VaRange(s, e) : VaRange(s, s);
  }
  constexpr bool IsPageAligned() const {
    return IsAligned(start, kPageSize) && IsAligned(end, kPageSize);
  }
  constexpr uint64_t num_pages() const { return size() >> kPageBits; }
  friend constexpr bool operator==(const VaRange&, const VaRange&) = default;
};

// The kind of access a memory reference performs — what a page fault reports.
// Lives here (not in the core layer) because the MM facade and the simulated
// MMU both speak it without otherwise depending on core headers.
enum class Access : uint8_t {
  kRead,
  kWrite,
  kExec,
};

// Access permissions for a virtual page. These are *semantic* permissions;
// the arch PTE codec translates them to hardware bits.
struct Perm {
  // Bit values are stable: they are what gets packed into per-PTE metadata.
  static constexpr uint8_t kRead = 1 << 0;
  static constexpr uint8_t kWrite = 1 << 1;
  static constexpr uint8_t kExec = 1 << 2;
  static constexpr uint8_t kUser = 1 << 3;
  // Software bit: the page is logically writable but currently mapped
  // read-only because it is shared copy-on-write (paper §4.3).
  static constexpr uint8_t kCow = 1 << 4;

  uint8_t bits = 0;

  constexpr Perm() = default;
  constexpr explicit Perm(uint8_t b) : bits(b) {}

  constexpr bool read() const { return bits & kRead; }
  constexpr bool write() const { return bits & kWrite; }
  constexpr bool exec() const { return bits & kExec; }
  constexpr bool user() const { return bits & kUser; }
  constexpr bool cow() const { return bits & kCow; }

  constexpr Perm With(uint8_t b) const { return Perm(static_cast<uint8_t>(bits | b)); }
  constexpr Perm Without(uint8_t b) const { return Perm(static_cast<uint8_t>(bits & ~b)); }
  friend constexpr bool operator==(const Perm&, const Perm&) = default;

  static constexpr Perm R() { return Perm(kRead | kUser); }
  static constexpr Perm RW() { return Perm(kRead | kWrite | kUser); }
  static constexpr Perm RX() { return Perm(kRead | kExec | kUser); }
  static constexpr Perm RWX() { return Perm(kRead | kWrite | kExec | kUser); }
};

// The one permission-vs-access predicate every fault handler must use, so the
// facade-wide HandleFault contract (kOk iff the mapping allows |access|,
// kFault otherwise) has a single definition to diverge from.
constexpr bool PermAllowsAccess(Perm perm, Access access) {
  switch (access) {
    case Access::kRead:
      return perm.read();
    case Access::kWrite:
      return perm.write();
    case Access::kExec:
      return perm.exec();
  }
  return false;
}

}  // namespace cortenmm

#endif  // SRC_COMMON_TYPES_H_
