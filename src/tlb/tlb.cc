#include "src/tlb/tlb.h"

namespace cortenmm {
namespace {

bool EntryCovers(const TlbEntry& entry, Asid asid, Vaddr va) {
  if (!entry.valid || entry.asid != asid) {
    return false;
  }
  uint64_t span = PtEntrySpan(entry.level);
  return va >= entry.va_base && va < entry.va_base + span;
}

bool EntryIntersects(const TlbEntry& entry, Asid asid, VaRange range) {
  if (!entry.valid || entry.asid != asid) {
    return false;
  }
  uint64_t span = PtEntrySpan(entry.level);
  return VaRange(entry.va_base, entry.va_base + span).Overlaps(range);
}

}  // namespace

std::optional<TlbEntry> Tlb::Lookup(Asid asid, Vaddr va) {
  SpinGuard guard(lock_);
  ++lookups_;
  TlbEntry* set = sets_[SetOf(va)];
  for (int way = 0; way < kWays; ++way) {
    if (EntryCovers(set[way], asid, va)) {
      set[way].stamp = ++clock_;
      ++hits_;
      return set[way];
    }
  }
  // Huge-page translations for |va| may live in the set of their base page.
  // A second probe keyed by the 2M/1G base covers them.
  for (int level = 2; level <= 3; ++level) {
    Vaddr base = AlignDown(va, PtEntrySpan(level));
    TlbEntry* hset = sets_[SetOf(base)];
    for (int way = 0; way < kWays; ++way) {
      if (hset[way].valid && hset[way].level == level && EntryCovers(hset[way], asid, va)) {
        hset[way].stamp = ++clock_;
        ++hits_;
        return hset[way];
      }
    }
  }
  return std::nullopt;
}

void Tlb::Insert(Asid asid, Vaddr va, uint64_t pte_raw, int level) {
  Vaddr base = AlignDown(va, PtEntrySpan(level));
  SpinGuard guard(lock_);
  TlbEntry* set = sets_[SetOf(base)];
  int victim = 0;
  for (int way = 0; way < kWays; ++way) {
    if (!set[way].valid) {
      victim = way;
      break;
    }
    if (set[way].stamp < set[victim].stamp) {
      victim = way;
    }
  }
  set[victim] = TlbEntry{true, asid, level, base, pte_raw, ++clock_};
}

void Tlb::InvalidateRange(Asid asid, VaRange range) { InvalidateRanges(asid, &range, 1); }

void Tlb::InvalidateRanges(Asid asid, const VaRange* ranges, size_t num_ranges) {
  uint64_t set_mask = 1;  // Set 0: every 2M/1G entry.
  uint64_t pages = 0;
  for (size_t i = 0; i < num_ranges && pages < kSets; ++i) {
    Vaddr last = AlignUp(ranges[i].end, kPageSize);
    for (Vaddr page = AlignDown(ranges[i].start, kPageSize); page < last && pages < kSets;
         page += kPageSize, ++pages) {
      set_mask |= 1ull << SetOf(page);
    }
  }
  if (pages >= kSets) {
    set_mask = ~0ull >> (64 - kSets);  // At the ceiling: sweep every set.
  }
  SpinGuard guard(lock_);
  for (; set_mask != 0; set_mask &= set_mask - 1) {
    for (auto& entry : sets_[__builtin_ctzll(set_mask)]) {
      for (size_t i = 0; i < num_ranges; ++i) {
        if (EntryIntersects(entry, asid, ranges[i])) {
          entry.valid = false;
          break;
        }
      }
    }
  }
}

void Tlb::InvalidateAsid(Asid asid) {
  SpinGuard guard(lock_);
  for (auto& set : sets_) {
    for (auto& entry : set) {
      if (entry.valid && entry.asid == asid) {
        entry.valid = false;
      }
    }
  }
}

void Tlb::InvalidateAll() {
  SpinGuard guard(lock_);
  for (auto& set : sets_) {
    for (auto& entry : set) {
      entry.valid = false;
    }
  }
}

}  // namespace cortenmm
