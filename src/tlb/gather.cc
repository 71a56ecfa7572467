#include "src/tlb/gather.h"

#include <algorithm>

#include "src/common/stats.h"

namespace cortenmm {

void TlbGather::AddRange(VaRange range) {
  if (range.empty()) {
    return;
  }
  CountEvent(Counter::kTlbRangesGathered);
  if (full_flush_) {
    return;  // Already degraded; a full-ASID flush covers everything.
  }
  // Absorb every gathered range that overlaps or abuts the incoming one.
  // Adjacency check: half-open ranges [a,b) and [b,c) merge, hence <=.
  size_t i = 0;
  while (i < ranges_.size()) {
    const VaRange& r = ranges_[i];
    if (r.start <= range.end && range.start <= r.end) {
      range = VaRange(std::min(r.start, range.start), std::max(r.end, range.end));
      ranges_.erase_at(i);
      CountEvent(Counter::kTlbRangesCoalesced);
    } else {
      ++i;
    }
  }
  if (ranges_.size() == kMaxRanges) {
    // A 17th distinct range: batching each precisely costs more sweep work
    // than nuking the ASID. Drop the records and remember only the mode.
    full_flush_ = true;
    ranges_.clear();
    CountEvent(Counter::kTlbFullFlushFallbacks);
    return;
  }
  // Insert keeping the list sorted by start (N <= 16, bubble is fine).
  ranges_.push_back(range);
  for (size_t j = ranges_.size() - 1; j > 0 && ranges_[j - 1].start > ranges_[j].start; --j) {
    std::swap(ranges_[j - 1], ranges_[j]);
  }
}

void TlbGather::Flush(Asid asid, const CpuMask& mask, TlbPolicy policy, RunFreer freer) {
  if (empty()) {
    return;
  }
  TlbSystem::Instance().ShootdownBatch(asid, ranges_.begin(), ranges_.size(), full_flush_,
                                       mask, policy, runs_.begin(), runs_.size(), freer);
  ranges_.clear();
  runs_.clear();
  full_flush_ = false;
}

}  // namespace cortenmm
