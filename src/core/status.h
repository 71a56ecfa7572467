// The Status of a virtual page — the paper's Figure 4 enum. It is the single
// source of truth the transactional interface exposes: a page is either
// invalid, mapped (present in the MMU), or *virtually allocated* in one of
// several flavors whose state lives in the per-PTE metadata array.
#ifndef SRC_CORE_STATUS_H_
#define SRC_CORE_STATUS_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/pmm/page_desc.h"

namespace cortenmm {

enum class StatusTag : uint8_t {
  kInvalid = 0,         // Must stay 0: an empty PteMeta decodes to Invalid.
  kMapped,              // Present leaf PTE; pfn/perm decoded from the MMU.
  kPrivateAnon,         // Virtually allocated, demand-zero on first touch.
  kPrivateFileMapped,   // Virtually allocated, filled from a file on touch.
  kSharedAnon,          // Shared anonymous segment (kernel-named pages).
  kSwapped,             // Contents on a swap block device.
};

struct Status {
  StatusTag tag = StatusTag::kInvalid;
  Perm perm;

  // kMapped
  Pfn pfn = kInvalidPfn;
  // Level of the leaf PTE backing a kMapped page: 1 = 4 KiB, 2 = 2 MiB.
  // Purely informational — it is NOT part of equality (below), because
  // splitting a huge leaf into 512 identical base leaves must stay
  // observationally invisible through the transactional interface.
  uint8_t level = 1;

  // kPrivateFileMapped / kSharedAnon: backing object id + page offset into it.
  // kSwapped: swap device id + block number.
  uint16_t object_id = 0;
  uint32_t page_offset = 0;

  static Status Invalid() { return Status{}; }

  static Status Mapped(Pfn pfn, Perm perm, uint8_t level = 1) {
    Status s;
    s.tag = StatusTag::kMapped;
    s.pfn = pfn;
    s.perm = perm;
    s.level = level;
    return s;
  }

  static Status PrivateAnon(Perm perm) {
    Status s;
    s.tag = StatusTag::kPrivateAnon;
    s.perm = perm;
    return s;
  }

  static Status PrivateFileMapped(uint16_t file_id, uint32_t page_offset, Perm perm) {
    Status s;
    s.tag = StatusTag::kPrivateFileMapped;
    s.object_id = file_id;
    s.page_offset = page_offset;
    s.perm = perm;
    return s;
  }

  static Status SharedAnon(uint16_t segment_id, uint32_t page_offset, Perm perm) {
    Status s;
    s.tag = StatusTag::kSharedAnon;
    s.object_id = segment_id;
    s.page_offset = page_offset;
    s.perm = perm;
    return s;
  }

  static Status Swapped(uint16_t device_id, uint32_t block, Perm perm) {
    Status s;
    s.tag = StatusTag::kSwapped;
    s.object_id = device_id;
    s.page_offset = block;
    s.perm = perm;
    return s;
  }

  bool invalid() const { return tag == StatusTag::kInvalid; }
  bool mapped() const { return tag == StatusTag::kMapped; }
  // A "virtually allocated" status occupies the metadata array, not the MMU.
  bool virtually_allocated() const {
    return tag != StatusTag::kInvalid && tag != StatusTag::kMapped;
  }

  friend bool operator==(const Status& a, const Status& b) {
    if (a.tag != b.tag || a.perm != b.perm) {
      return false;
    }
    switch (a.tag) {
      case StatusTag::kInvalid:
        return true;
      case StatusTag::kMapped:
        return a.pfn == b.pfn;
      default:
        return a.object_id == b.object_id && a.page_offset == b.page_offset;
    }
  }
};

// Packs a virtually-allocated Status into the 8-byte metadata entry.
// kMapped/kInvalid are never stored: the MMU itself encodes them.
inline PteMeta EncodeMeta(const Status& status) {
  PteMeta meta;
  meta.tag = static_cast<uint8_t>(status.tag);
  meta.perm = status.perm.bits;
  meta.aux16 = status.object_id;
  meta.aux32 = status.page_offset;
  return meta;
}

inline Status DecodeMeta(const PteMeta& meta) {
  Status status;
  status.tag = static_cast<StatusTag>(meta.tag);
  status.perm = Perm(meta.perm);
  status.object_id = meta.aux16;
  status.page_offset = meta.aux32;
  return status;
}

// When a metadata mark placed on a non-leaf slot (covering a large aligned
// span) is pushed down to a smaller span starting |page_delta| pages further,
// offset-bearing statuses advance their page offset accordingly.
inline Status OffsetStatus(const Status& status, uint64_t page_delta) {
  Status s = status;
  switch (s.tag) {
    case StatusTag::kPrivateFileMapped:
    case StatusTag::kSharedAnon:
    case StatusTag::kSwapped:
      s.page_offset += static_cast<uint32_t>(page_delta);
      break;
    default:
      break;
  }
  return s;
}

}  // namespace cortenmm

#endif  // SRC_CORE_STATUS_H_
