#include "src/core/backing.h"

#include <cassert>
#include <cstring>

#include "src/common/stats.h"
#include "src/fault/fault_inject.h"
#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"

namespace cortenmm {

// ---------------------------------------------------------------------------
// SimFile
// ---------------------------------------------------------------------------

SimFile::SimFile(uint16_t id, uint64_t size_pages, bool zero_fill)
    : id_(id), size_pages_(size_pages), zero_fill_(zero_fill) {}

SimFile::~SimFile() {
  for (const auto& [index, pfn] : cache_) {
    (void)index;
    if (PhysMem::Instance().Descriptor(pfn).DropRefs(1, 0).refcount == 1) {
      BuddyAllocator::Instance().FreeFrame(pfn);
    }
  }
}

uint8_t SimFile::ContentByte(uint16_t file_id, uint64_t offset) {
  // Cheap deterministic mix so tests can verify any byte of any file.
  uint64_t x = (static_cast<uint64_t>(file_id) << 48) ^ offset;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 29;
  return static_cast<uint8_t>(x);
}

void SimFile::FillPage(Pfn pfn, uint32_t page_index) {
  std::byte* data = PhysMem::Instance().FrameData(pfn);
  if (zero_fill_) {
    std::memset(data, 0, kPageSize);
    return;
  }
  uint64_t base = static_cast<uint64_t>(page_index) * kPageSize;
  for (uint64_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<std::byte>(ContentByte(id_, base + i));
  }
}

Result<Pfn> SimFile::GetPage(uint32_t page_index) {
  if (page_index >= size_pages_) {
    return ErrCode::kInval;
  }
  {
    SpinGuard guard(lock_);
    auto it = cache_.find(page_index);
    if (it != cache_.end()) {
      return it->second;
    }
  }
  Result<Pfn> frame = BuddyAllocator::Instance().AllocFrame();
  if (!frame.ok()) {
    return frame;
  }
  FillPage(*frame, page_index);
  PageDescriptor& desc = PhysMem::Instance().Descriptor(*frame);
  desc.ResetForAlloc(FrameType::kFileCache);
  {
    SpinGuard rmap_guard(desc.rmap_lock);
    desc.owner.store(this, std::memory_order_relaxed);
    desc.owner_key.store(page_index, std::memory_order_relaxed);
  }
  SpinGuard guard(lock_);
  auto [it, inserted] = cache_.emplace(page_index, *frame);
  if (!inserted) {
    // Raced with another faulting thread: keep theirs, release ours.
    BuddyAllocator::Instance().FreeFrame(*frame);
    return it->second;
  }
  return *frame;
}

void SimFile::AddMapping(const FileMapping& mapping) {
  SpinGuard guard(lock_);
  mappings_.push_back(mapping);
}

void SimFile::RemoveMappings(AddrSpace* space, Vaddr va_base) {
  SpinGuard guard(lock_);
  size_t keep = 0;
  for (size_t i = 0; i < mappings_.size(); ++i) {
    if (mappings_[i].space == space && mappings_[i].va_base == va_base) {
      continue;
    }
    mappings_[keep++] = mappings_[i];
  }
  mappings_.resize(keep);
}

std::vector<FileMapping> SimFile::MappingsOf(uint32_t page_index) {
  std::vector<FileMapping> hits;
  SpinGuard guard(lock_);
  for (const FileMapping& m : mappings_) {
    if (page_index >= m.first_page && page_index < m.first_page + m.page_count) {
      hits.push_back(m);
    }
  }
  return hits;
}

uint64_t SimFile::cached_pages() {
  SpinGuard guard(lock_);
  return cache_.size();
}

// ---------------------------------------------------------------------------
// FileRegistry
// ---------------------------------------------------------------------------

FileRegistry& FileRegistry::Instance() {
  // The registry's files free page-cache frames when it is destroyed, so the
  // allocator singletons must complete construction first (function-local
  // statics are destroyed in reverse order of construction completion).
  BuddyAllocator::Instance();
  PhysMem::Instance();
  static FileRegistry registry;
  return registry;
}

SimFile* FileRegistry::CreateFile(uint64_t size_pages) {
  SpinGuard guard(lock_);
  uint16_t id = static_cast<uint16_t>(files_.size() + 1);
  files_.push_back(std::make_unique<SimFile>(id, size_pages, /*zero_fill=*/false));
  return files_.back().get();
}

SimFile* FileRegistry::CreateSharedAnonSegment(uint64_t size_pages) {
  SpinGuard guard(lock_);
  uint16_t id = static_cast<uint16_t>(files_.size() + 1);
  files_.push_back(std::make_unique<SimFile>(id, size_pages, /*zero_fill=*/true));
  return files_.back().get();
}

SimFile* FileRegistry::Get(uint16_t id) {
  SpinGuard guard(lock_);
  if (id == 0 || id > files_.size()) {
    return nullptr;
  }
  return files_[id - 1].get();
}

// ---------------------------------------------------------------------------
// SwapDevice
// ---------------------------------------------------------------------------

SwapDevice& SwapDevice::Instance() {
  static SwapDevice device;
  return device;
}

Result<uint32_t> SwapDevice::WriteNewBlock(const std::byte* src) {
  // Injected device-full / write error: the eviction in flight must roll the
  // page back to resident without leaking the frame or a swap block.
  if (FaultInjector::Instance().ShouldFail(FaultSite::kSwapDevWrite)) {
    return ErrCode::kNoSpace;
  }
  SpinGuard guard(lock_);
  uint32_t block;
  if (!free_blocks_.empty()) {
    block = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    block = static_cast<uint32_t>(blocks_.size());
    blocks_.emplace_back();
  }
  Block& b = blocks_[block];
  if (b.data == nullptr) {
    b.data = std::make_unique<std::byte[]>(kPageSize);
  }
  std::memcpy(b.data.get(), src, kPageSize);
  b.refcount = 1;
  CountEvent(Counter::kSwapOuts);
  return block;
}

VoidResult SwapDevice::ReadBlock(uint32_t block, std::byte* dst) {
  // Injected transient IO error on swap-in: the fault path surfaces a definite
  // status and leaves the swap entry intact so a retry can succeed.
  if (FaultInjector::Instance().ShouldFail(FaultSite::kSwapDevRead)) {
    return ErrCode::kAgain;
  }
  SpinGuard guard(lock_);
  if (block >= blocks_.size() || blocks_[block].refcount == 0) {
    return ErrCode::kInval;
  }
  std::memcpy(dst, blocks_[block].data.get(), kPageSize);
  CountEvent(Counter::kSwapIns);
  return VoidResult();
}

void SwapDevice::AddBlockRef(uint32_t block) {
  SpinGuard guard(lock_);
  assert(block < blocks_.size() && blocks_[block].refcount > 0);
  ++blocks_[block].refcount;
}

void SwapDevice::DropBlockRef(uint32_t block) {
  SpinGuard guard(lock_);
  assert(block < blocks_.size() && blocks_[block].refcount > 0);
  if (--blocks_[block].refcount == 0) {
    free_blocks_.push_back(block);
  }
}

uint64_t SwapDevice::blocks_in_use() {
  SpinGuard guard(lock_);
  uint64_t used = 0;
  for (const Block& b : blocks_) {
    if (b.refcount > 0) {
      ++used;
    }
  }
  return used;
}

}  // namespace cortenmm
