// Backing objects for advanced memory semantics (paper §4.3, Table 2):
//
//   SimFile     — a simulated file with a page cache; private and shared
//                 file mappings resolve page faults against it, and msync
//                 writes dirty pages back. Shared *anonymous* segments are
//                 kernel-named files with zero-fill content, exactly the
//                 paper's "naming the pages within the kernel".
//   SwapDevice  — a simulated block device for page swapping with per-block
//                 reference counts (blocks are shared after fork).
//
// Reverse mapping: file pages record (SimFile*, page index) in their frame
// descriptor; the file keeps a mapping list of (AddrSpace, va) so the kernel
// can find and unmap every mapping of a page. Reverse mappings are treated as
// hints and every page-table access they trigger goes through the
// transactional interface (paper §4.5 "Reverse mapping").
#ifndef SRC_CORE_BACKING_H_
#define SRC_CORE_BACKING_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/sync/spinlock.h"

namespace cortenmm {

class AddrSpace;

// One mapping of a contiguous run of file pages into an address space.
struct FileMapping {
  AddrSpace* space;
  Vaddr va_base;           // VA of file page |first_page|.
  uint32_t first_page;
  uint32_t page_count;
};

class SimFile {
 public:
  SimFile(uint16_t id, uint64_t size_pages, bool zero_fill);
  ~SimFile();
  SimFile(const SimFile&) = delete;
  SimFile& operator=(const SimFile&) = delete;

  uint16_t id() const { return id_; }
  uint64_t size_pages() const { return size_pages_; }

  // Returns the page-cache frame for the page, faulting it in (deterministic
  // content, or zeros for kernel-named segments) if absent. The returned
  // frame holds the cache's reference; mappers must AddFrameRef their own.
  Result<Pfn> GetPage(uint32_t page_index);

  // Reverse-mapping bookkeeping.
  void AddMapping(const FileMapping& mapping);
  void RemoveMappings(AddrSpace* space, Vaddr va_base);
  std::vector<FileMapping> MappingsOf(uint32_t page_index);

  // The deterministic byte at a file offset (for content verification).
  static uint8_t ContentByte(uint16_t file_id, uint64_t offset);

  uint64_t cached_pages();

 private:
  void FillPage(Pfn pfn, uint32_t page_index);

  uint16_t id_;
  uint64_t size_pages_;
  bool zero_fill_;

  SpinLock lock_;
  std::unordered_map<uint32_t, Pfn> cache_;
  std::vector<FileMapping> mappings_;
};

class FileRegistry {
 public:
  static FileRegistry& Instance();

  // Creates a file with deterministic content.
  SimFile* CreateFile(uint64_t size_pages);
  // Creates a kernel-named zero-fill segment (shared anonymous backing).
  SimFile* CreateSharedAnonSegment(uint64_t size_pages);
  SimFile* Get(uint16_t id);

 private:
  SpinLock lock_;
  std::vector<std::unique_ptr<SimFile>> files_;
};

class SwapDevice {
 public:
  static SwapDevice& Instance();

  // Allocates a block with refcount 1 and writes |src| (one page) into it.
  Result<uint32_t> WriteNewBlock(const std::byte* src);
  // Reads a block into |dst| (one page).
  VoidResult ReadBlock(uint32_t block, std::byte* dst);
  void AddBlockRef(uint32_t block);
  // Drops a reference; the block is recycled when the last one dies.
  void DropBlockRef(uint32_t block);

  uint64_t blocks_in_use();

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    uint32_t refcount = 0;
  };

  SpinLock lock_;
  std::vector<Block> blocks_;
  std::vector<uint32_t> free_blocks_;
};

}  // namespace cortenmm

#endif  // SRC_CORE_BACKING_H_
