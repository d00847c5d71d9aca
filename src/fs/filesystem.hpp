// Mini-ext4 filesystem.
//
// A small but real filesystem over a BlockDevice: superblock, block and
// inode bitmaps, an inode table, hierarchical directories, sparse files,
// and two file-mapping schemes selected per inode —
//   * extent trees with CRC-32C node checksums (the default), and
//   * legacy direct/indirect addressing with NO checksums,
// reproducing exactly the ext4 asymmetry §4.2's exploit rides on.
//
// The filesystem is write-through and cache-less: every operation hits
// the block device, so when it runs over an NVMe namespace each access
// drives L2P lookups in the SSD's DRAM.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "fs/block_device.hpp"
#include "fs/extent_tree.hpp"
#include "fs/inode.hpp"
#include "fs/layout.hpp"

namespace rhsd::fs {

struct FormatOptions {
  std::uint32_t inode_count = 0;  // 0 = one inode per 8 blocks
  /// §5 mitigation: refuse indirect-addressed files.
  bool forbid_indirect = false;
};

struct FileInfo {
  std::uint32_t ino = 0;
  std::uint16_t mode = 0;
  std::uint16_t uid = 0;
  std::uint32_t flags = 0;
  std::uint64_t size = 0;
  std::uint32_t links = 0;
};

struct DirEntry {
  std::uint32_t ino = 0;
  std::uint8_t type = kDtUnknown;
  std::string name;
};

class FileSystem {
 public:
  /// Create a fresh filesystem on `dev` and mount it.
  static StatusOr<std::unique_ptr<FileSystem>> Format(
      BlockDevice& dev, const FormatOptions& options = {});
  /// Mount an existing filesystem (verifies the superblock).
  static StatusOr<std::unique_ptr<FileSystem>> Mount(BlockDevice& dev);

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // ---- Path API (absolute, '/'-separated) ----

  /// Create a regular file. `use_extents=false` selects the legacy
  /// indirect addressing ("users may also select the direct/indirect
  /// block mechanism on files they have write access to", §4.2).
  StatusOr<std::uint32_t> create(const Credentials& cred,
                                 std::string_view path, std::uint16_t perm,
                                 bool use_extents = true);
  StatusOr<std::uint32_t> mkdir(const Credentials& cred,
                                std::string_view path, std::uint16_t perm);
  StatusOr<std::uint32_t> lookup(const Credentials& cred,
                                 std::string_view path);
  Status unlink(const Credentials& cred, std::string_view path);
  StatusOr<std::vector<DirEntry>> readdir(const Credentials& cred,
                                          std::string_view path);

  // ---- Inode API ----

  Status write(const Credentials& cred, std::uint32_t ino,
               std::uint64_t offset, std::span<const std::uint8_t> data);
  StatusOr<std::size_t> read(const Credentials& cred, std::uint32_t ino,
                             std::uint64_t offset,
                             std::span<std::uint8_t> out);
  /// Batched whole-block read (the scan/dump stages' shape): loads the
  /// inode once, resolves all `count` mappings from `first_block` —
  /// fetching the extent tree or each level-1 indirect table once per
  /// run instead of once per block — then reads the data blocks.
  /// result[i] is the 4 KiB content of file block first_block+i:
  /// zero-filled for holes, empty where the block is unreadable
  /// (mapping/device error, or not fully inside the file), matching
  /// what a per-block read() loop would observe.
  StatusOr<std::vector<std::vector<std::uint8_t>>> read_file_blocks(
      const Credentials& cred, std::uint32_t ino, std::uint32_t first_block,
      std::uint32_t count);
  StatusOr<FileInfo> stat(std::uint32_t ino);
  Status chown(const Credentials& cred, std::uint32_t ino,
               std::uint16_t new_uid);
  Status chmod(const Credentials& cred, std::uint32_t ino,
               std::uint16_t perm);
  /// Shrink to zero or grow (sparse) to `new_size`.
  Status truncate(const Credentials& cred, std::uint32_t ino,
                  std::uint64_t new_size);

  // ---- Experiment introspection (no permission checks) ----

  /// Device block backing `file_block` of `ino` (0 = hole).
  StatusOr<std::uint64_t> bmap(std::uint32_t ino, std::uint32_t file_block);
  /// The level-1 indirect block whose pointer array maps `file_block`
  /// (0 if none) — the LBA the Figure 3 bitflip must redirect.
  StatusOr<std::uint64_t> indirect_block_of(std::uint32_t ino,
                                            std::uint32_t file_block);

  [[nodiscard]] const SuperblockDisk& super() const { return super_; }
  [[nodiscard]] BlockDevice& device() { return dev_; }
  [[nodiscard]] std::uint64_t free_blocks() const { return free_blocks_; }
  [[nodiscard]] std::uint32_t free_inodes() const { return free_inodes_; }

  // Internals shared with fsck.
  StatusOr<InodeDisk> load_inode(std::uint32_t ino);
  [[nodiscard]] bool inode_in_use(std::uint32_t ino) const;
  [[nodiscard]] bool block_in_use(std::uint64_t block) const;

 private:
  explicit FileSystem(BlockDevice& dev) : dev_(dev) {}

  Status init_from_super(const SuperblockDisk& super);
  Status write_super();
  Status load_bitmaps();

  // Allocation (write-through bitmaps).
  StatusOr<std::uint64_t> alloc_block();
  void free_block(std::uint64_t block);
  StatusOr<std::uint32_t> alloc_inode();
  void free_inode(std::uint32_t ino);
  Status flush_block_bitmap(std::uint64_t block);
  Status flush_inode_bitmap(std::uint32_t ino);

  Status store_inode(std::uint32_t ino, const InodeDisk& inode);

  // Mapping dispatch over the two schemes.
  StatusOr<std::uint64_t> map_block(std::uint32_t ino, InodeDisk& inode,
                                    std::uint32_t file_block, bool alloc,
                                    bool* inode_dirty);
  Status free_file_blocks(std::uint32_t ino, InodeDisk& inode);

  [[nodiscard]] ExtentCsumCtx csum_ctx(std::uint32_t ino,
                                       const InodeDisk& inode) const {
    return ExtentCsumCtx{super_.uuid, ino, inode.generation};
  }

  // Directory helpers (directory.cpp).
  StatusOr<std::uint32_t> dir_lookup(std::uint32_t dir_ino,
                                     const InodeDisk& dir,
                                     std::string_view name);
  Status dir_add(std::uint32_t dir_ino, InodeDisk& dir,
                 std::string_view name, std::uint32_t ino,
                 std::uint8_t type);
  Status dir_remove(std::uint32_t dir_ino, InodeDisk& dir,
                    std::string_view name);
  StatusOr<std::vector<DirEntry>> dir_list(std::uint32_t dir_ino,
                                           const InodeDisk& dir);
  /// Resolve the parent directory of `path`; returns (parent ino,
  /// final component).
  StatusOr<std::pair<std::uint32_t, std::string>> resolve_parent(
      const Credentials& cred, std::string_view path);
  StatusOr<std::uint32_t> resolve(const Credentials& cred,
                                  std::string_view path);

  BlockDevice& dev_;
  SuperblockDisk super_{};
  std::vector<std::uint8_t> block_bitmap_;
  std::vector<std::uint8_t> inode_bitmap_;
  std::uint64_t free_blocks_ = 0;
  std::uint32_t free_inodes_ = 0;
  std::uint64_t alloc_cursor_ = 0;  // next-fit allocation position
  std::uint32_t generation_counter_ = 1;

  friend class Fsck;
};

}  // namespace rhsd::fs
