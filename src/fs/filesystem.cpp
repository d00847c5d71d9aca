#include "fs/filesystem.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32c.hpp"
#include "fs/indirect.hpp"

namespace rhsd::fs {
namespace {

/// Volume UUID written at format; seeds the extent-node checksums.
constexpr std::uint64_t kFsUuid = 0x52484344'46535631ull;

std::uint32_t SuperChecksum(SuperblockDisk super) {
  super.checksum = 0;
  return Crc32c(std::span(reinterpret_cast<const std::uint8_t*>(&super),
                          sizeof(super)));
}

}  // namespace

// ---- Format / Mount ----

StatusOr<std::unique_ptr<FileSystem>> FileSystem::Format(
    BlockDevice& dev, const FormatOptions& options) {
  const std::uint64_t total = dev.block_count();
  if (total < 16) return InvalidArgument("device too small to format");

  SuperblockDisk super{};
  super.magic = kSuperMagic;
  super.version = 1;
  super.block_size = kFsBlockSize;
  super.uuid = kFsUuid;
  super.total_blocks = total;
  super.inode_count = options.inode_count != 0
                          ? options.inode_count
                          : static_cast<std::uint32_t>(
                                std::max<std::uint64_t>(total / 8, 64));
  super.flags = options.forbid_indirect ? kFsFlagForbidIndirect : 0;
  super.root_ino = kRootIno;

  const std::uint64_t bbm_blocks =
      (total + kFsBlockSize * 8 - 1) / (kFsBlockSize * 8);
  const std::uint64_t ibm_blocks =
      (super.inode_count + kFsBlockSize * 8 - 1) / (kFsBlockSize * 8);
  const std::uint64_t itab_blocks =
      (static_cast<std::uint64_t>(super.inode_count) + kInodesPerBlock - 1) /
      kInodesPerBlock;

  super.block_bitmap_start = 1;
  super.block_bitmap_blocks = static_cast<std::uint32_t>(bbm_blocks);
  super.inode_bitmap_start = 1 + bbm_blocks;
  super.inode_bitmap_blocks = static_cast<std::uint32_t>(ibm_blocks);
  super.inode_table_start = super.inode_bitmap_start + ibm_blocks;
  super.inode_table_blocks = static_cast<std::uint32_t>(itab_blocks);
  super.data_start = super.inode_table_start + itab_blocks;
  if (super.data_start + 8 > total) {
    return InvalidArgument("device too small for metadata");
  }
  super.free_blocks = total - super.data_start;
  super.free_inodes = super.inode_count - 2;  // ino 1 reserved + root
  super.checksum = SuperChecksum(super);

  // Zero all metadata blocks.
  std::vector<std::uint8_t> zero(kFsBlockSize, 0);
  for (std::uint64_t b = 1; b < super.data_start; ++b) {
    RHSD_RETURN_IF_ERROR(dev.write_block(b, zero));
  }
  std::vector<std::uint8_t> sb_block(kFsBlockSize, 0);
  std::memcpy(sb_block.data(), &super, sizeof(super));
  RHSD_RETURN_IF_ERROR(dev.write_block(0, sb_block));

  auto fs = std::unique_ptr<FileSystem>(new FileSystem(dev));
  RHSD_RETURN_IF_ERROR(fs->init_from_super(super));

  // Mark metadata blocks used in the in-memory bitmap, then flush.
  for (std::uint64_t b = 0; b < super.data_start; ++b) {
    fs->block_bitmap_[b / 8] |= 1u << (b % 8);
  }
  // Reserve ino 1 (ext2 tradition) and the root inode.
  fs->inode_bitmap_[0] |= 0b11;
  for (std::uint64_t b = 0; b < bbm_blocks; ++b) {
    RHSD_RETURN_IF_ERROR(
        fs->flush_block_bitmap(b * kFsBlockSize * 8));
  }
  RHSD_RETURN_IF_ERROR(fs->flush_inode_bitmap(1));
  fs->free_blocks_ = super.free_blocks;
  fs->free_inodes_ = super.free_inodes;

  // Root directory. World-writable (like /tmp) so unprivileged tenants
  // can create files — the attack's spraying stage requires only that
  // the attacker process may create files *somewhere*.
  InodeDisk root{};
  root.mode = kIfDir | 0777;
  root.uid = 0;
  root.flags = kInodeFlagExtents;
  root.links = 2;
  root.generation = fs->generation_counter_++;
  ExtentTree::InitRoot(root);
  RHSD_RETURN_IF_ERROR(fs->store_inode(kRootIno, root));
  RHSD_RETURN_IF_ERROR(fs->dir_add(kRootIno, root, ".", kRootIno, kDtDir));
  RHSD_RETURN_IF_ERROR(fs->dir_add(kRootIno, root, "..", kRootIno, kDtDir));
  RHSD_RETURN_IF_ERROR(fs->store_inode(kRootIno, root));
  return fs;
}

StatusOr<std::unique_ptr<FileSystem>> FileSystem::Mount(BlockDevice& dev) {
  std::vector<std::uint8_t> sb_block(kFsBlockSize);
  RHSD_RETURN_IF_ERROR(dev.read_block(0, sb_block));
  SuperblockDisk super;
  std::memcpy(&super, sb_block.data(), sizeof(super));
  if (super.magic != kSuperMagic) {
    return Corruption("bad superblock magic — not a rhsd-ext4 filesystem");
  }
  if (super.checksum != SuperChecksum(super)) {
    return Corruption("superblock checksum mismatch");
  }
  if (super.total_blocks > dev.block_count()) {
    return Corruption("superblock claims more blocks than the device has");
  }
  auto fs = std::unique_ptr<FileSystem>(new FileSystem(dev));
  RHSD_RETURN_IF_ERROR(fs->init_from_super(super));
  RHSD_RETURN_IF_ERROR(fs->load_bitmaps());
  return fs;
}

Status FileSystem::init_from_super(const SuperblockDisk& super) {
  super_ = super;
  block_bitmap_.assign(
      static_cast<std::size_t>(super.block_bitmap_blocks) * kFsBlockSize, 0);
  inode_bitmap_.assign(
      static_cast<std::size_t>(super.inode_bitmap_blocks) * kFsBlockSize, 0);
  return Status::Ok();
}

Status FileSystem::load_bitmaps() {
  for (std::uint32_t b = 0; b < super_.block_bitmap_blocks; ++b) {
    RHSD_RETURN_IF_ERROR(dev_.read_block(
        super_.block_bitmap_start + b,
        std::span(block_bitmap_.data() + b * kFsBlockSize, kFsBlockSize)));
  }
  for (std::uint32_t b = 0; b < super_.inode_bitmap_blocks; ++b) {
    RHSD_RETURN_IF_ERROR(dev_.read_block(
        super_.inode_bitmap_start + b,
        std::span(inode_bitmap_.data() + b * kFsBlockSize, kFsBlockSize)));
  }
  // Free counts are derived, not trusted from disk.
  free_blocks_ = 0;
  for (std::uint64_t b = 0; b < super_.total_blocks; ++b) {
    if (!block_in_use(b)) ++free_blocks_;
  }
  free_inodes_ = 0;
  for (std::uint32_t i = 1; i <= super_.inode_count; ++i) {
    if (!inode_in_use(i)) ++free_inodes_;
  }
  return Status::Ok();
}

Status FileSystem::write_super() {
  super_.free_blocks = free_blocks_;
  super_.free_inodes = free_inodes_;
  super_.checksum = SuperChecksum(super_);
  std::vector<std::uint8_t> sb_block(kFsBlockSize, 0);
  std::memcpy(sb_block.data(), &super_, sizeof(super_));
  return dev_.write_block(0, sb_block);
}

// ---- Allocation ----

bool FileSystem::block_in_use(std::uint64_t block) const {
  RHSD_CHECK(block < super_.total_blocks);
  return (block_bitmap_[block / 8] >> (block % 8)) & 1;
}

bool FileSystem::inode_in_use(std::uint32_t ino) const {
  RHSD_CHECK(ino >= 1 && ino <= super_.inode_count);
  const std::uint32_t bit = ino - 1;
  return (inode_bitmap_[bit / 8] >> (bit % 8)) & 1;
}

Status FileSystem::flush_block_bitmap(std::uint64_t block) {
  const std::uint64_t bm_block = block / 8 / kFsBlockSize;
  return dev_.write_block(
      super_.block_bitmap_start + bm_block,
      std::span(block_bitmap_.data() + bm_block * kFsBlockSize,
                kFsBlockSize));
}

Status FileSystem::flush_inode_bitmap(std::uint32_t ino) {
  const std::uint64_t bm_block = (ino - 1) / 8 / kFsBlockSize;
  return dev_.write_block(
      super_.inode_bitmap_start + bm_block,
      std::span(inode_bitmap_.data() + bm_block * kFsBlockSize,
                kFsBlockSize));
}

StatusOr<std::uint64_t> FileSystem::alloc_block() {
  // Next-fit scan keeps allocations roughly sequential, which is what
  // lets the attacker's "initial sequential write setup" (Fig. 1) place
  // L2P entries contiguously.
  for (std::uint64_t i = 0; i < super_.total_blocks; ++i) {
    const std::uint64_t b =
        (alloc_cursor_ + i) % super_.total_blocks;
    if (b < super_.data_start) continue;
    if (!block_in_use(b)) {
      block_bitmap_[b / 8] |= 1u << (b % 8);
      --free_blocks_;
      alloc_cursor_ = b + 1;
      RHSD_RETURN_IF_ERROR(flush_block_bitmap(b));
      return b;
    }
  }
  return ResourceExhausted("filesystem out of blocks");
}

void FileSystem::free_block(std::uint64_t block) {
  // Defensive: a corrupted indirect chain can ask us to free garbage;
  // refuse anything outside the data zone (like ext4's block validity
  // checks).
  if (block < super_.data_start || block >= super_.total_blocks) return;
  if (!block_in_use(block)) return;
  block_bitmap_[block / 8] &= static_cast<std::uint8_t>(~(1u << (block % 8)));
  ++free_blocks_;
  // Bitmap flush failures here would need a journal to handle properly;
  // ignore (device errors already surfaced on the data path).
  (void)flush_block_bitmap(block);
}

StatusOr<std::uint32_t> FileSystem::alloc_inode() {
  for (std::uint32_t ino = 1; ino <= super_.inode_count; ++ino) {
    if (!inode_in_use(ino)) {
      const std::uint32_t bit = ino - 1;
      inode_bitmap_[bit / 8] |= 1u << (bit % 8);
      --free_inodes_;
      RHSD_RETURN_IF_ERROR(flush_inode_bitmap(ino));
      return ino;
    }
  }
  return ResourceExhausted("filesystem out of inodes");
}

void FileSystem::free_inode(std::uint32_t ino) {
  if (ino < 1 || ino > super_.inode_count) return;
  const std::uint32_t bit = ino - 1;
  inode_bitmap_[bit / 8] &= static_cast<std::uint8_t>(~(1u << (bit % 8)));
  ++free_inodes_;
  (void)flush_inode_bitmap(ino);
}

// ---- Inode table ----

StatusOr<InodeDisk> FileSystem::load_inode(std::uint32_t ino) {
  if (ino < 1 || ino > super_.inode_count) {
    return InvalidArgument("inode number out of range");
  }
  const std::uint64_t block =
      super_.inode_table_start + (ino - 1) / kInodesPerBlock;
  const std::uint32_t slot = (ino - 1) % kInodesPerBlock;
  std::vector<std::uint8_t> buf(kFsBlockSize);
  RHSD_RETURN_IF_ERROR(dev_.read_block(block, buf));
  InodeDisk inode;
  std::memcpy(&inode, buf.data() + slot * kInodeSize, sizeof(inode));
  return inode;
}

Status FileSystem::store_inode(std::uint32_t ino, const InodeDisk& inode) {
  if (ino < 1 || ino > super_.inode_count) {
    return InvalidArgument("inode number out of range");
  }
  const std::uint64_t block =
      super_.inode_table_start + (ino - 1) / kInodesPerBlock;
  const std::uint32_t slot = (ino - 1) % kInodesPerBlock;
  std::vector<std::uint8_t> buf(kFsBlockSize);
  RHSD_RETURN_IF_ERROR(dev_.read_block(block, buf));
  std::memcpy(buf.data() + slot * kInodeSize, &inode, sizeof(inode));
  return dev_.write_block(block, buf);
}

// ---- Mapping dispatch ----

StatusOr<std::uint64_t> FileSystem::map_block(std::uint32_t ino,
                                              InodeDisk& inode,
                                              std::uint32_t file_block,
                                              bool alloc,
                                              bool* inode_dirty) {
  if (UsesExtents(inode)) {
    const ExtentCsumCtx ctx = csum_ctx(ino, inode);
    RHSD_ASSIGN_OR_RETURN(std::vector<Extent> extents,
                          ExtentTree::Load(dev_, inode, ctx));
    const std::uint64_t existing = ExtentTree::Lookup(extents, file_block);
    if (existing != 0 || !alloc) return existing;
    RHSD_ASSIGN_OR_RETURN(const std::uint64_t fresh, alloc_block());
    ExtentTree::InsertBlock(extents, file_block, fresh);
    RHSD_RETURN_IF_ERROR(ExtentTree::Store(
        dev_, inode, ctx, extents, [this] { return alloc_block(); },
        [this](std::uint64_t b) { free_block(b); }));
    if (inode_dirty != nullptr) *inode_dirty = true;
    return fresh;
  }

  IndirectMapper mapper(
      dev_, inode, [this] { return alloc_block(); },
      [this](std::uint64_t b) { free_block(b); });
  if (!alloc) return mapper.get(file_block);
  std::uint32_t snapshot[kInodeBlockSlots];
  std::memcpy(snapshot, inode.block, sizeof(snapshot));
  RHSD_ASSIGN_OR_RETURN(const std::uint64_t result,
                        mapper.get_or_alloc(file_block));
  if (inode_dirty != nullptr &&
      std::memcmp(snapshot, inode.block, sizeof(snapshot)) != 0) {
    *inode_dirty = true;
  }
  return result;
}

Status FileSystem::free_file_blocks(std::uint32_t ino, InodeDisk& inode) {
  if (UsesExtents(inode)) {
    const ExtentCsumCtx ctx = csum_ctx(ino, inode);
    auto extents = ExtentTree::Load(dev_, inode, ctx);
    if (extents.ok()) {
      for (const Extent& e : *extents) {
        for (std::uint32_t i = 0; i < e.len; ++i) {
          free_block(e.physical + i);
        }
      }
    }
    return ExtentTree::Clear(dev_, inode,
                             [this](std::uint64_t b) { free_block(b); });
  }
  IndirectMapper mapper(
      dev_, inode, [this] { return alloc_block(); },
      [this](std::uint64_t b) { free_block(b); });
  return mapper.free_all();
}

// ---- Path operations ----

StatusOr<std::uint32_t> FileSystem::create(const Credentials& cred,
                                           std::string_view path,
                                           std::uint16_t perm,
                                           bool use_extents) {
  if (!use_extents && (super_.flags & kFsFlagForbidIndirect) != 0) {
    return PermissionDenied(
        "this filesystem enforces extent addressing (§5 mitigation)");
  }
  RHSD_ASSIGN_OR_RETURN(const auto parent, resolve_parent(cred, path));
  RHSD_ASSIGN_OR_RETURN(InodeDisk dir, load_inode(parent.first));
  if (!CanWrite(cred, dir)) {
    return PermissionDenied("no write permission on parent directory");
  }
  if (dir_lookup(parent.first, dir, parent.second).ok()) {
    return AlreadyExists(std::string(path));
  }

  RHSD_ASSIGN_OR_RETURN(const std::uint32_t ino, alloc_inode());
  InodeDisk inode{};
  inode.mode = static_cast<std::uint16_t>(kIfReg | (perm & 07777));
  inode.uid = cred.uid;
  inode.links = 1;
  inode.generation = generation_counter_++;
  if (use_extents) {
    inode.flags = kInodeFlagExtents;
    ExtentTree::InitRoot(inode);
  }
  RHSD_RETURN_IF_ERROR(store_inode(ino, inode));
  RHSD_RETURN_IF_ERROR(dir_add(parent.first, dir, parent.second, ino,
                               kDtReg));
  RHSD_RETURN_IF_ERROR(store_inode(parent.first, dir));
  RHSD_RETURN_IF_ERROR(write_super());
  return ino;
}

StatusOr<std::uint32_t> FileSystem::mkdir(const Credentials& cred,
                                          std::string_view path,
                                          std::uint16_t perm) {
  RHSD_ASSIGN_OR_RETURN(const auto parent, resolve_parent(cred, path));
  RHSD_ASSIGN_OR_RETURN(InodeDisk dir, load_inode(parent.first));
  if (!CanWrite(cred, dir)) {
    return PermissionDenied("no write permission on parent directory");
  }
  if (dir_lookup(parent.first, dir, parent.second).ok()) {
    return AlreadyExists(std::string(path));
  }

  RHSD_ASSIGN_OR_RETURN(const std::uint32_t ino, alloc_inode());
  InodeDisk inode{};
  inode.mode = static_cast<std::uint16_t>(kIfDir | (perm & 07777));
  inode.uid = cred.uid;
  inode.links = 2;
  inode.flags = kInodeFlagExtents;
  inode.generation = generation_counter_++;
  ExtentTree::InitRoot(inode);
  RHSD_RETURN_IF_ERROR(store_inode(ino, inode));
  RHSD_RETURN_IF_ERROR(dir_add(ino, inode, ".", ino, kDtDir));
  RHSD_RETURN_IF_ERROR(dir_add(ino, inode, "..", parent.first, kDtDir));
  RHSD_RETURN_IF_ERROR(store_inode(ino, inode));
  RHSD_RETURN_IF_ERROR(
      dir_add(parent.first, dir, parent.second, ino, kDtDir));
  ++dir.links;
  RHSD_RETURN_IF_ERROR(store_inode(parent.first, dir));
  RHSD_RETURN_IF_ERROR(write_super());
  return ino;
}

StatusOr<std::uint32_t> FileSystem::lookup(const Credentials& cred,
                                           std::string_view path) {
  return resolve(cred, path);
}

Status FileSystem::unlink(const Credentials& cred, std::string_view path) {
  RHSD_ASSIGN_OR_RETURN(const auto parent, resolve_parent(cred, path));
  RHSD_ASSIGN_OR_RETURN(InodeDisk dir, load_inode(parent.first));
  if (!CanWrite(cred, dir)) {
    return PermissionDenied("no write permission on parent directory");
  }
  RHSD_ASSIGN_OR_RETURN(const std::uint32_t ino,
                        dir_lookup(parent.first, dir, parent.second));
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (IsDir(inode)) {
    RHSD_ASSIGN_OR_RETURN(const auto entries, dir_list(ino, inode));
    if (entries.size() > 2) {
      return FailedPrecondition("directory not empty");
    }
  }
  RHSD_RETURN_IF_ERROR(free_file_blocks(ino, inode));
  InodeDisk cleared{};
  RHSD_RETURN_IF_ERROR(store_inode(ino, cleared));
  free_inode(ino);
  RHSD_RETURN_IF_ERROR(dir_remove(parent.first, dir, parent.second));
  RHSD_RETURN_IF_ERROR(store_inode(parent.first, dir));
  return write_super();
}

StatusOr<std::vector<DirEntry>> FileSystem::readdir(const Credentials& cred,
                                                    std::string_view path) {
  RHSD_ASSIGN_OR_RETURN(const std::uint32_t ino, resolve(cred, path));
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (!IsDir(inode)) return InvalidArgument("not a directory");
  if (!CanRead(cred, inode)) {
    return PermissionDenied("no read permission on directory");
  }
  return dir_list(ino, inode);
}

// ---- Data path ----

Status FileSystem::write(const Credentials& cred, std::uint32_t ino,
                         std::uint64_t offset,
                         std::span<const std::uint8_t> data) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (!IsReg(inode)) return InvalidArgument("not a regular file");
  if (!CanWrite(cred, inode)) {
    return PermissionDenied("no write permission");
  }
  bool inode_dirty = false;
  std::uint64_t pos = offset;
  std::size_t done = 0;
  std::vector<std::uint8_t> buf(kFsBlockSize);
  while (done < data.size()) {
    const auto file_block = static_cast<std::uint32_t>(pos / kFsBlockSize);
    const auto in_block = static_cast<std::uint32_t>(pos % kFsBlockSize);
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kFsBlockSize - in_block, data.size() - done));
    RHSD_ASSIGN_OR_RETURN(
        const std::uint64_t phys,
        map_block(ino, inode, file_block, /*alloc=*/true, &inode_dirty));
    if (chunk == kFsBlockSize) {
      RHSD_RETURN_IF_ERROR(
          dev_.write_block(phys, data.subspan(done, chunk)));
    } else {
      RHSD_RETURN_IF_ERROR(dev_.read_block(phys, buf));
      std::memcpy(buf.data() + in_block, data.data() + done, chunk);
      RHSD_RETURN_IF_ERROR(dev_.write_block(phys, buf));
    }
    pos += chunk;
    done += chunk;
  }
  if (pos > inode.size) {
    inode.size = pos;
    inode_dirty = true;
  }
  if (inode_dirty) {
    RHSD_RETURN_IF_ERROR(store_inode(ino, inode));
  }
  return Status::Ok();
}

StatusOr<std::size_t> FileSystem::read(const Credentials& cred,
                                       std::uint32_t ino,
                                       std::uint64_t offset,
                                       std::span<std::uint8_t> out) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (!IsReg(inode)) return InvalidArgument("not a regular file");
  if (!CanRead(cred, inode)) {
    return PermissionDenied("no read permission");
  }
  if (offset >= inode.size) return std::size_t{0};
  const std::uint64_t limit =
      std::min<std::uint64_t>(out.size(), inode.size - offset);
  std::uint64_t pos = offset;
  std::size_t done = 0;
  std::vector<std::uint8_t> buf(kFsBlockSize);
  while (done < limit) {
    const auto file_block = static_cast<std::uint32_t>(pos / kFsBlockSize);
    const auto in_block = static_cast<std::uint32_t>(pos % kFsBlockSize);
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kFsBlockSize - in_block, limit - done));
    RHSD_ASSIGN_OR_RETURN(
        const std::uint64_t phys,
        map_block(ino, inode, file_block, /*alloc=*/false, nullptr));
    if (phys == 0) {
      std::memset(out.data() + done, 0, chunk);  // hole
    } else {
      RHSD_RETURN_IF_ERROR(dev_.read_block(phys, buf));
      std::memcpy(out.data() + done, buf.data() + in_block, chunk);
    }
    pos += chunk;
    done += chunk;
  }
  return static_cast<std::size_t>(limit);
}

StatusOr<std::vector<std::vector<std::uint8_t>>> FileSystem::read_file_blocks(
    const Credentials& cred, std::uint32_t ino, std::uint32_t first_block,
    std::uint32_t count) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (!IsReg(inode)) return InvalidArgument("not a regular file");
  if (!CanRead(cred, inode)) {
    return PermissionDenied("no read permission");
  }

  // Resolve every mapping up front so the shared metadata (extent tree
  // or level-1 indirect tables) is fetched once per run instead of once
  // per block.
  std::vector<std::uint64_t> phys(count, IndirectMapper::kUnreadable);
  if (UsesExtents(inode)) {
    const ExtentCsumCtx ctx = csum_ctx(ino, inode);
    auto extents = ExtentTree::Load(dev_, inode, ctx);
    if (extents.ok()) {
      for (std::uint32_t i = 0; i < count; ++i) {
        phys[i] = ExtentTree::Lookup(*extents, first_block + i);
      }
    }
  } else {
    IndirectMapper mapper(
        dev_, inode, [this] { return alloc_block(); },
        [this](std::uint64_t b) { free_block(b); });
    phys = mapper.get_run(first_block, count);
  }

  std::vector<std::vector<std::uint8_t>> out(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t off =
        (static_cast<std::uint64_t>(first_block) + i) * kFsBlockSize;
    if (off + kFsBlockSize > inode.size) continue;  // not fully inside
    if (phys[i] == IndirectMapper::kUnreadable) continue;
    std::vector<std::uint8_t>& block = out[i];
    block.assign(kFsBlockSize, 0);
    if (phys[i] == 0) continue;  // hole reads back zeros
    if (!dev_.read_block(phys[i], block).ok()) block.clear();
  }
  return out;
}

StatusOr<FileInfo> FileSystem::stat(std::uint32_t ino) {
  RHSD_ASSIGN_OR_RETURN(const InodeDisk inode, load_inode(ino));
  return FileInfo{ino,         inode.mode, inode.uid,
                  inode.flags, inode.size, inode.links};
}

Status FileSystem::chown(const Credentials& cred, std::uint32_t ino,
                         std::uint16_t new_uid) {
  if (!cred.is_root()) return PermissionDenied("only root may chown");
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  inode.uid = new_uid;
  return store_inode(ino, inode);
}

Status FileSystem::chmod(const Credentials& cred, std::uint32_t ino,
                         std::uint16_t perm) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (!cred.is_root() && cred.uid != inode.uid) {
    return PermissionDenied("only the owner may chmod");
  }
  inode.mode =
      static_cast<std::uint16_t>((inode.mode & kTypeMask) | (perm & 07777));
  return store_inode(ino, inode);
}

Status FileSystem::truncate(const Credentials& cred, std::uint32_t ino,
                            std::uint64_t new_size) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (!IsReg(inode)) return InvalidArgument("not a regular file");
  if (!CanWrite(cred, inode)) {
    return PermissionDenied("no write permission");
  }
  if (new_size >= inode.size) {
    inode.size = new_size;  // sparse growth
    return store_inode(ino, inode);
  }
  if (new_size != 0) {
    return Unimplemented("partial shrink not supported; truncate to 0");
  }
  RHSD_RETURN_IF_ERROR(free_file_blocks(ino, inode));
  inode.size = 0;
  RHSD_RETURN_IF_ERROR(store_inode(ino, inode));
  return write_super();
}

// ---- Introspection ----

StatusOr<std::uint64_t> FileSystem::bmap(std::uint32_t ino,
                                         std::uint32_t file_block) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  return map_block(ino, inode, file_block, /*alloc=*/false, nullptr);
}

StatusOr<std::uint64_t> FileSystem::indirect_block_of(
    std::uint32_t ino, std::uint32_t file_block) {
  RHSD_ASSIGN_OR_RETURN(InodeDisk inode, load_inode(ino));
  if (UsesExtents(inode)) {
    return InvalidArgument("extent-mapped file has no indirect blocks");
  }
  IndirectMapper mapper(
      dev_, inode, [this] { return alloc_block(); },
      [this](std::uint64_t b) { free_block(b); });
  return mapper.l1_indirect_block(file_block);
}

}  // namespace rhsd::fs
