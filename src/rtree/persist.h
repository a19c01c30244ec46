// Tree persistence.  An adopted index library must outlive the process;
// the paper's trees live on disk by construction (§3.1).  Two mechanisms:
//
// 1. Snapshots (SaveTree/LoadTree): copy a tree out to a standalone host
//    file and restore it onto ANY device — either backend, any allocation
//    state.  The format is position-independent: pages are written in BFS
//    order and child PageIds are remapped to BFS indices on save and back
//    to freshly allocated pages on load (only the block size must match).
//    Layout: header { magic, version, block_size, D, height, page_count,
//    record_count } followed by page_count raw blocks.
//
// 2. In-place reopen (PersistTree/AttachTree): when the tree already lives
//    on a FileBlockDevice, the device file IS the index.  PersistTree
//    stores the tree's root metadata in the device's superblock and
//    Sync()s; AttachTree reads it back after reopening the file, with no
//    page copying or remapping — the crash-reopen path.  This is how the
//    CLI and the examples open file-backed indexes.

#ifndef PRTREE_RTREE_PERSIST_H_
#define PRTREE_RTREE_PERSIST_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/file_block_device.h"
#include "io/journal.h"
#include "rtree/rtree.h"
#include "util/status.h"

namespace prtree {

namespace persist_internal {

inline constexpr uint32_t kSnapshotMagic = 0x50525453u;  // "PRTS"
inline constexpr uint32_t kSnapshotVersion = 1;

struct SnapshotHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t block_size;
  uint32_t dimension;
  int32_t height;
  uint32_t page_count;
  uint64_t record_count;
};

inline constexpr uint32_t kTreeMetaMagic = 0x5052544Du;  // "PRTM"
inline constexpr uint32_t kTreeMetaVersion = 1;

/// Root metadata stored in a FileBlockDevice's superblock user-meta region
/// by PersistTree (48 bytes, well under kUserMetaCapacity).  The
/// allocation counters snapshot the device at persist time: any
/// Allocate/Free after PersistTree (updates allocate and free pages) makes
/// the record stale, and AttachTree detects the mismatch rather than
/// attaching to a root that may have moved.
struct TreeMetaRecord {
  uint32_t magic;
  uint32_t version;
  uint32_t dimension;
  int32_t height;
  uint32_t root;
  uint32_t journal_epoch;   // 0: no journal; else must match the anchor
  uint64_t record_count;
  uint64_t allocated;       // device num_allocated() at persist time
  uint64_t peak_allocated;  // device peak_allocated() at persist time
};
static_assert(sizeof(TreeMetaRecord) <= FileBlockDevice::kUserMetaCapacity);

/// The meta record of `tree` under journal epoch `journal_epoch` (0: no
/// journal): the one encoding PersistTree and journal checkpoints store.
/// An empty tree records root kInvalidPageId at height 0.
template <int D>
TreeMetaRecord EncodeTreeMeta(const RTree<D>& tree, uint32_t journal_epoch,
                              uint64_t allocated, uint64_t peak_allocated) {
  return TreeMetaRecord{kTreeMetaMagic,
                        kTreeMetaVersion,
                        static_cast<uint32_t>(D),
                        tree.empty() ? 0 : tree.height(),
                        tree.empty() ? kInvalidPageId : tree.root(),
                        journal_epoch,
                        tree.size(),
                        allocated,
                        peak_allocated};
}

/// \brief Reads `device`'s meta record and journal anchor, and checks
/// that they describe a D-dimensional tree whose journal epoch the anchor
/// (or its absence) confirms.  NotFound when no record is stored;
/// Corruption on a bad magic, version, anchor or epoch; InvalidArgument
/// for another dimension.  AttachTree and JournaledTree::Open decode
/// through here.
template <int D>
Status DecodeTreeMeta(const FileBlockDevice& device, TreeMetaRecord* meta,
                      JournalAnchor* anchor, bool* anchor_present) {
  *meta = TreeMetaRecord{};
  if (device.GetUserMeta(meta, sizeof(*meta)) < sizeof(*meta)) {
    return Status::NotFound("device holds no persisted tree metadata");
  }
  if (meta->magic != kTreeMetaMagic) {
    return Status::Corruption("bad tree metadata magic");
  }
  if (meta->version != kTreeMetaVersion) {
    return Status::Corruption("unsupported tree metadata version");
  }
  if (meta->dimension != static_cast<uint32_t>(D)) {
    return Status::InvalidArgument("persisted tree dimension mismatch");
  }
  PRTREE_RETURN_NOT_OK(ReadJournalAnchor(device, anchor, anchor_present));
  if (*anchor_present && meta->journal_epoch != anchor->epoch) {
    return Status::Corruption(
        "journal epoch mismatch (meta epoch " +
        std::to_string(meta->journal_epoch) + ", anchor epoch " +
        std::to_string(anchor->epoch) + ")");
  }
  if (!*anchor_present && meta->journal_epoch != 0) {
    return Status::Corruption("tree metadata names journal epoch " +
                              std::to_string(meta->journal_epoch) +
                              " but the device holds no journal anchor");
  }
  return Status::OK();
}

}  // namespace persist_internal

/// \brief Writes `tree` to `path`.  The tree is unchanged.
template <int D>
Status SaveTree(const RTree<D>& tree, const std::string& path) {
  using persist_internal::SnapshotHeader;
  if (tree.empty()) {
    return Status::InvalidArgument("cannot snapshot an empty tree");
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }

  // BFS order assigns every page its index in the snapshot.
  std::vector<PageId> bfs{tree.root()};
  std::unordered_map<PageId, uint32_t> index{{tree.root(), 0}};
  std::vector<std::byte> buf(tree.block_size());
  for (size_t i = 0; i < bfs.size(); ++i) {
    Status st = tree.device()->Read(bfs[i], buf.data());
    if (!st.ok()) {
      std::fclose(f);
      return st;
    }
    NodeView<D> node(buf.data(), tree.block_size());
    if (node.is_leaf()) continue;
    for (int e = 0; e < node.count(); ++e) {
      PageId child = node.GetId(e);
      index.emplace(child, static_cast<uint32_t>(bfs.size()));
      bfs.push_back(child);
    }
  }

  SnapshotHeader header{persist_internal::kSnapshotMagic,
                        persist_internal::kSnapshotVersion,
                        static_cast<uint32_t>(tree.block_size()),
                        static_cast<uint32_t>(D),
                        tree.height(),
                        static_cast<uint32_t>(bfs.size()),
                        tree.size()};
  if (std::fwrite(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IoError("short write of snapshot header");
  }
  for (PageId page : bfs) {
    AbortIfError(tree.device()->Read(page, buf.data()));
    NodeView<D> node(buf.data(), tree.block_size());
    if (!node.is_leaf()) {
      for (int e = 0; e < node.count(); ++e) {
        node.SetEntry(e, node.GetRect(e), index.at(node.GetId(e)));
      }
    }
    if (std::fwrite(buf.data(), tree.block_size(), 1, f) != 1) {
      std::fclose(f);
      return Status::IoError("short write of snapshot page");
    }
  }
  if (std::fclose(f) != 0) return Status::IoError("close failed");
  return Status::OK();
}

/// \brief Loads a snapshot from `path` into `tree` (must be empty; its
/// device's block size must match the snapshot's).
template <int D>
Status LoadTree(const std::string& path, RTree<D>* tree) {
  using persist_internal::SnapshotHeader;
  if (!tree->empty()) {
    return Status::InvalidArgument("output tree is not empty");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);

  SnapshotHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::Corruption("short read of snapshot header");
  }
  if (header.magic != persist_internal::kSnapshotMagic) {
    std::fclose(f);
    return Status::Corruption("bad snapshot magic");
  }
  if (header.version != persist_internal::kSnapshotVersion) {
    std::fclose(f);
    return Status::Corruption("unsupported snapshot version");
  }
  if (header.dimension != static_cast<uint32_t>(D)) {
    std::fclose(f);
    return Status::InvalidArgument("snapshot dimension mismatch");
  }
  if (header.block_size != tree->block_size()) {
    std::fclose(f);
    return Status::InvalidArgument("snapshot block size mismatch");
  }
  if (header.page_count == 0) {
    std::fclose(f);
    return Status::Corruption("snapshot with zero pages");
  }
  // The body must hold every page the header claims, checked before the
  // destination pages are allocated: a hostile count must not allocate.
  std::fseek(f, 0, SEEK_END);
  const long file_bytes = std::ftell(f);
  std::fseek(f, sizeof(header), SEEK_SET);
  const uint64_t body_pages =
      file_bytes < static_cast<long>(sizeof(header))
          ? 0
          : (static_cast<uint64_t>(file_bytes) - sizeof(header)) /
                tree->block_size();
  if (header.page_count > body_pages) {
    std::fclose(f);
    return Status::Corruption(
        "snapshot truncated: header claims " +
        std::to_string(header.page_count) + " pages, file holds " +
        std::to_string(body_pages));
  }

  // Allocate destination pages up front so BFS indices can be remapped.
  std::vector<PageId> pages(header.page_count);
  for (auto& p : pages) p = tree->device()->Allocate();

  std::vector<std::byte> buf(tree->block_size());
  for (uint32_t i = 0; i < header.page_count; ++i) {
    if (std::fread(buf.data(), tree->block_size(), 1, f) != 1) {
      std::fclose(f);
      for (auto p : pages) tree->device()->Free(p);
      return Status::Corruption("snapshot truncated at page " +
                                std::to_string(i));
    }
    NodeView<D> node(buf.data(), tree->block_size());
    if (!node.IsFormatted()) {
      std::fclose(f);
      for (auto p : pages) tree->device()->Free(p);
      return Status::Corruption("snapshot page " + std::to_string(i) +
                                " is not a node");
    }
    // Page 0 is the root: every traversal starts from the recorded height.
    if (i == 0 && node.level() != header.height) {
      std::fclose(f);
      for (auto p : pages) tree->device()->Free(p);
      return Status::Corruption(
          "snapshot root is at level " + std::to_string(node.level()) +
          " but the header records height " + std::to_string(header.height));
    }
    if (!node.is_leaf()) {
      for (int e = 0; e < node.count(); ++e) {
        uint32_t idx = node.GetId(e);
        if (idx >= header.page_count) {
          std::fclose(f);
          for (auto p : pages) tree->device()->Free(p);
          return Status::Corruption("snapshot child index out of range");
        }
        node.SetEntry(e, node.GetRect(e), pages[idx]);
      }
    }
    AbortIfError(tree->device()->Write(pages[i], buf.data()));
  }
  std::fclose(f);
  tree->SetRoot(pages[0], header.height, header.record_count);
  return Status::OK();
}

/// \brief Records `tree`'s root metadata in its FileBlockDevice's
/// superblock and Sync()s, making the device file a self-describing,
/// reopenable index.  The tree must live on `device`.
template <int D>
Status PersistTree(const RTree<D>& tree, FileBlockDevice* device) {
  using persist_internal::TreeMetaRecord;
  if (tree.device() != device) {
    return Status::InvalidArgument("tree does not live on this device");
  }
  if (tree.empty()) {
    return Status::InvalidArgument("cannot persist an empty tree");
  }
  // journal_epoch 0 and a 48-byte user-meta write: persisting through this
  // plain path deliberately detaches any journal anchor the device held —
  // the caller is declaring this meta record the whole truth.  Journaled
  // trees persist through JournalWriter::Checkpoint instead.
  const TreeMetaRecord meta = persist_internal::EncodeTreeMeta(
      tree, 0, device->num_allocated(), device->peak_allocated());
  PRTREE_RETURN_NOT_OK(device->SetUserMeta(&meta, sizeof(meta)));
  return device->Sync();
}

/// \brief Reattaches `tree` (must be empty and constructed over `device`)
/// to the root recorded by a prior PersistTree on the same file.  No pages
/// move: the device file already holds the tree.
template <int D>
Status AttachTree(FileBlockDevice* device, RTree<D>* tree) {
  using persist_internal::TreeMetaRecord;
  if (tree->device() != device) {
    return Status::InvalidArgument("tree is not constructed over this device");
  }
  if (!tree->empty()) {
    return Status::InvalidArgument("output tree is not empty");
  }
  // A journaled device may only attach through this plain path when its
  // journal is quiescent: the anchor matches the meta record's epoch
  // (DecodeTreeMeta checks that) and no frames landed since the last
  // checkpoint.  Anything else means there may be committed ops newer than
  // the meta record, which only JournaledTree::Open knows how to recover.
  TreeMetaRecord meta{};
  JournalAnchor anchor{};
  bool anchor_present = false;
  PRTREE_RETURN_NOT_OK(persist_internal::DecodeTreeMeta<D>(
      *device, &meta, &anchor, &anchor_present));
  if (anchor_present) {
    bool pending = false;
    PRTREE_RETURN_NOT_OK(JournalPending(*device, anchor, &pending));
    if (pending) {
      return Status::Corruption(
          "device has unapplied journal frames — recover via "
          "JournaledTree::Open");
    }
  }
  // Staleness check: updates after the last PersistTree allocate/free
  // pages (a root split even moves the root), so the device's allocation
  // state must still match the snapshot taken at persist time.
  if (meta.allocated != device->num_allocated() ||
      meta.peak_allocated != device->peak_allocated()) {
    return Status::Corruption(
        "tree metadata is stale (the device was mutated after the last "
        "PersistTree) — re-run PersistTree before closing");
  }
  // And the recorded root must be a live, formatted node.
  std::vector<std::byte> buf(tree->block_size());
  Status st = device->Read(meta.root, buf.data());
  if (!st.ok()) {
    return Status::Corruption("persisted root page is not readable: " +
                              st.message());
  }
  const NodeView<D> root(buf.data(), tree->block_size());
  if (!root.IsFormatted()) {
    return Status::Corruption("persisted root page is not a node");
  }
  if (root.level() != meta.height) {
    return Status::Corruption(
        "persisted root is at level " + std::to_string(root.level()) +
        " but the metadata records height " + std::to_string(meta.height));
  }
  tree->SetRoot(meta.root, meta.height, meta.record_count);
  return Status::OK();
}

}  // namespace prtree

#endif  // PRTREE_RTREE_PERSIST_H_
