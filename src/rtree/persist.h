// Tree persistence.  An adopted index library must outlive the process;
// the paper's trees live on disk by construction (§3.1).  There is one
// on-disk format, the FileBlockDevice file (io/file_block_device.h), whose
// superblock records the tree's root metadata.  Two ways to use it:
//
// 1. In place (PersistTree/AttachTree): when the tree already lives on a
//    FileBlockDevice, the device file IS the index.  PersistTree stores the
//    tree's root metadata in the device's superblock and Sync()s;
//    AttachTree reads it back after reopening the file, with no page
//    copying or remapping — the crash-reopen path.  This is how the CLI
//    and the examples open file-backed indexes.
//
// 2. By copy (SaveTree/LoadTree): SaveTree copies a tree from any device
//    onto a fresh device file and persists it there; LoadTree attaches and
//    validates such a file, then copies the tree onto any device, in any
//    allocation state.  A copy walks the source in BFS order, allocating
//    each target page as it is discovered and remapping child ids to it.
//    So a saved file also opens in place with AttachTree, and a
//    PersistTree'd or cleanly closed journaled index loads with LoadTree.
//    Limits: the block size must be at least FileBlockDevice::kMinBlockSize
//    and match the target's; LoadTree opens the file read-write and takes
//    only what AttachTree and ValidateTree accept, a balanced tree; files
//    in the host-file snapshot format of earlier versions are not read.

#ifndef PRTREE_RTREE_PERSIST_H_
#define PRTREE_RTREE_PERSIST_H_

#include <memory>
#include <string>
#include <vector>

#include "io/file_block_device.h"
#include "io/journal.h"
#include "rtree/rtree.h"
#include "rtree/validate.h"
#include "util/status.h"

namespace prtree {

namespace persist_internal {

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

/// \brief Copies `src` onto `dst`'s device and points `dst` (empty, same
/// block size) at the copy.  Walks `src` in BFS order, allocating each
/// target page as it is discovered and remapping child ids to it, so the
/// i-th page of the BFS order lands on the i-th page allocated; each
/// source page is read once.  A failed read or write frees the pages
/// allocated so far.
template <int D>
Status CopyTree(const RTree<D>& src, RTree<D>* dst) {
  if (src.empty()) return Status::OK();
  BlockDevice* target = dst->device();
  std::vector<PageId> from{src.root()};
  std::vector<PageId> to{target->Allocate()};
  std::vector<std::byte> buf(src.block_size());
  for (size_t i = 0; i < from.size(); ++i) {
    Status st = src.device()->Read(from[i], buf.data());
    if (st.ok()) {
      NodeView<D> node(buf.data(), src.block_size());
      for (int e = 0; !node.is_leaf() && e < node.count(); ++e) {
        from.push_back(node.GetId(e));
        to.push_back(target->Allocate());
        node.SetEntry(e, node.GetRect(e), to.back());
      }
      st = target->Write(to[i], buf.data());
    }
    if (!st.ok()) {
      for (PageId p : to) target->Free(p);
      return st;
    }
  }
  dst->SetRoot(to[0], src.height(), src.size());
  return Status::OK();
}

}  // namespace persist_internal

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
/// to the root recorded by a prior PersistTree (or journal checkpoint) on
/// the same file; a record of an empty tree leaves `tree` empty.  No
/// pages move: the device file already holds the tree.
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
  // state must still match the snapshot taken at persist time.  A free
  // page whose stamp was destroyed fails it too (the open counts the page
  // as leaked, which raises num_allocated), and rightly: the destroyed
  // stamp shows that the file was written after its last Sync.
  if (meta.allocated != device->num_allocated() ||
      meta.peak_allocated != device->peak_allocated()) {
    return Status::Corruption(
        "tree metadata is stale (the device was mutated after the last "
        "PersistTree) — re-run PersistTree before closing");
  }
  // A journaled index closed empty records no root (EncodeTreeMeta).
  if (meta.root == kInvalidPageId && meta.height == 0 &&
      meta.record_count == 0) {
    return Status::OK();
  }
  // Otherwise the recorded root must be a live, formatted node.
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

/// \brief Writes `tree` (unchanged) to a fresh device file at `path`,
/// with the tree's block size, truncating any existing file, and persists
/// it there: the file opens in place with AttachTree and loads with
/// LoadTree.
template <int D>
Status SaveTree(const RTree<D>& tree, const std::string& path) {
  if (tree.empty()) {
    return Status::InvalidArgument("cannot save an empty tree");
  }
  FileDeviceOptions opts;
  opts.block_size = tree.block_size();
  opts.truncate = true;
  std::unique_ptr<FileBlockDevice> device;
  PRTREE_RETURN_NOT_OK(FileBlockDevice::Open(path, opts, &device));
  RTree<D> saved(device.get());
  PRTREE_RETURN_NOT_OK(persist_internal::CopyTree(tree, &saved));
  return PersistTree(saved, device.get());
}

/// \brief Loads the tree persisted in the device file at `path` into
/// `tree` (must be empty; its device's block size must match the file's).
/// The file is attached and validated before anything is allocated on
/// `tree`'s device, so a damaged file returns a Status and leaves that
/// device untouched.  An empty recorded tree loads as an empty tree.
template <int D>
Status LoadTree(const std::string& path, RTree<D>* tree) {
  if (!tree->empty()) {
    return Status::InvalidArgument("output tree is not empty");
  }
  FileDeviceOptions opts;
  opts.block_size = tree->block_size();
  opts.must_exist = true;
  std::unique_ptr<FileBlockDevice> device;
  PRTREE_RETURN_NOT_OK(FileBlockDevice::Open(path, opts, &device));
  RTree<D> saved(device.get());
  PRTREE_RETURN_NOT_OK(AttachTree(device.get(), &saved));
  PRTREE_RETURN_NOT_OK(ValidateTree(saved));
  return persist_internal::CopyTree(saved, tree);
}

}  // namespace prtree

#endif  // PRTREE_RTREE_PERSIST_H_
