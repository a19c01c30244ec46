// On-disk R-tree node layout (two versions, one block each, §3.1).
//
// A node is exactly one device block: a 16-byte header followed by the
// entry area.  An entry is four coordinates (for D = 2) plus a 4-byte
// identifier — a child PageId in internal nodes, an opaque DataId in
// leaves.  Entry *bytes* per slot are 2·D·8 + 4 = 36 for D = 2, so with
// 4 KB blocks both layouts give the paper's maximum fan-out of 113.
//
// Header (both versions):
//   offset 0  u32  magic "PRTN"
//   offset 4  u16  tree level (0 = leaf)
//   offset 6  u16  entry count
//   offset 8  u8   layout: 0 = v1 packed AoS, 2 = v2 SoA
//   offset 9..15   zero
//
// v1 (AoS, legacy): packed 36-byte entries, entry i at
// header + i·36.  Pre-versioning files carry 0 at offset 8 because
// Format always zeroed bytes 8..15 — which is exactly the v1 tag, so
// every persisted v1 tree reads unchanged.
//
// v2 (SoA, current default): the entry area is five contiguous runs,
// each sized to the node's *capacity* (not its count):
//   lo[0][cap] … lo[D-1][cap]  hi[0][cap] … hi[D-1][cap]   (doubles)
//   id[cap]                                                 (u32)
// For D = 2 that is xmin[113] ymin[113] xmax[113] ymax[113] id[113].
// The runs exist so the batched kernels in geom/rect_batch.h can test
// 4 (AVX2) / 2 (NEON) MBRs per lane straight off a pinned pool frame —
// see rtree/node_scan.h for the traversal-side wrapper and the dispatch
// policy (runtime CPU probe, PRTREE_NO_SIMD=1 / -DPRTREE_SIMD=OFF
// force scalar; results are bit-identical either way).
//
// Neither layout naturally aligns fields inside the page, so scalar
// access goes through memcpy-based readers/writers (no UB; the compiler
// lowers them to plain loads/stores) and the batched kernels use
// unaligned loads.
//
// Writers (Format) emit v2 unless SetDefaultNodeLayout says otherwise
// or an explicit layout is passed; readers branch per node on the
// layout byte, so v1 and v2 nodes can coexist in one device file and
// AttachTree/LoadTree need no migration step.  Capacity, fan-out and
// therefore tree shape and the §3.3 demand-I/O counts are identical
// across versions.
//
// Two views exist over a block: NodeView (mutable, for builders and the
// update paths, over a caller-owned buffer) and ConstNodeView (read-only,
// what the query engine wraps directly over pinned BufferPool memory — the
// zero-copy read path).  Both are the same template; the mutators are
// compiled out of the const instantiation.

#ifndef PRTREE_RTREE_NODE_H_
#define PRTREE_RTREE_NODE_H_

#include <atomic>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "geom/rect.h"
#include "io/block_device.h"
#include "util/check.h"

namespace prtree {

/// Byte offset of the first entry in a node block.
inline constexpr size_t kNodeHeaderSize = 16;

/// Magic tag marking a formatted R-tree node block.
inline constexpr uint32_t kNodeMagic = 0x5052544Eu;  // "PRTN"

/// Byte offset of the layout-version byte inside the header.
inline constexpr size_t kNodeLayoutOffset = 8;

/// On-disk node layout version.  The enumerator values are the on-disk
/// layout-byte values; kAoS is 0 so that pre-versioning files (which
/// zeroed bytes 8..15) read as v1 without migration.
enum class NodeLayout : uint8_t {
  kAoS = 0,  ///< v1: packed (lo…, hi…, id) tuples of 2·D·8+4 bytes.
  kSoA = 2,  ///< v2: capacity-sized lo/hi coordinate runs, then an id run.
};

namespace internal {
inline std::atomic<NodeLayout>& DefaultNodeLayoutSlot() {
  static std::atomic<NodeLayout> layout{NodeLayout::kSoA};
  return layout;
}
}  // namespace internal

/// Layout Format() uses when none is passed explicitly (process-wide).
inline NodeLayout DefaultNodeLayout() {
  return internal::DefaultNodeLayoutSlot().load(std::memory_order_relaxed);
}

/// \brief Overrides the process-wide default layout for newly formatted
/// nodes; returns the previous default.  Meant for benches and the
/// format-compat tests that need to emit v1 trees through the unchanged
/// loaders — production code leaves this at kSoA.
inline NodeLayout SetDefaultNodeLayout(NodeLayout layout) {
  return internal::DefaultNodeLayoutSlot().exchange(layout,
                                                    std::memory_order_relaxed);
}

/// Size in bytes of one node entry for dimension D (per-slot cost in both
/// layouts: v1 stores it packed, v2 splits it across the runs).
template <int D>
constexpr size_t NodeEntrySize() {
  return 2 * D * sizeof(Real) + sizeof(uint32_t);
}

/// Maximum number of entries (fan-out) for dimension D and a given block
/// size.  113 for D = 2 with 4 KB blocks, matching §3.1.  Identical for
/// v1 and v2 — the layout version never changes tree shape.
template <int D>
constexpr size_t NodeCapacity(size_t block_size) {
  return (block_size - kNodeHeaderSize) / NodeEntrySize<D>();
}

/// \brief View over one node block in caller- or pool-owned memory.
///
/// The view does not own the buffer and performs no I/O.  Mutable views
/// wrap private buffers (callers read the block, wrap it, edit, and write
/// it back); const views may wrap shared pinned pool frames.
///
/// The constructor snapshots the layout byte, so a view must be built
/// over an already-formatted (or about-to-be-Format()ed) block; Format
/// re-snapshots.  All scalar accessors (GetRect/GetId/SetEntry/…) work on
/// both layouts; the *Run accessors are the SoA fast path and require
/// layout() == kSoA.
template <int D, bool Mutable>
class BasicNodeView {
 public:
  using BytePtr = std::conditional_t<Mutable, std::byte*, const std::byte*>;
  using RealPtr = std::conditional_t<Mutable, Real*, const Real*>;

  /// Wraps `block` (block_size bytes).  Does not validate; call IsFormatted
  /// or Format first.
  BasicNodeView(BytePtr block, size_t block_size)
      : block_(block), block_size_(block_size),
        capacity_(NodeCapacity<D>(block_size)) {
    soa_ = static_cast<uint8_t>(block_[kNodeLayoutOffset]) ==
           static_cast<uint8_t>(NodeLayout::kSoA);
  }

  /// Initialises an empty node at the given tree level (0 = leaf) in the
  /// given layout (process default if omitted).
  ///
  /// Zeroes the whole block past the magic/level/count words, not just
  /// the header: node buffers are reused across flushes (NodeWriter) and
  /// across serial/parallel serialization paths, and the bulk-load
  /// determinism contract compares node blocks byte for byte — unused
  /// trailing slots, the v2 capacity-sized run tails past count, and the
  /// slack between the entry area and the end of the block must all hold
  /// deterministic zeros, never a previous node's stale bytes.
  void Format(uint16_t level)
    requires Mutable
  {
    Format(level, DefaultNodeLayout());
  }

  void Format(uint16_t level, NodeLayout layout)
    requires Mutable
  {
    WriteU32(0, kNodeMagic);
    WriteU16(4, level);
    WriteU16(6, 0);  // count
    std::memset(block_ + kNodeLayoutOffset, 0,
                block_size_ - kNodeLayoutOffset);
    block_[kNodeLayoutOffset] = static_cast<std::byte>(layout);
    soa_ = layout == NodeLayout::kSoA;
  }

  /// The block carries the node magic, a known layout byte and an entry
  /// count within capacity().  (The layout check matters for AttachTree
  /// root validation: a garbage block that happens to start with the magic
  /// still gets rejected unless its layout byte is one of the two defined
  /// values.  The count bounds every entry loop over the block.)
  bool IsFormatted() const {
    if (ReadU32(0) != kNodeMagic || count() > capacity_) return false;
    uint8_t tag = static_cast<uint8_t>(block_[kNodeLayoutOffset]);
    return tag == static_cast<uint8_t>(NodeLayout::kAoS) ||
           tag == static_cast<uint8_t>(NodeLayout::kSoA);
  }

  /// This node's on-disk layout version.
  NodeLayout layout() const {
    return soa_ ? NodeLayout::kSoA : NodeLayout::kAoS;
  }

  /// Tree level of this node; leaves are level 0.
  uint16_t level() const { return ReadU16(4); }
  bool is_leaf() const { return level() == 0; }

  uint16_t count() const { return ReadU16(6); }
  void set_count(uint16_t c)
    requires Mutable
  {
    PRTREE_DCHECK(c <= capacity_);
    WriteU16(6, c);
  }

  size_t capacity() const { return capacity_; }
  bool full() const { return count() >= capacity_; }

  /// Bounding rectangle of entry `i`.
  Rect<D> GetRect(int i) const {
    PRTREE_DCHECK(i >= 0 && i < count());
    Rect<D> r;
    if (soa_) {
      for (int d = 0; d < D; ++d) {
        std::memcpy(&r.lo[d], CoordPtr(d, i), sizeof(Real));
        std::memcpy(&r.hi[d], CoordPtr(D + d, i), sizeof(Real));
      }
    } else {
      const std::byte* p = AosEntryPtr(i);
      std::memcpy(r.lo.data(), p, D * sizeof(Real));
      std::memcpy(r.hi.data(), p + D * sizeof(Real), D * sizeof(Real));
    }
    return r;
  }

  /// Child PageId (internal node) or DataId (leaf) of entry `i`.
  uint32_t GetId(int i) const {
    PRTREE_DCHECK(i >= 0 && i < count());
    uint32_t id;
    if (soa_) {
      std::memcpy(&id, IdBase() + static_cast<size_t>(i) * sizeof(uint32_t),
                  sizeof(id));
    } else {
      std::memcpy(&id, AosEntryPtr(i) + 2 * D * sizeof(Real), sizeof(id));
    }
    return id;
  }

  /// Overwrites entry `i`.
  void SetEntry(int i, const Rect<D>& r, uint32_t id)
    requires Mutable
  {
    PRTREE_DCHECK(i >= 0 && i < static_cast<int>(capacity_));
    if (soa_) {
      for (int d = 0; d < D; ++d) {
        std::memcpy(CoordPtr(d, i), &r.lo[d], sizeof(Real));
        std::memcpy(CoordPtr(D + d, i), &r.hi[d], sizeof(Real));
      }
      std::memcpy(IdBase() + static_cast<size_t>(i) * sizeof(uint32_t), &id,
                  sizeof(id));
    } else {
      std::byte* p = AosEntryPtr(i);
      std::memcpy(p, r.lo.data(), D * sizeof(Real));
      std::memcpy(p + D * sizeof(Real), r.hi.data(), D * sizeof(Real));
      std::memcpy(p + 2 * D * sizeof(Real), &id, sizeof(id));
    }
  }

  /// Appends an entry; requires !full().
  void Append(const Rect<D>& r, uint32_t id)
    requires Mutable
  {
    uint16_t c = count();
    PRTREE_CHECK(c < capacity_);
    SetEntry(c, r, id);
    set_count(c + 1);
  }

  /// Removes entry `i` by swapping the last entry into its slot.
  ///
  /// In v2 the vacated last slot is re-zeroed so partial nodes keep the
  /// deterministic zeroed-tail contract after deletes, matching what
  /// Format + count Appends would have produced.  (v1 kept stale bytes
  /// past count historically; that behaviour is unchanged for v1 blocks.)
  void RemoveSwap(int i)
    requires Mutable
  {
    uint16_t c = count();
    PRTREE_DCHECK(i >= 0 && i < c);
    if (i != c - 1) SetEntry(i, GetRect(c - 1), GetId(c - 1));
    if (soa_) SetEntry(c - 1, Rect<D>{}, 0);
    set_count(c - 1);
  }

  /// Minimal bounding rectangle over all entries (Empty() if none).
  Rect<D> ComputeMbr() const {
    Rect<D> mbr = Rect<D>::Empty();
    for (int i = 0; i < count(); ++i) mbr.ExtendToCover(GetRect(i));
    return mbr;
  }

  // ---- SoA fast-path accessors (layout() == kSoA only) -----------------
  //
  // Run pointers are NOT suitably aligned for Real in general (the header
  // is 16 bytes but the block base can be anything) — hand them only to
  // consumers that load unaligned, i.e. the rect_batch kernels.

  /// Start of coordinate run k: runs 0..D-1 are lo[0..D-1], runs D..2D-1
  /// are hi[0..D-1].  For D = 2: 0 = xmin, 1 = ymin, 2 = xmax, 3 = ymax.
  RealPtr CoordRun(int k) const {
    PRTREE_DCHECK(soa_ && k >= 0 && k < 2 * D);
    return reinterpret_cast<RealPtr>(block_ + kNodeHeaderSize +
                                     static_cast<size_t>(k) * capacity_ *
                                         sizeof(Real));
  }

 private:
  BytePtr AosEntryPtr(int i) const {
    return block_ + kNodeHeaderSize +
           static_cast<size_t>(i) * NodeEntrySize<D>();
  }

  // Byte address of coordinate run k, element i (SoA).
  BytePtr CoordPtr(int k, int i) const {
    return block_ + kNodeHeaderSize +
           (static_cast<size_t>(k) * capacity_ + static_cast<size_t>(i)) *
               sizeof(Real);
  }

  // Start of the id run (SoA): after the 2·D coordinate runs.
  BytePtr IdBase() const {
    return block_ + kNodeHeaderSize + 2 * D * capacity_ * sizeof(Real);
  }

  uint32_t ReadU32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, block_ + off, sizeof(v));
    return v;
  }
  uint16_t ReadU16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, block_ + off, sizeof(v));
    return v;
  }
  void WriteU32(size_t off, uint32_t v)
    requires Mutable
  {
    std::memcpy(block_ + off, &v, sizeof(v));
  }
  void WriteU16(size_t off, uint16_t v)
    requires Mutable
  {
    std::memcpy(block_ + off, &v, sizeof(v));
  }

  BytePtr block_;
  size_t block_size_;
  size_t capacity_;
  bool soa_;
};

/// Mutable view over a caller-owned buffer (builders, update paths).
template <int D>
using NodeView = BasicNodeView<D, true>;

/// Read-only view, safe over shared pinned pool memory (query paths).
template <int D>
using ConstNodeView = BasicNodeView<D, false>;

}  // namespace prtree

#endif  // PRTREE_RTREE_NODE_H_
