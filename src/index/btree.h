#ifndef COLT_INDEX_BTREE_H_
#define COLT_INDEX_BTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace colt {

/// Row identifier within a table (position in the column store).
using RowId = int64_t;

/// In-memory B+-tree from int64 keys to row ids, supporting duplicates.
///
/// This is the physical structure the Scheduler materializes. It is a real
/// tree (fixed fanout, split/bulk-load, linked leaves) rather than a
/// std::map so that leaf-page counts — the quantity the cost model charges
/// for — fall out of the actual structure. Leaf counts, heights and the
/// leaves a scan touches follow from four structural decisions, which
/// `BTree.InsertEraseShapeIsPinned` pins: Insert splits every full node on
/// its way down at mid = count/2; reads and Erase descend by lower bound
/// and walk the leaf chain; Erase is leaf-local and leaves an emptied leaf
/// linked; and BulkLoad packs leaves full, bottom-up.
///
/// Concurrency (DESIGN.md §15): one writer, and never beside a reader.
/// Any number of threads may read a tree that nobody writes. Insert and
/// Erase run on the owner thread only, and only while no thread reads the
/// tree: ServeWorkload applies writes behind its write fence, and an index
/// build fills a private tree that Database publishes through its index
/// snapshot. A dropped tree is epoch-retired, never deleted under a pinned
/// reader (`common/epoch.h`).
class BTreeIndex {
 public:
  /// `fanout` = max entries per node (leaf and internal). Small fanouts are
  /// useful in tests to force deep trees.
  explicit BTreeIndex(int32_t fanout = 128);
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;
  BTreeIndex(BTreeIndex&&) noexcept;
  BTreeIndex& operator=(BTreeIndex&&) noexcept;

  /// Inserts one (key, row) entry after any equal keys already present.
  COLT_OWNER_ONLY void Insert(int64_t key, RowId row);

  /// Erases one (key, row) entry; returns true iff an entry was removed.
  /// Leaf-local: nodes are never merged or freed, and a leaf emptied by
  /// erasure stays linked in the chain.
  COLT_OWNER_ONLY bool Erase(int64_t key, RowId row);

  /// Bulk-loads from (key, row) pairs; requires an empty tree. Pairs need
  /// not be sorted: for any input the leaves hold them in lexicographic
  /// (key, row) order, packed 100% full (like CREATE INDEX). When the
  /// offsets key − min key and row − min row fit 64 bits together, each
  /// pair is packed into one 8-byte word and the words are sorted by a
  /// stable LSD radix sort in time linear in their number, then written
  /// into the leaves in order; wider inputs fall back to a comparison
  /// sort in place.
  /// Scratch memory on the radix path: one word array while the input is
  /// still held (the input is released once packed), and a second one
  /// only when a radix pass runs, released before any node is allocated.
  /// No pass runs when the rows already ascend and the keys are all equal.
  COLT_THREAD_NEUTRAL Status BulkLoad(
      std::vector<std::pair<int64_t, RowId>> entries);

  /// Bulk-loads one column: the entry (keys[r], r) for every row r with
  /// r >= skip.size() or skip[r] == 0 (Database::PrepareIndex passes the
  /// table's tombstones). The tree is the one BulkLoad builds from those
  /// pairs, but the words are packed straight from the column, with no
  /// pairs vector. Same requirements as BulkLoad.
  COLT_THREAD_NEUTRAL Status BulkLoadColumn(const std::vector<int64_t>& keys,
                                            const std::vector<uint8_t>& skip);

  /// Appends all row ids with key in [lo, hi] (inclusive) to `out`, in
  /// (key, insertion) order. Returns the number of leaf nodes touched (for
  /// I/O accounting); 0 when lo > hi.
  COLT_WORKER_SAFE int64_t RangeScan(int64_t lo, int64_t hi,
                                     std::vector<RowId>* out) const;

  /// Appends all row ids with key == key. Returns leaves touched.
  COLT_WORKER_SAFE int64_t Lookup(int64_t key, std::vector<RowId>* out) const;

  COLT_WORKER_SAFE int64_t entry_count() const { return entry_count_; }
  COLT_WORKER_SAFE int64_t leaf_count() const { return leaf_count_; }
  COLT_WORKER_SAFE int32_t height() const { return height_; }
  COLT_WORKER_SAFE int32_t fanout() const { return fanout_; }
  COLT_WORKER_SAFE bool empty() const { return entry_count_ == 0; }

  /// Verifies structural invariants (ordering, fanout bounds, uniform leaf
  /// depth, leaf-chain consistency). Used by tests.
  COLT_WORKER_SAFE Status CheckInvariants() const;

 private:
  struct Node;

  Node* root_ = nullptr;
  int32_t fanout_;
  int64_t entry_count_ = 0;
  int64_t leaf_count_ = 0;
  int32_t height_ = 0;

  void FreeTree(Node* node);

  /// Packs the `n` sorted entries (key_at(i), row_at(i)) full into leaves
  /// and builds the internal levels over them.
  template <typename KeyAt, typename RowAt>
  void BuildFromSorted(size_t n, KeyAt key_at, RowAt row_at);

  /// Splits the full `child`, the i-th child of `parent`; `parent` must
  /// have room for the separator.
  void SplitChild(Node* parent, size_t i, Node* child);

  Status CheckNode(const Node* node, int depth, int64_t lo, int64_t hi,
                   int leaf_depth) const;

  static size_t LowerBoundKeys(const Node& node, int64_t key);
  static size_t UpperBoundKeys(const Node& node, int64_t key);
};

}  // namespace colt

#endif  // COLT_INDEX_BTREE_H_
