#ifndef COLT_INDEX_BTREE_H_
#define COLT_INDEX_BTREE_H_

#include <atomic>
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
/// for — fall out of the actual structure.
///
/// Concurrency (DESIGN.md §15): reads and writes may run from any number
/// of threads simultaneously using optimistic lock coupling in the style
/// of BTreeOLC/FBTree. Every node carries a version word whose low bit is
/// a writer lock; versions advance by 2 per write. Readers never lock:
/// they snapshot a node's version, read its payload, and re-validate the
/// version (seqlock idiom — node payload lives in atomic cells, so torn
/// reads are impossible and a failed validation simply restarts the
/// operation from the root; `read_restarts()` counts them). Writers CAS
/// the version word to lock a node, and a split lock-couples parent and
/// child top-down, so writer locks never deadlock. Structural changes
/// never free or merge nodes: Erase removes entries leaf-locally and
/// leaves emptied leaves linked in the chain (readers skip them), so a
/// reader holding a stale node pointer always sees a well-formed — if
/// outdated — node and either fails validation or completes correctly via
/// the leaf chain. Whole-tree teardown under concurrent readers is the
/// job of the epoch reclamation layer (`common/epoch.h`): owners retire a
/// dropped tree instead of deleting it while readers may still be pinned
/// inside.
///
/// The structural algorithms (preemptive split on descent at mid =
/// count/2, lower-bound descent for reads, bottom-up bulk load) are
/// unchanged from the single-threaded implementation, so leaf counts,
/// heights, and the leaves-touched accounting of a quiescent tree are
/// bit-identical to it.
class BTreeIndex {
 public:
  /// `fanout` = max entries per node (leaf and internal). Small fanouts are
  /// useful in tests to force deep trees.
  explicit BTreeIndex(int32_t fanout = 128);
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;
  /// Moves require external quiescence (no concurrent readers or writers
  /// on either tree); the Scheduler moves trees only at install time.
  BTreeIndex(BTreeIndex&&) noexcept;
  BTreeIndex& operator=(BTreeIndex&&) noexcept;

  /// Inserts one (key, row) entry. Duplicate keys are allowed. Safe to
  /// call concurrently with other Insert/Erase/Lookup/RangeScan calls.
  COLT_THREAD_NEUTRAL void Insert(int64_t key, RowId row);

  /// Erases one (key, row) entry; returns true iff an entry was removed.
  /// Leaf-local: the entry is removed in place under the leaf's writer
  /// lock, and a leaf emptied by erasure stays linked in the chain (nodes
  /// are never merged or freed, preserving the OLC reader guarantees
  /// above). Safe to call concurrently with other tree operations.
  COLT_THREAD_NEUTRAL bool Erase(int64_t key, RowId row);

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
  /// Builds a private structure and publishes the root last; the caller
  /// must not run concurrent operations on the same tree while loading.
  COLT_THREAD_NEUTRAL Status BulkLoad(
      std::vector<std::pair<int64_t, RowId>> entries);

  /// Bulk-loads one column: the entry (keys[r], r) for every row r with
  /// r >= skip.size() or skip[r] == 0 (Database::PrepareIndex passes the
  /// table's tombstones). The tree is the one BulkLoad builds from those
  /// pairs, but the words are packed straight from the column, with no
  /// pairs vector. Same requirements as BulkLoad.
  COLT_THREAD_NEUTRAL Status BulkLoadColumn(const std::vector<int64_t>& keys,
                                            const std::vector<uint8_t>& skip);

  /// Appends all row ids with key in [lo, hi] (inclusive) to `out`.
  /// Returns the number of leaf nodes touched (for I/O accounting).
  /// Lock-free: restarts internally on concurrent modification.
  COLT_WORKER_SAFE int64_t RangeScan(int64_t lo, int64_t hi,
                                     std::vector<RowId>* out) const;

  /// Appends all row ids with key == key. Returns leaves touched.
  COLT_WORKER_SAFE int64_t Lookup(int64_t key, std::vector<RowId>* out) const;

  COLT_WORKER_SAFE int64_t entry_count() const {
    return entry_count_.load(std::memory_order_acquire);
  }
  COLT_WORKER_SAFE int64_t leaf_count() const {
    return leaf_count_.load(std::memory_order_acquire);
  }
  COLT_WORKER_SAFE int32_t height() const {
    return height_.load(std::memory_order_acquire);
  }
  COLT_WORKER_SAFE int32_t fanout() const { return fanout_; }
  COLT_WORKER_SAFE bool empty() const { return entry_count() == 0; }

  /// Times a read path restarted because a writer changed a node
  /// mid-validation. Monotone; used by the OLC tests.
  COLT_WORKER_SAFE int64_t read_restarts() const {
    return read_restarts_.load(std::memory_order_relaxed);
  }
  /// Times an insert restarted after losing a version race.
  COLT_WORKER_SAFE int64_t write_restarts() const {
    return write_restarts_.load(std::memory_order_relaxed);
  }

  /// Verifies structural invariants (ordering, fanout bounds, uniform leaf
  /// depth, leaf-chain consistency). Used by tests. Safe against
  /// concurrent readers; requires writers to be quiescent (the check
  /// itself takes no locks and reads the structure in place).
  COLT_WORKER_SAFE Status CheckInvariants() const;

 private:
  struct Node;

  std::atomic<Node*> root_{nullptr};
  int32_t fanout_;
  std::atomic<int64_t> entry_count_{0};
  std::atomic<int64_t> leaf_count_{0};
  std::atomic<int32_t> height_{0};
  mutable std::atomic<int64_t> read_restarts_{0};
  std::atomic<int64_t> write_restarts_{0};

  void FreeTree(Node* node);

  /// Packs the `n` sorted entries (key_at(i), row_at(i)) full into leaves,
  /// builds the internal levels over them and publishes the root.
  template <typename KeyAt, typename RowAt>
  void BuildFromSorted(size_t n, KeyAt key_at, RowAt row_at);

  /// One optimistic insert descent; false means "retry from the root".
  /// `*contended` is set when the retry was forced by a concurrent writer
  /// (validation or lock failure) rather than planned restructuring (a
  /// root split), so Insert can keep write_restarts() quiet on a
  /// single-threaded workload.
  bool InsertAttempt(int64_t key, RowId row, bool* contended);
  /// Publishes a one-entry root leaf via CAS; false if another thread won.
  bool InsertIntoEmpty(int64_t key, RowId row);
  /// Locks and splits a full root, publishing a new root above it.
  void SplitRoot(Node* root, uint64_t version);
  /// Splits `child` (the i-th child of `parent`); both must be locked by
  /// the caller and `parent` must have room for the separator.
  void SplitChildLocked(Node* parent, size_t i, Node* child);
  void InsertIntoLeafLocked(Node* leaf, int64_t key, RowId row);

  /// One optimistic scan attempt; false means a validation failed and the
  /// caller must discard partial output and retry.
  bool ScanAttempt(int64_t lo, int64_t hi, std::vector<RowId>* out,
                   int64_t* leaves_touched) const;

  /// One optimistic erase descent; false means "retry from the root".
  /// On success `*erased` reports whether the (key, row) pair existed.
  bool EraseAttempt(int64_t key, RowId row, bool* erased);

  Status CheckNode(const Node* node, int depth, int64_t lo, int64_t hi,
                   int leaf_depth) const;

  /// Spins until `node`'s version is unlocked and returns it.
  static uint64_t StableVersion(const Node* node);
  /// True iff `node`'s version still equals `version` (reads since the
  /// matching StableVersion saw a consistent snapshot).
  static bool ValidateVersion(const Node* node, uint64_t version);
  /// CAS `version` -> locked; false if the node changed or is locked.
  static bool TryLock(Node* node, uint64_t version);
  /// Releases a writer lock, advancing the version by one generation.
  static void UnlockNode(Node* node);

  static size_t LowerBoundKeys(const Node& node, int64_t key, int32_t count);
  static size_t UpperBoundKeys(const Node& node, int64_t key, int32_t count);
};

}  // namespace colt

#endif  // COLT_INDEX_BTREE_H_
