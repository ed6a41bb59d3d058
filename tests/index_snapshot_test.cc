/// Readers, epochs and index snapshots (DESIGN.md §15): the tree
/// invariant check under concurrent readers, and the epoch-based
/// reclamation guarantees (a pinned reader's tree is never freed under it
/// — the use after free would be caught by ASan; an install publishes a
/// snapshot while readers scan). The interleaving-heavy tests earn their
/// keep under -DCOLT_SANITIZE=thread and =address.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/thread_pool.h"
#include "index/btree.h"
#include "storage/database.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeTestCatalog;

/// Spin until `flag` turns true (handshake helper for interleavings).
void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
  }
}

/// Spin until `count` reaches `target`: readers check in after their
/// first completed scan, so the owner's work is sure to overlap them.
void AwaitCount(const std::atomic<int>& count, int target) {
  while (count.load(std::memory_order_acquire) < target) {
  }
}

TEST(IndexSnapshot, CheckInvariantsRunsUnderConcurrentReaders) {
  BTreeIndex tree(6);
  for (int64_t k = 0; k < 20000; ++k) tree.Insert(k, k);
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> scanning{0};
  ThreadPool pool(kReaders);
  std::vector<std::future<int64_t>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(pool.Submit([&tree, &stop, &scanning, r] {
      int64_t hits = 0;
      int64_t scans = 0;
      std::vector<RowId> rows;
      while (!stop.load(std::memory_order_acquire)) {
        rows.clear();
        tree.RangeScan(r * 1000, r * 1000 + 500, &rows);
        hits += static_cast<int64_t>(rows.size());
        if (++scans == 1) scanning.fetch_add(1, std::memory_order_release);
      }
      return hits;
    }));
  }
  AwaitCount(scanning, kReaders);
  // Nobody writes the tree, so the checker's traversal is one more
  // reader beside the scanning ones and must keep passing.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(tree.CheckInvariants().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& f : readers) EXPECT_GT(f.get(), 0);
}

/// Sets `*flag` on destruction; ownership passes to the epoch manager
/// via Retire (built through unique_ptr + release to satisfy the
/// raw-new-delete lint).
struct Tracked {
  bool* flag;
  explicit Tracked(bool* f) : flag(f) {}
  ~Tracked() { *flag = true; }
};

TEST(IndexSnapshot, EpochReclamationWaitsForPinnedGuard) {
  EpochManager& epochs = EpochManager::Global();
  const int64_t reclaimed_before = epochs.reclaimed_total();
  bool freed = false;
  {
    EpochGuard pin;
    epochs.Retire(std::make_unique<Tracked>(&freed).release());
    // A pinned reader in the retire epoch blocks the two advances the
    // entry needs; no amount of nagging may free it.
    for (int i = 0; i < 8; ++i) epochs.TryReclaim();
    EXPECT_FALSE(freed) << "retired object freed under a pinned guard";
    EXPECT_TRUE(epochs.HasPinnedReaders());
  }
  // Unpinned: reclamation must now drain it.
  epochs.ReclaimAll();
  EXPECT_TRUE(freed);
  EXPECT_GT(epochs.reclaimed_total(), reclaimed_before);
}

TEST(IndexSnapshot, GuardsNestAndOnlyOutermostUnpins) {
  EpochManager& epochs = EpochManager::Global();
  bool freed = false;
  {
    EpochGuard outer;
    {
      EpochGuard inner;
      epochs.Retire(std::make_unique<Tracked>(&freed).release());
      epochs.TryReclaim();
      EXPECT_FALSE(freed);
    }
    // Inner guard released but the outer pin still protects the epoch.
    for (int i = 0; i < 8; ++i) epochs.TryReclaim();
    EXPECT_FALSE(freed) << "nested-guard release unpinned the slot";
  }
  epochs.ReclaimAll();
  EXPECT_TRUE(freed);
}

TEST(IndexSnapshot, DroppedIndexStaysReadableForPinnedReader) {
  // The serving-layer drop protocol end to end: a reader pins an epoch,
  // resolves a tree through the published snapshot, and keeps scanning it
  // while the owner drops the index and retires the tree. Under ASan this
  // test proves reclamation never frees a pinned-reachable node.
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Result<IndexDescriptor> desc =
      db.mutable_catalog().IndexOn(colt::testing::Ref(db.catalog(), "big",
                                                      "b_key"));
  ASSERT_TRUE(desc.ok());
  const IndexId id = desc.value().id;
  ASSERT_TRUE(db.BuildIndex(id).ok());

  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> dropped{false};
  ThreadPool pool(1);
  std::future<uint64_t> reader =
      pool.Submit([&db, id, &reader_pinned, &dropped] {
        EpochGuard pin;
        const Database::IndexSnapshot* snap = db.index_snapshot();
        const BTreeIndex* tree = snap->Find(id);
        EXPECT_NE(tree, nullptr);
        reader_pinned.store(true, std::memory_order_release);
        AwaitFlag(dropped);
        // The owner has dropped and retired the tree; the pin keeps every
        // node alive, so deep scans remain safe.
        uint64_t sum = 0;
        std::vector<RowId> rows;
        for (int64_t lo = 0; lo < 10000; lo += 500) {
          rows.clear();
          tree->RangeScan(lo, lo + 499, &rows);
          for (RowId r : rows) sum += static_cast<uint64_t>(r);
        }
        return sum;
      });

  AwaitFlag(reader_pinned);
  db.DropIndex(id);
  // Eager reclamation attempts must spare the pinned snapshot and tree.
  EpochManager::Global().TryReclaim();
  dropped.store(true, std::memory_order_release);
  const uint64_t sum = reader.get();
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(db.index_snapshot()->Find(id), nullptr);
  // Reader gone: the retired tree may now actually be freed.
  EpochManager::Global().ReclaimAll();
}

TEST(IndexSnapshot, InstallPublishesWithoutBlockingReaders) {
  // Readers loop over the published snapshot while the owner installs a
  // second index; no reader ever observes a torn snapshot, and the new
  // index becomes visible to post-install snapshot loads.
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Catalog& catalog = db.mutable_catalog();
  Result<IndexDescriptor> first =
      catalog.IndexOn(colt::testing::Ref(db.catalog(), "big", "b_key"));
  Result<IndexDescriptor> second =
      catalog.IndexOn(colt::testing::Ref(db.catalog(), "big", "b_val"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(db.BuildIndex(first.value().id).ok());

  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> scanning{0};
  ThreadPool pool(kReaders);
  std::vector<std::future<int64_t>> readers;
  const IndexId id = first.value().id;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(pool.Submit([&db, &stop, &scanning, id] {
      int64_t scans = 0;
      std::vector<RowId> rows;
      while (!stop.load(std::memory_order_acquire)) {
        EpochGuard pin;
        const Database::IndexSnapshot* snap = db.index_snapshot();
        const BTreeIndex* tree = snap->Find(id);
        EXPECT_NE(tree, nullptr);
        rows.clear();
        tree->RangeScan(0, 200, &rows);
        if (++scans == 1) scanning.fetch_add(1, std::memory_order_release);
      }
      return scans;
    }));
  }
  AwaitCount(scanning, kReaders);
  // Stage + install on the owner while the readers hammer the snapshot.
  Result<std::unique_ptr<BTreeIndex>> staged =
      db.PrepareIndex(second.value().id);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(
      db.InstallIndex(second.value().id, std::move(staged).value()).ok());
  EXPECT_NE(db.index_snapshot()->Find(second.value().id), nullptr);
  stop.store(true, std::memory_order_release);
  for (auto& f : readers) EXPECT_GT(f.get(), 0);
}

}  // namespace
}  // namespace colt
