/// Optimistic-lock-coupling stress for the B+-tree (DESIGN.md §15):
/// readers racing writer split storms at tiny fanouts, concurrent-writer
/// differentials against std::multimap, invariant checks under reader
/// load, restart accounting, and the epoch-based-reclamation guarantees
/// (a pinned reader's tree is never freed under it — the UAF would be
/// caught by ASan). The interleaving-heavy tests earn their keep under
/// -DCOLT_SANITIZE=thread and =address.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
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

TEST(BTreeOlc, RestartCountersStartZeroAndStayZeroUncontended) {
  BTreeIndex tree(4);
  EXPECT_EQ(tree.read_restarts(), 0);
  EXPECT_EQ(tree.write_restarts(), 0);
  for (int64_t k = 0; k < 500; ++k) tree.Insert(k * 7 % 501, k);
  std::vector<RowId> rows;
  tree.RangeScan(0, 500, &rows);
  EXPECT_EQ(rows.size(), 500u);
  // A quiescent single-threaded workload never fails validation: the
  // counters must not tick without concurrency.
  EXPECT_EQ(tree.read_restarts(), 0);
  EXPECT_EQ(tree.write_restarts(), 0);
}

/// One split storm: readers race two writers on a fresh fanout-4 tree
/// (a split roughly every other insert, so readers cross structural
/// changes constantly), checking monotone visibility while the storm
/// runs and full structure and contents after it. Returns the restarts
/// the tree counted.
int64_t RunSplitStorm() {
  BTreeIndex tree(4);
  // Sentinel keys inserted before any reader starts: inserts only add
  // entries, so every later lookup must find them.
  constexpr int64_t kSentinelStride = 1000;
  constexpr int kSentinels = 16;
  for (int s = 0; s < kSentinels; ++s) {
    tree.Insert(s * kSentinelStride, /*row=*/s);
  }

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int64_t kPerWriter = 8000;
  std::atomic<bool> writers_done{false};

  ThreadPool pool(kWriters + kReaders);
  std::vector<std::future<int64_t>> futures;
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> scanning{0};
  for (int w = 0; w < kWriters; ++w) {
    futures.push_back(pool.Submit([&tree, &writers_done, &writers_left,
                                   &scanning, w] {
      // The storm is short; starting it only once every reader is
      // scanning makes sure the inserts actually race the readers.
      AwaitCount(scanning, kReaders);
      for (int64_t i = 0; i < kPerWriter; ++i) {
        // Writer w owns keys ≡ w+1 (mod kWriters+1), never colliding with
        // the sentinels at multiples of 1000... except harmlessly: the
        // tree allows duplicates anyway.
        tree.Insert(i * (kWriters + 1) + w + 1, i);
      }
      if (writers_left.fetch_sub(1) == 1) {
        writers_done.store(true, std::memory_order_release);
      }
      return kPerWriter;
    }));
  }
  for (int r = 0; r < kReaders; ++r) {
    futures.push_back(pool.Submit([&tree, &writers_done, &scanning] {
      int64_t scans = 0;
      std::vector<RowId> rows;
      size_t last_size = 0;
      do {
        for (int s = 0; s < kSentinels; ++s) {
          rows.clear();
          tree.Lookup(s * kSentinelStride, &rows);
          // Monotonicity: a pre-inserted sentinel is always visible.
          EXPECT_GE(rows.size(), 1u) << "sentinel " << s << " vanished";
          EXPECT_EQ(rows[0], s);
        }
        rows.clear();
        tree.RangeScan(0, kSentinelStride * kSentinels, &rows);
        // The tree only grows while the writers run.
        EXPECT_GE(rows.size(), last_size);
        last_size = rows.size();
        // Scan output is sorted by key, so row-id order within one key
        // group is ascending insert order; just verify nothing torn:
        // result size can never exceed the final entry count.
        EXPECT_LE(rows.size(),
                  static_cast<size_t>(kSentinels + kWriters * kPerWriter));
        if (++scans == 1) scanning.fetch_add(1, std::memory_order_release);
      } while (!writers_done.load(std::memory_order_acquire));
      return scans;
    }));
  }
  for (auto& f : futures) f.get();

  // Quiescent: full structural validation and exact content differential.
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.entry_count(), kSentinels + kWriters * kPerWriter);
  std::vector<RowId> all;
  tree.RangeScan(std::numeric_limits<int64_t>::min(),
                 std::numeric_limits<int64_t>::max(), &all);
  EXPECT_EQ(all.size(), static_cast<size_t>(tree.entry_count()));
  return tree.read_restarts() + tree.write_restarts();
}

TEST(BTreeOlc, ReadersRaceSplitStormAtTinyFanout) {
  // Restart accounting: a storm makes version-validation failures likely
  // but not certain (a few milliseconds of racing on a loaded machine can
  // pass without one), so storms rerun on fresh trees until one counts a
  // restart, up to a fixed cap; every storm runs every check above. On a
  // single-core runner the interleavings may be too coarse to force a
  // restart at all, so only assert one elsewhere.
  constexpr int kMaxStorms = 20;
  int64_t restarts = 0;
  int storms = 0;
  while (storms < kMaxStorms && restarts == 0) {
    restarts = RunSplitStorm();
    ++storms;
    if (::testing::Test::HasFailure()) return;
  }
  if (ThreadPool::HardwareConcurrency() > 1) {
    EXPECT_GT(restarts, 0) << "no restart observed in " << storms
                           << " storms of contended inserts";
  }
}

TEST(BTreeOlc, ConcurrentWritersMatchMultimapDifferential) {
  for (int32_t fanout : {4, 5, 16}) {
    BTreeIndex tree(fanout);
    constexpr int kWriters = 4;
    constexpr int64_t kPerWriter = 3000;
    ThreadPool pool(kWriters);
    // Writer w inserts keys ≡ w (mod kWriters); values encode the writer
    // and sequence so the final multiset is fully predictable.
    pool.Map(kWriters, [&tree](size_t w) {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        const int64_t key = (i * kWriters + static_cast<int64_t>(w)) % 977;
        tree.Insert(key, static_cast<RowId>(w * kPerWriter + i));
      }
      return 0;
    });

    ASSERT_TRUE(tree.CheckInvariants().ok()) << "fanout " << fanout;
    std::multimap<int64_t, RowId> expected;
    for (int64_t w = 0; w < kWriters; ++w) {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        expected.emplace((i * kWriters + w) % 977,
                         static_cast<RowId>(w * kPerWriter + i));
      }
    }
    EXPECT_EQ(tree.entry_count(),
              static_cast<int64_t>(expected.size()));
    // Per-key multisets must match exactly (scan order within a key group
    // is insertion order, which is schedule-dependent — compare sorted).
    for (int64_t key = 0; key < 977; ++key) {
      std::vector<RowId> got;
      tree.Lookup(key, &got);
      std::vector<RowId> want;
      auto [lo, hi] = expected.equal_range(key);
      for (auto it = lo; it != hi; ++it) want.push_back(it->second);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "key " << key << " fanout " << fanout;
    }
  }
}

TEST(BTreeOlc, CheckInvariantsRunsUnderConcurrentReaders) {
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
  // Writers are quiescent, so the checker's relaxed traversal is safe
  // against the scanning readers and must keep passing.
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

TEST(BTreeOlc, EpochReclamationWaitsForPinnedGuard) {
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

TEST(BTreeOlc, GuardsNestAndOnlyOutermostUnpins) {
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

TEST(BTreeOlc, DroppedIndexStaysReadableForPinnedReader) {
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

TEST(BTreeOlc, InstallPublishesWithoutBlockingReaders) {
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
