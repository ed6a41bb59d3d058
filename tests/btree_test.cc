#include "index/btree.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace colt {
namespace {

TEST(BTree, EmptyTree) {
  BTreeIndex tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.entry_count(), 0);
  std::vector<RowId> out;
  EXPECT_EQ(tree.RangeScan(0, 100, &out), 0);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, SingleInsertLookup) {
  BTreeIndex tree;
  tree.Insert(5, 100);
  std::vector<RowId> out;
  tree.Lookup(5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 100);
  out.clear();
  tree.Lookup(6, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, DuplicateKeys) {
  BTreeIndex tree(8);
  for (RowId r = 0; r < 100; ++r) tree.Insert(7, r);
  std::vector<RowId> out;
  tree.Lookup(7, &out);
  EXPECT_EQ(out.size(), 100u);
  std::sort(out.begin(), out.end());
  for (RowId r = 0; r < 100; ++r) EXPECT_EQ(out[r], r);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, EraseSingleEntry) {
  BTreeIndex tree;
  tree.Insert(5, 100);
  EXPECT_TRUE(tree.Erase(5, 100));
  EXPECT_EQ(tree.entry_count(), 0);
  std::vector<RowId> out;
  tree.Lookup(5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, EraseMissingReturnsFalse) {
  BTreeIndex tree;
  EXPECT_FALSE(tree.Erase(5, 100));  // empty tree
  tree.Insert(5, 100);
  EXPECT_FALSE(tree.Erase(5, 101));  // right key, wrong row
  EXPECT_FALSE(tree.Erase(6, 100));  // wrong key
  EXPECT_EQ(tree.entry_count(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, EraseOneOfDuplicates) {
  // Duplicate keys: Erase removes exactly the (key, row) pair named, not
  // every entry under the key.
  BTreeIndex tree(8);
  for (RowId r = 0; r < 100; ++r) tree.Insert(7, r);
  EXPECT_TRUE(tree.Erase(7, 42));
  EXPECT_FALSE(tree.Erase(7, 42));  // already gone
  std::vector<RowId> out;
  tree.Lookup(7, &out);
  EXPECT_EQ(out.size(), 99u);
  EXPECT_EQ(std::count(out.begin(), out.end(), 42), 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, EraseDifferentialAgainstMultimap) {
  // Random interleaved Insert/Erase stream against a reference multimap;
  // erases target live entries and missing entries alike.
  BTreeIndex tree(8);
  std::multimap<int64_t, RowId> reference;
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextBelow(200)) - 100;
    if (!reference.empty() && rng.NextBool(0.4)) {
      // Erase: half the time a live entry, half a (key,row) not present.
      if (rng.NextBool(0.5)) {
        auto it = reference.lower_bound(key);
        if (it == reference.end()) it = reference.begin();
        EXPECT_TRUE(tree.Erase(it->first, it->second));
        reference.erase(it);
      } else {
        EXPECT_FALSE(tree.Erase(key, /*row=*/1'000'000 + i));
      }
    } else {
      tree.Insert(key, i);
      reference.emplace(key, i);
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.entry_count(), static_cast<int64_t>(reference.size()));
  for (int64_t key = -100; key <= 100; ++key) {
    std::vector<RowId> got;
    tree.Lookup(key, &got);
    std::vector<RowId> expected;
    for (auto [it, end] = reference.equal_range(key); it != end; ++it) {
      expected.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "key " << key;
  }
}

TEST(BTree, EraseEverythingLeavesEmptyTree) {
  // Nodes are never merged or freed (leaf-local erase), so a fully
  // drained tree still answers lookups and scans correctly.
  BTreeIndex tree(4);
  for (int i = 0; i < 500; ++i) tree.Insert(i, i);
  for (int i = 0; i < 500; ++i) EXPECT_TRUE(tree.Erase(i, i));
  EXPECT_TRUE(tree.empty());
  std::vector<RowId> out;
  // RangeScan reports leaves *touched*: the drained tree still walks its
  // (never-freed) leaves but must surface no entries.
  tree.RangeScan(INT64_MIN, INT64_MAX, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  tree.Insert(7, 7);  // still usable after draining
  tree.Lookup(7, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(BTree, BulkLoadRequiresEmpty) {
  BTreeIndex tree;
  tree.Insert(1, 1);
  EXPECT_EQ(tree.BulkLoad({{2, 2}}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tree.BulkLoadColumn({2}, {}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BTree, BulkLoadEmptyInput) {
  BTreeIndex tree;
  EXPECT_TRUE(tree.BulkLoad({}).ok());
  EXPECT_TRUE(tree.empty());
  BTreeIndex column_tree;
  EXPECT_TRUE(column_tree.BulkLoadColumn({}, {}).ok());
  EXPECT_TRUE(column_tree.BulkLoadColumn({5, 6}, {1, 1}).ok());
  EXPECT_TRUE(column_tree.empty());
  EXPECT_TRUE(column_tree.CheckInvariants().ok());
}

TEST(BTree, MoveSemantics) {
  BTreeIndex tree(8);
  for (int i = 0; i < 100; ++i) tree.Insert(i, i);
  BTreeIndex moved = std::move(tree);
  EXPECT_EQ(moved.entry_count(), 100);
  EXPECT_TRUE(moved.CheckInvariants().ok());
  std::vector<RowId> out;
  moved.RangeScan(10, 19, &out);
  EXPECT_EQ(out.size(), 10u);
}

TEST(BTree, HeightGrowsLogarithmically) {
  BTreeIndex tree(8);
  for (int i = 0; i < 4096; ++i) tree.Insert(i, i);
  EXPECT_GE(tree.height(), 3);
  EXPECT_LE(tree.height(), 8);
  EXPECT_GE(tree.leaf_count(), 4096 / 8);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTree, BulkLoadLeavesNearlyFull) {
  BTreeIndex tree(100);
  std::vector<std::pair<int64_t, RowId>> entries;
  for (int i = 0; i < 10000; ++i) entries.emplace_back(i, i);
  ASSERT_TRUE(tree.BulkLoad(std::move(entries)).ok());
  EXPECT_EQ(tree.leaf_count(), 100);  // exactly full leaves
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

/// Differential test against std::multimap, parameterized over
/// (fanout, operation count) to cover shallow and deep trees.
struct DiffParam {
  int fanout;
  int operations;
  uint64_t seed;
};

class BTreeDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(BTreeDifferentialTest, MatchesReferenceMultimap) {
  const DiffParam param = GetParam();
  BTreeIndex tree(param.fanout);
  std::multimap<int64_t, RowId> reference;
  Rng rng(param.seed);

  for (int i = 0; i < param.operations; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextBelow(500)) - 250;
    tree.Insert(key, i);
    reference.emplace(key, i);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.entry_count(),
            static_cast<int64_t>(reference.size()));

  // Random range scans.
  for (int scan = 0; scan < 50; ++scan) {
    int64_t lo = static_cast<int64_t>(rng.NextBelow(600)) - 300;
    int64_t hi = lo + static_cast<int64_t>(rng.NextBelow(200));
    std::vector<RowId> got;
    tree.RangeScan(lo, hi, &got);
    std::vector<RowId> expected;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && it->first <= hi; ++it) {
      expected.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "range [" << lo << ", " << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeDifferentialTest,
    ::testing::Values(DiffParam{4, 2000, 1}, DiffParam{4, 50, 2},
                      DiffParam{8, 3000, 3}, DiffParam{16, 5000, 4},
                      DiffParam{64, 5000, 5}, DiffParam{128, 10000, 6},
                      DiffParam{5, 1000, 7}, DiffParam{4, 5000, 8}));

/// Bulk load and incremental insert must contain identical data.
class BulkVsInsertTest : public ::testing::TestWithParam<int> {};

TEST_P(BulkVsInsertTest, SameContents) {
  Rng rng(GetParam() * 31 + 7);
  std::vector<std::pair<int64_t, RowId>> entries;
  const int n = 1 + static_cast<int>(rng.NextBelow(3000));
  for (int i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<int64_t>(rng.NextBelow(1000)), i);
  }
  BTreeIndex bulk(16), incremental(16);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  for (const auto& [k, v] : entries) incremental.Insert(k, v);
  ASSERT_TRUE(bulk.CheckInvariants().ok());
  ASSERT_TRUE(incremental.CheckInvariants().ok());
  EXPECT_EQ(bulk.entry_count(), incremental.entry_count());
  std::vector<RowId> a, b;
  bulk.RangeScan(INT64_MIN, INT64_MAX, &a);
  incremental.RangeScan(INT64_MIN, INT64_MAX, &b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // Bulk-loaded leaves should be at least as densely packed.
  EXPECT_LE(bulk.leaf_count(), incremental.leaf_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkVsInsertTest, ::testing::Range(0, 10));

using Entry = std::pair<int64_t, RowId>;

/// The tree std::sort + pack builds: entries in (key, row) order, packed
/// `fanout` to a leaf, internal levels of fanout + 1 children whose
/// separators are their subtrees' first keys. Predicts what a bulk-loaded
/// tree must report without looking inside it.
class SortAndPackOracle {
 public:
  SortAndPackOracle(std::vector<Entry> entries, int32_t fanout)
      : sorted_(std::move(entries)), fanout_(std::max(4, fanout)) {
    std::sort(sorted_.begin(), sorted_.end());
    for (size_t start = 0; start < sorted_.size(); start += fanout_) {
      const size_t end = std::min(sorted_.size(), start + fanout_);
      first_keys_.push_back(sorted_[start].first);
      last_keys_.push_back(sorted_[end - 1].first);
    }
  }

  const std::vector<Entry>& sorted() const { return sorted_; }
  int64_t leaf_count() const {
    return static_cast<int64_t>(first_keys_.size());
  }
  int32_t height() const {
    if (first_keys_.empty()) return 0;
    int32_t height = 1;
    for (size_t nodes = first_keys_.size(); nodes > 1;
         nodes = (nodes + fanout_) / (fanout_ + 1)) {
      ++height;
    }
    return height;
  }

  /// Row ids of the entries with key in [lo, hi], in (key, row) order.
  std::vector<RowId> Rows(int64_t lo, int64_t hi) const {
    std::vector<RowId> rows;
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(), lo,
                               [](const Entry& e, int64_t k) {
                                 return e.first < k;
                               });
    for (; it != sorted_.end() && it->first <= hi; ++it) {
      rows.push_back(it->second);
    }
    return rows;
  }

  /// Leaves RangeScan(lo, hi) walks: the lower-bound descent lands on the
  /// last leaf whose first key is below `lo` (leaf 0 if none), and the
  /// walk stops after the first leaf whose last key exceeds `hi`.
  int64_t LeavesTouched(int64_t lo, int64_t hi) const {
    if (lo > hi || first_keys_.empty()) return 0;
    const auto first = std::partition_point(
        first_keys_.begin() + 1, first_keys_.end(),
        [lo](int64_t k) { return k < lo; });
    const int64_t start = (first - first_keys_.begin()) - 1;
    const auto stop = std::partition_point(
        last_keys_.begin() + start, last_keys_.end() - 1,
        [hi](int64_t k) { return k <= hi; });
    return (stop - last_keys_.begin()) - start + 1;
  }

 private:
  std::vector<Entry> sorted_;
  size_t fanout_;
  std::vector<int64_t> first_keys_;
  std::vector<int64_t> last_keys_;
};

/// Checks `tree`, bulk-loaded from `entries`, against SortAndPackOracle:
/// the exact (key, row) sequence, leaf_count(), height(), and the rows
/// and leaves touched of scans at the data's edges and at random.
void ExpectMatchesSortAndPack(const BTreeIndex& tree,
                              const std::vector<Entry>& entries, Rng* rng) {
  SCOPED_TRACE(::testing::Message() << "n=" << entries.size()
                                    << " fanout=" << tree.fanout());
  const SortAndPackOracle oracle(entries, tree.fanout());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.entry_count(), static_cast<int64_t>(entries.size()));
  EXPECT_EQ(tree.leaf_count(), oracle.leaf_count());
  EXPECT_EQ(tree.height(), oracle.height());

  // (key, row) order: the full scan yields the rows in order, and a
  // lookup of each distinct key yields that key's rows in order.
  std::vector<RowId> got;
  tree.RangeScan(INT64_MIN, INT64_MAX, &got);
  ASSERT_EQ(got, oracle.Rows(INT64_MIN, INT64_MAX));
  const std::vector<Entry>& sorted = oracle.sorted();
  for (size_t i = 0; i < sorted.size(); ++i) {
    const int64_t key = sorted[i].first;
    if (i > 0 && sorted[i - 1].first == key) continue;
    got.clear();
    tree.Lookup(key, &got);
    ASSERT_EQ(got, oracle.Rows(key, key)) << "key " << key;
  }

  // Leaves touched, at the extremes and between keys drawn from the data
  // (±1 so that bounds fall between keys too).
  std::vector<std::pair<int64_t, int64_t>> ranges = {
      {INT64_MIN, INT64_MAX}, {INT64_MIN, INT64_MIN}, {INT64_MAX, INT64_MAX},
      {1, 0}};
  const auto pick = [&]() -> int64_t {
    if (sorted.empty()) return static_cast<int64_t>(rng->NextBelow(100));
    const int64_t k = sorted[rng->NextBelow(sorted.size())].first;
    const int64_t nudge = static_cast<int64_t>(rng->NextBelow(3)) - 1;
    if ((nudge < 0 && k == INT64_MIN) || (nudge > 0 && k == INT64_MAX)) {
      return k;
    }
    return k + nudge;
  };
  for (int s = 0; s < 40; ++s) {
    const int64_t a = pick();
    const int64_t b = pick();
    ranges.emplace_back(std::min(a, b), std::max(a, b));
  }
  for (const auto& [lo, hi] : ranges) {
    got.clear();
    EXPECT_EQ(tree.RangeScan(lo, hi, &got), oracle.LeavesTouched(lo, hi))
        << "range [" << lo << ", " << hi << "]";
    EXPECT_EQ(got, oracle.Rows(lo, hi)) << "range [" << lo << ", " << hi
                                        << "]";
  }
}

/// Bulk-loads `entries` and checks the tree with ExpectMatchesSortAndPack.
void ExpectBulkLoadMatchesSortAndPack(const std::vector<Entry>& entries,
                                      int32_t fanout, Rng* rng) {
  BTreeIndex tree(fanout);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  ExpectMatchesSortAndPack(tree, entries, rng);
}

/// Seeded Fisher-Yates shuffle.
void Shuffle(std::vector<Entry>* entries, Rng* rng) {
  for (size_t i = entries->size(); i > 1; --i) {
    std::swap((*entries)[i - 1], (*entries)[rng->NextBelow(i)]);
  }
}

/// Uniform key in [lo, lo + span); span 0 means the full 64-bit range.
int64_t KeyInSpan(Rng* rng, int64_t lo, uint64_t span) {
  const uint64_t offset = span == 0 ? rng->Next() : rng->NextBelow(span);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
}

TEST(BTreeBulkLoad, FanoutBoundariesMatchSortAndPack) {
  // Sizes at and around the points where a leaf, then a two-level tree,
  // fills up; shuffled rows so that both row and key digits are sorted.
  Rng rng(1701);
  for (int32_t fanout : {4, 5, 16, 100, 128, 256}) {
    const size_t f = static_cast<size_t>(fanout);
    for (size_t n : {size_t{0}, size_t{1}, f - 1, f, f + 1, 2 * f + 1,
                     f * (f + 1) - 1, f * (f + 1), f * (f + 1) + 1}) {
      std::vector<Entry> entries;
      for (size_t i = 0; i < n; ++i) {
        entries.emplace_back(KeyInSpan(&rng, -500, 1000),
                             static_cast<RowId>(i));
      }
      Shuffle(&entries, &rng);
      ExpectBulkLoadMatchesSortAndPack(entries, fanout, &rng);
    }
  }
}

TEST(BTreeBulkLoad, KeyAndRowShapesMatchSortAndPack) {
  struct KeyShape {
    const char* name;
    int64_t lo;
    uint64_t span;  // 0: the full 64-bit range
  };
  const KeyShape key_shapes[] = {
      {"all equal", 42, 1},           {"negative", -1'000'000, 900'000},
      {"span 500", 0, 500},           {"span 25000", 0, 25'000},
      {"span 2^20", -7, 1u << 20},    {"span 2^40", 1 << 20, 1ull << 40},
      {"full 64-bit", INT64_MIN, 0},  {"near INT64_MAX", INT64_MAX - 3, 4},
      {"near INT64_MIN", INT64_MIN, 4}};
  enum class Rows {
    kAscending,          // Database::PrepareIndex's order
    kAscendingWithGaps,  // ... after tombstoned rows were skipped
    kShuffled,
    kDuplicated,      // one row id under several keys
    kDuplicatePairs,  // whole (key, row) pairs repeated
    kExtreme,         // row ids at both INT64 ends
  };
  Rng rng(2718);
  int32_t fanout = 4;
  for (const KeyShape& keys : key_shapes) {
    for (Rows rows : {Rows::kAscending, Rows::kAscendingWithGaps,
                      Rows::kShuffled, Rows::kDuplicated,
                      Rows::kDuplicatePairs, Rows::kExtreme}) {
      SCOPED_TRACE(::testing::Message() << keys.name << " keys, row shape "
                                        << static_cast<int>(rows));
      const size_t n = 3000 + rng.NextBelow(2000);
      std::vector<Entry> entries;
      RowId row = -1;
      for (size_t i = 0; i < n; ++i) {
        row += rows == Rows::kAscendingWithGaps
                   ? 1 + static_cast<RowId>(rng.NextBelow(3))
                   : 1;
        entries.emplace_back(KeyInSpan(&rng, keys.lo, keys.span), row);
      }
      switch (rows) {
        case Rows::kAscending:
        case Rows::kAscendingWithGaps:
          break;
        case Rows::kShuffled:
          Shuffle(&entries, &rng);
          break;
        case Rows::kDuplicated:
          for (Entry& e : entries) {
            e.second = static_cast<RowId>(rng.NextBelow(n / 8));
          }
          break;
        case Rows::kDuplicatePairs:
          for (size_t i = 0; i < n / 3; ++i) {
            entries.push_back(entries[rng.NextBelow(n)]);
          }
          Shuffle(&entries, &rng);
          break;
        case Rows::kExtreme:
          for (Entry& e : entries) {
            e.second = rng.NextBool(0.5) ? INT64_MIN + e.second
                                         : INT64_MAX - e.second;
          }
          break;
      }
      ExpectBulkLoadMatchesSortAndPack(entries, fanout, &rng);
      fanout = fanout == 256 ? 4 : fanout * 2;
    }
  }
}

TEST(BTreeBulkLoad, LargeBuildsMatchSortAndPack) {
  // Build-sized inputs: the spans of lineitem's indexed columns in row
  // order (l_orderkey spans 75,000), a span that needs three key digits,
  // and shuffled rows.
  Rng rng(31337);
  const size_t n = 200'000;
  for (uint64_t span : {uint64_t{500}, uint64_t{25'000}, uint64_t{75'000},
                        uint64_t{1} << 24}) {
    for (bool shuffled : {false, true}) {
      std::vector<Entry> entries;
      entries.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        entries.emplace_back(KeyInSpan(&rng, 0, span), static_cast<RowId>(i));
      }
      if (shuffled) Shuffle(&entries, &rng);
      ExpectBulkLoadMatchesSortAndPack(entries, 128, &rng);
    }
  }
}

/// All-ones mask of `bits` bits (0 to 64).
uint64_t LowBits(int bits) {
  return bits == 0 ? 0 : ~uint64_t{0} >> (64 - bits);
}

/// n >= 2 entries whose key offsets (key − min key) span exactly
/// `key_bits` bits and whose row offsets span exactly `row_bits`: both
/// ends of each range occur and the rest is uniform over it. Keys start at
/// `key_lo` and rows at `row_lo`, which must leave room for the span.
/// Rows ascend (ties allowed) when `rows_ascend`; otherwise the entries
/// are shuffled.
std::vector<Entry> EntriesSpanning(int key_bits, int row_bits, size_t n,
                                   int64_t key_lo, RowId row_lo,
                                   bool rows_ascend, Rng* rng) {
  const uint64_t key_top = LowBits(key_bits);
  const uint64_t row_top = LowBits(row_bits);
  std::vector<uint64_t> key_offsets = {0, key_top};
  std::vector<uint64_t> row_offsets = {0, row_top};
  for (size_t i = 2; i < n; ++i) {
    key_offsets.push_back(rng->Next() & key_top);
    row_offsets.push_back(rng->Next() & row_top);
  }
  std::sort(row_offsets.begin(), row_offsets.end());
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(
        static_cast<int64_t>(static_cast<uint64_t>(key_lo) + key_offsets[i]),
        static_cast<RowId>(static_cast<uint64_t>(row_lo) + row_offsets[i]));
  }
  if (!rows_ascend) Shuffle(&entries, rng);
  return entries;
}

TEST(BTreeBulkLoad, PackedWidthsAroundTheCutMatchSortAndPack) {
  // BulkLoad radix-sorts (key, row) pairs packed into one 64-bit word and
  // falls back to a comparison sort when the key and row offsets need
  // more than 64 bits together. Widths 63 and 64 take the radix path and
  // 65 the fallback, split between keys and rows in several ways,
  // including all the bits on one side.
  struct Split {
    int key_bits;
    int row_bits;
  };
  const Split splits[] = {
      {51, 12}, {52, 12}, {53, 12},  // row-ordered builds, wide keys
      {31, 32}, {32, 32}, {33, 32},  // shuffled rows, balanced
      {0, 63},  {0, 64},  {1, 64},   // all-equal keys, rows at the edge
      {63, 0},  {64, 0},  {64, 1},   // one row id, keys at the edge
  };
  Rng rng(4242);
  int32_t fanout = 4;
  for (const Split& split : splits) {
    for (bool rows_ascend : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "key bits " << split.key_bits << ", row bits "
                   << split.row_bits << (rows_ascend ? ", rows ascend" : ""));
      const int64_t key_lo =
          split.key_bits == 64 ? INT64_MIN : -(int64_t{1} << 20);
      const RowId row_lo = split.row_bits == 64 ? INT64_MIN : 0;
      const std::vector<Entry> entries =
          EntriesSpanning(split.key_bits, split.row_bits, 2000, key_lo,
                          row_lo, rows_ascend, &rng);
      ExpectBulkLoadMatchesSortAndPack(entries, fanout, &rng);
      fanout = fanout == 256 ? 4 : fanout * 2;
    }
  }
}

TEST(BTreeBulkLoad, DigitCountBoundariesMatchSortAndPack) {
  // Digits are at most 11 bits wide, so sorting 11 bits takes one pass
  // and 12 take two, 22 two and 23 three, and so on. Rows in row order
  // sort by the key bits alone; shuffled rows add their 12 bits.
  Rng rng(1123);
  for (int key_bits : {1, 10, 11, 12, 22, 23, 33, 34, 44, 45, 51, 52}) {
    for (bool rows_ascend : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "key bits " << key_bits
                                        << (rows_ascend ? ", rows ascend"
                                                        : ""));
      const std::vector<Entry> entries = EntriesSpanning(
          key_bits, 12, 3000, -7, 100, rows_ascend, &rng);
      ExpectBulkLoadMatchesSortAndPack(entries, 16, &rng);
    }
  }
}

TEST(BTreeBulkLoad, DegenerateInputsMatchSortAndPack) {
  Rng rng(77);
  // One entry, at the INT64 extremes too.
  for (const Entry& e : {Entry{5, 9}, Entry{INT64_MIN, INT64_MAX},
                         Entry{INT64_MAX, INT64_MIN}}) {
    ExpectBulkLoadMatchesSortAndPack({e}, 4, &rng);
  }
  // All keys equal: with rows in order nothing needs sorting, and with
  // shuffled rows only the row digits do.
  for (bool rows_ascend : {true, false}) {
    ExpectBulkLoadMatchesSortAndPack(
        EntriesSpanning(0, 14, 5000, 42, 0, rows_ascend, &rng), 8, &rng);
  }
  // Keys that differ only in their lowest and highest digit: the middle
  // digit is the same for every entry, so its pass moves nothing.
  std::vector<Entry> entries;
  for (RowId row = 0; row < 4000; ++row) {
    const int64_t high = rng.NextBool(0.5) ? int64_t{1} << 30 : 0;
    entries.emplace_back(high + static_cast<int64_t>(rng.NextBelow(2048)),
                         row);
  }
  ExpectBulkLoadMatchesSortAndPack(entries, 32, &rng);
  // Every entry the same pair.
  ExpectBulkLoadMatchesSortAndPack(std::vector<Entry>(700, Entry{-3, 11}), 4,
                                   &rng);
}

TEST(BTreeBulkLoad, ColumnLoadMatchesSortAndPack) {
  // Database::PrepareIndex's path: one column in row order, tombstoned
  // rows skipped. The tree must be the one BulkLoad builds from the kept
  // (key, row) pairs, including keys too wide to pack with the rows.
  struct KeyShape {
    int64_t lo;
    uint64_t span;  // 0: the full 64-bit range
  };
  const KeyShape key_shapes[] = {{42, 1},         {0, 500},
                                 {0, 75'000},     {-7, uint64_t{1} << 40},
                                 {INT64_MIN, 0},  {INT64_MAX - 3, 4}};
  enum class Skip { kNone, kShort, kRandom, kEnds, kAll };
  Rng rng(909);
  int32_t fanout = 4;
  for (const KeyShape& shape : key_shapes) {
    for (Skip pattern :
         {Skip::kNone, Skip::kShort, Skip::kRandom, Skip::kEnds, Skip::kAll}) {
      SCOPED_TRACE(::testing::Message() << "key span " << shape.span
                                        << ", skip pattern "
                                        << static_cast<int>(pattern));
      const size_t rows = 2000 + rng.NextBelow(2000);
      std::vector<int64_t> keys;
      for (size_t row = 0; row < rows; ++row) {
        keys.push_back(KeyInSpan(&rng, shape.lo, shape.span));
      }
      std::vector<uint8_t> skip;
      switch (pattern) {
        case Skip::kNone:
          break;
        case Skip::kShort:  // flags for the first half only
          for (size_t row = 0; row < rows / 2; ++row) {
            skip.push_back(rng.NextBool(0.5) ? 1 : 0);
          }
          break;
        case Skip::kRandom:
          for (size_t row = 0; row < rows; ++row) {
            skip.push_back(rng.NextBool(0.3) ? 1 : 0);
          }
          break;
        case Skip::kEnds:
          skip.assign(rows, 0);
          skip.front() = skip.back() = 1;
          break;
        case Skip::kAll:
          skip.assign(rows, 1);
          break;
      }
      std::vector<Entry> kept;
      for (size_t row = 0; row < rows; ++row) {
        if (row >= skip.size() || skip[row] == 0) {
          kept.emplace_back(keys[row], static_cast<RowId>(row));
        }
      }
      BTreeIndex tree(fanout);
      ASSERT_TRUE(tree.BulkLoadColumn(keys, skip).ok());
      ExpectMatchesSortAndPack(tree, kept, &rng);
      fanout = fanout == 256 ? 4 : fanout * 2;
    }
  }
}

TEST(BTree, RangeScanReportsLeavesTouched) {
  BTreeIndex tree(10);
  std::vector<std::pair<int64_t, RowId>> entries;
  for (int i = 0; i < 1000; ++i) entries.emplace_back(i, i);
  ASSERT_TRUE(tree.BulkLoad(std::move(entries)).ok());
  std::vector<RowId> out;
  // Scanning 100 of 1000 keys at fanout 10 touches ~10-11 leaves.
  const int64_t leaves = tree.RangeScan(500, 599, &out);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_GE(leaves, 10);
  EXPECT_LE(leaves, 12);
  // Point lookup touches exactly one leaf.
  out.clear();
  EXPECT_EQ(tree.Lookup(42, &out), 1);
}

/// Folds `value` into the FNV-1a-style hash `*hash`, one word at a time.
void HashWord(uint64_t* hash, int64_t value) {
  *hash = (*hash ^ static_cast<uint64_t>(value)) * 0x100000001b3ULL;
}

/// A key for the shape streams: mostly from [-300, 300), so that runs of
/// equal keys straddle splits, and sometimes INT64_MIN, INT64_MAX or one
/// of their neighbours.
int64_t ShapeKey(Rng* rng) {
  static constexpr int64_t kExtremes[] = {INT64_MIN, INT64_MIN + 1,
                                          INT64_MAX - 1, INT64_MAX};
  if (rng->NextBool(0.04)) return kExtremes[rng->NextBelow(4)];
  return static_cast<int64_t>(rng->NextBelow(600)) - 300;
}

TEST(BTree, InsertEraseShapeIsPinned) {
  // The executor charges pages by leaves touched, and leaf counts,
  // heights and leaves touched depend on where Insert splits and how
  // Erase and RangeScan descend. The other tests compare contents only,
  // so this one hashes the shape of seeded insert/erase streams and of
  // the scans over them: moving a split point or a scan's last leaf
  // changes a fanout's hash.
  struct Pin {
    int32_t fanout;
    uint64_t hash;
  };
  const Pin pins[] = {{4, 0xa09f1fd54374358bULL},
                      {5, 0x5b9f595a4840401fULL},
                      {16, 0xe41763e8b607f4eeULL},
                      {128, 0x1ab1f5df1ec236c2ULL}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "fanout " << pin.fanout);
    BTreeIndex tree(pin.fanout);
    std::multimap<int64_t, RowId> reference;
    std::vector<std::pair<int64_t, RowId>> live;
    Rng rng(static_cast<uint64_t>(pin.fanout) * 1'000'003);
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (int op = 0; op < 20'000; ++op) {
      if (!live.empty() && rng.NextBool(0.4)) {
        if (rng.NextBool(0.5)) {
          const size_t i = rng.NextBelow(live.size());
          const auto [key, row] = live[i];
          live[i] = live.back();
          live.pop_back();
          EXPECT_TRUE(tree.Erase(key, row));
          auto it = reference.lower_bound(key);
          while (it->second != row) ++it;
          reference.erase(it);
        } else {
          EXPECT_FALSE(tree.Erase(ShapeKey(&rng), /*row=*/-1 - op));
        }
      } else {
        const int64_t key = ShapeKey(&rng);
        tree.Insert(key, op);
        live.emplace_back(key, op);
        reference.emplace(key, op);
      }
      if (op % 500 == 499) {
        HashWord(&hash, tree.leaf_count());
        HashWord(&hash, tree.height());
        HashWord(&hash, tree.entry_count());
      }
    }
    ASSERT_TRUE(tree.CheckInvariants().ok());
    ASSERT_EQ(tree.entry_count(), static_cast<int64_t>(reference.size()));

    std::vector<std::pair<int64_t, int64_t>> ranges = {
        {INT64_MIN, INT64_MIN},     {INT64_MAX, INT64_MAX},
        {INT64_MIN, INT64_MAX},     {INT64_MAX, INT64_MIN},
        {INT64_MIN + 1, INT64_MIN}, {INT64_MAX, INT64_MAX - 1}};
    while (ranges.size() < 200) {
      const int64_t a = ShapeKey(&rng);
      const int64_t b = ShapeKey(&rng);
      ranges.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::vector<RowId> rows;
    for (const auto& [lo, hi] : ranges) {
      rows.clear();
      const int64_t leaves = tree.RangeScan(lo, hi, &rows);
      // An insert lands after the equal keys already present, so a scan
      // yields rows in (key, insertion) order: the multimap's order.
      std::vector<RowId> expected;
      if (lo > hi) {
        EXPECT_EQ(leaves, 0) << "range [" << lo << ", " << hi << "]";
      } else {
        for (auto it = reference.lower_bound(lo);
             it != reference.end() && it->first <= hi; ++it) {
          expected.push_back(it->second);
        }
      }
      EXPECT_EQ(rows, expected) << "range [" << lo << ", " << hi << "]";
      HashWord(&hash, leaves);
      for (RowId row : rows) HashWord(&hash, row);
    }
    EXPECT_EQ(hash, pin.hash) << std::hex << "hash 0x" << hash;
  }
}

}  // namespace
}  // namespace colt
