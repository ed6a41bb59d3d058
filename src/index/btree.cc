#include "index/btree.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <utility>

namespace colt {

/// Capacities are fixed at construction (keys and values: fanout;
/// children: fanout + 1). A node and its arrays are one heap block: Make
/// allocates it and Free releases it.
struct BTreeIndex::Node {
  const bool is_leaf;
  int32_t count = 0;
  int64_t* keys = nullptr;
  // Leaf: values[i] corresponds to keys[i].
  RowId* values = nullptr;
  // Internal: count + 1 live children; subtree children[i] holds keys <
  // keys[i]; children[i+1] holds keys >= keys[i].
  Node** children = nullptr;
  Node* next_leaf = nullptr;

  explicit Node(bool leaf) : is_leaf(leaf) {}

  static Node* Make(bool leaf, int32_t fanout) {
    // Every cell is 8 bytes and 8-aligned, and so is the header's size,
    // so the arrays follow the header back to back.
    static_assert(sizeof(Node) % alignof(int64_t) == 0);
    static_assert(sizeof(Node*) == sizeof(int64_t));
    const size_t f = static_cast<size_t>(fanout);
    const size_t cells = f + (leaf ? f : f + 1);
    unsigned char* block = static_cast<unsigned char*>(
        ::operator new(sizeof(Node) + cells * sizeof(int64_t)));
    Node* node = ::new (block) Node(leaf);
    unsigned char* payload = block + sizeof(Node);
    node->keys = ::new (payload) int64_t[f];
    payload += f * sizeof(int64_t);
    if (leaf) {
      node->values = ::new (payload) RowId[f];
    } else {
      node->children = ::new (payload) Node*[f + 1];
    }
    return node;
  }

  /// The arrays are trivially destructible, so only the header's
  /// destructor runs.
  static void Free(Node* node) {
    node->~Node();
    ::operator delete(node);
  }
};

BTreeIndex::BTreeIndex(int32_t fanout) : fanout_(std::max(4, fanout)) {}

BTreeIndex::~BTreeIndex() { FreeTree(root_); }

BTreeIndex::BTreeIndex(BTreeIndex&& other) noexcept
    : root_(std::exchange(other.root_, nullptr)),
      fanout_(other.fanout_),
      entry_count_(std::exchange(other.entry_count_, 0)),
      leaf_count_(std::exchange(other.leaf_count_, 0)),
      height_(std::exchange(other.height_, 0)) {}

BTreeIndex& BTreeIndex::operator=(BTreeIndex&& other) noexcept {
  if (this != &other) {
    FreeTree(root_);
    root_ = std::exchange(other.root_, nullptr);
    fanout_ = other.fanout_;
    entry_count_ = std::exchange(other.entry_count_, 0);
    leaf_count_ = std::exchange(other.leaf_count_, 0);
    height_ = std::exchange(other.height_, 0);
  }
  return *this;
}

void BTreeIndex::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    for (int32_t i = 0; i <= node->count; ++i) FreeTree(node->children[i]);
  }
  Node::Free(node);
}

size_t BTreeIndex::LowerBoundKeys(const Node& node, int64_t key) {
  size_t lo = 0;
  size_t hi = static_cast<size_t>(node.count);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (node.keys[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t BTreeIndex::UpperBoundKeys(const Node& node, int64_t key) {
  size_t lo = 0;
  size_t hi = static_cast<size_t>(node.count);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (node.keys[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Writes.
// ---------------------------------------------------------------------------

void BTreeIndex::SplitChild(Node* parent, size_t i, Node* child) {
  const int32_t mid = child->count / 2;
  const int64_t separator = child->keys[mid];
  Node* right = Node::Make(child->is_leaf, fanout_);
  if (child->is_leaf) {
    right->count = child->count - mid;
    std::copy_n(child->keys + mid, right->count, right->keys);
    std::copy_n(child->values + mid, right->count, right->values);
    right->next_leaf = child->next_leaf;
    child->next_leaf = right;
    ++leaf_count_;
  } else {
    // The separator moves up: it is in neither half.
    right->count = child->count - mid - 1;
    std::copy_n(child->keys + mid + 1, right->count, right->keys);
    std::copy_n(child->children + mid + 1, right->count + 1, right->children);
  }
  child->count = mid;
  // Shift the parent's tail right by one and splice in separator + right.
  const int32_t pcount = parent->count;
  std::copy_backward(parent->keys + i, parent->keys + pcount,
                     parent->keys + pcount + 1);
  std::copy_backward(parent->children + i + 1, parent->children + pcount + 1,
                     parent->children + pcount + 2);
  parent->keys[i] = separator;
  parent->children[i + 1] = right;
  parent->count = pcount + 1;
}

void BTreeIndex::Insert(int64_t key, RowId row) {
  if (root_ == nullptr) {
    root_ = Node::Make(/*leaf=*/true, fanout_);
    leaf_count_ = 1;
    height_ = 1;
  }
  // Preemptive split: every full node on the way down is split before the
  // descent enters it, so a parent always has room for a separator.
  if (root_->count >= fanout_) {
    Node* new_root = Node::Make(/*leaf=*/false, fanout_);
    new_root->children[0] = root_;
    SplitChild(new_root, 0, root_);
    root_ = new_root;
    ++height_;
  }
  Node* node = root_;
  while (!node->is_leaf) {
    size_t i = UpperBoundKeys(*node, key);
    if (node->children[i]->count >= fanout_) {
      SplitChild(node, i, node->children[i]);
      // Re-aim at whichever half owns `key`.
      if (key >= node->keys[i]) ++i;
    }
    node = node->children[i];
  }
  const size_t pos = UpperBoundKeys(*node, key);
  const int32_t count = node->count;
  std::copy_backward(node->keys + pos, node->keys + count,
                     node->keys + count + 1);
  std::copy_backward(node->values + pos, node->values + count,
                     node->values + count + 1);
  node->keys[pos] = key;
  node->values[pos] = row;
  node->count = count + 1;
  ++entry_count_;
}

bool BTreeIndex::Erase(int64_t key, RowId row) {
  if (root_ == nullptr) return false;
  // Lower-bound descent to the first possible occurrence (duplicates can
  // straddle separators, exactly as in RangeScan).
  Node* node = root_;
  while (!node->is_leaf) node = node->children[LowerBoundKeys(*node, key)];
  // Walk the leaf chain for the (key, row) pair; duplicate keys may span
  // several leaves, and emptied leaves are passed through.
  for (; node != nullptr; node = node->next_leaf) {
    const size_t count = static_cast<size_t>(node->count);
    for (size_t i = LowerBoundKeys(*node, key); i < count; ++i) {
      if (node->keys[i] > key) return false;
      if (node->values[i] == row) {
        std::copy(node->keys + i + 1, node->keys + count, node->keys + i);
        std::copy(node->values + i + 1, node->values + count,
                  node->values + i);
        --node->count;
        --entry_count_;
        return true;
      }
    }
  }
  return false;
}

namespace {

/// Widest digit of the bulk loads' LSD radix sort. A pass scatters into
/// one write stream per bucket, and 2^11 of them stay cache-resident.
constexpr int kMaxDigitBits = 11;

/// A (key, row) pair packed into one word, key − min_key above row −
/// min_row, so that word order is (key, row) order. Valid when the two
/// offsets fit 64 bits together.
struct PackedEntry {
  int64_t min_key;
  RowId min_row;
  int row_bits;

  uint64_t Pack(int64_t key, RowId row) const {
    const uint64_t row_offset =
        static_cast<uint64_t>(row) - static_cast<uint64_t>(min_row);
    // At 64 row bits every key is min_key: its offset is 0.
    if (row_bits == 64) return row_offset;
    return ((static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key))
            << row_bits) |
           row_offset;
  }
  int64_t Key(uint64_t word) const {
    if (row_bits == 64) return min_key;
    return static_cast<int64_t>(static_cast<uint64_t>(min_key) +
                                (word >> row_bits));
  }
  RowId Row(uint64_t word) const {
    const uint64_t mask =
        row_bits == 64 ? ~uint64_t{0} : (uint64_t{1} << row_bits) - 1;
    return static_cast<RowId>(static_cast<uint64_t>(min_row) +
                              (word & mask));
  }
};

/// Bit width of hi − lo, read as uint64 (0 when they are equal).
int SpanBits(int64_t lo, int64_t hi) {
  return static_cast<int>(
      std::bit_width(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)));
}

/// The digits a stable LSD radix sort orders packed words by: the fewest
/// equal-width digits of at most kMaxDigitBits that cover bits
/// [low_bit, low_bit + sort_bits), each with its own histogram. The caller
/// fills the histograms (Count) in the same read that packs the words.
class RadixDigits {
 public:
  RadixDigits(int low_bit, int sort_bits)
      : low_bit_(low_bit),
        count_((sort_bits + kMaxDigitBits - 1) / kMaxDigitBits),
        width_(count_ == 0 ? 0 : (sort_bits + count_ - 1) / count_),
        buckets_(size_t{1} << width_),
        counts_(static_cast<size_t>(count_) * buckets_) {}

  void Count(uint64_t word) {
    for (int d = 0; d < count_; ++d) ++counts_[Index(d, word)];
  }

  /// Sorts `n` counted words; `*words` ends up holding them in order. A
  /// digit every word shares is skipped. Allocates one scratch array of
  /// `n` words when a pass runs and frees it before returning.
  void Sort(size_t n, std::unique_ptr<uint64_t[]>* words) {
    std::unique_ptr<uint64_t[]> scratch;
    for (int d = 0; d < count_; ++d) {
      size_t* offsets = counts_.data() + static_cast<size_t>(d) * buckets_;
      if (std::find(offsets, offsets + buckets_, n) != offsets + buckets_) {
        continue;
      }
      size_t sum = 0;
      for (size_t b = 0; b < buckets_; ++b) {
        sum += std::exchange(offsets[b], sum);
      }
      if (scratch == nullptr) {
        scratch = std::make_unique_for_overwrite<uint64_t[]>(n);
      }
      const uint64_t* from = words->get();
      const int shift = low_bit_ + d * width_;
      const uint64_t mask = buckets_ - 1;
      for (size_t i = 0; i < n; ++i) {
        scratch[offsets[(from[i] >> shift) & mask]++] = from[i];
      }
      std::swap(*words, scratch);
    }
  }

 private:
  size_t Index(int d, uint64_t word) const {
    return static_cast<size_t>(d) * buckets_ +
           ((word >> (low_bit_ + d * width_)) & (buckets_ - 1));
  }

  int low_bit_;
  int count_;
  int width_;
  size_t buckets_;
  std::vector<size_t> counts_;
};

}  // namespace

template <typename KeyAt, typename RowAt>
void BTreeIndex::BuildFromSorted(size_t n, KeyAt key_at, RowAt row_at) {
  // Leaves are packed full from the sorted sequence, in order.
  std::vector<Node*> level;
  const size_t per_leaf = static_cast<size_t>(fanout_);
  level.reserve((n + per_leaf - 1) / per_leaf);
  for (size_t start = 0; start < n; start += per_leaf) {
    const size_t end = std::min(n, start + per_leaf);
    Node* leaf = Node::Make(/*leaf=*/true, fanout_);
    for (size_t i = start; i < end; ++i) {
      leaf->keys[i - start] = key_at(i);
      leaf->values[i - start] = row_at(i);
    }
    leaf->count = static_cast<int32_t>(end - start);
    if (!level.empty()) level.back()->next_leaf = leaf;
    level.push_back(leaf);
  }
  leaf_count_ = static_cast<int64_t>(level.size());
  entry_count_ = static_cast<int64_t>(n);
  height_ = 1;

  // Build internal levels bottom-up.
  while (level.size() > 1) {
    std::vector<Node*> parents;
    const size_t per_node = static_cast<size_t>(fanout_);
    for (size_t start = 0; start < level.size(); start += per_node + 1) {
      const size_t end = std::min(level.size(), start + per_node + 1);
      Node* parent = Node::Make(/*leaf=*/false, fanout_);
      for (size_t i = start; i < end; ++i) {
        if (i > start) {
          // Separator: smallest key reachable in child i's subtree.
          const Node* c = level[i];
          while (!c->is_leaf) c = c->children[0];
          parent->keys[i - start - 1] = c->keys[0];
        }
        parent->children[i - start] = level[i];
      }
      parent->count = static_cast<int32_t>(end - start - 1);
      parents.push_back(parent);
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level.front();
}

Status BTreeIndex::BulkLoad(std::vector<std::pair<int64_t, RowId>> entries) {
  if (root_ != nullptr) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  if (entries.empty()) return Status::OK();
  const size_t n = entries.size();

  int64_t min_key = entries[0].first, max_key = min_key;
  RowId min_row = entries[0].second, max_row = min_row;
  bool rows_ascend = true;
  for (size_t i = 1; i < n; ++i) {
    const auto [key, row] = entries[i];
    min_key = std::min(min_key, key);
    max_key = std::max(max_key, key);
    min_row = std::min(min_row, row);
    max_row = std::max(max_row, row);
    rows_ascend = rows_ascend && row >= entries[i - 1].second;
  }
  const int key_bits = SpanBits(min_key, max_key);
  const int row_bits = SpanBits(min_row, max_row);
  if (key_bits + row_bits > 64) {
    // Too wide to pack into one word (keys or rows near the full INT64
    // span): fall back to a comparison sort.
    std::sort(entries.begin(), entries.end());
    BuildFromSorted(n, [&](size_t i) { return entries[i].first; },
                    [&](size_t i) { return entries[i].second; });
    return Status::OK();
  }

  // When the rows already ascend only the key bits need sorting: a stable
  // sort keeps equal keys in input order.
  const PackedEntry packed{min_key, min_row, row_bits};
  const int low_bit = rows_ascend ? row_bits : 0;
  RadixDigits digits(low_bit, key_bits + row_bits - low_bit);
  auto words = std::make_unique_for_overwrite<uint64_t[]>(n);
  for (size_t i = 0; i < n; ++i) {
    words[i] = packed.Pack(entries[i].first, entries[i].second);
    digits.Count(words[i]);
  }
  std::vector<std::pair<int64_t, RowId>>().swap(entries);
  digits.Sort(n, &words);
  BuildFromSorted(n, [&](size_t i) { return packed.Key(words[i]); },
                  [&](size_t i) { return packed.Row(words[i]); });
  return Status::OK();
}

Status BTreeIndex::BulkLoadColumn(const std::vector<int64_t>& keys,
                                  const std::vector<uint8_t>& skip) {
  if (root_ != nullptr) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  const auto kept = [&skip](size_t row) {
    return row >= skip.size() || skip[row] == 0;
  };
  size_t n = 0;
  int64_t min_key = 0, max_key = 0;
  RowId min_row = 0, max_row = 0;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!kept(row)) continue;
    if (n++ == 0) {
      min_key = max_key = keys[row];
      min_row = static_cast<RowId>(row);
    }
    min_key = std::min(min_key, keys[row]);
    max_key = std::max(max_key, keys[row]);
    max_row = static_cast<RowId>(row);
  }
  if (n == 0) return Status::OK();
  const int key_bits = SpanBits(min_key, max_key);
  const int row_bits = SpanBits(min_row, max_row);
  if (key_bits + row_bits > 64) {
    std::vector<std::pair<int64_t, RowId>> entries;
    entries.reserve(n);
    for (size_t row = 0; row < keys.size(); ++row) {
      if (kept(row)) entries.emplace_back(keys[row], static_cast<RowId>(row));
    }
    return BulkLoad(std::move(entries));
  }

  // Rows ascend, so only the key bits need sorting.
  const PackedEntry packed{min_key, min_row, row_bits};
  RadixDigits digits(row_bits, key_bits);
  auto words = std::make_unique_for_overwrite<uint64_t[]>(n);
  size_t i = 0;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!kept(row)) continue;
    words[i] = packed.Pack(keys[row], static_cast<RowId>(row));
    digits.Count(words[i++]);
  }
  digits.Sort(n, &words);
  BuildFromSorted(n, [&](size_t j) { return packed.Key(words[j]); },
                  [&](size_t j) { return packed.Row(words[j]); });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

int64_t BTreeIndex::RangeScan(int64_t lo, int64_t hi,
                              std::vector<RowId>* out) const {
  if (lo > hi || root_ == nullptr) return 0;
  // lower_bound, not upper_bound: with duplicate keys the separator value
  // can also appear in the child to its left (splits cut runs of equal
  // keys), so the search for the *first* occurrence must descend left of
  // any separator equal to the key. The leaf chain covers the rest.
  const Node* node = root_;
  while (!node->is_leaf) node = node->children[LowerBoundKeys(*node, lo)];
  int64_t leaves_touched = 0;
  for (; node != nullptr; node = node->next_leaf) {
    ++leaves_touched;
    const size_t count = static_cast<size_t>(node->count);
    const size_t start = LowerBoundKeys(*node, lo);
    size_t end = start;
    while (end < count && node->keys[end] <= hi) ++end;
    out->insert(out->end(), node->values + start, node->values + end);
    if (end < count) break;  // a key above hi: no later leaf can match
  }
  return leaves_touched;
}

int64_t BTreeIndex::Lookup(int64_t key, std::vector<RowId>* out) const {
  return RangeScan(key, key, out);
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

Status BTreeIndex::CheckNode(const Node* node, int depth, int64_t lo,
                             int64_t hi, int leaf_depth) const {
  const int32_t count = node->count;
  int64_t prev = INT64_MIN;
  for (int32_t i = 0; i < count; ++i) {
    const int64_t k = node->keys[i];
    if (k < prev) return Status::Internal("keys not sorted");
    prev = k;
    if (k < lo || k > hi) return Status::Internal("key outside bounds");
  }
  if (count > fanout_) {
    return Status::Internal("node overflow");
  }
  if (node->is_leaf) {
    if (depth != leaf_depth) return Status::Internal("uneven leaf depth");
    return Status::OK();
  }
  for (int32_t i = 0; i <= count; ++i) {
    const Node* child = node->children[i];
    if (child == nullptr) return Status::Internal("missing child");
    const int64_t child_lo = (i == 0) ? lo : node->keys[i - 1];
    // Duplicates may straddle a separator, so the left child's bound is
    // inclusive of the separator value.
    const int64_t child_hi = (i == count) ? hi : node->keys[i];
    Status st = CheckNode(child, depth + 1, child_lo,
                          std::max(child_lo, child_hi), leaf_depth);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status BTreeIndex::CheckInvariants() const {
  if (root_ == nullptr) {
    if (entry_count_ != 0 || leaf_count_ != 0) {
      return Status::Internal("empty tree with nonzero counts");
    }
    return Status::OK();
  }
  // Leaf depth = height_ - 1 when root counts as depth 0.
  Status st = CheckNode(root_, 0, INT64_MIN, INT64_MAX, height_ - 1);
  if (!st.ok()) return st;
  // Walk the leaf chain: total entries and leaf count must match, and the
  // concatenated key sequence must be globally sorted.
  const Node* leaf = root_;
  while (!leaf->is_leaf) leaf = leaf->children[0];
  int64_t entries = 0, leaves = 0;
  int64_t prev = INT64_MIN;
  for (; leaf != nullptr; leaf = leaf->next_leaf) {
    ++leaves;
    for (int32_t i = 0; i < leaf->count; ++i) {
      if (leaf->keys[i] < prev) {
        return Status::Internal("leaf chain not sorted");
      }
      prev = leaf->keys[i];
      ++entries;
    }
  }
  if (entries != entry_count_) {
    return Status::Internal("entry count mismatch");
  }
  if (leaves != leaf_count_) return Status::Internal("leaf count mismatch");
  return Status::OK();
}

}  // namespace colt
