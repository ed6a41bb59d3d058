#include "index/btree.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace colt {

namespace {

/// Spin-wait hint while a node is writer-locked (locks cover O(fanout)
/// memory moves, so waits are short).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

constexpr uint64_t kLockBit = 1;
/// Even = unlocked; writers hold the node while the low bit is set and
/// bump the version by one generation (+2) on release.
constexpr uint64_t kInitialVersion = 2;

}  // namespace

/// Node payload lives in arrays of atomic cells so that optimistic readers
/// racing a locked writer perform no data race in the language sense: a
/// reader may observe a half-updated node, but every load is tear-free and
/// the version re-validation discards inconsistent snapshots. Capacities
/// are fixed at construction (keys/values: fanout; children: fanout + 1),
/// and `count` never exceeds them even mid-write, so any count a reader
/// observes keeps its indexing in bounds.
struct BTreeIndex::Node {
  std::atomic<uint64_t> version;
  const bool is_leaf;
  std::atomic<int32_t> count{0};
  std::unique_ptr<std::atomic<int64_t>[]> keys;
  // Leaf: values[i] corresponds to keys[i].
  std::unique_ptr<std::atomic<RowId>[]> values;
  // Internal: count + 1 live children; subtree children[i] holds keys <
  // keys[i]; children[i+1] holds keys >= keys[i].
  std::unique_ptr<std::atomic<Node*>[]> children;
  std::atomic<Node*> next_leaf{nullptr};

  Node(bool leaf, int32_t fanout, uint64_t initial_version)
      : version(initial_version),
        is_leaf(leaf),
        keys(std::make_unique<std::atomic<int64_t>[]>(
            static_cast<size_t>(fanout))),
        values(leaf ? std::make_unique<std::atomic<RowId>[]>(
                          static_cast<size_t>(fanout))
                    : nullptr),
        children(leaf ? nullptr
                      : std::make_unique<std::atomic<Node*>[]>(
                            static_cast<size_t>(fanout) + 1)) {}
};

BTreeIndex::BTreeIndex(int32_t fanout) : fanout_(std::max(4, fanout)) {}

BTreeIndex::~BTreeIndex() { FreeTree(root_.load(std::memory_order_acquire)); }

BTreeIndex::BTreeIndex(BTreeIndex&& other) noexcept
    : root_(other.root_.exchange(nullptr, std::memory_order_acq_rel)),
      fanout_(other.fanout_),
      entry_count_(other.entry_count_.exchange(0)),
      leaf_count_(other.leaf_count_.exchange(0)),
      height_(other.height_.exchange(0)),
      read_restarts_(other.read_restarts_.load(std::memory_order_relaxed)),
      write_restarts_(other.write_restarts_.load(std::memory_order_relaxed)) {}

BTreeIndex& BTreeIndex::operator=(BTreeIndex&& other) noexcept {
  if (this != &other) {
    FreeTree(root_.load(std::memory_order_acquire));
    root_.store(other.root_.exchange(nullptr, std::memory_order_acq_rel),
                std::memory_order_release);
    fanout_ = other.fanout_;
    entry_count_.store(other.entry_count_.exchange(0));
    leaf_count_.store(other.leaf_count_.exchange(0));
    height_.store(other.height_.exchange(0));
    read_restarts_.store(other.read_restarts_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    write_restarts_.store(
        other.write_restarts_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return *this;
}

void BTreeIndex::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    const int32_t count = node->count.load(std::memory_order_relaxed);
    for (int32_t i = 0; i <= count; ++i) {
      FreeTree(node->children[static_cast<size_t>(i)].load(
          std::memory_order_relaxed));
    }
  }
  delete node;
}

// ---------------------------------------------------------------------------
// Version protocol.
//
// Writer: TryLock CASes the exact version observed by the caller to its
// locked value, so a successful lock certifies the node is unchanged since
// that observation. Mutations use release stores; UnlockNode release-stores
// the next even version.
//
// Reader: StableVersion acquire-loads (spinning out writer critical
// sections), payload loads are relaxed, and ValidateVersion issues an
// acquire fence before re-reading the version. If any payload load observed
// a concurrent writer's (release) store, the fence forces the version
// re-read to observe that writer's lock word too, so validation fails and
// the reader restarts — a reader can only accept a fully-consistent
// snapshot.
// ---------------------------------------------------------------------------

uint64_t BTreeIndex::StableVersion(const Node* node) {
  uint64_t v = node->version.load(std::memory_order_acquire);
  while ((v & kLockBit) != 0) {
    CpuRelax();
    v = node->version.load(std::memory_order_acquire);
  }
  return v;
}

bool BTreeIndex::ValidateVersion(const Node* node, uint64_t version) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return node->version.load(std::memory_order_relaxed) == version;
}

bool BTreeIndex::TryLock(Node* node, uint64_t version) {
  uint64_t expected = version;
  return node->version.compare_exchange_strong(expected, version | kLockBit,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed);
}

void BTreeIndex::UnlockNode(Node* node) {
  const uint64_t locked = node->version.load(std::memory_order_relaxed);
  node->version.store(locked + 1, std::memory_order_release);
}

size_t BTreeIndex::LowerBoundKeys(const Node& node, int64_t key,
                                  int32_t count) {
  size_t lo = 0;
  size_t hi = static_cast<size_t>(count);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (node.keys[mid].load(std::memory_order_relaxed) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t BTreeIndex::UpperBoundKeys(const Node& node, int64_t key,
                                  int32_t count) {
  size_t lo = 0;
  size_t hi = static_cast<size_t>(count);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (node.keys[mid].load(std::memory_order_relaxed) <= key) {
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

void BTreeIndex::SplitChildLocked(Node* parent, size_t i, Node* child) {
  const int32_t ccount = child->count.load(std::memory_order_relaxed);
  const int32_t mid = ccount / 2;
  const int64_t separator =
      child->keys[static_cast<size_t>(mid)].load(std::memory_order_relaxed);
  Node* right = new Node(child->is_leaf, fanout_, kInitialVersion);
  if (child->is_leaf) {
    for (int32_t j = mid; j < ccount; ++j) {
      const size_t src = static_cast<size_t>(j);
      const size_t dst = static_cast<size_t>(j - mid);
      right->keys[dst].store(child->keys[src].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
      right->values[dst].store(
          child->values[src].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    right->count.store(ccount - mid, std::memory_order_relaxed);
    right->next_leaf.store(child->next_leaf.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    // Link the new right sibling into the chain before shrinking `child`,
    // so a chain-walking reader always finds every key at least once (its
    // validation of `child` fails anyway while we hold the lock).
    child->next_leaf.store(right, std::memory_order_release);
    child->count.store(mid, std::memory_order_release);
    leaf_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (int32_t j = mid + 1; j < ccount; ++j) {
      right->keys[static_cast<size_t>(j - mid - 1)].store(
          child->keys[static_cast<size_t>(j)].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    for (int32_t j = mid + 1; j <= ccount; ++j) {
      right->children[static_cast<size_t>(j - mid - 1)].store(
          child->children[static_cast<size_t>(j)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    right->count.store(ccount - mid - 1, std::memory_order_relaxed);
    child->count.store(mid, std::memory_order_release);
  }
  // Shift the parent's tail right by one and splice in separator + right.
  const int32_t pcount = parent->count.load(std::memory_order_relaxed);
  for (int32_t j = pcount; j > static_cast<int32_t>(i); --j) {
    parent->keys[static_cast<size_t>(j)].store(
        parent->keys[static_cast<size_t>(j - 1)].load(
            std::memory_order_relaxed),
        std::memory_order_release);
  }
  for (int32_t j = pcount + 1; j > static_cast<int32_t>(i) + 1; --j) {
    parent->children[static_cast<size_t>(j)].store(
        parent->children[static_cast<size_t>(j - 1)].load(
            std::memory_order_relaxed),
        std::memory_order_release);
  }
  parent->keys[i].store(separator, std::memory_order_release);
  parent->children[i + 1].store(right, std::memory_order_release);
  parent->count.store(pcount + 1, std::memory_order_release);
}

void BTreeIndex::InsertIntoLeafLocked(Node* leaf, int64_t key, RowId row) {
  const int32_t count = leaf->count.load(std::memory_order_relaxed);
  const size_t pos = UpperBoundKeys(*leaf, key, count);
  for (int32_t j = count; j > static_cast<int32_t>(pos); --j) {
    leaf->keys[static_cast<size_t>(j)].store(
        leaf->keys[static_cast<size_t>(j - 1)].load(std::memory_order_relaxed),
        std::memory_order_release);
    leaf->values[static_cast<size_t>(j)].store(
        leaf->values[static_cast<size_t>(j - 1)].load(
            std::memory_order_relaxed),
        std::memory_order_release);
  }
  leaf->keys[pos].store(key, std::memory_order_release);
  leaf->values[pos].store(row, std::memory_order_release);
  leaf->count.store(count + 1, std::memory_order_release);
}

bool BTreeIndex::InsertIntoEmpty(int64_t key, RowId row) {
  // Publish the root locked: counters and the first entry are finalized
  // before any other thread can read or lock it.
  Node* leaf = new Node(/*leaf=*/true, fanout_, kInitialVersion | kLockBit);
  leaf->keys[0].store(key, std::memory_order_relaxed);
  leaf->values[0].store(row, std::memory_order_relaxed);
  leaf->count.store(1, std::memory_order_relaxed);
  Node* expected = nullptr;
  if (!root_.compare_exchange_strong(expected, leaf,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
    delete leaf;  // another thread created the root first
    return false;
  }
  leaf_count_.store(1, std::memory_order_release);
  height_.store(1, std::memory_order_release);
  entry_count_.fetch_add(1, std::memory_order_release);
  UnlockNode(leaf);
  return true;
}

void BTreeIndex::SplitRoot(Node* root, uint64_t version) {
  if (!TryLock(root, version)) return;
  if (root_.load(std::memory_order_acquire) != root) {
    UnlockNode(root);  // superseded while we were locking
    return;
  }
  // With the current root locked no other writer can split it or publish a
  // new root, so the swap below is unique.
  Node* new_root = new Node(/*leaf=*/false, fanout_,
                            kInitialVersion | kLockBit);
  new_root->children[0].store(root, std::memory_order_relaxed);
  SplitChildLocked(new_root, 0, root);
  root_.store(new_root, std::memory_order_release);
  height_.fetch_add(1, std::memory_order_release);
  UnlockNode(new_root);
  // Readers that entered through the old root restart on its bumped
  // version; stale traversals that validated before the bump stay correct
  // via the leaf chain.
  UnlockNode(root);
}

bool BTreeIndex::InsertAttempt(int64_t key, RowId row, bool* contended) {
  *contended = true;
  Node* root = root_.load(std::memory_order_acquire);
  if (root == nullptr) return InsertIntoEmpty(key, row);
  uint64_t v = StableVersion(root);
  if (root_.load(std::memory_order_acquire) != root) return false;
  {
    const int32_t rcount = root->count.load(std::memory_order_relaxed);
    if (!ValidateVersion(root, v)) return false;
    if (rcount >= fanout_) {
      SplitRoot(root, v);
      // Planned restructuring, not a lost race: retry from the (possibly
      // new) root without charging the contention counter.
      *contended = false;
      return false;
    }
  }
  // Loop invariant: `node` had count < fanout_ at version `v`, so a
  // successful TryLock(node, v) certifies room for one more separator or
  // entry (the preemptive-split discipline of the serial algorithm).
  Node* node = root;
  while (!node->is_leaf) {
    const int32_t count = node->count.load(std::memory_order_relaxed);
    size_t i = UpperBoundKeys(*node, key, count);
    Node* child =
        node->children[i].load(std::memory_order_relaxed);
    if (!ValidateVersion(node, v)) return false;
    if (child == nullptr) return false;  // torn read; restart
    uint64_t cv = StableVersion(child);
    if (!ValidateVersion(node, v)) return false;
    const int32_t ccount = child->count.load(std::memory_order_relaxed);
    if (!ValidateVersion(child, cv)) return false;
    if (ccount >= fanout_) {
      if (!TryLock(node, v)) return false;
      if (!TryLock(child, cv)) {
        UnlockNode(node);
        return false;
      }
      SplitChildLocked(node, i, child);
      UnlockNode(child);
      // Re-aim the descent at whichever half owns `key`. While we still
      // hold the parent lock neither half can be touched by other
      // writers (they would have to re-descend through the locked
      // parent, or re-lock the bumped child version), so its fresh
      // version certifies a non-full node.
      if (key >= node->keys[i].load(std::memory_order_relaxed)) ++i;
      Node* next = node->children[i].load(std::memory_order_relaxed);
      const uint64_t nv = StableVersion(next);
      UnlockNode(node);
      node = next;
      v = nv;
      continue;
    }
    node = child;
    v = cv;
  }
  if (!TryLock(node, v)) return false;
  InsertIntoLeafLocked(node, key, row);
  UnlockNode(node);
  entry_count_.fetch_add(1, std::memory_order_release);
  return true;
}

void BTreeIndex::Insert(int64_t key, RowId row) {
  bool contended = false;
  while (!InsertAttempt(key, row, &contended)) {
    if (contended) write_restarts_.fetch_add(1, std::memory_order_relaxed);
    CpuRelax();
  }
}

bool BTreeIndex::EraseAttempt(int64_t key, RowId row, bool* erased) {
  Node* node = root_.load(std::memory_order_acquire);
  if (node == nullptr) {
    *erased = false;
    return true;
  }
  uint64_t v = StableVersion(node);
  if (root_.load(std::memory_order_acquire) != node) return false;
  // Lower-bound descent to the first possible occurrence (duplicates can
  // straddle separators, exactly as in ScanAttempt).
  while (!node->is_leaf) {
    const int32_t count = node->count.load(std::memory_order_relaxed);
    const size_t i = LowerBoundKeys(*node, key, count);
    Node* child = node->children[i].load(std::memory_order_relaxed);
    if (!ValidateVersion(node, v)) return false;
    if (child == nullptr) return false;  // torn read; restart
    const uint64_t cv = StableVersion(child);
    if (!ValidateVersion(node, v)) return false;
    node = child;
    v = cv;
  }
  // Walk the leaf chain for the (key, row) pair; duplicate keys may span
  // several leaves, and emptied leaves (count == 0) are skipped through
  // their next pointer.
  while (true) {
    const int32_t count = node->count.load(std::memory_order_relaxed);
    size_t pos = static_cast<size_t>(count);
    bool past_key = false;
    for (size_t i = LowerBoundKeys(*node, key, count);
         i < static_cast<size_t>(count); ++i) {
      if (node->keys[i].load(std::memory_order_relaxed) > key) {
        past_key = true;
        break;
      }
      if (node->values[i].load(std::memory_order_relaxed) == row) {
        pos = i;
        break;
      }
    }
    Node* next = node->next_leaf.load(std::memory_order_relaxed);
    if (pos < static_cast<size_t>(count)) {
      // Found it. A successful TryLock at the version the position was
      // read under certifies the leaf is unchanged, so `pos` is still the
      // entry to remove; shift the tail left in place. The leaf is never
      // unlinked even when it empties — readers traverse it harmlessly.
      if (!TryLock(node, v)) return false;
      for (size_t i = pos + 1; i < static_cast<size_t>(count); ++i) {
        node->keys[i - 1].store(
            node->keys[i].load(std::memory_order_relaxed),
            std::memory_order_release);
        node->values[i - 1].store(
            node->values[i].load(std::memory_order_relaxed),
            std::memory_order_release);
      }
      node->count.store(count - 1, std::memory_order_release);
      UnlockNode(node);
      entry_count_.fetch_sub(1, std::memory_order_release);
      *erased = true;
      return true;
    }
    if (!ValidateVersion(node, v)) return false;
    if (past_key || next == nullptr) {
      *erased = false;
      return true;
    }
    const uint64_t nv = StableVersion(next);
    if (!ValidateVersion(node, v)) return false;
    node = next;
    v = nv;
  }
}

bool BTreeIndex::Erase(int64_t key, RowId row) {
  bool erased = false;
  while (!EraseAttempt(key, row, &erased)) {
    write_restarts_.fetch_add(1, std::memory_order_relaxed);
    CpuRelax();
  }
  return erased;
}

namespace {

using Entry = std::pair<int64_t, RowId>;

/// One stable counting-sort pass of BulkLoad's LSD radix sort: it orders
/// entries by bits [shift, shift + width) of (field − base), read as
/// uint64, where the field is the key or the row id.
struct RadixPass {
  bool row_digit;
  uint64_t base;
  int shift;
  uint64_t mask;

  size_t Digit(const Entry& e) const {
    const uint64_t field =
        static_cast<uint64_t>(row_digit ? e.second : e.first);
    return static_cast<size_t>(((field - base) >> shift) & mask);
  }
};

/// Appends the passes that sort the values in [lo, hi] by the digits of
/// (value − lo): the fewest equal-width digits of at most `max_width`
/// bits, least significant first. Nothing when lo == hi.
void AddRadixPasses(bool row_digit, int64_t lo, int64_t hi, int max_width,
                    std::vector<RadixPass>* passes) {
  const uint64_t base = static_cast<uint64_t>(lo);
  const int bits =
      static_cast<int>(std::bit_width(static_cast<uint64_t>(hi) - base));
  if (bits == 0) return;
  const int digits = (bits + max_width - 1) / max_width;
  const int width = (bits + digits - 1) / digits;
  for (int d = 0; d < digits; ++d) {
    passes->push_back(
        {row_digit, base, d * width, (uint64_t{1} << width) - 1});
  }
}

/// Histograms `pass`'s digits over `entries` into `counts` (resized to
/// the pass's bucket count) and turns them into exclusive prefix sums:
/// `counts[d]` becomes the sorted position of the first entry with digit d.
void DigitOffsets(const std::vector<Entry>& entries, const RadixPass& pass,
                  std::vector<size_t>* counts) {
  counts->assign(static_cast<size_t>(pass.mask) + 1, 0);
  for (const Entry& e : entries) ++(*counts)[pass.Digit(e)];
  size_t sum = 0;
  for (size_t& c : *counts) sum += std::exchange(c, sum);
}

}  // namespace

Status BTreeIndex::BulkLoad(std::vector<std::pair<int64_t, RowId>> entries) {
  if (root_.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  if (entries.empty()) return Status::OK();
  const size_t n = entries.size();

  // Sort (key, row) pairs with a stable LSD radix sort: row digits first,
  // then key digits, which yields lexicographic (key, row) order. When
  // the rows already ascend (Database::PrepareIndex passes them in row
  // order), equal keys keep their input order, so the row passes would
  // move nothing and are skipped.
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
  // Digits of up to 16 bits, narrowed for small inputs so that a count
  // table never dwarfs the entries it sorts.
  const int max_width =
      std::clamp(static_cast<int>(std::bit_width(n)), 8, 16);
  std::vector<RadixPass> passes;
  if (!rows_ascend) {
    AddRadixPasses(/*row_digit=*/true, min_row, max_row, max_width, &passes);
  }
  AddRadixPasses(/*row_digit=*/false, min_key, max_key, max_width, &passes);
  // Input that is already sorted still goes through one (identity) pass,
  // which copies it into the leaves.
  if (passes.empty()) passes.push_back({false, 0, 0, 0});

  // All passes but the last ping-pong between `entries` and one scratch
  // array; the last one scatters straight into leaf slots.
  std::vector<size_t> offsets;
  std::vector<Entry> scratch;
  if (passes.size() > 1) scratch.resize(n);
  std::vector<Entry>* src = &entries;
  std::vector<Entry>* dst = &scratch;
  for (size_t p = 0; p + 1 < passes.size(); ++p) {
    DigitOffsets(*src, passes[p], &offsets);
    for (const Entry& e : *src) (*dst)[offsets[passes[p].Digit(e)]++] = e;
    std::swap(src, dst);
  }
  std::vector<Entry>().swap(*dst);  // free the array the last pass skips

  // The structure is private until the root is published below, so plain
  // relaxed stores suffice while building. Leaves are packed full in
  // sorted order: position i lands in leaf i / fanout, slot i % fanout.
  std::vector<Node*> level;
  const size_t per_leaf = static_cast<size_t>(fanout_);
  level.reserve((n + per_leaf - 1) / per_leaf);
  for (size_t start = 0; start < n; start += per_leaf) {
    Node* leaf = new Node(/*leaf=*/true, fanout_, kInitialVersion);
    leaf->count.store(static_cast<int32_t>(std::min(n - start, per_leaf)),
                      std::memory_order_relaxed);
    if (!level.empty()) {
      level.back()->next_leaf.store(leaf, std::memory_order_relaxed);
    }
    level.push_back(leaf);
  }
  // Last pass: each digit's run of sorted positions becomes a (leaf, slot)
  // cursor that advances leaf by leaf, so no entry needs a division.
  struct LeafCursor {
    Node* const* leaf;
    int32_t slot;
  };
  const RadixPass& last = passes.back();
  DigitOffsets(*src, last, &offsets);
  std::vector<LeafCursor> cursors(offsets.size());
  for (size_t d = 0; d < offsets.size(); ++d) {
    cursors[d] = {level.data() + offsets[d] / per_leaf,
                  static_cast<int32_t>(offsets[d] % per_leaf)};
  }
  std::vector<size_t>().swap(offsets);
  for (const Entry& e : *src) {
    LeafCursor& c = cursors[last.Digit(e)];
    Node* leaf = *c.leaf;
    leaf->keys[static_cast<size_t>(c.slot)].store(e.first,
                                                  std::memory_order_relaxed);
    leaf->values[static_cast<size_t>(c.slot)].store(e.second,
                                                    std::memory_order_relaxed);
    if (++c.slot == fanout_) {
      ++c.leaf;
      c.slot = 0;
    }
  }
  std::vector<LeafCursor>().swap(cursors);
  std::vector<Entry>().swap(*src);

  leaf_count_.store(static_cast<int64_t>(level.size()),
                    std::memory_order_relaxed);
  entry_count_.store(static_cast<int64_t>(n), std::memory_order_relaxed);
  int32_t height = 1;

  // Build internal levels bottom-up.
  while (level.size() > 1) {
    std::vector<Node*> parents;
    const size_t per_node = static_cast<size_t>(fanout_);
    for (size_t start = 0; start < level.size(); start += per_node + 1) {
      const size_t end = std::min(level.size(), start + per_node + 1);
      Node* parent = new Node(/*leaf=*/false, fanout_, kInitialVersion);
      for (size_t i = start; i < end; ++i) {
        if (i > start) {
          // Separator: smallest key reachable in child i's subtree.
          const Node* c = level[i];
          while (!c->is_leaf) {
            c = c->children[0].load(std::memory_order_relaxed);
          }
          parent->keys[i - start - 1].store(
              c->keys[0].load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
        parent->children[i - start].store(level[i],
                                          std::memory_order_relaxed);
      }
      parent->count.store(static_cast<int32_t>(end - start - 1),
                          std::memory_order_relaxed);
      parents.push_back(parent);
    }
    level = std::move(parents);
    ++height;
  }
  height_.store(height, std::memory_order_relaxed);
  root_.store(level.front(), std::memory_order_release);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

bool BTreeIndex::ScanAttempt(int64_t lo, int64_t hi, std::vector<RowId>* out,
                             int64_t* leaves_touched) const {
  Node* node = root_.load(std::memory_order_acquire);
  if (node == nullptr) return true;
  uint64_t v = StableVersion(node);
  while (!node->is_leaf) {
    // lower_bound, not upper_bound: with duplicate keys the separator value
    // can also appear in the child to its left (splits cut runs of equal
    // keys), so the search for the *first* occurrence must descend left of
    // any separator equal to the key. The leaf chain covers the rest.
    const int32_t count = node->count.load(std::memory_order_relaxed);
    const size_t i = LowerBoundKeys(*node, lo, count);
    Node* child = node->children[i].load(std::memory_order_relaxed);
    if (!ValidateVersion(node, v)) return false;
    if (child == nullptr) return false;  // torn read; restart
    const uint64_t cv = StableVersion(child);
    if (!ValidateVersion(node, v)) return false;
    node = child;
    v = cv;
  }
  while (true) {
    const int32_t count = node->count.load(std::memory_order_relaxed);
    const size_t out_mark = out->size();
    const size_t start = LowerBoundKeys(*node, lo, count);
    bool past_end = false;
    for (size_t i = start; i < static_cast<size_t>(count); ++i) {
      const int64_t key = node->keys[i].load(std::memory_order_relaxed);
      if (key > hi) {
        past_end = true;
        break;
      }
      out->push_back(node->values[i].load(std::memory_order_relaxed));
    }
    const int64_t back_key =
        count > 0
            ? node->keys[static_cast<size_t>(count - 1)].load(
                  std::memory_order_relaxed)
            : 0;
    Node* next = node->next_leaf.load(std::memory_order_relaxed);
    if (!ValidateVersion(node, v)) {
      out->resize(out_mark);
      return false;
    }
    ++*leaves_touched;
    if (past_end) return true;
    if (count > 0 && back_key > hi) return true;
    if (next == nullptr) return true;
    const uint64_t nv = StableVersion(next);
    if (!ValidateVersion(node, v)) return false;
    node = next;
    v = nv;
  }
}

int64_t BTreeIndex::RangeScan(int64_t lo, int64_t hi,
                              std::vector<RowId>* out) const {
  if (lo > hi) return 0;
  const size_t base = out->size();
  while (true) {
    out->resize(base);
    int64_t leaves_touched = 0;
    if (ScanAttempt(lo, hi, out, &leaves_touched)) return leaves_touched;
    read_restarts_.fetch_add(1, std::memory_order_relaxed);
    CpuRelax();
  }
}

int64_t BTreeIndex::Lookup(int64_t key, std::vector<RowId>* out) const {
  return RangeScan(key, key, out);
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

Status BTreeIndex::CheckNode(const Node* node, int depth, int64_t lo,
                             int64_t hi, int leaf_depth) const {
  const int32_t count = node->count.load(std::memory_order_acquire);
  int64_t prev = INT64_MIN;
  for (int32_t i = 0; i < count; ++i) {
    const int64_t k =
        node->keys[static_cast<size_t>(i)].load(std::memory_order_relaxed);
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
    const Node* child = node->children[static_cast<size_t>(i)].load(
        std::memory_order_relaxed);
    if (child == nullptr) return Status::Internal("missing child");
    const int64_t child_lo =
        (i == 0) ? lo
                 : node->keys[static_cast<size_t>(i - 1)].load(
                       std::memory_order_relaxed);
    // Duplicates may straddle a separator, so the left child's bound is
    // inclusive of the separator value.
    const int64_t child_hi =
        (i == count) ? hi
                     : node->keys[static_cast<size_t>(i)].load(
                           std::memory_order_relaxed);
    Status st = CheckNode(child, depth + 1, child_lo,
                          std::max(child_lo, child_hi), leaf_depth);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status BTreeIndex::CheckInvariants() const {
  const Node* root = root_.load(std::memory_order_acquire);
  if (root == nullptr) {
    if (entry_count() != 0 || leaf_count() != 0) {
      return Status::Internal("empty tree with nonzero counts");
    }
    return Status::OK();
  }
  // Leaf depth = height_ - 1 when root counts as depth 0.
  Status st = CheckNode(root, 0, INT64_MIN, INT64_MAX, height() - 1);
  if (!st.ok()) return st;
  // Walk the leaf chain: total entries and leaf count must match, and the
  // concatenated key sequence must be globally sorted.
  const Node* leaf = root;
  while (!leaf->is_leaf) {
    leaf = leaf->children[0].load(std::memory_order_relaxed);
  }
  int64_t entries = 0, leaves = 0;
  int64_t prev = INT64_MIN;
  while (leaf != nullptr) {
    ++leaves;
    const int32_t count = leaf->count.load(std::memory_order_acquire);
    for (int32_t i = 0; i < count; ++i) {
      const int64_t k =
          leaf->keys[static_cast<size_t>(i)].load(std::memory_order_relaxed);
      if (k < prev) return Status::Internal("leaf chain not sorted");
      prev = k;
      ++entries;
    }
    leaf = leaf->next_leaf.load(std::memory_order_relaxed);
  }
  if (entries != entry_count()) {
    return Status::Internal("entry count mismatch");
  }
  if (leaves != leaf_count()) return Status::Internal("leaf count mismatch");
  return Status::OK();
}

}  // namespace colt
