#include "index/btree.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
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
/// observes keeps its indexing in bounds. A node and its cell arrays are
/// one heap block: Make allocates it and Free releases it.
struct BTreeIndex::Node {
  std::atomic<uint64_t> version;
  const bool is_leaf;
  std::atomic<int32_t> count{0};
  std::atomic<int64_t>* keys = nullptr;
  // Leaf: values[i] corresponds to keys[i].
  std::atomic<RowId>* values = nullptr;
  // Internal: count + 1 live children; subtree children[i] holds keys <
  // keys[i]; children[i+1] holds keys >= keys[i].
  std::atomic<Node*>* children = nullptr;
  std::atomic<Node*> next_leaf{nullptr};

  Node(bool leaf, uint64_t initial_version)
      : version(initial_version), is_leaf(leaf) {}

  static Node* Make(bool leaf, int32_t fanout, uint64_t initial_version) {
    // Every cell is 8 bytes and 8-aligned, and so is the header's size,
    // so the arrays follow the header back to back.
    static_assert(sizeof(Node) % alignof(std::atomic<int64_t>) == 0);
    static_assert(sizeof(std::atomic<RowId>) == sizeof(std::atomic<int64_t>));
    static_assert(sizeof(std::atomic<Node*>) == sizeof(std::atomic<int64_t>));
    const size_t f = static_cast<size_t>(fanout);
    const size_t cells = f + (leaf ? f : f + 1);
    unsigned char* block = static_cast<unsigned char*>(
        ::operator new(sizeof(Node) + cells * sizeof(std::atomic<int64_t>)));
    Node* node = ::new (block) Node(leaf, initial_version);
    unsigned char* payload = block + sizeof(Node);
    // Value-initialized: every cell starts at zero.
    node->keys = ::new (payload) std::atomic<int64_t>[f]();
    payload += f * sizeof(std::atomic<int64_t>);
    if (leaf) {
      node->values = ::new (payload) std::atomic<RowId>[f]();
    } else {
      node->children = ::new (payload) std::atomic<Node*>[f + 1]();
    }
    return node;
  }

  /// The cells are trivially destructible, so only the header's
  /// destructor runs.
  static void Free(Node* node) {
    node->~Node();
    ::operator delete(node);
  }
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
  Node::Free(node);
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
  Node* right = Node::Make(child->is_leaf, fanout_, kInitialVersion);
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
  Node* leaf = Node::Make(/*leaf=*/true, fanout_, kInitialVersion | kLockBit);
  leaf->keys[0].store(key, std::memory_order_relaxed);
  leaf->values[0].store(row, std::memory_order_relaxed);
  leaf->count.store(1, std::memory_order_relaxed);
  Node* expected = nullptr;
  if (!root_.compare_exchange_strong(expected, leaf,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
    Node::Free(leaf);  // another thread created the root first
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
  Node* new_root = Node::Make(/*leaf=*/false, fanout_,
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
  // The structure is private until the root is published below, so plain
  // relaxed stores suffice while building. Leaves are packed full from the
  // sorted sequence, in order.
  std::vector<Node*> level;
  const size_t per_leaf = static_cast<size_t>(fanout_);
  level.reserve((n + per_leaf - 1) / per_leaf);
  for (size_t start = 0; start < n; start += per_leaf) {
    const size_t end = std::min(n, start + per_leaf);
    Node* leaf = Node::Make(/*leaf=*/true, fanout_, kInitialVersion);
    for (size_t i = start; i < end; ++i) {
      leaf->keys[i - start].store(key_at(i), std::memory_order_relaxed);
      leaf->values[i - start].store(row_at(i), std::memory_order_relaxed);
    }
    leaf->count.store(static_cast<int32_t>(end - start),
                      std::memory_order_relaxed);
    if (!level.empty()) {
      level.back()->next_leaf.store(leaf, std::memory_order_relaxed);
    }
    level.push_back(leaf);
  }
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
      Node* parent = Node::Make(/*leaf=*/false, fanout_, kInitialVersion);
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
}

Status BTreeIndex::BulkLoad(std::vector<std::pair<int64_t, RowId>> entries) {
  if (root_.load(std::memory_order_acquire) != nullptr) {
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
  if (root_.load(std::memory_order_acquire) != nullptr) {
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
