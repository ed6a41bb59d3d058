/// Microbenchmarks for the B+-tree substrate.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "micro_json_main.h"

#include "common/status.h"
#include "common/rng.h"
#include "index/btree.h"

namespace colt {
namespace {

/// n entries with row ids ascending and keys uniform over [0, span).
std::vector<std::pair<int64_t, RowId>> BuildShapedEntries(int64_t n,
                                                          int64_t span) {
  Rng rng(42);
  std::vector<std::pair<int64_t, RowId>> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<int64_t>(rng.NextBelow(span)), i);
  }
  return entries;
}

void BM_BTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<std::pair<int64_t, RowId>> entries =
      BuildShapedEntries(n, n);
  for (auto _ : state) {
    BTreeIndex tree;
    for (const auto& [k, v] : entries) tree.Insert(k, v);
    benchmark::DoNotOptimize(tree.entry_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

/// Erases every entry of a tree built by inserting BM_BTreeInsert's
/// entries, in a seeded order: the index half of an UPDATE or DELETE.
/// Building the tree and freeing the drained one are not timed.
void BM_BTreeErase(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<std::pair<int64_t, RowId>> entries =
      BuildShapedEntries(n, n);
  std::vector<std::pair<int64_t, RowId>> order = entries;
  Rng shuffle(43);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.NextBelow(i)]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto tree = std::make_unique<BTreeIndex>();
    for (const auto& [k, v] : entries) tree->Insert(k, v);
    state.ResumeTiming();
    for (const auto& [k, v] : order) {
      benchmark::DoNotOptimize(tree->Erase(k, v));
    }
    state.PauseTiming();
    tree.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeErase)->Arg(10000)->Arg(100000);

/// Bulk load of BuildShapedEntries(n, span). The span = n cases spread
/// the keys; 300k entries over spans of 500, 25,000 and 75,000 match
/// lineitem_0's indexed columns (l_orderkey spans 75,000), the shape of
/// an index build (Database::PrepareIndex). Only the load is timed: the
/// input copy and the tree's destruction are not (BM_BTreeTeardown
/// prices the latter).
void BM_BTreeBulkLoad(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<std::pair<int64_t, RowId>> entries =
      BuildShapedEntries(n, state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto tree = std::make_unique<BTreeIndex>();
    auto copy = entries;
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree->BulkLoad(std::move(copy)).ok());
    state.PauseTiming();
    tree.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeBulkLoad)
    ->Args({10000, 10000})
    ->Args({100000, 100000})
    ->Args({1000000, 1000000})
    ->Args({300000, 500})
    ->Args({300000, 25000})
    ->Args({300000, 75000});

/// Destruction of a bulk-loaded build-shaped tree: what the epoch
/// manager's TryReclaim pays on the owner thread for each dropped index.
/// Each iteration builds a tree untimed, which costs far more than the
/// timed teardown, so the iteration count is fixed rather than grown
/// until the timed part fills --benchmark_min_time.
void BM_BTreeTeardown(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<std::pair<int64_t, RowId>> entries =
      BuildShapedEntries(n, state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto tree = std::make_unique<BTreeIndex>();
    ColtIgnoreStatus(tree->BulkLoad(entries));
    state.ResumeTiming();
    tree.reset();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeTeardown)->Args({300000, 75000})->Iterations(50);

void BM_BTreeRangeScan(benchmark::State& state) {
  const int64_t n = 1'000'000;
  const int64_t width = state.range(0);
  Rng rng(7);
  std::vector<std::pair<int64_t, RowId>> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<int64_t>(rng.NextBelow(n)), i);
  }
  BTreeIndex tree;
  ColtIgnoreStatus(tree.BulkLoad(std::move(entries)));
  std::vector<RowId> out;
  int64_t lo = 0;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(tree.RangeScan(lo, lo + width, &out));
    lo = (lo + 9973) % (n - width);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeRangeScan)->Arg(10)->Arg(1000)->Arg(100000);

/// One shared million-entry tree for the contended read benches: built
/// once (thread-safe magic static), deliberately leaked so late-exiting
/// benchmark threads never race its destruction.
const BTreeIndex& SharedMillionEntryTree() {
  static const BTreeIndex* tree = [] {
    const int64_t n = 1'000'000;
    Rng rng(7);
    std::vector<std::pair<int64_t, RowId>> entries;
    entries.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      entries.emplace_back(static_cast<int64_t>(rng.NextBelow(n)), i);
    }
    auto t = std::make_unique<BTreeIndex>();
    ColtIgnoreStatus(t->BulkLoad(std::move(entries)));
    return t.release();
  }();
  return *tree;
}

/// Shared-tree reads: the same point lookup on 1 vs 8 threads reading one
/// tree that nobody writes, as serve clients do. Readers share only
/// cache lines, so on real hardware the 8-thread run should scale with
/// the cores (single-core CI shows timesharing, not contention).
void BM_BTreeContendedLookup(benchmark::State& state) {
  const BTreeIndex& tree = SharedMillionEntryTree();
  const int64_t n = 1'000'000;
  std::vector<RowId> out;
  Rng probe(static_cast<uint64_t>(11 + state.thread_index()));
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(
        tree.Lookup(static_cast<int64_t>(probe.NextBelow(n)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeContendedLookup)->Threads(1)->Threads(8)->UseRealTime();

/// Same shape for leaf-chain range scans (1k-wide windows).
void BM_BTreeContendedScan(benchmark::State& state) {
  const BTreeIndex& tree = SharedMillionEntryTree();
  const int64_t n = 1'000'000;
  const int64_t width = 1000;
  std::vector<RowId> out;
  int64_t lo = 9973 * state.thread_index();
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(tree.RangeScan(lo, lo + width, &out));
    lo = (lo + 9973) % (n - width);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeContendedScan)->Threads(1)->Threads(8)->UseRealTime();

void BM_BTreePointLookup(benchmark::State& state) {
  const int64_t n = 1'000'000;
  Rng rng(7);
  std::vector<std::pair<int64_t, RowId>> entries;
  for (int64_t i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<int64_t>(rng.NextBelow(n)), i);
  }
  BTreeIndex tree;
  ColtIgnoreStatus(tree.BulkLoad(std::move(entries)));
  std::vector<RowId> out;
  Rng probe(11);
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(
        tree.Lookup(static_cast<int64_t>(probe.NextBelow(n)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePointLookup);

}  // namespace
}  // namespace colt

COLT_MICRO_BENCH_MAIN("micro_btree");
