/// EpochPin (DESIGN.md §15): an epoch pin that no thread owns. The serve
/// loop holds one per in-flight segment on the owner thread and drops it
/// once the segment's last query completes, so the pin must hold back
/// reclamation like an EpochGuard, travel between threads, recycle its
/// slot, and leave the thread-local guards alone.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/thread_pool.h"

namespace colt {
namespace {

/// Sets `*flag` on destruction; ownership passes to the epoch manager
/// via Retire (built through unique_ptr + release to satisfy the
/// raw-new-delete lint).
struct Tracked {
  bool* flag;
  explicit Tracked(bool* f) : flag(f) {}
  ~Tracked() { *flag = true; }
};

void RetireTracked(EpochManager* epochs, bool* freed) {
  epochs->Retire(std::make_unique<Tracked>(freed).release());
}

/// Spins until `flag` is set (test-only handshake).
void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
  }
}

TEST(EpochPin, HoldsBackOnlyWhatIsRetiredAfterIt) {
  EpochManager epochs;
  bool before_freed = false;
  bool after_freed = false;
  RetireTracked(&epochs, &before_freed);
  epochs.TryReclaim();  // one advance: the early entry needs one more

  EpochPin pin = epochs.Pin();
  EXPECT_TRUE(pin.held());
  EXPECT_TRUE(epochs.HasPinnedReaders());
  RetireTracked(&epochs, &after_freed);
  for (int i = 0; i < 8; ++i) epochs.TryReclaim();
  epochs.ReclaimAll();
  // The pin observed the epoch the early entry needed to pass, so that
  // one may go; the entry retired after the pin may not.
  EXPECT_TRUE(before_freed);
  EXPECT_FALSE(after_freed) << "object retired under a held pin was freed";

  pin.Release();
  EXPECT_FALSE(pin.held());
  EXPECT_FALSE(epochs.HasPinnedReaders());
  epochs.ReclaimAll();
  EXPECT_TRUE(after_freed);
  EXPECT_EQ(epochs.limbo_size(), 0);
}

TEST(EpochPin, TakenOnOneThreadReleasedOnAnother) {
  EpochManager epochs;
  bool freed = false;
  EpochPin pin = epochs.Pin();
  RetireTracked(&epochs, &freed);

  ThreadPool pool(1);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::future<void> holder = pool.Submit(
      [p = std::move(pin), &holding, &release]() mutable {
        holding.store(true, std::memory_order_release);
        AwaitFlag(release);
        p.Release();
      });
  EXPECT_FALSE(pin.held());  // moved-from: the worker holds it now

  AwaitFlag(holding);
  for (int i = 0; i < 8; ++i) epochs.TryReclaim();
  EXPECT_FALSE(freed) << "the pin stopped protecting after it moved";
  EXPECT_TRUE(epochs.HasPinnedReaders());

  release.store(true, std::memory_order_release);
  holder.get();
  EXPECT_FALSE(epochs.HasPinnedReaders());
  epochs.ReclaimAll();
  EXPECT_TRUE(freed);
}

TEST(EpochPin, MoveAssignmentReleasesTheOverwrittenPin) {
  EpochManager epochs;
  bool freed = false;
  EpochPin first = epochs.Pin();
  RetireTracked(&epochs, &freed);
  EpochPin second;
  EXPECT_FALSE(second.held());
  second = std::move(first);
  EXPECT_FALSE(first.held());
  EXPECT_TRUE(second.held());
  epochs.ReclaimAll();
  EXPECT_FALSE(freed);

  // Overwriting a held pin drops it. The new pin was taken after the
  // epoch advanced past the retire, so it does not hold the entry back.
  second = epochs.Pin();
  epochs.ReclaimAll();
  EXPECT_TRUE(freed) << "the overwritten pin still held reclamation back";
  EXPECT_TRUE(second.held());
  second = EpochPin();
  EXPECT_FALSE(epochs.HasPinnedReaders());
}

TEST(EpochPin, ReleasedSlotsAreRecycled) {
  // Fill every slot with pins, drop them all, and fill the table again:
  // the second round succeeds only if each release freed its slot.
  EpochManager epochs;
  for (int round = 0; round < 2; ++round) {
    std::vector<EpochPin> pins;
    pins.reserve(EpochManager::kMaxThreads);
    for (int i = 0; i < EpochManager::kMaxThreads; ++i) {
      pins.push_back(epochs.Pin());
    }
    EXPECT_TRUE(epochs.HasPinnedReaders());
    // One slot freed and re-taken while the rest stay held.
    pins.front().Release();
    pins.front() = epochs.Pin();
    EXPECT_TRUE(pins.front().held());
    pins.clear();
    EXPECT_FALSE(epochs.HasPinnedReaders());
  }
}

TEST(EpochPin, NestedGuardOnTheSameThreadIsUnaffected) {
  EpochManager& epochs = EpochManager::Global();
  bool guarded_freed = false;
  bool pinned_freed = false;
  {
    EpochGuard outer;
    {
      EpochPin pin = epochs.Pin();
      EpochGuard inner;
    }
    // The pin is gone, but the outer guard still pins this thread.
    RetireTracked(&epochs, &guarded_freed);
    for (int i = 0; i < 8; ++i) epochs.TryReclaim();
    EXPECT_FALSE(guarded_freed) << "dropping a pin unpinned the guard";
  }
  epochs.ReclaimAll();
  EXPECT_TRUE(guarded_freed);

  EpochPin pin = epochs.Pin();
  {
    EpochGuard outer;
    EpochGuard inner;
  }
  // The guards unwound, but the pin still holds.
  RetireTracked(&epochs, &pinned_freed);
  for (int i = 0; i < 8; ++i) epochs.TryReclaim();
  EXPECT_FALSE(pinned_freed) << "unwinding guards released the pin";
  pin.Release();
  epochs.ReclaimAll();
  EXPECT_TRUE(pinned_freed);
}

TEST(EpochPin, ServeLoopPinsAndClientGuardsFitTheSlotTable) {
  // The serve loop's owner holds up to its pipeline depth of pins
  // (kPipelineDepth in src/core/serve.cc) in the global slot table that
  // every reader thread's EpochGuard also claims a slot of.
  constexpr int kPipelinePins = 16;
  constexpr int kClients = 8;
  static_assert(kPipelinePins + kClients + 1 < EpochManager::kMaxThreads);
  EpochManager& epochs = EpochManager::Global();

  ThreadPool pool(kClients);
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::future<void>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(pool.Submit([&pinned, &release] {
      EpochGuard guard;
      pinned.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
      }
    }));
  }
  std::vector<EpochPin> pins;
  for (int i = 0; i < kPipelinePins; ++i) pins.push_back(epochs.Pin());
  while (pinned.load(std::memory_order_acquire) < kClients) {
  }
  bool freed = false;
  RetireTracked(&epochs, &freed);
  for (int i = 0; i < 8; ++i) epochs.TryReclaim();
  EXPECT_FALSE(freed);

  release.store(true, std::memory_order_release);
  for (std::future<void>& client : clients) client.get();
  for (int i = 0; i < 8; ++i) epochs.TryReclaim();
  EXPECT_FALSE(freed) << "freed while the pipeline's pins were held";
  pins.clear();
  EXPECT_FALSE(epochs.HasPinnedReaders());
  epochs.ReclaimAll();
  EXPECT_TRUE(freed);
}

}  // namespace
}  // namespace colt
