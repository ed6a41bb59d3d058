#ifndef COLT_COMMON_EPOCH_H_
#define COLT_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace colt {

class EpochPin;

/// Epoch-based memory reclamation (DESIGN.md §15).
///
/// The serving layer reads B+-trees from many threads while the owner
/// thread installs and drops indexes. Drops must not stall readers, so a
/// dropped structure is *retired*, not freed: ownership moves into a limbo
/// list stamped with the current global epoch, and the memory is released
/// only once every reader that could still hold a pointer into it has
/// moved on. Readers declare their liveness by pinning an `EpochGuard`
/// around each query, or by holding an `EpochPin`, which no thread owns.
///
/// The protocol is the classic three-generation scheme:
///  * Readers pin the current global epoch E into a slot of their thread
///    or of their EpochPin (lock-free: one seq_cst store) and unpin when
///    done.
///  * Retire(p) stamps p with the global epoch at retirement time. The
///    object must already be unreachable from the published roots (the
///    caller unlinks first, retires second), so only readers pinned at
///    retirement time can still touch it.
///  * The epoch can advance from E to E+1 only when every pinned slot has
///    observed E. An object retired at epoch R is freed once the global
///    epoch reaches R+2: two advances prove every reader pinned at (or
///    before) R has unpinned.
///
/// A reader that pins a stale epoch (it read the counter just before an
/// advance) merely blocks further advances until it unpins — reclamation
/// is delayed, never unsafe. Unlink-before-retire means late pinners
/// cannot reach retired objects at all.
///
/// Reclamation runs only inside TryReclaim()/ReclaimAll(), which the
/// owner thread calls at publish boundaries (Database install/drop), when
/// the serve loop drops a segment's pin, and at teardown — readers never
/// free, so the read path is wait-free.
class EpochManager {
 public:
  /// Pin state of one thread or one EpochPin. A thread claims a slot
  /// lazily on its first EpochGuard and releases it when it exits, so
  /// short-lived pool threads recycle them; an EpochPin claims one when it
  /// is taken and releases it when it is dropped.
  struct Slot {
    /// 0 = unpinned; otherwise (epoch << 1) | 1.
    std::atomic<uint64_t> state{0};
    /// Claimed by exactly one live thread or pin at a time.
    std::atomic<bool> claimed{false};
  };

  static constexpr int kMaxThreads = 256;

  /// The process-wide manager. All trees and snapshots retire here;
  /// intentionally leaked so late-exiting threads can still unpin.
  COLT_THREAD_NEUTRAL static EpochManager& Global();

  EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Defers destruction of `p` until no pinned reader can reach it. The
  /// caller must have unlinked `p` from every published root first.
  /// Ownership transfers to the manager. Called by the owner thread
  /// (installs/drops happen there); thread-safe regardless.
  template <typename T>
  COLT_THREAD_NEUTRAL void Retire(T* p) {
    // Deleting is this manager's job, so shedding constness here is sound:
    // the object was handed over for destruction (readers may hold const
    // views of `p` until their epochs pass, but by then it is unlinked).
    using Mutable = std::remove_const_t<T>;
    // colt-lint: allow-next-line(worker-purity): ownership transfer for
    // deferred deletion, not a mutation of shared state.
    RetireRaw(const_cast<Mutable*>(p),
              [](void* q) { DeleteRetired(static_cast<Mutable*>(q)); });
  }

  /// Pins the current epoch into a slot of its own and returns the pin,
  /// which any thread may later release (see EpochPin). Aborts when every
  /// slot is taken by threads and pins.
  COLT_THREAD_NEUTRAL EpochPin Pin();

  /// Type-erased retire; `deleter` is invoked at reclaim time.
  COLT_THREAD_NEUTRAL void RetireRaw(void* p, void (*deleter)(void*));

  /// Advances the global epoch if every pinned reader has caught up and
  /// frees limbo entries that two advances have proven unreachable.
  /// Returns the number of objects freed. Safe to call from the owner
  /// thread at any time; never blocks readers.
  COLT_THREAD_NEUTRAL int64_t TryReclaim();

  /// Repeats TryReclaim until the limbo list is empty or pinned readers
  /// prevent progress; returns objects freed. With no pinned readers this
  /// frees everything (teardown, tests).
  COLT_THREAD_NEUTRAL int64_t ReclaimAll();

  /// Objects currently awaiting reclamation.
  int64_t limbo_size() const;

  /// Lifetime objects freed through the limbo list.
  int64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// True when any thread currently holds a pin (diagnostics/tests).
  bool HasPinnedReaders() const;

 private:
  friend class EpochGuard;

  template <typename T>
  static void DeleteRetired(T* p) {
    // colt-lint: allow-next-line(raw-new-delete): the limbo list is the
    // one place deferred destruction happens; it deletes objects whose
    // unique_ptr owners released them at retire time.
    delete p;
  }

  struct LimboEntry {
    void* object;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  /// Claims (or returns the already-claimed) slot for this thread.
  COLT_THREAD_NEUTRAL Slot* ClaimSlot();

  /// Claims a free slot for a new owner (a thread or an EpochPin).
  COLT_THREAD_NEUTRAL Slot* ClaimFreeSlot();

  /// Pins the current epoch into `slot`.
  COLT_THREAD_NEUTRAL void PinCurrentEpoch(Slot* slot);

  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxThreads];
  std::atomic<int64_t> reclaimed_total_{0};

  mutable Mutex limbo_mu_;
  std::vector<LimboEntry> limbo_ COLT_GUARDED_BY(limbo_mu_);
};

/// RAII epoch pin: construction pins the calling thread into the current
/// epoch, destruction unpins. Pin around every traversal of an
/// epoch-protected structure (the Executor pins one guard per query).
/// Guards nest: only the outermost pin/unpin touches the slot, so helper
/// code may pin defensively without coordination.
class EpochGuard {
 public:
  COLT_THREAD_NEUTRAL EpochGuard();
  ~EpochGuard();
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  /// Null for nested guards (the outer guard owns the slot state).
  EpochManager::Slot* slot_;
};

/// A movable epoch pin that no thread owns (EpochManager::Pin). It pins
/// the epoch current when it was taken, in a slot of its own, until it is
/// released or destroyed on whichever thread holds it then; that thread
/// unpins and frees the slot. Unlike EpochGuard it does not nest and is
/// not tied to the calling thread, so one thread may hold many: the serve
/// loop keeps one per in-flight segment and drops it when the segment's
/// last query completes (DESIGN.md §15). An EpochGuard on the same thread
/// is unaffected by any pin.
class EpochPin {
 public:
  /// An empty pin that holds nothing.
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept;
  EpochPin& operator=(EpochPin&& other) noexcept;
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  ~EpochPin() { Release(); }

  /// Unpins and frees the slot; a no-op on an empty pin.
  COLT_THREAD_NEUTRAL void Release();

  bool held() const { return slot_ != nullptr; }

 private:
  friend class EpochManager;
  explicit EpochPin(EpochManager::Slot* slot) : slot_(slot) {}

  EpochManager::Slot* slot_ = nullptr;
};

}  // namespace colt

#endif  // COLT_COMMON_EPOCH_H_
