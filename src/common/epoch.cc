#include "common/epoch.h"

#include <utility>

#include "common/logging.h"

namespace colt {

namespace {

/// Unpins `slot` and hands it back to the free pool.
void UnpinAndFree(EpochManager::Slot* slot) {
  slot->state.store(0, std::memory_order_release);
  slot->claimed.store(false, std::memory_order_release);
}

/// Thread-local slot handle: claims a slot on the thread's first pin and
/// releases it when the thread exits, so pool threads from successive
/// ThreadPool instances recycle the fixed slot array. `depth` makes
/// EpochGuard reentrant (only the outermost guard touches the slot).
struct ThreadSlotHandle {
  EpochManager::Slot* slot = nullptr;
  int depth = 0;

  ~ThreadSlotHandle() {
    if (slot != nullptr) UnpinAndFree(slot);
  }
};

thread_local ThreadSlotHandle t_slot;

}  // namespace

EpochManager::EpochManager() = default;

EpochManager& EpochManager::Global() {
  // Leaky singleton: the manager must outlive every thread that might
  // still unpin during static destruction (same pattern as
  // MetricsRegistry::Default).
  static EpochManager* const manager = new EpochManager();
  return *manager;
}

EpochManager::Slot* EpochManager::ClaimSlot() {
  if (t_slot.slot == nullptr) t_slot.slot = ClaimFreeSlot();
  return t_slot.slot;
}

EpochManager::Slot* EpochManager::ClaimFreeSlot() {
  for (Slot& slot : slots_) {
    bool expected = false;
    if (slot.claimed.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return &slot;
    }
  }
  COLT_CHECK(false) << "EpochManager: more than " << kMaxThreads
                    << " concurrent threads and pins";
  return nullptr;
}

void EpochManager::PinCurrentEpoch(Slot* slot) {
  // seq_cst orders the pin before the epoch re-check in TryReclaim: once
  // this store is visible, no advance can pass the pinned epoch.
  slot->state.store((global_epoch() << 1) | 1, std::memory_order_seq_cst);
}

EpochPin EpochManager::Pin() {
  Slot* slot = ClaimFreeSlot();
  PinCurrentEpoch(slot);
  return EpochPin(slot);
}

void EpochManager::RetireRaw(void* p, void (*deleter)(void*)) {
  if (p == nullptr) return;
  const uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  {
    MutexLock lock(&limbo_mu_);
    limbo_.push_back(LimboEntry{p, deleter, epoch});
  }
}

int64_t EpochManager::TryReclaim() {
  const uint64_t current = global_epoch_.load(std::memory_order_seq_cst);
  // The epoch may advance only when every pinned reader has observed the
  // current value; a stale pin blocks advancement (and thus reclamation)
  // but never safety.
  for (const Slot& slot : slots_) {
    const uint64_t state = slot.state.load(std::memory_order_seq_cst);
    if ((state & 1) != 0 && (state >> 1) != current) return 0;
  }
  uint64_t expected = current;
  if (!global_epoch_.compare_exchange_strong(expected, current + 1,
                                             std::memory_order_seq_cst)) {
    return 0;  // another reclaimer advanced concurrently; let it free
  }
  // Entries retired at epoch R are reclaimable once current + 1 >= R + 2.
  std::vector<LimboEntry> ready;
  {
    MutexLock lock(&limbo_mu_);
    size_t keep = 0;
    for (size_t i = 0; i < limbo_.size(); ++i) {
      if (limbo_[i].epoch + 2 <= current + 1) {
        ready.push_back(limbo_[i]);
      } else {
        limbo_[keep++] = limbo_[i];
      }
    }
    limbo_.resize(keep);
  }
  for (const LimboEntry& entry : ready) entry.deleter(entry.object);
  reclaimed_total_.fetch_add(static_cast<int64_t>(ready.size()),
                             std::memory_order_relaxed);
  return static_cast<int64_t>(ready.size());
}

int64_t EpochManager::ReclaimAll() {
  int64_t freed = 0;
  // Two successful advances age out every quiescent entry; keep going
  // while progress is made and work remains.
  for (int i = 0; i < 4 && limbo_size() > 0; ++i) {
    const uint64_t before = global_epoch();
    freed += TryReclaim();
    if (global_epoch() == before) break;  // pinned reader blocks advance
  }
  return freed;
}

int64_t EpochManager::limbo_size() const {
  MutexLock lock(&limbo_mu_);
  return static_cast<int64_t>(limbo_.size());
}

bool EpochManager::HasPinnedReaders() const {
  for (const Slot& slot : slots_) {
    if ((slot.state.load(std::memory_order_acquire) & 1) != 0) return true;
  }
  return false;
}

EpochGuard::EpochGuard() : slot_(nullptr) {
  EpochManager& manager = EpochManager::Global();
  EpochManager::Slot* slot = manager.ClaimSlot();
  if (++t_slot.depth > 1) return;  // nested: outer guard owns the pin
  slot_ = slot;
  manager.PinCurrentEpoch(slot_);
}

EpochGuard::~EpochGuard() {
  --t_slot.depth;
  if (slot_ != nullptr) slot_->state.store(0, std::memory_order_release);
}

EpochPin::EpochPin(EpochPin&& other) noexcept
    : slot_(std::exchange(other.slot_, nullptr)) {}

EpochPin& EpochPin::operator=(EpochPin&& other) noexcept {
  if (this != &other) {
    Release();
    slot_ = std::exchange(other.slot_, nullptr);
  }
  return *this;
}

void EpochPin::Release() {
  if (slot_ != nullptr) UnpinAndFree(std::exchange(slot_, nullptr));
}

}  // namespace colt
