#ifndef COLT_COMMON_PERSIST_CHECKPOINT_H_
#define COLT_COMMON_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injector.h"
#include "common/status.h"

namespace colt {

/// A recovered checkpoint: the epoch it was taken at and the opaque
/// serialized payload (the tuner's SaveState bytes).
struct CheckpointData {
  int64_t epoch = 0;
  std::string payload;
};

/// Durable checkpoint store: a small append-only write-ahead log plus two
/// alternating snapshot generations, all under one state directory.
///
/// Commit protocol (DESIGN.md §12):
///   1. append a BEGIN record (epoch, generation, payload length, payload
///      checksum) to wal.log and fsync it;
///   2. write the full snapshot to snap-<gen>.tmp, fsync, and atomically
///      rename it over snap-<gen>.bin (gen = epoch mod 2, so the previous
///      checkpoint's file is never touched);
///   3. append a COMMIT record and fsync.
/// A crash between any two steps leaves either the previous checkpoint
/// intact (steps 1-2) or the new one fully durable (step 3 is advisory:
/// a renamed snapshot that matches its BEGIN record is already valid).
///
/// Recovery walks the WAL newest-to-oldest, validates each referenced
/// snapshot (magic, format version, length, FNV-1a checksum, and agreement
/// with the WAL record), and returns the newest valid one. Corrupt or torn
/// candidates bump `persist.recovery.corrupt_snapshots` and recovery falls
/// back to the previous generation; when nothing is usable LoadLatest
/// returns kNotFound and the caller cold-starts.
///
/// Fault injection: when Options::faults is set, the fault sites in
/// fault_sites::kPersist* become reachable — short writes, failed fsyncs,
/// and crash points between protocol steps. At a crash point the store
/// calls Options::crash_hook (benches install _Exit to die for real; tests
/// leave it unset, in which case Commit aborts with kInternal and leaves
/// the directory exactly as a kill at that instant would).
///
/// Like the rest of the tuning stack the store is single-owner: it is not
/// internally synchronized.
class CheckpointStore {
 public:
  struct Options {
    /// Optional injector consulted at the persist fault sites. Not owned.
    FaultInjector* faults = nullptr;
    /// Invoked when an injected crash point fires, before Commit returns.
    std::function<void()> crash_hook;
  };

  explicit CheckpointStore(std::string dir);
  CheckpointStore(std::string dir, Options options);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Creates the state directory if needed. Idempotent; called lazily by
  /// Commit/LoadLatest as well.
  Status Open();

  /// Durably records `payload` as the checkpoint for `epoch` using the
  /// WAL + atomic-rename protocol above. On error the previous checkpoint
  /// remains recoverable.
  Status Commit(int64_t epoch, std::string_view payload);

  /// Returns the newest valid checkpoint, kNotFound when the directory
  /// holds no usable state (fresh dir, or everything corrupt — the latter
  /// also bumps persist.recovery.corrupt_snapshots per rejected
  /// candidate). Never returns a payload whose checksum does not match.
  Result<CheckpointData> LoadLatest();

  const std::string& dir() const { return dir_; }

  /// Installs (or clears) the crash hook after construction. Benches use
  /// this to arm _Exit once the store is already owned by a tuner.
  void set_crash_hook(std::function<void()> hook) {
    options_.crash_hook = std::move(hook);
  }

  /// Snapshot/WAL format version; bumped on incompatible layout changes.
  static constexpr uint32_t kFormatVersion = 2;

  /// Path of the snapshot file for `generation` (0 or 1). Exposed for
  /// tests that corrupt snapshots on purpose.
  std::string SnapshotPath(uint32_t generation) const;
  std::string WalPath() const;

 private:
  struct WalRecord {
    uint32_t kind = 0;  // 1 = BEGIN, 2 = COMMIT
    int64_t epoch = 0;
    uint32_t generation = 0;
    uint64_t payload_length = 0;
    uint64_t payload_checksum = 0;
  };

  Status AppendWalRecord(const WalRecord& record);
  Status WriteSnapshot(const std::string& path, int64_t epoch,
                       std::string_view payload);
  /// Validates snap-<gen>.bin against a WAL record; fills `out` on success.
  Status ValidateSnapshot(const WalRecord& record, CheckpointData* out);
  /// Rewrites the WAL keeping only the newest records once it grows past
  /// the compaction threshold.
  Status MaybeCompactWal(size_t record_count);
  Status ReadWal(std::vector<WalRecord>* out);
  /// Returns OK normally; when the injected crash point `site` fires,
  /// invokes the crash hook and returns kInternal.
  Status CrashPoint(const char* site);

  std::string dir_;
  Options options_;
  bool opened_ = false;
};

}  // namespace colt

#endif  // COLT_COMMON_PERSIST_CHECKPOINT_H_
