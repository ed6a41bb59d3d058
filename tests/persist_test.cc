// Tests for the crash-safe persistence layer (DESIGN.md §12): the binary
// serializer's round-trip and corruption behaviour, and the CheckpointStore
// WAL + atomic-rename protocol under injected crashes, torn writes, and
// deliberate on-disk corruption. Durability claims here are about recovery
// correctness, not fsync semantics (the filesystem is assumed honest).
#include "common/persist/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/persist/serializer.h"
#include "common/rng.h"

namespace colt {
namespace {

std::string NewStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/persist_" + name;
  // Recreate from scratch: tests must not see a predecessor's files.
  const std::string wal = dir + "/wal.log";
  std::remove(wal.c_str());
  std::remove((dir + "/snap-0.bin").c_str());
  std::remove((dir + "/snap-1.bin").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(SerializerTest, RoundTripsEveryType) {
  BinaryWriter w;
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);
  w.WriteDouble(0.1);     // not exactly representable: bit pattern matters
  w.WriteDouble(-0.0);    // sign of zero must survive
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteString("colt");
  w.WriteString("");

  BinaryReader r(w.buffer());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d1 = 0.0, d2 = 1.0;
  bool b1 = false, b2 = true;
  std::string s1, s2;
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d1).ok());
  ASSERT_TRUE(r.ReadDouble(&d2).ok());
  ASSERT_TRUE(r.ReadBool(&b1).ok());
  ASSERT_TRUE(r.ReadBool(&b2).ok());
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d1, 0.1);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(s1, "colt");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, TruncatedBufferFailsEveryRead) {
  BinaryWriter w;
  w.WriteU64(7);
  const std::string bytes = w.buffer().substr(0, 3);
  BinaryReader r(bytes);
  uint64_t out = 0;
  const Status s = r.ReadU64(&out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(SerializerTest, StringLengthBeyondBufferIsRejectedBeforeAllocating) {
  BinaryWriter w;
  w.WriteU64(1ULL << 60);  // claims an exabyte of payload
  BinaryReader r(w.buffer());
  std::string out;
  EXPECT_EQ(r.ReadString(&out).code(), StatusCode::kInvalidArgument);
}

TEST(SerializerTest, MalformedBoolIsRejected) {
  BinaryReader r(std::string_view("\x02", 1));
  bool out = false;
  EXPECT_EQ(r.ReadBool(&out).code(), StatusCode::kInvalidArgument);
}

TEST(SerializerTest, TagMismatchNamesTheProblem) {
  BinaryWriter w;
  w.WriteU32(0x1111);
  BinaryReader r(w.buffer());
  const Status s = r.ExpectTag(0x2222);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointStoreTest, FreshDirectoryIsNotFound) {
  CheckpointStore store(NewStateDir("fresh"));
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, CommitThenLoadRoundTrips) {
  CheckpointStore store(NewStateDir("roundtrip"));
  ASSERT_TRUE(store.Commit(1, "epoch-one-state").ok());
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->epoch, 1);
  EXPECT_EQ(data->payload, "epoch-one-state");
}

TEST(CheckpointStoreTest, NewestCommitWinsAcrossGenerations) {
  CheckpointStore store(NewStateDir("newest"));
  for (int64_t epoch = 1; epoch <= 5; ++epoch) {
    ASSERT_TRUE(store.Commit(epoch, "state-" + std::to_string(epoch)).ok());
  }
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->epoch, 5);
  EXPECT_EQ(data->payload, "state-5");
}

TEST(CheckpointStoreTest, ReopenedStoreRecoversPriorState) {
  const std::string dir = NewStateDir("reopen");
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.Commit(3, "survivor").ok());
  }
  CheckpointStore reopened(dir);
  const Result<CheckpointData> data = reopened.LoadLatest();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->payload, "survivor");
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackToPreviousGeneration) {
  MetricsRegistry::Default().set_enabled(true);
  Counter* corrupt = MetricsRegistry::Default().GetCounter(
      "persist.recovery.corrupt_snapshots");
  const int64_t before = corrupt->value();
  const std::string dir = NewStateDir("fallback");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Commit(1, "old-but-valid").ok());
  ASSERT_TRUE(store.Commit(2, "new-but-doomed").ok());
  // Flip one payload byte of the newest snapshot (generation 2 % 2 = 0).
  std::string bytes = ReadFile(store.SnapshotPath(0));
  bytes[bytes.size() - 3] ^= 0x40;
  WriteFile(store.SnapshotPath(0), bytes);

  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->epoch, 1);
  EXPECT_EQ(data->payload, "old-but-valid");
  // A build with metrics compiled out counts nothing.
#ifndef COLT_DISABLE_METRICS
  EXPECT_EQ(corrupt->value(), before + 1)
      << "a committed-but-corrupt candidate must be counted";
#else
  EXPECT_EQ(corrupt->value(), before);
#endif
}

TEST(CheckpointStoreTest, AllSnapshotsCorruptDegradesToNotFound) {
  const std::string dir = NewStateDir("allcorrupt");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Commit(1, "one").ok());
  ASSERT_TRUE(store.Commit(2, "two").ok());
  for (uint32_t gen = 0; gen <= 1; ++gen) {
    std::string bytes = ReadFile(store.SnapshotPath(gen));
    for (char& c : bytes) c ^= 0x5A;
    WriteFile(store.SnapshotPath(gen), bytes);
  }
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, TruncatedSnapshotIsRejectedNotCrashed) {
  const std::string dir = NewStateDir("truncated");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Commit(1, "base").ok());
  ASSERT_TRUE(store.Commit(2, std::string(4096, 'x')).ok());
  const std::string bytes = ReadFile(store.SnapshotPath(0));
  WriteFile(store.SnapshotPath(0), bytes.substr(0, bytes.size() / 2));
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->epoch, 1);
}

TEST(CheckpointStoreTest, TornWalTailIsTolerated) {
  const std::string dir = NewStateDir("tornwal");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Commit(1, "alpha").ok());
  ASSERT_TRUE(store.Commit(2, "beta").ok());
  // A crash mid-append leaves a half-written record at the WAL tail;
  // recovery must stop at the tear, not reject the whole log.
  const std::string wal = ReadFile(store.WalPath());
  WriteFile(store.WalPath(), wal.substr(0, wal.size() - 17));
  CheckpointStore reopened(dir);
  const Result<CheckpointData> data = reopened.LoadLatest();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->payload, "beta");
}

TEST(CheckpointStoreTest, InjectedCrashPointsLeaveRecoverableState) {
  // Each crash site aborts Commit at a different protocol step; after every
  // abort the previous checkpoint must still be recoverable, exactly as if
  // the process had been killed there.
  const char* kSites[] = {fault_sites::kPersistCrashAfterWalBegin,
                          fault_sites::kPersistCrashBeforeRename,
                          fault_sites::kPersistCrashAfterRename};
  int variant = 0;
  for (const char* site : kSites) {
    FaultConfig config;
    config.FireOnCheck(site, 2);  // survive epoch 1, die during epoch 2
    FaultInjector faults(config);
    CheckpointStore::Options options;
    options.faults = &faults;
    CheckpointStore store(
        NewStateDir("crash" + std::to_string(variant++)), options);
    ASSERT_TRUE(store.Commit(1, "durable").ok()) << site;
    const Status crashed = store.Commit(2, "lost-or-durable");
    ASSERT_EQ(crashed.code(), StatusCode::kInternal) << site;

    const Result<CheckpointData> data = store.LoadLatest();
    ASSERT_TRUE(data.ok()) << site << ": " << data.status().ToString();
    if (std::string(site) == fault_sites::kPersistCrashAfterRename) {
      // The snapshot was fully renamed before the crash: the BEGIN record
      // plus a valid snapshot is a complete commit.
      EXPECT_EQ(data->payload, "lost-or-durable") << site;
    } else {
      EXPECT_EQ(data->payload, "durable") << site;
    }
  }
}

TEST(CheckpointStoreTest, TornWalAppendFaultKeepsPreviousCheckpoint) {
  FaultConfig config;
  config.FireOnCheck(fault_sites::kPersistWalAppend, 3);
  FaultInjector faults(config);
  CheckpointStore::Options options;
  options.faults = &faults;
  CheckpointStore store(NewStateDir("tornappend"), options);
  ASSERT_TRUE(store.Commit(1, "safe").ok());
  EXPECT_FALSE(store.Commit(2, "torn").ok());
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->payload, "safe");
}

TEST(CheckpointStoreTest, ShortSnapshotWriteFaultKeepsPreviousCheckpoint) {
  FaultConfig config;
  config.FireOnCheck(fault_sites::kPersistSnapshotWrite, 2);
  FaultInjector faults(config);
  CheckpointStore::Options options;
  options.faults = &faults;
  CheckpointStore store(NewStateDir("shortwrite"), options);
  ASSERT_TRUE(store.Commit(1, "safe").ok());
  EXPECT_FALSE(store.Commit(2, "short").ok());
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->payload, "safe");
}

TEST(CheckpointStoreTest, WalCompactionKeepsRecoveryIntact) {
  const std::string dir = NewStateDir("compact");
  CheckpointStore store(dir);
  // Well past the compaction threshold (64 records = 32 commits).
  for (int64_t epoch = 1; epoch <= 100; ++epoch) {
    ASSERT_TRUE(store.Commit(epoch, "state-" + std::to_string(epoch)).ok())
        << epoch;
  }
  struct ::stat st = {};
  ASSERT_EQ(::stat(store.WalPath().c_str(), &st), 0);
  EXPECT_LT(st.st_size, 64 * 44)
      << "the WAL must not grow one record per commit forever";
  const Result<CheckpointData> data = store.LoadLatest();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->epoch, 100);
  EXPECT_EQ(data->payload, "state-100");
}

TEST(CheckpointStoreTest, FuzzedSnapshotBytesNeverCrashRecovery) {
  const std::string dir = NewStateDir("fuzz");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Commit(1, std::string(512, 'a')).ok());
  ASSERT_TRUE(store.Commit(2, std::string(512, 'b')).ok());
  const std::string gen0 = ReadFile(store.SnapshotPath(0));
  const std::string gen1 = ReadFile(store.SnapshotPath(1));
  Rng rng(0xF022);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = (round % 2 == 0) ? gen0 : gen1;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(rng.NextBelow(mutated.size()));
      mutated[pos] ^= static_cast<char>(1 + rng.NextBelow(255));
    }
    WriteFile(store.SnapshotPath(round % 2), mutated);
    const Result<CheckpointData> data = store.LoadLatest();
    // Either a valid checkpoint survived or recovery reports NotFound;
    // any payload returned must be one of the two committed states.
    if (data.ok()) {
      EXPECT_TRUE(data->payload == std::string(512, 'a') ||
                  data->payload == std::string(512, 'b'))
          << "round " << round;
    } else {
      EXPECT_EQ(data.status().code(), StatusCode::kNotFound)
          << "round " << round << ": " << data.status().ToString();
    }
    // Restore for the next round.
    WriteFile(store.SnapshotPath(0), gen0);
    WriteFile(store.SnapshotPath(1), gen1);
  }
}

}  // namespace
}  // namespace colt
