/// Unit tests for the deterministic worker pool: ordered joins, exception
/// and Status propagation through futures, pool reuse across rounds, the
/// zero-worker inline mode, and the per-task RNG split. The determinism
/// claims here are the foundation the multi-client serving differentials
/// (serve_test.cc) build on.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"

namespace colt {
namespace {

TEST(ThreadPoolTest, InlineModeRunsTaskBeforeReturning) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  bool ran = false;
  std::future<int> f = pool.Submit([&ran] {
    ran = true;
    return 41 + 1;
  });
  // Inline mode completes the task inside Submit — the future is ready
  // before the caller touches it, and side effects are already visible.
  EXPECT_TRUE(ran);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, NegativeWorkerCountMeansInline) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.num_workers(), 0);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, MapJoinsInSubmissionOrder) {
  ThreadPool pool(4);
  // Earlier tasks sleep longer, so completion order is roughly the reverse
  // of submission order; the merged vector must still be index-ordered.
  const size_t n = 8;
  std::vector<int> out = pool.Map(n, [n](size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (n - i)));
    return static_cast<int>(i);
  });
  ASSERT_EQ(out.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPoolTest, MapResultsIdenticalAcrossWorkerCounts) {
  auto run = [](int workers) {
    ThreadPool pool(workers);
    return pool.Map(16, [](size_t i) {
      Rng rng = ThreadPool::TaskRng(/*parent_seed=*/99, i);
      uint64_t sum = 0;
      for (int d = 0; d < 100; ++d) sum += rng.NextBelow(1'000'000);
      return sum;
    });
  };
  const std::vector<uint64_t> serial = run(0);
  EXPECT_EQ(serial, run(1));
  EXPECT_EQ(serial, run(4));
}

TEST(ThreadPoolTest, FirstExceptionByIndexWinsAfterAllTasksRan) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.Map(8, [&executed](size_t i) -> int {
      executed.fetch_add(1);
      // Task 5 fails fast, task 2 fails slow: the rethrown exception must
      // still be task 2's (lowest failing index), not the first to finish.
      if (i == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("task 2");
      }
      if (i == 5) throw std::runtime_error("task 5");
      return static_cast<int>(i);
    });
    FAIL() << "Map should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task 2");
  }
  // Map waits for every task before rethrowing, so no task is left running
  // against destroyed captures.
  EXPECT_EQ(executed.load(), 8);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, StatusAndResultTravelAsValues) {
  ThreadPool pool(2);
  std::future<Status> ok = pool.Submit([] { return Status::OK(); });
  std::future<Status> bad =
      pool.Submit([] { return Status::Internal("substrate weather"); });
  EXPECT_TRUE(ok.get().ok());
  const Status status = bad.get();
  EXPECT_EQ(status.code(), StatusCode::kInternal);

  // Move-only payloads (the Scheduler stages Result<unique_ptr<BTreeIndex>>
  // this way) must survive the trip through the future.
  std::future<Result<std::unique_ptr<int>>> staged =
      pool.Submit([]() -> Result<std::unique_ptr<int>> {
        return std::make_unique<int>(7);
      });
  Result<std::unique_ptr<int>> result = staged.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*std::move(result).value(), 7);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossRounds) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> out =
        pool.Map(6, [round](size_t i) { return round * 100 + static_cast<int>(i); });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], round * 100 + static_cast<int>(i));
    }
  }
}

TEST(ThreadPoolTest, DestructorRunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      // Futures intentionally dropped: shutdown must still run the backlog
      // (a task whose future is discarded may not be lost).
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, TaskRngIsAFunctionOfSeedAndIndexOnly) {
  Rng a = ThreadPool::TaskRng(123, 4);
  Rng b = ThreadPool::TaskRng(123, 4);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.Next(), b.Next());

  // Adjacent task indexes and adjacent seeds must yield distinct streams.
  Rng c = ThreadPool::TaskRng(123, 5);
  Rng d = ThreadPool::TaskRng(124, 4);
  Rng base = ThreadPool::TaskRng(123, 4);
  const uint64_t first = base.Next();
  EXPECT_NE(first, c.Next());
  EXPECT_NE(first, d.Next());
}

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

}  // namespace
}  // namespace colt
