#ifndef COLT_COMMON_THREAD_POOL_H_
#define COLT_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace colt {

/// Fixed-size worker pool with deterministic, ordered result-merging.
///
/// Parallelism in this codebase must never change observable results:
/// served queries are compared bit-for-bit between one client and many
/// (see DESIGN.md §10). The pool supports that contract by
/// construction rather than by locking discipline:
///
///  * Map() joins futures in submission order, so the merged result vector
///    (and the first rethrown exception) is independent of which worker ran
///    which task and in what order tasks finished.
///  * Tasks that need randomness draw from a private stream split from the
///    parent seed by *task index* (TaskRng), never from a shared Rng, so
///    the draw sequence does not depend on scheduling.
///  * Zero workers is the degenerate inline mode: Submit() runs the task on
///    the calling thread. A pool-using call site therefore needs no serial
///    fallback path of its own — the two modes share one code path.
///
/// Status propagation: tasks in this codebase return Status/Result<T> as
/// values; the future carries them like any other result. Exceptions thrown
/// by a task are captured in its future and rethrown on get().
///
/// This is the only place in the tree allowed to create threads (enforced
/// by the colt_lint `naked-thread` rule); everything else funnels through
/// the pool so shutdown, joining, and determinism stay in one place.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads; values < 1 mean inline mode (no
  /// threads, Submit runs on the caller). With `pin_workers` set, worker i
  /// is pinned to CPU (i mod hardware cores) — the serving layer uses this
  /// to stabilize tail latency. Pinning is best-effort and a no-op on
  /// non-Linux platforms.
  explicit ThreadPool(int num_workers, bool pin_workers = false);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: destruction waits only for tasks already dequeued and
  /// discards none — all submitted tasks run before the workers exit.
  ~ThreadPool();

  /// Worker threads owned by the pool (0 in inline mode).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Schedules `fn` and returns its future. Inline mode runs `fn` before
  /// returning (the future is already ready). Owner-only: tasks are
  /// submitted by the owning thread; workers never spawn sub-tasks (the
  /// deterministic join order of DESIGN.md §10 assumes one submitter).
  template <typename Fn>
  COLT_OWNER_ONLY auto Submit(Fn fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();
    } else {
      Enqueue([task] { (*task)(); });
    }
    return future;
  }

  /// Runs fn(0), ..., fn(task_count - 1) on the pool and returns their
  /// results merged in task-index order (NOT completion order). The first
  /// exception, by task index, is rethrown after all tasks finished
  /// executing, so a throwing Map never leaves tasks running.
  template <typename Fn>
  COLT_OWNER_ONLY auto Map(size_t task_count, Fn fn) -> std::vector<decltype(fn(size_t{0}))> {
    using R = decltype(fn(size_t{0}));
    std::vector<std::future<R>> futures;
    futures.reserve(task_count);
    for (size_t i = 0; i < task_count; ++i) {
      futures.push_back(Submit([fn, i] { return fn(i); }));
    }
    for (auto& future : futures) future.wait();
    std::vector<R> out;
    out.reserve(task_count);
    for (auto& future : futures) out.push_back(future.get());
    return out;
  }

  /// Deterministic per-task RNG stream: a function of (parent_seed,
  /// task_index) only, so a task draws the same sequence no matter which
  /// worker runs it — or whether a pool is involved at all. The one
  /// sanctioned way for pool-executed code to obtain randomness (colt_lint
  /// thread-role analyzer, DESIGN.md §14).
  COLT_THREAD_NEUTRAL static Rng TaskRng(uint64_t parent_seed,
                                         uint64_t task_index);

  /// std::thread::hardware_concurrency() with a floor of 1. Call sites
  /// outside this header use the wrapper so the `naked-thread` lint rule
  /// can ban the std::thread token everywhere else.
  static int HardwareConcurrency();

 private:
  void Enqueue(std::function<void()> task) COLT_EXCLUDES(mu_);
  void WorkerLoop() COLT_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ COLT_GUARDED_BY(mu_);
  bool shutdown_ COLT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace colt

#endif  // COLT_COMMON_THREAD_POOL_H_
