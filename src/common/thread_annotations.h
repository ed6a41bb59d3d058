#ifndef COLT_COMMON_THREAD_ANNOTATIONS_H_
#define COLT_COMMON_THREAD_ANNOTATIONS_H_

/// Thread-role and lock-discipline annotations (DESIGN.md §14).
///
/// Two independent annotation families live here:
///
/// 1. Thread-role macros — COLT_OWNER_ONLY, COLT_WORKER_SAFE,
///    COLT_THREAD_NEUTRAL. These expand to nothing for the compiler; they
///    are contracts read by the colt_lint thread-role analyzer
///    (tools/colt_lint/thread_roles.cc), which builds a cross-file call
///    graph and proves that pool-executed code never reaches owner-only
///    APIs, never emits provenance, never touches the default metrics
///    registry, and never draws randomness outside ThreadPool::TaskRng.
///    The determinism guarantees of DESIGN.md §10 (bit-identical results
///    at every client count) rest on this discipline; annotating it makes
///    it machine-checked instead of a convention to remember.
///
///    Placement: immediately before the declaration (preferred, in the
///    header) or the definition. A definition inherits the role of its
///    declaration by qualified name.
///
/// 2. Clang Thread Safety Analysis macros — COLT_GUARDED_BY, COLT_REQUIRES,
///    COLT_EXCLUDES, etc. These expand to Clang's thread-safety attributes
///    when the compiler supports them (the dedicated -Wthread-safety CI
///    build) and to nothing elsewhere (gcc). They annotate the genuinely
///    locked corners of the tree — colt::Mutex users such as the thread
///    pool's queue and the logging sink — so lock misuse is a compile
///    error under clang rather than a TSan-visible race later.

// --------------------------------------------------------------------------
// Thread-role contracts (colt_lint, no compiler effect).
// --------------------------------------------------------------------------

/// Runs only on the owner (tuning) thread. May mutate shared state, emit
/// provenance, touch MetricsRegistry::Default(), and call anything.
#define COLT_OWNER_ONLY

/// May run on a pool worker. Must not call owner-only APIs, emit
/// provenance events, touch the default metrics registry, or draw from
/// any RNG other than a ThreadPool::TaskRng stream. A const worker-safe
/// method must stay genuinely pure (no mutable-member writes).
#define COLT_WORKER_SAFE

/// Stateless (or per-object, caller-synchronized) helper callable from any
/// thread; same restrictions as COLT_WORKER_SAFE.
#define COLT_THREAD_NEUTRAL

// --------------------------------------------------------------------------
// Clang Thread Safety Analysis attributes (no-ops outside clang).
// --------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define COLT_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define COLT_TS_ATTRIBUTE__(x)  // no-op
#endif

#define COLT_CAPABILITY(x) COLT_TS_ATTRIBUTE__(capability(x))

#define COLT_SCOPED_CAPABILITY COLT_TS_ATTRIBUTE__(scoped_lockable)

#define COLT_GUARDED_BY(x) COLT_TS_ATTRIBUTE__(guarded_by(x))

#define COLT_PT_GUARDED_BY(x) COLT_TS_ATTRIBUTE__(pt_guarded_by(x))

#define COLT_ACQUIRED_BEFORE(...) \
  COLT_TS_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define COLT_ACQUIRED_AFTER(...) \
  COLT_TS_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define COLT_REQUIRES(...) \
  COLT_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define COLT_REQUIRES_SHARED(...) \
  COLT_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define COLT_ACQUIRE(...) \
  COLT_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define COLT_ACQUIRE_SHARED(...) \
  COLT_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

#define COLT_RELEASE(...) \
  COLT_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define COLT_RELEASE_SHARED(...) \
  COLT_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

#define COLT_TRY_ACQUIRE(...) \
  COLT_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define COLT_EXCLUDES(...) COLT_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define COLT_ASSERT_CAPABILITY(x) \
  COLT_TS_ATTRIBUTE__(assert_capability(x))

#define COLT_RETURN_CAPABILITY(x) COLT_TS_ATTRIBUTE__(lock_returned(x))

#define COLT_NO_THREAD_SAFETY_ANALYSIS \
  COLT_TS_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // COLT_COMMON_THREAD_ANNOTATIONS_H_
