#ifndef CBIR_UTIL_SYNC_H_
#define CBIR_UTIL_SYNC_H_

/// \file
/// Capability-annotated mutex wrappers plus a debug-build runtime lock-rank
/// checker.
///
/// Every mutex in the serving stack is a util::Mutex (or util::SharedMutex)
/// constructed with a LockRank from the central hierarchy documented in
/// docs/CONCURRENCY.md. Two machines check the locking discipline:
///
///  1. **Clang thread-safety analysis** (compile time). The CBIR_* macros
///     below expand to Clang's capability attributes, so `-Wthread-safety`
///     proves that every CBIR_GUARDED_BY field is only touched with its
///     mutex held and that CBIR_REQUIRES contracts hold at every call site.
///     On non-Clang compilers they expand to nothing.
///
///  2. **The runtime lock-rank checker** (debug builds / CBIR_RANK_CHECKS).
///     Each thread keeps a stack of the util locks it holds. Acquiring a
///     lock whose rank is not strictly greater than the most recently
///     acquired held rank — or re-acquiring a lock already held — aborts
///     immediately with both lock names and the full held stack. Deadlock
///     becomes a deterministic, single-thread-reproducible CI failure
///     instead of a timeout.
///
/// The checker compiles out entirely when CBIR_SYNC_RANK_CHECKS is 0 (the
/// default for NDEBUG builds): util::Mutex is then layout-identical to a
/// bare std::mutex and every check is an empty inline.

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CBIR_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CBIR_THREAD_ANNOTATION
#define CBIR_THREAD_ANNOTATION(x)
#endif

#define CBIR_CAPABILITY(x) CBIR_THREAD_ANNOTATION(capability(x))
#define CBIR_SCOPED_CAPABILITY CBIR_THREAD_ANNOTATION(scoped_lockable)
#define CBIR_GUARDED_BY(x) CBIR_THREAD_ANNOTATION(guarded_by(x))
#define CBIR_PT_GUARDED_BY(x) CBIR_THREAD_ANNOTATION(pt_guarded_by(x))
#define CBIR_REQUIRES(...) \
  CBIR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define CBIR_REQUIRES_SHARED(...) \
  CBIR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define CBIR_ACQUIRE(...) CBIR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CBIR_ACQUIRE_SHARED(...) \
  CBIR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define CBIR_RELEASE(...) CBIR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CBIR_RELEASE_SHARED(...) \
  CBIR_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define CBIR_TRY_ACQUIRE(...) \
  CBIR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define CBIR_EXCLUDES(...) CBIR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define CBIR_ASSERT_CAPABILITY(x) CBIR_THREAD_ANNOTATION(assert_capability(x))
#define CBIR_RETURN_CAPABILITY(x) CBIR_THREAD_ANNOTATION(lock_returned(x))
#define CBIR_NO_THREAD_SAFETY_ANALYSIS \
  CBIR_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Rank-checker gate. On by default in !NDEBUG builds; force with the CMake
// option CBIR_RANK_CHECKS=ON (which defines CBIR_SYNC_RANK_CHECKS=1 for the
// whole build tree so all TUs agree on the Mutex layout).
// ---------------------------------------------------------------------------

#ifndef CBIR_SYNC_RANK_CHECKS
#ifdef NDEBUG
#define CBIR_SYNC_RANK_CHECKS 0
#else
#define CBIR_SYNC_RANK_CHECKS 1
#endif
#endif

namespace cbir::util {

/// The global lock-rank hierarchy. A thread may only acquire a lock whose
/// rank is **strictly greater** than every rank it already holds (equal
/// ranks are allowed only through TwoMutexLock, which orders by address).
/// Keep this in sync with docs/CONCURRENCY.md — the docs explain *why* each
/// edge exists.
enum class LockRank : int {
  kService = 10,          ///< reserved: future whole-service state
  kTcpConnections = 20,   ///< net::TcpServer connection registry
  kRouterSessions = 22,   ///< router::ShardRouter session-pin table
  kRouterBackend = 24,    ///< router::BackendPool per-backend state + leases
  kRouterHealth = 26,     ///< router::BackendPool prober wakeup latch
  kSessionManager = 30,   ///< serve::SessionManager table + LRU
  kSession = 40,          ///< serve::ServeSession per-session state
  kQueryCache = 50,       ///< serve::QueryCache shard
  kScheme = 60,           ///< core::CoupledSvmScheme aggregated diagnostics
  kLogStore = 70,         ///< logdb::LogStore sessions + WAL
  kSlo = 80,              ///< obs::SloTracker ring + state
  kLifecycle = 85,        ///< start/stop latches (e.g. SloTracker stop)
  kFlightRecorder = 90,   ///< obs::FlightRecorder per-slot record
  kFaultInjector = 98,    ///< net::FaultInjector rng + stats
  kMetrics = 100,         ///< obs::MetricsRegistry instrument tables
  kStructuredLog = 110,   ///< obs::StructuredLog event ring (leaf)
};

/// True when the runtime lock-rank checker is compiled in. Tests use this to
/// decide between EXPECT_DEATH on violations and GTEST_SKIP.
inline constexpr bool kLockRankChecksEnabled = CBIR_SYNC_RANK_CHECKS != 0;

namespace internal {
#if CBIR_SYNC_RANK_CHECKS
/// Validates and records an acquisition of `mutex` on this thread's held
/// stack. Aborts (with names and the held stack) on recursive acquisition or
/// when `rank` is not strictly greater than the top-of-stack rank
/// (`allow_equal` relaxes that to >=, for TwoMutexLock's second lock).
void RankAcquire(const void* mutex, int rank, const char* name,
                 bool allow_equal);
/// Pops `mutex` from this thread's held stack (out-of-LIFO release is fine).
/// Aborts if it is not held.
void RankRelease(const void* mutex);
/// True iff this thread's held stack contains `mutex`.
bool RankHeldByThisThread(const void* mutex);
/// Aborts unless this thread's held stack contains `mutex`.
void RankAssertHeld(const void* mutex, const char* name);
/// Aborts if this thread holds any lock of exactly rank `rank`.
void RankAssertNotHeld(int rank, const char* what);
/// Aborts if this thread holds any lock of rank >= `rank`.
void RankAssertNoneAtOrAbove(int rank, const char* what);
#endif
}  // namespace internal

/// Debug assertion helpers for lock-ordering invariants that span call
/// boundaries (e.g. "the session-manager lock is never held while appending
/// to the log store"). No-ops when the checker is compiled out.
inline void AssertRankNotHeld(LockRank rank, const char* what) {
#if CBIR_SYNC_RANK_CHECKS
  internal::RankAssertNotHeld(static_cast<int>(rank), what);
#else
  (void)rank;
  (void)what;
#endif
}

inline void AssertNoRankHeldAtOrAbove(LockRank rank, const char* what) {
#if CBIR_SYNC_RANK_CHECKS
  internal::RankAssertNoneAtOrAbove(static_cast<int>(rank), what);
#else
  (void)rank;
  (void)what;
#endif
}

class TwoMutexLock;

/// A std::mutex carrying a lock rank, a name for diagnostics, and Clang
/// capability annotations. Meets *BasicLockable* / *Lockable* so it works
/// with std::condition_variable_any (see CondVar below).
class CBIR_CAPABILITY("mutex") Mutex {
 public:
#if CBIR_SYNC_RANK_CHECKS
  explicit Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
#else
  explicit Mutex(LockRank, const char*) {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CBIR_ACQUIRE() {
#if CBIR_SYNC_RANK_CHECKS
    // Check *before* blocking: a rank violation means this lock() could be
    // one arm of a real deadlock, so it must abort rather than hang.
    internal::RankAcquire(this, static_cast<int>(rank_), name_,
                          /*allow_equal=*/false);
#endif
    mu_.lock();
  }

  bool try_lock() CBIR_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if CBIR_SYNC_RANK_CHECKS
    // A successful try_lock cannot deadlock, but it still participates in
    // the ordering discipline: code paths must not depend on try_lock to
    // dodge the hierarchy.
    internal::RankAcquire(this, static_cast<int>(rank_), name_,
                          /*allow_equal=*/false);
#endif
    return true;
  }

  void unlock() CBIR_RELEASE() {
    mu_.unlock();
#if CBIR_SYNC_RANK_CHECKS
    internal::RankRelease(this);
#endif
  }

  /// Debug-asserts the calling thread holds this mutex, and tells the
  /// static analysis to assume so. Used to re-establish the capability
  /// across type-erased boundaries (e.g. the SessionManager eviction
  /// callback, which receives a session whose lock the manager holds).
  void AssertHeld() const CBIR_ASSERT_CAPABILITY(this) {
#if CBIR_SYNC_RANK_CHECKS
    internal::RankAssertHeld(this, name_);
#endif
  }

#if CBIR_SYNC_RANK_CHECKS
  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }
#endif

 private:
  friend class TwoMutexLock;

  // TwoMutexLock's second acquisition: same-rank is allowed because the
  // pair is ordered by address.
  void LockAllowSameRank() CBIR_ACQUIRE() {
#if CBIR_SYNC_RANK_CHECKS
    internal::RankAcquire(this, static_cast<int>(rank_), name_,
                          /*allow_equal=*/true);
#endif
    mu_.lock();
  }

  std::mutex mu_;
#if CBIR_SYNC_RANK_CHECKS
  const LockRank rank_;
  const char* const name_;
#endif
};

/// A std::shared_mutex carrying a lock rank and capability annotations.
/// Shared (reader) acquisitions obey the same rank discipline as exclusive
/// ones — the hierarchy is about ordering, not about exclusivity.
class CBIR_CAPABILITY("shared_mutex") SharedMutex {
 public:
#if CBIR_SYNC_RANK_CHECKS
  explicit SharedMutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}
#else
  explicit SharedMutex(LockRank, const char*) {}
#endif

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() CBIR_ACQUIRE() {
#if CBIR_SYNC_RANK_CHECKS
    internal::RankAcquire(this, static_cast<int>(rank_), name_,
                          /*allow_equal=*/false);
#endif
    mu_.lock();
  }

  void unlock() CBIR_RELEASE() {
    mu_.unlock();
#if CBIR_SYNC_RANK_CHECKS
    internal::RankRelease(this);
#endif
  }

  void lock_shared() CBIR_ACQUIRE_SHARED() {
#if CBIR_SYNC_RANK_CHECKS
    internal::RankAcquire(this, static_cast<int>(rank_), name_,
                          /*allow_equal=*/false);
#endif
    mu_.lock_shared();
  }

  void unlock_shared() CBIR_RELEASE_SHARED() {
    mu_.unlock_shared();
#if CBIR_SYNC_RANK_CHECKS
    internal::RankRelease(this);
#endif
  }

 private:
  std::shared_mutex mu_;
#if CBIR_SYNC_RANK_CHECKS
  const LockRank rank_;
  const char* const name_;
#endif
};

/// RAII exclusive lock over util::Mutex, in the style of absl::MutexLock.
class CBIR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CBIR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CBIR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock over util::SharedMutex.
class CBIR_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) CBIR_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() CBIR_RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over util::SharedMutex.
class CBIR_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) CBIR_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() CBIR_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Locks two same-rank mutexes in address order — the one sanctioned way to
/// hold two locks of equal rank (e.g. LogStore::operator= locking this and
/// other). The pair must be distinct objects.
class CBIR_SCOPED_CAPABILITY TwoMutexLock {
 public:
  TwoMutexLock(Mutex& a, Mutex& b) CBIR_ACQUIRE(a, b)
      : first_(&a < &b ? a : b), second_(&a < &b ? b : a) {
    first_.lock();
    second_.LockAllowSameRank();
  }
  ~TwoMutexLock() CBIR_RELEASE() {
    second_.unlock();
    first_.unlock();
  }

  TwoMutexLock(const TwoMutexLock&) = delete;
  TwoMutexLock& operator=(const TwoMutexLock&) = delete;

 private:
  Mutex& first_;
  Mutex& second_;
};

/// Condition variable usable with util::Mutex (condition_variable_any over
/// the Lockable interface). The wait bodies unlock/relock through the
/// wrapper, so the rank checker naturally pops and re-pushes the rank across
/// the wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) CBIR_REQUIRES(mu)
      CBIR_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu, std::move(pred));
  }

  /// Returns the predicate's value on wake (false on timeout).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
               Predicate pred) CBIR_REQUIRES(mu)
      CBIR_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, timeout, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cbir::util

#endif  // CBIR_UTIL_SYNC_H_
