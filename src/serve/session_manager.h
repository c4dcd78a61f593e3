#ifndef CBIR_SERVE_SESSION_MANAGER_H_
#define CBIR_SERVE_SESSION_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/feedback_loop.h"
#include "util/sync.h"

namespace cbir::serve {

/// \brief Mutable per-session serving state.
///
/// All fields after `mu` are guarded by `mu`; the RetrievalService (and the
/// SessionManager's eviction path) lock it for the duration of one request.
/// Sessions are handed out as shared_ptr so an eviction never pulls state
/// out from under a request already in flight: the evicted session is marked
/// `ended` and later requests see NotFound.
struct ServeSession {
  explicit ServeSession(core::FeedbackContext ctx = {})
      : feedback(std::move(ctx)) {}

  uint64_t id = 0;
  util::Mutex mu{util::LockRank::kSession, "serve_session"};

  /// Set by EndSession or eviction; requests on an ended session fail.
  bool ended CBIR_GUARDED_BY(mu) = false;
  /// Bytes of the feedback session's carried kernel values currently charged
  /// to the service's aggregate counter (updated after every feedback round,
  /// zeroed on flush).
  size_t accounted_kernel_bytes CBIR_GUARDED_BY(mu) = 0;

  /// Idempotency cache for retried Feedback: the highest sequence number
  /// applied so far (0 = none seen) and the top-k answered for it. A retry
  /// carrying the same seq gets this response back without re-applying the
  /// round — at-most-once application under client retries.
  uint32_t last_feedback_seq CBIR_GUARDED_BY(mu) = 0;
  std::vector<int> last_feedback_response CBIR_GUARDED_BY(mu);

  /// The session's rounds: the type RunFeedbackSession drives, so rankings
  /// and recorded log rounds match it exactly. Ended on flush.
  core::FeedbackSession feedback CBIR_GUARDED_BY(mu);
};

/// \brief Session capacity policy.
struct SessionManagerOptions {
  /// Hard cap on live sessions; starting one beyond it evicts the least
  /// recently used session first. Bounds serving memory no matter how many
  /// users arrive.
  size_t max_sessions = 4096;
  /// Idle time-to-live in seconds (0 = no TTL): sessions untouched longer
  /// than this are evicted lazily on the next StartSession / EvictExpired.
  double ttl_seconds = 0.0;
};

/// \brief Lifetime counters of a SessionManager.
struct SessionManagerStats {
  uint64_t started = 0;
  uint64_t ended = 0;  ///< explicit Remove() (EndSession)
  uint64_t evicted_capacity = 0;
  uint64_t evicted_ttl = 0;
  uint64_t active = 0;
};

/// \brief Owns the live ServeSessions behind one mutex-guarded id map with
/// LRU + TTL eviction.
///
/// Locking protocol: the manager mutex only ever guards the map / LRU list
/// bookkeeping — it is never held while a session's own mutex is taken, so
/// a slow request (an SVM retrain) on one session cannot block Start/Acquire
/// traffic for every other session. Eviction runs the `on_evict` callback
/// with the victim's mutex held (after marking it ended), which is where the
/// service flushes the victim's recorded rounds to the log store.
class SessionManager {
 public:
  /// Called for every evicted session with its mutex held and `ended` set.
  using EvictCallback = std::function<void(ServeSession&)>;

  SessionManager(const SessionManagerOptions& options, EvictCallback on_evict);

  /// Registers a fully initialized session under its id (ids come from the
  /// service's monotone counter, so collisions are a caller bug). Taking the
  /// session ready-made keeps the init outside any lock: a session is never
  /// visible to Acquire before its context is filled in. Runs TTL and
  /// capacity eviction first.
  void Register(std::shared_ptr<ServeSession> session);

  /// The session for `id`, refreshed as most recently used — or null when
  /// the id is unknown (never issued, ended, or evicted).
  std::shared_ptr<ServeSession> Acquire(uint64_t id);

  /// Unregisters and returns the session (null when unknown). The caller
  /// owns the final flush; counted as an explicit end, not an eviction.
  std::shared_ptr<ServeSession> Remove(uint64_t id);

  /// Evicts every session idle past the TTL; returns how many. No-op when
  /// ttl_seconds is 0.
  size_t EvictExpired();

  SessionManagerStats stats() const;
  size_t active() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry {
    std::shared_ptr<ServeSession> session;
    std::list<uint64_t>::iterator lru_it;
    Clock::time_point last_touch;
  };

  /// Pops expired (and, when `need_room` and at capacity, LRU) entries under
  /// the manager lock, collecting victims; the caller finishes them outside.
  std::vector<std::shared_ptr<ServeSession>> CollectVictimsLocked(
      bool need_room) CBIR_REQUIRES(mu_);
  /// Marks victims ended and runs the callback (victim mutex held). Must be
  /// called with the manager lock released: the session rank sits above the
  /// manager rank, but more importantly a slow eviction flush must never
  /// stall Start/Acquire traffic (the PR 3 invariant).
  void FinishVictims(const std::vector<std::shared_ptr<ServeSession>>& victims)
      CBIR_EXCLUDES(mu_);

  SessionManagerOptions options_;
  EvictCallback on_evict_;

  mutable util::Mutex mu_{util::LockRank::kSessionManager, "session_manager"};
  std::unordered_map<uint64_t, Entry> entries_ CBIR_GUARDED_BY(mu_);
  std::list<uint64_t> lru_ CBIR_GUARDED_BY(mu_);  ///< front = most recently used
  uint64_t started_ CBIR_GUARDED_BY(mu_) = 0;
  uint64_t ended_ CBIR_GUARDED_BY(mu_) = 0;
  uint64_t evicted_capacity_ CBIR_GUARDED_BY(mu_) = 0;
  uint64_t evicted_ttl_ CBIR_GUARDED_BY(mu_) = 0;
};

}  // namespace cbir::serve

#endif  // CBIR_SERVE_SESSION_MANAGER_H_
