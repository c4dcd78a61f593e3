#ifndef CBIR_LOGDB_LOG_STORE_H_
#define CBIR_LOGDB_LOG_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "logdb/log_session.h"
#include "logdb/relevance_matrix.h"
#include "logdb/wal.h"
#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace cbir::logdb {

/// \brief Append-only store of user-feedback sessions with file persistence.
///
/// This is the "log database" of the paper: a CBIR deployment appends one
/// session per completed feedback round and periodically rebuilds the
/// relevance matrix consumed by the log-based learners.
///
/// Thread safety: Append, num_sessions, TotalJudgments, BuildMatrix,
/// SaveToFile, and Snapshot synchronize on an internal mutex, so the serving
/// layer can append from many worker threads while readers rebuild matrices
/// or persist the store. The zero-copy sessions() accessor is the one
/// exception: it returns a reference into the store, so it must not run
/// concurrently with Append — use Snapshot() when writers may be live.
class LogStore {
 public:
  LogStore() = default;

  /// Copies carry the sessions only — a copy is an in-memory snapshot, never
  /// a second writer of the original's WAL. Moves carry the WAL attachment.
  LogStore(const LogStore& other);
  LogStore& operator=(const LogStore& other);
  LogStore(LogStore&& other) noexcept;
  LogStore& operator=(LogStore&& other) noexcept;

  /// Opens a crash-durable store: loads `snapshot_path` (the SaveToFile
  /// v-format; missing = empty), replays the committed prefix of
  /// `wal_path` on top (truncating any torn tail from a previous crash),
  /// and attaches the WAL so every subsequent Append is flushed to it
  /// before returning — an acknowledged session survives `kill -9`.
  /// `recovery` (optional) reports what the replay found.
  static Result<LogStore> OpenDurable(const std::string& snapshot_path,
                                      const std::string& wal_path,
                                      WalRecoveryStats* recovery = nullptr);

  /// Folds the WAL into the snapshot: atomically rewrites `snapshot_path`
  /// (write-temp-then-rename) with every current session, then empties the
  /// WAL. Bounds WAL growth; crash-safe at every step (a crash before the
  /// rename keeps the old snapshot + full WAL; after it, the new snapshot
  /// + a possibly stale WAL whose replay is idempotent only until the
  /// reset — hence the rename happens first). FailedPrecondition when the
  /// store is not durable.
  Status Compact();

  /// True when OpenDurable attached a WAL to this store.
  bool durable() const;

  /// OK, or the first WAL append/flush failure (a disk-full log store keeps
  /// serving from memory but stops being durable; operators poll this).
  Status wal_status() const;

  void Append(LogSession session);

  int num_sessions() const;

  /// Borrowed view of the sessions. NOT safe against concurrent Append (the
  /// vector may reallocate under the reader); single-writer phases only —
  /// which is why it is exempted from the static analysis instead of taking
  /// the lock.
  const std::vector<LogSession>& sessions() const
      CBIR_NO_THREAD_SAFETY_ANALYSIS {
    return sessions_;
  }

  /// Copy of the sessions, consistent under concurrent appends.
  std::vector<LogSession> Snapshot() const;

  /// Builds the relevance matrix over a database of `num_images` images.
  RelevanceMatrix BuildMatrix(int num_images) const;

  /// Line-oriented text persistence:
  ///   session <query_id> <n>
  ///   <image_id> <judgment>   (n lines)
  /// Compaction snapshots append an optional `wal_gen <g>` trailer naming
  /// the WAL generation they folded; `wal_folded_gen` (optional) receives it
  /// (0 when absent). Pre-trailer files load unchanged.
  Status SaveToFile(const std::string& path) const;
  static Result<LogStore> LoadFromFile(const std::string& path,
                                       uint64_t* wal_folded_gen = nullptr);

  int64_t TotalJudgments() const;

 private:
  /// Writes the v-format text under an already-held lock (SaveToFile and
  /// Compact share it). Nonzero `wal_gen` appends the `wal_gen` trailer.
  static Status WriteSessions(const std::vector<LogSession>& sessions,
                              const std::string& path, uint64_t wal_gen);

  mutable util::Mutex mu_{util::LockRank::kLogStore, "log_store"};
  std::vector<LogSession> sessions_ CBIR_GUARDED_BY(mu_);
  /// Durable mode (OpenDurable): appends also land here, pre-flush.
  std::unique_ptr<WalWriter> wal_ CBIR_GUARDED_BY(mu_);
  std::string snapshot_path_ CBIR_GUARDED_BY(mu_);
  Status wal_status_ CBIR_GUARDED_BY(mu_);
};

}  // namespace cbir::logdb

#endif  // CBIR_LOGDB_LOG_STORE_H_
