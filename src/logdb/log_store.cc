#include "logdb/log_store.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace cbir::logdb {

namespace {

/// Registry series of the durable store (cached once, see obs docs).
struct LogdbMetrics {
  obs::Counter* wal_appends;
  obs::Counter* wal_append_errors;
  obs::Counter* compactions;
  obs::Counter* recoveries;
  obs::Counter* recovered_sessions;
  obs::Counter* torn_bytes;
};

const LogdbMetrics& Metrics() {
  static const LogdbMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    LogdbMetrics m;
    m.wal_appends = r.GetCounter("cbir_logdb_wal_appends_total");
    m.wal_append_errors = r.GetCounter("cbir_logdb_wal_append_errors_total");
    m.compactions = r.GetCounter("cbir_logdb_compactions_total");
    m.recoveries = r.GetCounter("cbir_logdb_recoveries_total");
    m.recovered_sessions =
        r.GetCounter("cbir_logdb_recovered_sessions_total");
    m.torn_bytes = r.GetCounter("cbir_logdb_wal_torn_bytes_total");
    return m;
  }();
  return metrics;
}

}  // namespace

LogStore::LogStore(const LogStore& other) {
  util::MutexLock lock(other.mu_);
  sessions_ = other.sessions_;
}

LogStore& LogStore::operator=(const LogStore& other) {
  if (this == &other) return *this;
  // Same-rank pair: TwoMutexLock orders the acquisitions by address, the
  // one sanctioned way to hold two kLogStore locks at once.
  util::TwoMutexLock lock(mu_, other.mu_);
  sessions_ = other.sessions_;
  return *this;
}

LogStore::LogStore(LogStore&& other) noexcept {
  util::MutexLock lock(other.mu_);
  sessions_ = std::move(other.sessions_);
  wal_ = std::move(other.wal_);
  snapshot_path_ = std::move(other.snapshot_path_);
  wal_status_ = std::move(other.wal_status_);
}

LogStore& LogStore::operator=(LogStore&& other) noexcept {
  if (this == &other) return *this;
  util::TwoMutexLock lock(mu_, other.mu_);
  sessions_ = std::move(other.sessions_);
  wal_ = std::move(other.wal_);
  snapshot_path_ = std::move(other.snapshot_path_);
  wal_status_ = std::move(other.wal_status_);
  return *this;
}

// Builds up a local store nobody else can see yet; lockless by design, so
// the static analysis is waived for the function body.
Result<LogStore> LogStore::OpenDurable(const std::string& snapshot_path,
                                       const std::string& wal_path,
                                       WalRecoveryStats* recovery)
    CBIR_NO_THREAD_SAFETY_ANALYSIS {
  LogStore store;
  // Base state: the last compaction snapshot (absence = a fresh store).
  uint64_t folded_gen = 0;
  if (std::ifstream probe(snapshot_path); probe) {
    probe.close();
    CBIR_ASSIGN_OR_RETURN(LogStore snapshot,
                          LoadFromFile(snapshot_path, &folded_gen));
    store.sessions_ = std::move(snapshot.sessions_);
  }
  // Replay the sessions committed after that snapshot; a torn tail from a
  // crash mid-append is measured here and truncated by WalWriter::Open.
  WalRecoveryStats stats;
  CBIR_ASSIGN_OR_RETURN(std::vector<LogSession> replayed,
                        RecoverWal(wal_path, &stats));
  if (folded_gen != 0 && folded_gen == stats.generation) {
    // Crash landed between publishing the snapshot and resetting the WAL:
    // the snapshot already folded this WAL generation, so replaying it
    // would double-count every session. Discard it and start the WAL over.
    stats.sessions = 0;
    stats.torn_bytes = 0;
    stats.valid_bytes = 0;  // forces a fresh generation below
    replayed.clear();
  }
  for (LogSession& session : replayed) {
    store.sessions_.push_back(std::move(session));
  }
  CBIR_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Open(wal_path, stats.valid_bytes, stats.generation));
  store.wal_ = std::make_unique<WalWriter>(std::move(writer));
  store.snapshot_path_ = snapshot_path;
  Metrics().recoveries->Increment();
  Metrics().recovered_sessions->Increment(stats.sessions);
  Metrics().torn_bytes->Increment(stats.torn_bytes);
  if (recovery != nullptr) *recovery = stats;
  return store;
}

Status LogStore::Compact() {
  util::MutexLock lock(mu_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("log store: not opened durable");
  }
  // Snapshot first, reset the WAL after. A crash between the two leaves a
  // snapshot that already folded the WAL's sessions plus the intact WAL —
  // the `wal_gen` trailer written here lets recovery detect exactly that
  // window and discard the already-folded WAL instead of double-counting.
  const std::string tmp = snapshot_path_ + ".tmp";
  CBIR_RETURN_NOT_OK(WriteSessions(sessions_, tmp, wal_->generation()));
  if (std::rename(tmp.c_str(), snapshot_path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("log store: cannot publish snapshot " +
                           snapshot_path_);
  }
  Metrics().compactions->Increment();
  return wal_->Reset();
}

bool LogStore::durable() const {
  util::MutexLock lock(mu_);
  return wal_ != nullptr;
}

Status LogStore::wal_status() const {
  util::MutexLock lock(mu_);
  return wal_status_;
}

void LogStore::Append(LogSession session) {
  util::MutexLock lock(mu_);
  if (wal_ != nullptr) {
    // WAL first: the in-memory store must never acknowledge a session the
    // log on disk does not have. A failed append (disk full) is remembered
    // and the session still serves from memory.
    if (Status s = wal_->Append(session); s.ok()) {
      Metrics().wal_appends->Increment();
    } else {
      Metrics().wal_append_errors->Increment();
      if (wal_status_.ok()) wal_status_ = std::move(s);
    }
  }
  sessions_.push_back(std::move(session));
}

int LogStore::num_sessions() const {
  util::MutexLock lock(mu_);
  return static_cast<int>(sessions_.size());
}

std::vector<LogSession> LogStore::Snapshot() const {
  util::MutexLock lock(mu_);
  return sessions_;
}

RelevanceMatrix LogStore::BuildMatrix(int num_images) const {
  util::MutexLock lock(mu_);
  RelevanceMatrix matrix(num_images);
  for (const LogSession& session : sessions_) matrix.AddSession(session);
  return matrix;
}

Status LogStore::WriteSessions(const std::vector<LogSession>& sessions,
                               const std::string& path, uint64_t wal_gen) {
  std::ofstream ofs(path, std::ios::trunc);
  if (!ofs) return Status::IoError("cannot open for writing: " + path);
  ofs << "cbir_log v1 " << sessions.size() << "\n";
  for (const LogSession& s : sessions) {
    ofs << "session " << s.query_image_id << " " << s.entries.size() << "\n";
    for (const LogEntry& e : s.entries) {
      ofs << e.image_id << " " << static_cast<int>(e.judgment) << "\n";
    }
  }
  if (wal_gen != 0) ofs << "wal_gen " << wal_gen << "\n";
  ofs.flush();
  if (!ofs) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status LogStore::SaveToFile(const std::string& path) const {
  // Write a snapshot so the (possibly slow) file I/O never holds the mutex
  // — concurrent appends land in the store, just not in this save.
  return WriteSessions(Snapshot(), path, /*wal_gen=*/0);
}

Result<LogStore> LogStore::LoadFromFile(const std::string& path,
                                        uint64_t* wal_folded_gen) {
  if (wal_folded_gen != nullptr) *wal_folded_gen = 0;
  std::ifstream ifs(path);
  if (!ifs) return Status::IoError("cannot open for reading: " + path);
  std::string magic, version;
  size_t count = 0;
  if (!(ifs >> magic >> version >> count) || magic != "cbir_log" ||
      version != "v1") {
    return Status::InvalidArgument("log store: bad header in " + path);
  }
  LogStore store;
  for (size_t s = 0; s < count; ++s) {
    std::string tag;
    LogSession session;
    size_t entries = 0;
    if (!(ifs >> tag >> session.query_image_id >> entries) ||
        tag != "session") {
      return Status::IoError("log store: truncated session header");
    }
    session.entries.reserve(entries);
    for (size_t e = 0; e < entries; ++e) {
      int image_id = 0, judgment = 0;
      if (!(ifs >> image_id >> judgment)) {
        return Status::IoError("log store: truncated entry");
      }
      if (judgment != 1 && judgment != -1) {
        return Status::InvalidArgument("log store: judgment must be +-1");
      }
      session.entries.push_back(
          LogEntry{image_id, static_cast<int8_t>(judgment)});
    }
    store.Append(std::move(session));
  }
  if (wal_folded_gen != nullptr) {
    std::string tag;
    uint64_t gen = 0;
    if (ifs >> tag >> gen && tag == "wal_gen") *wal_folded_gen = gen;
  }
  return store;
}

int64_t LogStore::TotalJudgments() const {
  util::MutexLock lock(mu_);
  int64_t total = 0;
  for (const LogSession& s : sessions_) {
    total += static_cast<int64_t>(s.entries.size());
  }
  return total;
}

}  // namespace cbir::logdb
