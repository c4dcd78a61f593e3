#include "obs/structured_log.h"

#include <cstdio>
#include <ctime>

namespace cbir::obs {

std::string Iso8601Now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Sized for the widest output the int fields can produce (78 bytes with
  // the terminator), not just the 24 a real date takes, so it never
  // truncates.
  char buffer[80];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(millis));
  return buffer;
}

StructuredLog::StructuredLog(std::ostream* os, double min_interval_seconds)
    : os_(os), min_interval_seconds_(min_interval_seconds) {}

void StructuredLog::Log(const std::string& event,
                        std::initializer_list<Field> fields) {
  util::MutexLock lock(mu_);
  EventState& state = events_[event];
  const auto now = std::chrono::steady_clock::now();
  if (min_interval_seconds_ > 0.0 && state.emitted_once &&
      std::chrono::duration<double>(now - state.last_emit).count() <
          min_interval_seconds_) {
    ++state.suppressed;
    ++lines_suppressed_;
    return;
  }
  state.last_emit = now;
  state.emitted_once = true;
  const uint64_t suppressed = state.suppressed;
  state.suppressed = 0;
  Emit(event, fields, suppressed);
}

void StructuredLog::LogAlways(const std::string& event,
                              std::initializer_list<Field> fields) {
  util::MutexLock lock(mu_);
  EventState& state = events_[event];
  state.last_emit = std::chrono::steady_clock::now();
  state.emitted_once = true;
  const uint64_t suppressed = state.suppressed;
  state.suppressed = 0;
  Emit(event, fields, suppressed);
}

void StructuredLog::Emit(const std::string& event,
                         std::initializer_list<Field> fields,
                         uint64_t suppressed) {
  *os_ << "ts=" << Iso8601Now() << " event=" << event;
  for (const Field& field : fields) {
    *os_ << " " << field.first << "=" << field.second;
  }
  if (suppressed > 0) *os_ << " suppressed=" << suppressed;
  *os_ << "\n" << std::flush;
  ++lines_written_;
}

uint64_t StructuredLog::lines_written() const {
  util::MutexLock lock(mu_);
  return lines_written_;
}

uint64_t StructuredLog::lines_suppressed() const {
  util::MutexLock lock(mu_);
  return lines_suppressed_;
}

}  // namespace cbir::obs
