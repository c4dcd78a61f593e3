#include "logdb/wal.h"

#include "util/byte_io.h"
#include "util/string_util.h"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <utility>

namespace cbir::logdb {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// A nonzero value that is fresh across process lifetimes and resets
/// (0 is reserved for "no WAL"). Uniqueness only has to hold between one
/// snapshot's folded generation and the next WAL incarnation, so entropy
/// plus a wall-clock tick is far more than enough.
uint64_t FreshGeneration() {
  static std::random_device rd;
  const uint64_t entropy =
      (uint64_t(rd()) << 32) ^ uint64_t(rd());
  const uint64_t tick = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  const uint64_t gen = entropy ^ tick;
  return gen == 0 ? 1 : gen;
}

/// Decodes one payload; false on any structural mismatch (recovery treats
/// that as a torn tail even when the CRC accidentally matched garbage).
bool DecodePayload(const uint8_t* data, size_t size, LogSession* session) {
  ByteReader r(data, size);
  int32_t query_image_id = 0;
  uint32_t n = 0;
  if (!r.Read(&query_image_id) || !r.Read(&n)) return false;
  if (size != 8 + static_cast<size_t>(n) * 5) return false;
  session->query_image_id = query_image_id;
  session->entries.clear();
  session->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Cannot fail: the exact size was checked above.
    LogEntry entry;
    r.Read(&entry.image_id);
    r.Read(&entry.judgment);
    if (entry.judgment != 1 && entry.judgment != -1) return false;
    session->entries.push_back(entry);
  }
  return true;
}

Status WriteHeaderAndFlush(std::FILE* file, uint64_t generation,
                           const std::string& path) {
  std::vector<uint8_t> header = EncodeWalFileHeader(generation);
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
      std::fflush(file) != 0) {
    return Status::IoError("wal: cannot write header of " + path + ": " +
                           ErrnoString(errno));
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32Continue(uint32_t crc, const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  // Un-finalize the incoming value so chunked calls chain as if the chunks
  // were one contiguous buffer (Crc32Continue(Crc32(a), b) == Crc32(a||b)).
  crc ^= 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Continue(0, data, size);
}

std::vector<uint8_t> EncodeWalRecord(const LogSession& session) {
  std::vector<uint8_t> payload;
  payload.reserve(8 + session.entries.size() * 5);
  ByteWriter p(&payload);
  p.Put(static_cast<int32_t>(session.query_image_id));
  p.Put(static_cast<uint32_t>(session.entries.size()));
  for (const LogEntry& e : session.entries) {
    p.Put(static_cast<int32_t>(e.image_id));
    p.Put(e.judgment);
  }
  std::vector<uint8_t> record;
  record.reserve(kWalRecordHeaderBytes + payload.size());
  ByteWriter r(&record);
  r.Put(static_cast<uint32_t>(payload.size()));
  r.Put(Crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

std::vector<uint8_t> EncodeWalFileHeader(uint64_t generation) {
  std::vector<uint8_t> header;
  header.reserve(kWalFileHeaderBytes);
  ByteWriter w(&header);
  w.Put(kWalMagic);
  w.Put(kWalVersion);
  w.Put(generation);
  return header;
}

Result<std::vector<LogSession>> RecoverWal(const std::string& path,
                                           WalRecoveryStats* stats) {
  WalRecoveryStats local;
  std::vector<LogSession> sessions;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) {
      if (stats != nullptr) *stats = local;
      return sessions;  // no WAL yet: a fresh log
    }
    return Status::IoError("wal: cannot open " + path + ": " +
                           ErrnoString(errno));
  }

  const auto file_size = [&] {
    const long pos = std::ftell(file);
    std::fseek(file, 0, SEEK_END);
    const long end = std::ftell(file);
    std::fseek(file, pos, SEEK_SET);
    return end > 0 ? static_cast<uint64_t>(end) : 0;
  };
  const auto torn = [&](const char* reason) {
    local.torn_bytes = file_size() - local.valid_bytes;
    local.torn_reason = reason;
  };

  // File header first: a torn or foreign header means no record can be
  // trusted — recover empty and let the opener start the file over.
  uint8_t file_header[kWalFileHeaderBytes];
  const size_t header_got =
      std::fread(file_header, 1, sizeof(file_header), file);
  ByteReader header(file_header, header_got);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t generation = 0;
  if (!header.Read(&magic) || !header.Read(&version) ||
      !header.Read(&generation)) {
    if (file_size() > 0) torn("truncated file header");
  } else if (magic != kWalMagic || version != kWalVersion) {
    torn("bad file header");
  } else {
    local.generation = generation;
    local.valid_bytes = kWalFileHeaderBytes;
    std::vector<uint8_t> buffer;
    uint8_t record_header[kWalRecordHeaderBytes];
    for (;;) {
      const size_t got =
          std::fread(record_header, 1, sizeof(record_header), file);
      if (got == 0) break;  // clean end
      if (got < sizeof(record_header)) {
        torn("truncated record header");
        break;
      }
      ByteReader fields(record_header, sizeof(record_header));
      uint32_t length = 0;
      uint32_t crc = 0;
      fields.Read(&length);
      fields.Read(&crc);
      if (length > kMaxWalRecordBytes) {
        torn("hostile record length");
        break;
      }
      buffer.resize(length);
      if (std::fread(buffer.data(), 1, length, file) < length) {
        torn("truncated record body");
        break;
      }
      if (Crc32(buffer.data(), buffer.size()) != crc) {
        torn("crc mismatch");
        break;
      }
      LogSession session;
      if (!DecodePayload(buffer.data(), buffer.size(), &session)) {
        torn("undecodable payload");
        break;
      }
      sessions.push_back(std::move(session));
      ++local.sessions;
      local.valid_bytes += kWalRecordHeaderBytes + length;
    }
  }
  std::fclose(file);
  if (stats != nullptr) *stats = local;
  return sessions;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    path_ = std::move(other.path_);
    generation_ = other.generation_;
    other.file_ = nullptr;
  }
  return *this;
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  uint64_t valid_bytes, uint64_t generation) {
  WalWriter writer;
  writer.path_ = path;
  if (valid_bytes < kWalFileHeaderBytes) {
    // No usable WAL: start the file over under a fresh generation.
    writer.file_ = std::fopen(path.c_str(), "wb");
    if (writer.file_ == nullptr) {
      return Status::IoError("wal: cannot create " + path + ": " +
                             ErrnoString(errno));
    }
    writer.generation_ = FreshGeneration();
    CBIR_RETURN_NOT_OK(
        WriteHeaderAndFlush(writer.file_, writer.generation_, path));
    return writer;
  }
  // Drop any torn tail first so fresh appends extend the committed prefix.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 &&
      static_cast<uint64_t>(st.st_size) > valid_bytes) {
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      return Status::IoError("wal: cannot truncate torn tail of " + path +
                             ": " + ErrnoString(errno));
    }
  }
  writer.file_ = std::fopen(path.c_str(), "ab");
  if (writer.file_ == nullptr) {
    return Status::IoError("wal: cannot open " + path + " for append: " +
                           ErrnoString(errno));
  }
  writer.generation_ = generation;
  return writer;
}

Status WalWriter::Append(const LogSession& session) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal: writer not open");
  }
  const std::vector<uint8_t> record = EncodeWalRecord(session);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    return Status::IoError("wal: append to " + path_ + " failed: " +
                           ErrnoString(errno));
  }
  return Status::OK();
}

Status WalWriter::Reset() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal: writer not open");
  }
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");  // truncate
  if (file_ == nullptr) {
    return Status::IoError("wal: cannot reset " + path_ + ": " +
                           ErrnoString(errno));
  }
  generation_ = FreshGeneration();
  return WriteHeaderAndFlush(file_, generation_, path_);
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace cbir::logdb
