#include "store/registry_journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"
#include "store/binary_format.h"

namespace qdb {
namespace store {

namespace {

constexpr char kJournalMagic[8] = {'Q', 'D', 'B', 'J', 'R', 'N', 'L', '1'};
constexpr char kSnapshotMagic[8] = {'Q', 'D', 'B', 'M', 'A', 'N', 'I', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kFileHeaderSize = 16;  // magic + u32 version + u32 reserved
constexpr size_t kRecordHeaderSize = 12;  // u32 payload_size + u64 checksum
/// A record is a handful of scalars plus three short strings; anything near
/// this cap is garbage masquerading as a size field.
constexpr uint32_t kMaxRecordPayload = 1u << 20;
constexpr uint64_t kMaxManifestEntries = 1ull << 24;
constexpr uint32_t kMaxNameBytes = 1u << 16;

template <typename T>
void Put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Bounds-checked scalar read; false = out of range.
template <typename T>
bool Get(const std::string& bytes, size_t offset, T& v) {
  if (offset + sizeof(T) > bytes.size() || offset + sizeof(T) < offset) {
    return false;
  }
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return true;
}

void PutString(std::string& out, const std::string& s) {
  Put<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

bool GetString(const std::string& bytes, size_t& offset, std::string& s) {
  uint32_t n = 0;
  if (!Get(bytes, offset, n)) return false;
  offset += sizeof(uint32_t);
  if (n > kMaxNameBytes || offset + n > bytes.size()) return false;
  s.assign(bytes, offset, n);
  offset += n;
  return true;
}

std::string FileHeaderBytes() {
  std::string out;
  out.reserve(kFileHeaderSize);
  out.append(kJournalMagic, sizeof(kJournalMagic));
  Put<uint32_t>(out, kFormatVersion);
  Put<uint32_t>(out, 0u);
  return out;
}

std::string EncodeRecord(const JournalRecord& record) {
  std::string payload;
  payload.reserve(48 + record.name.size() + record.artifact_path.size() +
                  record.file_name.size());
  Put<uint32_t>(payload, static_cast<uint32_t>(record.event));
  Put<uint64_t>(payload, record.sequence);
  Put<int32_t>(payload, record.version);
  Put<uint32_t>(payload, record.model_type);
  Put<int32_t>(payload, record.num_features);
  Put<int32_t>(payload, record.file_version);
  PutString(payload, record.name);
  PutString(payload, record.artifact_path);
  PutString(payload, record.file_name);

  std::string out;
  out.reserve(kRecordHeaderSize + payload.size());
  Put<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  Put<uint64_t>(out, Fnv1a64(payload));
  out.append(payload);
  return out;
}

bool DecodePayload(const std::string& payload, JournalRecord& record) {
  size_t offset = 0;
  uint32_t event = 0;
  if (!Get(payload, offset, event)) return false;
  offset += sizeof(uint32_t);
  if (event < static_cast<uint32_t>(JournalEvent::kRegister) ||
      event > static_cast<uint32_t>(JournalEvent::kRemove)) {
    return false;
  }
  record.event = static_cast<JournalEvent>(event);
  if (!Get(payload, offset, record.sequence)) return false;
  offset += sizeof(uint64_t);
  int32_t version = 0;
  if (!Get(payload, offset, version)) return false;
  offset += sizeof(int32_t);
  record.version = version;
  if (!Get(payload, offset, record.model_type)) return false;
  offset += sizeof(uint32_t);
  int32_t num_features = 0;
  if (!Get(payload, offset, num_features)) return false;
  offset += sizeof(int32_t);
  record.num_features = num_features;
  int32_t file_version = 0;
  if (!Get(payload, offset, file_version)) return false;
  offset += sizeof(int32_t);
  record.file_version = file_version;
  if (!GetString(payload, offset, record.name)) return false;
  if (!GetString(payload, offset, record.artifact_path)) return false;
  if (!GetString(payload, offset, record.file_name)) return false;
  return offset == payload.size() && !record.name.empty();
}

/// store.journal.* metric handles, resolved once.
struct JournalMetrics {
  obs::Counter* appends = obs::GetCounter("store.journal.appends");
  obs::Counter* bytes = obs::GetCounter("store.journal.bytes");
  obs::Counter* compactions = obs::GetCounter("store.journal.compactions");
  obs::Counter* compact_failures =
      obs::GetCounter("store.journal.compact_failures");
  obs::Counter* replayed = obs::GetCounter("store.journal.replayed");
  obs::Counter* truncated_tails =
      obs::GetCounter("store.journal.truncated_tails");
  obs::Gauge* manifest_entries =
      obs::GetGauge("store.journal.manifest_entries");
};

JournalMetrics& Metrics() {
  static JournalMetrics metrics;
  return metrics;
}

Status PosixError(const char* what, const std::string& path) {
  return Status::Internal(
      StrCat(what, " '", path, "': ", std::strerror(errno)));
}

}  // namespace

RegistryJournal::RegistryJournal(std::string dir,
                                 const JournalOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      journal_path_(StrCat(dir_, "/journal.log")),
      snapshot_path_(StrCat(dir_, "/manifest.snapshot")) {}

RegistryJournal::~RegistryJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<RegistryJournal>> RegistryJournal::Open(
    const std::string& dir, const JournalOptions& options) {
  if (dir.empty()) {
    return Status::InvalidArgument("journal directory must not be empty");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return PosixError("cannot create journal directory", dir);
  }
  std::unique_ptr<RegistryJournal> journal(
      new RegistryJournal(dir, options));
  QDB_RETURN_IF_ERROR(journal->Recover());
  return journal;
}

Status RegistryJournal::Recover() {
  std::lock_guard<std::mutex> lock(mu_);

  // 1. The snapshot, if one exists. It was written with AtomicWriteFile, so
  // it is either absent or was complete at rename time — a checksum failure
  // here is bit rot or tampering, not crash debris, and fails closed.
  {
    std::ifstream in(snapshot_path_, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string bytes = buffer.str();
      if (bytes.size() < kFileHeaderSize + 2 * sizeof(uint64_t) ||
          std::memcmp(bytes.data(), kSnapshotMagic,
                      sizeof(kSnapshotMagic)) != 0) {
        return Status::InvalidArgument(
            StrCat("registry snapshot '", snapshot_path_,
                   "' is corrupted (bad magic or truncated)"));
      }
      uint64_t stored_checksum = 0;
      Get(bytes, bytes.size() - sizeof(uint64_t), stored_checksum);
      if (Fnv1a64(std::string_view(bytes).substr(
              0, bytes.size() - sizeof(uint64_t))) !=
          stored_checksum) {
        return Status::InvalidArgument(StrCat(
            "registry snapshot '", snapshot_path_, "' failed its checksum"));
      }
      size_t offset = sizeof(kSnapshotMagic);
      uint32_t format = 0, reserved = 0;
      Get(bytes, offset, format);
      offset += sizeof(uint32_t);
      Get(bytes, offset, reserved);
      offset += sizeof(uint32_t);
      if (format != kFormatVersion) {
        return Status::Unimplemented(
            StrCat("registry snapshot format ", format, " is not supported"));
      }
      uint64_t last_sequence = 0, count = 0;
      if (!Get(bytes, offset, last_sequence)) {
        return Status::InvalidArgument("registry snapshot truncated");
      }
      offset += sizeof(uint64_t);
      if (!Get(bytes, offset, count) || count > kMaxManifestEntries) {
        return Status::InvalidArgument(
            "registry snapshot has an implausible entry count");
      }
      offset += sizeof(uint64_t);
      for (uint64_t i = 0; i < count; ++i) {
        ManifestEntry entry;
        int32_t version = 0, num_features = 0, file_version = 0;
        uint8_t pinned = 0, hot = 0;
        if (!GetString(bytes, offset, entry.name) ||
            !Get(bytes, offset, version) ||
            !Get(bytes, offset + 4, entry.model_type) ||
            !Get(bytes, offset + 8, num_features)) {
          return Status::InvalidArgument("registry snapshot entry truncated");
        }
        offset += 12;
        entry.version = version;
        entry.num_features = num_features;
        if (!GetString(bytes, offset, entry.artifact_path) ||
            !GetString(bytes, offset, entry.file_name)) {
          return Status::InvalidArgument("registry snapshot entry truncated");
        }
        if (!Get(bytes, offset, file_version) ||
            !Get(bytes, offset + 4, pinned) ||
            !Get(bytes, offset + 5, hot)) {
          return Status::InvalidArgument("registry snapshot entry truncated");
        }
        offset += 6;
        entry.file_version = file_version;
        entry.pinned = pinned != 0;
        entry.hot = hot != 0;
        manifest_[{entry.name, entry.version}] = std::move(entry);
      }
      recovery_.snapshot_sequence = last_sequence;
      recovery_.snapshot_entries = static_cast<long>(manifest_.size());
      next_sequence_ = last_sequence + 1;
    }
  }

  // 2. The journal: replay the valid prefix, truncate crash debris. The
  // "store.journal.replay" fault point (scoped by the directory) lets chaos
  // runs fail, stall, or tear the replay read itself.
  std::string bytes;
  bool file_exists = false;
  {
    double keep_fraction = 1.0;
    if (fault::FaultInjector::Global().enabled()) {
      if (std::optional<fault::FaultSpec> fired =
              fault::FaultInjector::Global().Sample("store.journal.replay",
                                                    dir_)) {
        switch (fired->kind) {
          case fault::FaultKind::kError:
            return Status(fired->error_code,
                          StrCat("injected fault at 'store.journal.replay' "
                                 "for '", dir_, "'"));
          case fault::FaultKind::kLatency:
            std::this_thread::sleep_for(
                std::chrono::microseconds(fired->latency_us));
            break;
          case fault::FaultKind::kTornWrite:
            keep_fraction = fired->keep_fraction;
            break;
          case fault::FaultKind::kKill:
            fault::KillProcess();
          case fault::FaultKind::kSpuriousWake:
            break;
        }
      }
    }
    std::ifstream in(journal_path_, std::ios::binary);
    if (in) {
      file_exists = true;
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
      if (keep_fraction < 1.0) {
        bytes.resize(static_cast<size_t>(
            static_cast<double>(bytes.size()) * keep_fraction));
      }
    }
  }

  size_t valid_end = 0;
  if (!file_exists || bytes.size() < kFileHeaderSize) {
    // Fresh directory, or a crash during the very first header write: start
    // a new journal. (A short file cannot hold even one record, so nothing
    // acknowledged can be lost here.)
    QDB_RETURN_IF_ERROR(AtomicWriteFile(journal_path_, FileHeaderBytes(),
                                        "journal.reset"));
    valid_end = kFileHeaderSize;
  } else {
    if (std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) !=
        0) {
      // A full-size header that is not ours is a real foreign file — wiping
      // it would destroy someone's data.
      return Status::InvalidArgument(StrCat(
          "'", journal_path_, "' exists but is not a registry journal"));
    }
    uint32_t format = 0;
    Get(bytes, sizeof(kJournalMagic), format);
    if (format != kFormatVersion) {
      return Status::Unimplemented(
          StrCat("registry journal format ", format, " is not supported"));
    }
    valid_end = kFileHeaderSize;
    size_t offset = kFileHeaderSize;
    uint64_t max_sequence = next_sequence_ - 1;
    for (;;) {
      if (offset + kRecordHeaderSize > bytes.size()) break;  // Torn header.
      uint32_t payload_size = 0;
      uint64_t checksum = 0;
      Get(bytes, offset, payload_size);
      Get(bytes, offset + sizeof(uint32_t), checksum);
      if (payload_size > kMaxRecordPayload ||
          offset + kRecordHeaderSize + payload_size > bytes.size()) {
        break;  // Torn or garbage tail.
      }
      const std::string payload =
          bytes.substr(offset + kRecordHeaderSize, payload_size);
      if (Fnv1a64(payload) != checksum) break;
      JournalRecord record;
      if (!DecodePayload(payload, record)) break;
      // The record is intact. Stale records (folded into the snapshot
      // already) are skipped; this is what makes a crash between the
      // snapshot rename and the journal reset harmless.
      if (record.sequence > recovery_.snapshot_sequence) {
        ApplyLocked(record);
        ++recovery_.replayed_records;
        Metrics().replayed->Increment();
      } else {
        ++recovery_.stale_records;
      }
      max_sequence = std::max(max_sequence, record.sequence);
      offset += kRecordHeaderSize + payload_size;
      valid_end = offset;
    }
    next_sequence_ = max_sequence + 1;
    if (valid_end < bytes.size()) {
      // Torn tail: physically truncate so the next append lands directly
      // after the last valid record — appending past garbage would hide it
      // behind valid-looking records and corrupt the *next* replay.
      recovery_.tail_truncated = true;
      recovery_.truncated_bytes = bytes.size() - valid_end;
      Metrics().truncated_tails->Increment();
      if (::truncate(journal_path_.c_str(),
                     static_cast<off_t>(valid_end)) != 0) {
        return PosixError("cannot truncate torn journal tail of",
                          journal_path_);
      }
    }
  }

  fd_ = ::open(journal_path_.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) return PosixError("cannot open journal", journal_path_);
  Metrics().manifest_entries->Set(static_cast<double>(manifest_.size()));
  return Status::OK();
}

void RegistryJournal::ApplyLocked(const JournalRecord& record) {
  const std::pair<std::string, int> key(record.name, record.version);
  switch (record.event) {
    case JournalEvent::kRegister: {
      auto it = manifest_.find(key);
      if (it != manifest_.end()) {
        // A duplicate register (a racing insert that lost) must not clobber
        // the durable fields of the entry that won.
        it->second.hot = true;
        break;
      }
      ManifestEntry entry;
      entry.name = record.name;
      entry.version = record.version;
      entry.model_type = record.model_type;
      entry.num_features = record.num_features;
      manifest_[key] = std::move(entry);
      break;
    }
    case JournalEvent::kPromote: {
      ManifestEntry& entry = manifest_[key];
      entry.name = record.name;
      entry.version = record.version;
      entry.model_type = record.model_type;
      entry.num_features = record.num_features;
      entry.artifact_path = record.artifact_path;
      entry.file_name = record.file_name;
      entry.file_version = record.file_version;
      entry.hot = true;
      break;
    }
    case JournalEvent::kEvictToDisk: {
      auto it = manifest_.find(key);
      if (it != manifest_.end()) it->second.hot = false;
      break;
    }
    case JournalEvent::kPin: {
      auto it = manifest_.find(key);
      if (it != manifest_.end()) it->second.pinned = true;
      break;
    }
    case JournalEvent::kUnpin: {
      auto it = manifest_.find(key);
      if (it != manifest_.end()) it->second.pinned = false;
      break;
    }
    case JournalEvent::kRemove: {
      if (record.version < 0) {
        auto it = manifest_.lower_bound({record.name, INT32_MIN});
        while (it != manifest_.end() && it->first.first == record.name) {
          it = manifest_.erase(it);
        }
      } else {
        manifest_.erase(key);
      }
      break;
    }
  }
}

Status RegistryJournal::Append(JournalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition(
        "registry journal is in a simulated-crash state (torn append); "
        "reopen the journal to recover");
  }
  if (record.name.empty()) {
    return Status::InvalidArgument("journal record has no model name");
  }
  record.sequence = next_sequence_++;
  const std::string bytes = EncodeRecord(record);

  // Fault point "store.journal.append", scoped by the model name. An
  // injected error fails the append before any byte lands (the caller must
  // not apply its mutation — write-ahead both ways). torn_write persists a
  // record prefix and then poisons the journal: the process "crashed" with
  // a half-written record, and only a reopen (which truncates the tail)
  // recovers. kill persists the prefix and then actually dies.
  size_t write_bytes = bytes.size();
  bool kill_after_write = false;
  bool poison_after_write = false;
  if (fault::FaultInjector::Global().enabled()) {
    if (std::optional<fault::FaultSpec> fired =
            fault::FaultInjector::Global().Sample("store.journal.append",
                                                  record.name)) {
      switch (fired->kind) {
        case fault::FaultKind::kError:
          return Status(fired->error_code,
                        StrCat("injected fault at 'store.journal.append' "
                               "for '", record.name, "'"));
        case fault::FaultKind::kLatency:
          std::this_thread::sleep_for(
              std::chrono::microseconds(fired->latency_us));
          break;
        case fault::FaultKind::kTornWrite:
          poison_after_write = true;
          write_bytes = static_cast<size_t>(
              static_cast<double>(bytes.size()) * fired->keep_fraction);
          break;
        case fault::FaultKind::kKill:
          kill_after_write = true;
          write_bytes = static_cast<size_t>(
              static_cast<double>(bytes.size()) * fired->keep_fraction);
          break;
        case fault::FaultKind::kSpuriousWake:
          break;
      }
    }
  }

  size_t written = 0;
  while (written < write_bytes) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, write_bytes - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A partial OS-level write leaves a torn record on disk exactly like
      // a crash would; poison so later appends cannot bury it.
      poisoned_ = written > 0;
      return PosixError("failed appending to journal", journal_path_);
    }
    written += static_cast<size_t>(n);
  }
  if (options_.fsync_each_append && ::fsync(fd_) != 0) {
    poisoned_ = true;
    return PosixError("failed syncing journal", journal_path_);
  }
  if (kill_after_write) fault::KillProcess();
  if (poison_after_write) {
    poisoned_ = true;
    return Status::Internal(StrCat(
        "injected torn journal append: only ", write_bytes, " of ",
        bytes.size(), " bytes of the '", record.name,
        "' record were persisted before the simulated crash"));
  }

  ApplyLocked(record);
  ++appends_;
  ++records_since_compact_;
  Metrics().appends->Increment();
  Metrics().bytes->Increment(static_cast<long>(bytes.size()));
  Metrics().manifest_entries->Set(static_cast<double>(manifest_.size()));

  if (options_.compact_every > 0 &&
      records_since_compact_ >= options_.compact_every) {
    // The append itself succeeded and is durable; a failed auto-compaction
    // must not retroactively fail it. The journal just keeps growing until
    // a later compaction succeeds.
    if (Status compacted = CompactLocked(); !compacted.ok()) {
      Metrics().compact_failures->Increment();
    }
  }
  return Status::OK();
}

std::string RegistryJournal::SerializeManifestLocked() const {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  Put<uint32_t>(out, kFormatVersion);
  Put<uint32_t>(out, 0u);
  Put<uint64_t>(out, next_sequence_ - 1);
  Put<uint64_t>(out, static_cast<uint64_t>(manifest_.size()));
  for (const auto& [key, entry] : manifest_) {
    PutString(out, entry.name);
    Put<int32_t>(out, entry.version);
    Put<uint32_t>(out, entry.model_type);
    Put<int32_t>(out, entry.num_features);
    PutString(out, entry.artifact_path);
    PutString(out, entry.file_name);
    Put<int32_t>(out, entry.file_version);
    Put<uint8_t>(out, entry.pinned ? 1 : 0);
    Put<uint8_t>(out, entry.hot ? 1 : 0);
  }
  Put<uint64_t>(out, Fnv1a64(out));
  return out;
}

Status RegistryJournal::CompactLocked() {
  // Step 1: atomically publish the snapshot. It carries last_sequence, so
  // once it is in place every record currently in the journal is stale.
  QDB_RETURN_IF_ERROR(AtomicWriteFile(
      snapshot_path_, SerializeManifestLocked(), "journal.snapshot"));

  // The crash window chaos cares about most: snapshot durable, journal not
  // yet reset. Recovery must treat the whole old journal as stale.
  QDB_RETURN_IF_ERROR(
      fault::MaybeInject("store.journal.compact", dir_));

  // Step 2: atomically replace the journal with an empty header. The open
  // fd still points at the old inode, so close first and reopen after.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const Status reset =
      AtomicWriteFile(journal_path_, FileHeaderBytes(), "journal.reset");
  fd_ = ::open(journal_path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0) {
    poisoned_ = true;  // No fd: nothing can be appended safely anymore.
    return PosixError("cannot reopen journal after compaction",
                      journal_path_);
  }
  QDB_RETURN_IF_ERROR(reset);

  records_since_compact_ = 0;
  ++compactions_;
  Metrics().compactions->Increment();
  return Status::OK();
}

Status RegistryJournal::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition(
        "registry journal is in a simulated-crash state (torn append); "
        "reopen the journal to recover");
  }
  return CompactLocked();
}

std::vector<ManifestEntry> RegistryJournal::Manifest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ManifestEntry> out;
  out.reserve(manifest_.size());
  for (const auto& [key, entry] : manifest_) out.push_back(entry);
  return out;  // Map order is already (name, version).
}

RegistryJournal::Stats RegistryJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.appends = appends_;
  stats.compactions = compactions_;
  stats.records_since_compact = records_since_compact_;
  stats.next_sequence = next_sequence_;
  stats.poisoned = poisoned_;
  return stats;
}

}  // namespace store
}  // namespace qdb
