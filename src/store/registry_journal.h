/// \file registry_journal.h
/// \brief Append-only, per-record-checksummed journal of model-registry
/// control-plane events, with snapshot compaction — the durability layer
/// that lets a ModelRegistry warm-restart after a crash.
///
/// Artifact *payloads* already survive power loss (binary_format.h writes
/// them crash-safely), but the registry that knows they exist — names,
/// versions, pins, residency — used to die with the process. The journal
/// records every durable control-plane transition write-ahead:
///
///   register       a (name, version) exists (not yet durable on its own)
///   promote        the version became file-backed: artifact path + the
///                  identity stored inside the file (this is the durability
///                  point — an entry never promoted cannot be rebuilt)
///   evict-to-disk  the budget paged the version out (a residency hint:
///                  recovery skips prefetching models that were already cold)
///   pin / unpin    residency-by-fiat toggles
///   remove         the version (or every version of the name) was evicted
///
/// On-disk layout in the journal directory (all integers little-endian):
///
///   journal.log       [ 0.. 8) magic "QDBJRNL1"
///                     [ 8..12) u32 format_version (1)
///                     [12..16) u32 reserved (0)
///                     then records, each:
///                       u32 payload_size
///                       u64 payload FNV-1a checksum
///                       payload: u32 event, u64 sequence, i32 version,
///                                u32 model_type, i32 num_features,
///                                i32 file_version, then name /
///                                artifact_path / file_name as
///                                u32-length-prefixed strings
///   manifest.snapshot "QDBMANI1" header, u64 last_sequence, the
///                     materialized entries, and a trailing whole-file
///                     FNV-1a checksum; written via AtomicWriteFile, so it
///                     is only ever absent or complete.
///
/// Replay is torn-tail-tolerant: records are applied in order until the
/// first short, oversized, or checksum-failing record, at which point the
/// tail is *truncated* — a crash mid-append loses at most the unacknowledged
/// record being written, never a prefix, and never resurrects damaged
/// bytes. Records whose sequence is <= the snapshot's last_sequence are
/// skipped as stale, which makes compaction crash-safe at every step: the
/// snapshot rename and the journal reset are separately atomic, and dying
/// between them just means the next replay skips the whole old journal.
///
/// Fault points: "store.journal.append" (scoped by model name; torn_write
/// persists a record prefix and poisons the journal like a crashed writer,
/// kill persists a prefix then SIGKILLs), "store.journal.replay" (scoped by
/// the directory; torn_write models a lost tail), and
/// "store.journal.compact" (the window between snapshot and journal reset).
/// Compaction's two file writes additionally run through "artifact.save"
/// with scopes "journal.snapshot" and "journal.reset".

#ifndef QDB_STORE_REGISTRY_JOURNAL_H_
#define QDB_STORE_REGISTRY_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qdb {
namespace store {

/// Control-plane transitions the journal records. Values are the on-disk
/// encoding — append-only, never renumber.
enum class JournalEvent : uint32_t {
  kRegister = 1,
  kPromote = 2,
  kEvictToDisk = 3,
  kPin = 4,
  kUnpin = 5,
  kRemove = 6,
};

/// \brief One journal record. Callers fill everything but `sequence`,
/// which Append assigns monotonically.
struct JournalRecord {
  JournalEvent event = JournalEvent::kRegister;
  uint64_t sequence = 0;
  std::string name;
  /// For kRemove, version < 0 removes every version of `name`.
  int version = 0;
  /// serve::ModelType as its underlying value — the journal stays below the
  /// serve layer and never interprets it.
  uint32_t model_type = 0;
  int num_features = 0;
  std::string artifact_path;  ///< kPromote: where the artifact lives.
  std::string file_name;      ///< kPromote: identity stored in the file.
  int file_version = 0;       ///< kPromote: version stored in the file.
};

/// \brief The materialized state of one (name, version) after replay.
struct ManifestEntry {
  std::string name;
  int version = 0;
  uint32_t model_type = 0;
  int num_features = 0;
  /// Empty = registered but never promoted: there is no durable artifact to
  /// rebuild this entry from, and recovery must drop it (never serve a
  /// phantom).
  std::string artifact_path;
  std::string file_name;
  int file_version = 0;
  bool pinned = false;
  /// False once the budget paged the version out (and no later event made
  /// it resident again) — recovery's prefetch hint.
  bool hot = true;
};

/// \brief What Open's replay found and did.
struct JournalRecoveryStats {
  uint64_t snapshot_sequence = 0;  ///< 0 = no snapshot existed.
  long snapshot_entries = 0;
  long replayed_records = 0;  ///< Journal records applied (seq > snapshot).
  long stale_records = 0;     ///< Skipped: already folded into the snapshot.
  bool tail_truncated = false;
  size_t truncated_bytes = 0;  ///< Damaged tail bytes discarded.
};

struct JournalOptions {
  /// Append auto-compacts after this many records since the last snapshot;
  /// <= 0 compacts only on explicit Compact() calls.
  long compact_every = 1024;
  /// fsync the journal fd after every append. Control-plane rates are low;
  /// the fsync is what makes an acknowledged append survive power loss, not
  /// just process death (the page cache already survives SIGKILL).
  bool fsync_each_append = true;
};

/// \brief The journal itself. Thread-safe; one writer lock serializes
/// appends and compactions.
class RegistryJournal {
 public:
  /// Opens (creating if needed) the journal in `dir`: loads the snapshot if
  /// one exists, replays the journal's valid prefix, truncates any torn
  /// tail, and leaves the file open for appends. A corrupt *snapshot* fails
  /// with kInvalidArgument (it was written atomically, so damage is real
  /// corruption, not a crash artifact); a corrupt journal tail is expected
  /// crash debris and recovers silently.
  static Result<std::unique_ptr<RegistryJournal>> Open(
      const std::string& dir, const JournalOptions& options = {});

  ~RegistryJournal();

  RegistryJournal(const RegistryJournal&) = delete;
  RegistryJournal& operator=(const RegistryJournal&) = delete;

  /// Appends one record (assigning its sequence), fsyncs, and applies it to
  /// the in-memory manifest. Write-ahead contract: callers apply the
  /// mutation to their own state only after Append returns OK. A failed
  /// append burns a sequence number, which replay tolerates (sequences must
  /// be monotone, not dense). After an injected torn append the journal is
  /// poisoned — every later Append fails with kFailedPrecondition, exactly
  /// as if the process had died mid-write — and only a fresh Open recovers.
  Status Append(JournalRecord record);

  /// Folds the manifest into manifest.snapshot (atomic rename), then resets
  /// journal.log to an empty header (also an atomic rename). Crash-safe at
  /// every step; see the file comment. Auto-invoked by Append every
  /// options.compact_every records.
  Status Compact();

  /// The materialized state, sorted by (name, version).
  std::vector<ManifestEntry> Manifest() const;

  const JournalRecoveryStats& recovery_stats() const { return recovery_; }

  struct Stats {
    long appends = 0;      ///< Successful appends since Open.
    long compactions = 0;  ///< Successful compactions since Open.
    long records_since_compact = 0;
    uint64_t next_sequence = 1;
    bool poisoned = false;  ///< Torn append left the file mid-record.
  };
  Stats stats() const;

  const std::string& journal_path() const { return journal_path_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

 private:
  RegistryJournal(std::string dir, const JournalOptions& options);

  /// Replays snapshot + journal into the manifest; called once by Open.
  Status Recover();
  Status CompactLocked();
  /// Applies one record to the materialized manifest map.
  void ApplyLocked(const JournalRecord& record);
  /// Serializes the manifest + last_sequence into snapshot bytes.
  std::string SerializeManifestLocked() const;

  const std::string dir_;
  const JournalOptions options_;
  const std::string journal_path_;
  const std::string snapshot_path_;

  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t next_sequence_ = 1;
  long records_since_compact_ = 0;
  long appends_ = 0;
  long compactions_ = 0;
  bool poisoned_ = false;
  std::map<std::pair<std::string, int>, ManifestEntry> manifest_;
  JournalRecoveryStats recovery_;
};

}  // namespace store
}  // namespace qdb

#endif  // QDB_STORE_REGISTRY_JOURNAL_H_
