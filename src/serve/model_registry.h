/// \file model_registry.h
/// \brief Versioned store of servable models: register, look up (latest or
/// pinned version), evict, pin, and persist to / restore from disk under a
/// byte budget.
///
/// Registration turns an artifact into a ServableModel (validating it and
/// precomputing its inference path) and assigns the next version when the
/// artifact does not pin one. Lookups hand out shared_ptr<const
/// ServableModel>, so evicting a model never invalidates requests already
/// holding it — the servable dies when its last in-flight request drops it.
///
/// The registry is internally sharded into *slices* (FNV-1a of the model
/// name, all versions of a name on one slice), so artifact loads, cold
/// starts, and budget bookkeeping on one slice never serialize lookups on
/// another — the registry-side counterpart of the server's sharded request
/// queues. Each slice runs its own store::MemoryBudget: models that were
/// loaded from (or saved to) an artifact file can be paged out under
/// memory pressure and are transparently reloaded on the next Lookup (a
/// *cold start*, reported via the store.cold_start_us histogram), so a
/// registry holding thousands of versions serves with bounded RAM. Models
/// registered purely from memory have nowhere to reload from and are never
/// paged out (the budget is soft for them), and pinned models are resident
/// by fiat.
///
/// With RegistryOptions::journal_dir set, the registry is *durable*: every
/// control-plane transition (register, promote-to-file-backed, pin, unpin,
/// evict, budget page-out) is recorded write-ahead in a
/// store::RegistryJournal, and construction replays the directory's
/// snapshot + journal, rebuilding every previously file-backed entry as a
/// page-out — resident on first Lookup (or prefetched via
/// AsyncModelLoader / InferenceServer::StartWarmup). Entries that were
/// never promoted to a file have no durable artifact and are dropped on
/// recovery (never served as phantoms). Use OpenJournaled to surface
/// replay errors; the plain constructor records them in recovery_report().

#ifndef QDB_SERVE_MODEL_REGISTRY_H_
#define QDB_SERVE_MODEL_REGISTRY_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/retry.h"
#include "serve/model_artifact.h"
#include "serve/servable.h"
#include "store/memory_budget.h"
#include "store/registry_journal.h"

namespace qdb {
namespace serve {

/// Retry policy LoadModel uses by default: a few quick attempts covering
/// transient read failures and torn reads that race an in-progress save
/// (the writer renames a complete file into place between attempts).
RetryPolicy DefaultArtifactLoadRetry();

/// One row of ModelRegistry::List.
struct ModelEntry {
  std::string name;
  int version = 0;
  ModelType type = ModelType::kVqcClassifier;
  int num_features = 0;
  bool resident = true;  ///< false = paged out, reloads on next Lookup.
  bool pinned = false;
};

/// Construction-time knobs for the registry's storage tier.
struct RegistryOptions {
  /// Independent lock+budget slices (clamped to >= 1). Pair with the
  /// server's shard count to split artifact-load contention.
  int num_slices = 1;
  /// Total resident-bytes budget across all slices; 0 = unlimited. Each
  /// slice enforces budget/num_slices independently.
  size_t store_budget_bytes = 0;
  /// Crash-recovery journal directory (store/registry_journal.h). Empty =
  /// no journal: registry state dies with the process. Non-empty: durable
  /// mutations are journaled write-ahead and construction warm-restarts
  /// from the directory's snapshot + journal.
  std::string journal_dir;
  /// Auto-compact the journal into a snapshot after this many appends;
  /// <= 0 never auto-compacts.
  long journal_compact_every = 1024;
};

/// What a journaled registry's recovery found (recovery_report()).
struct RecoveryReport {
  /// True when the journal opened and replay succeeded; the registry is
  /// journaling. False with open_status non-OK = recovery failed and the
  /// registry is running UN-journaled (OpenJournaled turns that into a
  /// construction error); false with open_status OK = journaling was never
  /// requested.
  bool journaled = false;
  Status open_status;
  long recovered_models = 0;    ///< Durable entries rebuilt as page-outs.
  long dropped_nondurable = 0;  ///< Journaled but never promoted: dropped.
  long replayed_records = 0;
  long stale_records = 0;  ///< Skipped as already folded into the snapshot.
  bool tail_truncated = false;
  uint64_t snapshot_sequence = 0;
  long recovery_us = 0;  ///< Replay + rebuild time (store.recovery_us).
};

/// Aggregated storage-tier state, also surfaced in InferenceServer::Statusz.
struct StoreStatus {
  size_t budget_bytes = 0;    ///< 0 = unlimited.
  size_t resident_bytes = 0;  ///< Sum of resident servables' estimates.
  size_t registered_models = 0;
  size_t resident_models = 0;
  size_t evicted_models = 0;  ///< Registered but paged out.
  long evictions = 0;         ///< Budget-driven page-outs since construction.
  long reloads = 0;           ///< Cold-start reloads since construction.
  int num_slices = 1;
};

/// \brief Thread-safe, sliced name → version → servable map with a
/// byte-budgeted residency policy.
class ModelRegistry {
 public:
  ModelRegistry() : ModelRegistry(RegistryOptions{}) {}
  explicit ModelRegistry(const RegistryOptions& options);

  /// Opens a journaled registry: requires options.journal_dir, and turns a
  /// failed journal open / replay into a construction error instead of the
  /// plain constructor's silently-unjournaled fallback.
  static Result<std::unique_ptr<ModelRegistry>> OpenJournaled(
      const RegistryOptions& options);

  /// Validates and loads `artifact`. version == 0 assigns (highest existing
  /// version) + 1; an explicitly pinned version that already exists fails
  /// with kAlreadyExists. Returns the loaded servable (with its assigned
  /// version and stamped circuit fingerprint).
  Result<std::shared_ptr<const ServableModel>> Register(ModelArtifact artifact);

  /// Looks up a model; version < 0 means "latest registered version". A
  /// paged-out model is reloaded from its artifact file on the spot (the
  /// cold-start path): the caller blocks for the reload, concurrent
  /// lookups of the same version wait for that one reload instead of
  /// stampeding the file, and — because the reload runs outside the slice
  /// lock — lookups of every other model proceed unaffected.
  Result<std::shared_ptr<const ServableModel>> Lookup(const std::string& name,
                                                      int version = -1) const;

  /// Removes one version, or every version when version < 0. Fails with
  /// kNotFound if nothing matched. In-flight requests holding the servable
  /// are unaffected.
  Status Evict(const std::string& name, int version = -1);

  /// Pins (or unpins) a version: pinned models are never paged out by the
  /// budget. kNotFound when the version is not registered.
  Status SetPinned(const std::string& name, int version, bool pinned);

  /// Every registered (name, version), sorted by name then version,
  /// including paged-out entries.
  std::vector<ModelEntry> List() const;

  /// Number of registered (name, version) pairs.
  size_t size() const;

  /// Serializes one registered model's artifact to `path` (crash-safe). On
  /// success the version becomes file-backed: it is now evictable under the
  /// budget and reloadable from `path`.
  Status SaveModel(const std::string& name, int version,
                   const std::string& path) const;

  /// Loads an artifact file and registers it. The file's version is kept
  /// if free, otherwise registration fails with kAlreadyExists; pass
  /// reassign_version to force "next version" semantics instead. The read
  /// is retried under `retry` so a load racing a crash-safe save (or an
  /// injected transient fault) settles on the complete artifact. The
  /// registered version is file-backed (evictable).
  Result<std::shared_ptr<const ServableModel>> LoadModel(
      const std::string& path, bool reassign_version = false,
      const RetryPolicy& retry = DefaultArtifactLoadRetry());

  /// Aggregated storage-tier counters across all slices.
  StoreStatus store_status() const;

  /// How the last construction's journal recovery went (all-zero defaults
  /// when journaling was never requested).
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// The (name, version) pairs worth prefetching after a warm restart:
  /// recovered entries that were pinned or resident when last journaled.
  /// Empty for unjournaled registries.
  std::vector<std::pair<std::string, int>> RecoveredWarmSet() const {
    return recovered_warm_;
  }

  /// The journal (null when not journaling) — introspection only.
  const store::RegistryJournal* journal() const { return journal_.get(); }

  const RegistryOptions& options() const { return options_; }
  int num_slices() const { return static_cast<int>(slices_.size()); }

 private:
  struct Entry {
    /// Null when paged out; reloaded from artifact_path on demand.
    std::shared_ptr<const ServableModel> servable;
    /// Cached so List() works while paged out.
    ModelType type = ModelType::kVqcClassifier;
    int num_features = 0;
    /// Empty = in-memory only: never evictable, nowhere to reload from.
    std::string artifact_path;
    /// Identity the artifact *file* holds, recorded when the entry became
    /// file-backed. May lag the registered version (reassign_version loads
    /// and files stored with version 0); reloads validate against this,
    /// then serve under the registered (name, version).
    std::string file_name;
    int file_version = 0;
    size_t resident_bytes = 0;
    bool pinned = false;
    /// True while one Lookup reloads this entry off-lock; concurrent
    /// lookups of the same version wait on Slice::cv instead of stampeding
    /// the file or stalling the slice.
    bool loading = false;
  };
  struct Slice {
    explicit Slice(size_t budget_bytes) : budget(budget_bytes) {}
    mutable std::mutex mu;
    /// Signalled whenever a cold-start reload settles (install or failure)
    /// so waiters re-resolve their entry.
    mutable std::condition_variable cv;
    std::map<std::string, std::map<int, Entry>> models;
    store::MemoryBudget budget;
    long evictions = 0;
    long reloads = 0;
  };

  Slice& SliceFor(const std::string& name) const;
  /// Loads + validates + builds a servable for a paged-out entry. Runs
  /// WITHOUT the slice lock (file I/O, retry backoff, and circuit builds
  /// must not stall the slice); the caller holds the entry's loading latch.
  Result<std::shared_ptr<const ServableModel>> ColdStartLoad(
      const std::string& path, const std::string& name, int version,
      const std::string& file_name, int file_version) const;
  /// Pages out LRU victims until the slice fits its budget (protecting
  /// `protect_key`, the entry just touched). Slice lock held.
  void EnforceBudgetLocked(Slice& slice, const std::string& protect_key) const;
  /// Marks a registered version file-backed after a successful save/load.
  /// (`file_name`, `file_version`) is the identity stored in the file at
  /// `path`, which reloads are validated against. Journaled write-ahead
  /// (the promote event IS the durability point); a failed journal append
  /// leaves the entry in-memory-only and propagates the error.
  Status MarkFileBacked(const std::string& name, int version,
                        const std::string& path,
                        const std::string& file_name,
                        int file_version) const;
  void PublishGauges() const;

  /// Journals one event; OK no-op when not journaling.
  Status JournalAppend(store::JournalEvent event, const std::string& name,
                       int version, ModelType type, int num_features,
                       const std::string& path = std::string(),
                       const std::string& file_name = std::string(),
                       int file_version = 0) const;
  /// Opens options_.journal_dir, replays it, and rebuilds every durable
  /// entry as a file-backed page-out. Called once from the constructor;
  /// fills recovery_ (including the failure mode: open_status non-OK and
  /// the registry left un-journaled).
  void RecoverFromJournal();

  RegistryOptions options_;
  std::vector<std::unique_ptr<Slice>> slices_;
  /// Non-null = journaling. The journal has its own internal lock and
  /// never calls back into the registry, so appending while holding a
  /// slice lock cannot deadlock (lock order: slice.mu → journal.mu).
  std::unique_ptr<store::RegistryJournal> journal_;
  RecoveryReport recovery_;
  std::vector<std::pair<std::string, int>> recovered_warm_;
};

}  // namespace serve
}  // namespace qdb

#endif  // QDB_SERVE_MODEL_REGISTRY_H_
