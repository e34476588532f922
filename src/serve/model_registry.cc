#include "serve/model_registry.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"
#include "store/binary_format.h"

namespace qdb {
namespace serve {

namespace {

obs::Gauge* RegisteredGauge() {
  static obs::Gauge* gauge = obs::GetGauge("serve.registry_models");
  return gauge;
}

obs::Gauge* ResidentBytesGauge() {
  static obs::Gauge* gauge = obs::GetGauge("store.resident_bytes");
  return gauge;
}

obs::Gauge* BudgetBytesGauge() {
  static obs::Gauge* gauge = obs::GetGauge("store.budget_bytes");
  return gauge;
}

obs::Gauge* ResidentModelsGauge() {
  static obs::Gauge* gauge = obs::GetGauge("store.resident_models");
  return gauge;
}

obs::Counter* EvictionsCounter() {
  static obs::Counter* counter = obs::GetCounter("store.evictions");
  return counter;
}

obs::Counter* ReloadsCounter() {
  static obs::Counter* counter = obs::GetCounter("store.reloads");
  return counter;
}

/// Cold-start latency (µs): artifact read + parse + servable build when a
/// Lookup hits a paged-out model.
obs::Histogram* ColdStartHistogram() {
  static obs::Histogram* histogram = obs::GetHistogram(
      "store.cold_start_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
       250000, 1000000});
  return histogram;
}

/// Warm-restart latency (µs): journal replay + entry-table rebuild in the
/// recovery constructor (prefetch time is separate — see StartWarmup).
obs::Histogram* RecoveryHistogram() {
  static obs::Histogram* histogram = obs::GetHistogram(
      "store.recovery_us",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000,
       1000000, 5000000});
  return histogram;
}

std::string EntryKey(const std::string& name, int version) {
  return StrCat(name, ":", version);
}

/// Inverse of EntryKey. The version is everything after the *last* colon,
/// so model names containing ':' survive the round trip.
void SplitEntryKey(const std::string& key, std::string& name, int& version) {
  const size_t colon = key.rfind(':');
  name = key.substr(0, colon);
  version = std::stoi(key.substr(colon + 1));
}

}  // namespace

RetryPolicy DefaultArtifactLoadRetry() {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 1000;
  policy.max_backoff_us = 20000;
  // A torn read of a file being rewritten surfaces as kInvalidArgument
  // ("artifact corrupted") or kNotFound (tmp not yet renamed), not just
  // kUnavailable — all three are worth one more look.
  policy.retryable = [](const Status& status) {
    return status.code() == StatusCode::kUnavailable ||
           status.code() == StatusCode::kNotFound ||
           status.code() == StatusCode::kInvalidArgument;
  };
  return policy;
}

ModelRegistry::ModelRegistry(const RegistryOptions& options)
    : options_(options) {
  options_.num_slices = std::max(1, options_.num_slices);
  const size_t n = static_cast<size_t>(options_.num_slices);
  // Each slice enforces an equal share of the budget independently, so
  // slices never take each other's locks. A nonzero budget smaller than
  // the slice count still budgets each slice (1 byte ≠ unlimited).
  const size_t per_slice =
      options_.store_budget_bytes == 0
          ? 0
          : std::max<size_t>(1, options_.store_budget_bytes / n);
  slices_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slices_.push_back(std::make_unique<Slice>(per_slice));
  }
  BudgetBytesGauge()->Set(static_cast<double>(options_.store_budget_bytes));
  // Register the cold-start and recovery histograms with their µs bounds
  // now, before any later GetHistogram call (e.g. Statusz) could claim the
  // names with default bounds.
  ColdStartHistogram();
  RecoveryHistogram();
  if (!options_.journal_dir.empty()) RecoverFromJournal();
}

Result<std::unique_ptr<ModelRegistry>> ModelRegistry::OpenJournaled(
    const RegistryOptions& options) {
  if (options.journal_dir.empty()) {
    return Status::InvalidArgument(
        "OpenJournaled requires options.journal_dir");
  }
  auto registry = std::make_unique<ModelRegistry>(options);
  if (!registry->recovery_.journaled) return registry->recovery_.open_status;
  return registry;
}

void ModelRegistry::RecoverFromJournal() {
  const auto start = std::chrono::steady_clock::now();
  store::JournalOptions journal_options;
  journal_options.compact_every = options_.journal_compact_every;
  Result<std::unique_ptr<store::RegistryJournal>> opened =
      store::RegistryJournal::Open(options_.journal_dir, journal_options);
  if (!opened.ok()) {
    recovery_.open_status = opened.status();
    return;
  }
  journal_ = std::move(opened).value();
  recovery_.journaled = true;
  const store::JournalRecoveryStats& replay = journal_->recovery_stats();
  recovery_.replayed_records = replay.replayed_records;
  recovery_.stale_records = replay.stale_records;
  recovery_.tail_truncated = replay.tail_truncated;
  recovery_.snapshot_sequence = replay.snapshot_sequence;

  // Rebuild durable entries as file-backed page-outs: servable == nullptr,
  // reload-on-Lookup, exactly as if the budget had paged them out moments
  // ago. The constructor runs single-threaded, but taking the slice locks
  // costs nothing and keeps the invariants uniform.
  std::vector<store::ManifestEntry> dropped;
  for (const store::ManifestEntry& m : journal_->Manifest()) {
    const bool valid_type =
        m.model_type <= static_cast<uint32_t>(ModelType::kQuboConfig);
    if (m.artifact_path.empty() || !valid_type) {
      // Registered but never promoted (or undecodable): there is no durable
      // artifact to rebuild from. Dropping it here is the no-phantom
      // guarantee — an entry that cannot be served must not exist.
      ++recovery_.dropped_nondurable;
      dropped.push_back(m);
      continue;
    }
    Slice& slice = SliceFor(m.name);
    std::lock_guard<std::mutex> lock(slice.mu);
    Entry entry;
    entry.type = static_cast<ModelType>(m.model_type);
    entry.num_features = m.num_features;
    entry.artifact_path = m.artifact_path;
    entry.file_name = m.file_name;
    entry.file_version = m.file_version;
    entry.pinned = m.pinned;
    slice.models[m.name][m.version] = std::move(entry);
    ++recovery_.recovered_models;
    if (m.pinned || m.hot) recovered_warm_.emplace_back(m.name, m.version);
  }
  // Prune the dropped entries from the journal's manifest too, or they
  // would ride every future snapshot as zombies and be re-dropped on every
  // recovery. Best-effort: a failed prune just postpones the cleanup.
  for (const store::ManifestEntry& m : dropped) {
    store::JournalRecord record;
    record.event = store::JournalEvent::kRemove;
    record.name = m.name;
    record.version = m.version;
    record.model_type = m.model_type;
    record.num_features = m.num_features;
    (void)journal_->Append(std::move(record));
  }

  recovery_.recovery_us = static_cast<long>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  RecoveryHistogram()->Observe(static_cast<double>(recovery_.recovery_us));
  PublishGauges();
}

Status ModelRegistry::JournalAppend(store::JournalEvent event,
                                    const std::string& name, int version,
                                    ModelType type, int num_features,
                                    const std::string& path,
                                    const std::string& file_name,
                                    int file_version) const {
  if (journal_ == nullptr) return Status::OK();
  store::JournalRecord record;
  record.event = event;
  record.name = name;
  record.version = version;
  record.model_type = static_cast<uint32_t>(type);
  record.num_features = num_features;
  record.artifact_path = path;
  record.file_name = file_name;
  record.file_version = file_version;
  return journal_->Append(std::move(record));
}

ModelRegistry::Slice& ModelRegistry::SliceFor(const std::string& name) const {
  return *slices_[Fnv1a64(name) % slices_.size()];
}

Result<std::shared_ptr<const ServableModel>> ModelRegistry::Register(
    ModelArtifact artifact) {
  if (artifact.name.empty()) {
    return Status::InvalidArgument("artifact has no name");
  }
  if (artifact.version < 0) {
    return Status::InvalidArgument("artifact version must be >= 0");
  }
  Slice& slice = SliceFor(artifact.name);
  // Resolve the version under the lock, but build the servable outside it:
  // Create() simulates support-vector encodings and compiles circuits,
  // which must not serialize against lookups. The slot is re-checked on
  // insert in case of a racing Register on the same name.
  int version = artifact.version;
  if (version == 0) {
    std::lock_guard<std::mutex> lock(slice.mu);
    auto it = slice.models.find(artifact.name);
    version = it == slice.models.end() || it->second.empty()
                  ? 1
                  : it->second.rbegin()->first + 1;
  }
  artifact.version = version;
  QDB_ASSIGN_OR_RETURN(std::shared_ptr<const ServableModel> servable,
                       ServableModel::Create(std::move(artifact)));
  {
    std::lock_guard<std::mutex> lock(slice.mu);
    auto& versions = slice.models[servable->name()];
    Entry entry;
    entry.servable = servable;
    entry.type = servable->type();
    entry.num_features = servable->num_features();
    entry.resident_bytes = servable->ResidentBytes();
    if (!versions.emplace(version, std::move(entry)).second) {
      return Status::AlreadyExists(
          StrCat("model '", servable->name(), "' version ", version,
                 " is already registered"));
    }
    // Write-ahead: the registration is only acknowledged once journaled.
    // On append failure the insert rolls back — a mutation the journal
    // never saw must not survive into a state replay cannot reproduce.
    if (Status journaled = JournalAppend(
            store::JournalEvent::kRegister, servable->name(), version,
            servable->type(), servable->num_features());
        !journaled.ok()) {
      versions.erase(version);
      if (versions.empty()) slice.models.erase(servable->name());
      return journaled;
    }
    const std::string key = EntryKey(servable->name(), version);
    // In-memory registrations have no artifact file to reload from, so
    // they are charged but never paged out (soft budget).
    slice.budget.Add(key, servable->ResidentBytes(), /*evictable=*/false);
    EnforceBudgetLocked(slice, key);
  }
  PublishGauges();
  return servable;
}

Result<std::shared_ptr<const ServableModel>> ModelRegistry::ColdStartLoad(
    const std::string& path, const std::string& name, int version,
    const std::string& file_name, int file_version) const {
  QDB_ASSIGN_OR_RETURN(
      ModelArtifact artifact,
      RetryResult<ModelArtifact>(
          DefaultArtifactLoadRetry(),
          [&path](int) -> Result<ModelArtifact> {
            return store::LoadArtifact(path);
          }));
  // The file must still hold the artifact this entry was registered from.
  // That identity was recorded at MarkFileBacked time and can lag the
  // registered version (reassign_version loads, files stored with version
  // 0); a swapped or repurposed artifact file must not serve under a stale
  // (name, version).
  if (artifact.name != file_name || artifact.version != file_version) {
    return Status::FailedPrecondition(
        StrCat("artifact file '", path, "' now holds '", artifact.name,
               "' v", artifact.version, ", not '", file_name, "' v",
               file_version, " — refusing to serve it as '", name, "' v",
               version));
  }
  // Serve under the registered identity, exactly as Register stamped it.
  artifact.name = name;
  artifact.version = version;
  return ServableModel::Create(std::move(artifact));
}

Result<std::shared_ptr<const ServableModel>> ModelRegistry::Lookup(
    const std::string& name, int version) const {
  Slice& slice = SliceFor(name);
  std::string path, file_name;
  int resolved_version = 0, file_version = 0;
  {
    std::unique_lock<std::mutex> lock(slice.mu);
    for (;;) {
      auto it = slice.models.find(name);
      if (it == slice.models.end() || it->second.empty()) {
        return Status::NotFound(StrCat("no model named '", name, "'"));
      }
      std::map<int, Entry>::iterator vit;
      if (version < 0) {
        vit = std::prev(it->second.end());
      } else {
        vit = it->second.find(version);
        if (vit == it->second.end()) {
          return Status::NotFound(
              StrCat("model '", name, "' has no version ", version));
        }
      }
      Entry& entry = vit->second;
      if (entry.servable != nullptr) {
        slice.budget.Touch(EntryKey(name, vit->first));
        return entry.servable;
      }
      if (entry.artifact_path.empty()) {
        return Status::Internal(
            StrCat("model '", name, "' version ", vit->first,
                   " is paged out but has no artifact path"));
      }
      if (!entry.loading) {
        // Claim the cold start: this thread reloads, off-lock.
        entry.loading = true;
        path = entry.artifact_path;
        file_name = entry.file_name;
        file_version = entry.file_version;
        resolved_version = vit->first;
        break;
      }
      // Another lookup is already reloading this version. Wait for it to
      // settle, then re-resolve from scratch — by the time we wake the
      // entry may be resident, failed (we retry the claim), or erased.
      slice.cv.wait(lock);
    }
  }
  // Cold start: the budget paged this version out. File I/O, retry
  // backoff, and the servable build all run outside the slice lock, so a
  // slow or failing artifact only stalls lookups of this model — the rest
  // of the slice keeps serving. The loading latch above keeps concurrent
  // lookups of the same version from stampeding the file.
  const auto start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const ServableModel>> result =
      ColdStartLoad(path, name, resolved_version, file_name, file_version);
  {
    std::lock_guard<std::mutex> lock(slice.mu);
    auto it = slice.models.find(name);
    if (it != slice.models.end()) {
      auto vit = it->second.find(resolved_version);
      if (vit != it->second.end()) {
        Entry& entry = vit->second;
        entry.loading = false;
        // Install unless the entry was concurrently erased (Evict) — the
        // caller still gets the servable it loaded either way.
        if (result.ok() && entry.servable == nullptr) {
          entry.servable = result.value();
          entry.resident_bytes = result.value()->ResidentBytes();
          const std::string key = EntryKey(name, resolved_version);
          slice.budget.Add(key, entry.resident_bytes, /*evictable=*/true,
                           entry.pinned);
          slice.reloads++;
          ReloadsCounter()->Increment();
          ColdStartHistogram()->Observe(static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()));
          EnforceBudgetLocked(slice, key);
        }
      }
    }
  }
  slice.cv.notify_all();
  // Gauges refresh only after a cold start (outside the slice lock —
  // PublishGauges walks every slice); the warm path stays lock-light.
  if (result.ok()) PublishGauges();
  return result;
}

void ModelRegistry::EnforceBudgetLocked(
    Slice& slice, const std::string& protect_key) const {
  for (const std::string& victim : slice.budget.PlanEvictions(protect_key)) {
    std::string name;
    int version = 0;
    SplitEntryKey(victim, name, version);
    auto it = slice.models.find(name);
    if (it == slice.models.end()) continue;
    auto vit = it->second.find(version);
    if (vit == it->second.end()) continue;
    vit->second.servable.reset();
    vit->second.resident_bytes = 0;
    slice.budget.Drop(victim);
    slice.evictions++;
    EvictionsCounter()->Increment();
    // Best-effort residency hint for recovery's prefetch set: a failed
    // append only costs warm-restart freshness, never correctness, so it
    // must not fail the eviction that already happened.
    (void)JournalAppend(store::JournalEvent::kEvictToDisk, name, version,
                        vit->second.type, vit->second.num_features);
  }
}

Status ModelRegistry::Evict(const std::string& name, int version) {
  Slice& slice = SliceFor(name);
  {
    std::lock_guard<std::mutex> lock(slice.mu);
    auto it = slice.models.find(name);
    if (it == slice.models.end() || it->second.empty()) {
      return Status::NotFound(StrCat("no model named '", name, "'"));
    }
    if (version < 0) {
      // Write-ahead: journal the remove before applying it, so a crash
      // between the two replays the remove (an acknowledged removal must
      // not resurrect). The inverse crash — removed in memory but not in
      // the journal — can never happen with this order.
      const Entry& first = it->second.begin()->second;
      QDB_RETURN_IF_ERROR(JournalAppend(store::JournalEvent::kRemove, name,
                                        -1, first.type,
                                        first.num_features));
      for (const auto& [v, entry] : it->second) {
        slice.budget.Drop(EntryKey(name, v));
      }
      slice.models.erase(it);
    } else {
      auto vit = it->second.find(version);
      if (vit == it->second.end()) {
        return Status::NotFound(
            StrCat("model '", name, "' has no version ", version));
      }
      QDB_RETURN_IF_ERROR(JournalAppend(store::JournalEvent::kRemove, name,
                                        version, vit->second.type,
                                        vit->second.num_features));
      it->second.erase(vit);
      slice.budget.Drop(EntryKey(name, version));
      if (it->second.empty()) slice.models.erase(it);
    }
  }
  PublishGauges();
  return Status::OK();
}

Status ModelRegistry::SetPinned(const std::string& name, int version,
                                bool pinned) {
  Slice& slice = SliceFor(name);
  {
    std::lock_guard<std::mutex> lock(slice.mu);
    auto it = slice.models.find(name);
    if (it == slice.models.end()) {
      return Status::NotFound(StrCat("no model named '", name, "'"));
    }
    auto vit = it->second.find(version);
    if (vit == it->second.end()) {
      return Status::NotFound(
          StrCat("model '", name, "' has no version ", version));
    }
    QDB_RETURN_IF_ERROR(JournalAppend(
        pinned ? store::JournalEvent::kPin : store::JournalEvent::kUnpin,
        name, version, vit->second.type, vit->second.num_features));
    vit->second.pinned = pinned;
    slice.budget.SetPinned(EntryKey(name, version), pinned);
    // Unpinning may make an over-budget slice collectable again.
    if (!pinned) EnforceBudgetLocked(slice, "");
  }
  PublishGauges();
  return Status::OK();
}

std::vector<ModelEntry> ModelRegistry::List() const {
  std::vector<ModelEntry> out;
  for (const auto& slice : slices_) {
    std::lock_guard<std::mutex> lock(slice->mu);
    for (const auto& [name, versions] : slice->models) {
      for (const auto& [version, entry] : versions) {
        ModelEntry row;
        row.name = name;
        row.version = version;
        row.type = entry.type;
        row.num_features = entry.num_features;
        row.resident = entry.servable != nullptr;
        row.pinned = entry.pinned;
        out.push_back(std::move(row));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ModelEntry& a, const ModelEntry& b) {
              return a.name != b.name ? a.name < b.name
                                      : a.version < b.version;
            });
  return out;
}

size_t ModelRegistry::size() const {
  size_t n = 0;
  for (const auto& slice : slices_) {
    std::lock_guard<std::mutex> lock(slice->mu);
    for (const auto& [name, versions] : slice->models) n += versions.size();
  }
  return n;
}

Status ModelRegistry::MarkFileBacked(const std::string& name, int version,
                                     const std::string& path,
                                     const std::string& file_name,
                                     int file_version) const {
  Slice& slice = SliceFor(name);
  std::lock_guard<std::mutex> lock(slice.mu);
  auto it = slice.models.find(name);
  if (it == slice.models.end()) return Status::OK();
  auto vit = it->second.find(version);
  if (vit == it->second.end()) return Status::OK();
  Entry& entry = vit->second;
  // Promote is THE durability point: only journaled-promoted entries are
  // rebuilt on recovery. Write-ahead — a failed append leaves the entry
  // in-memory-only (still servable now, not recoverable later) and the
  // caller's save/load reports the failure.
  QDB_RETURN_IF_ERROR(JournalAppend(store::JournalEvent::kPromote, name,
                                    version, entry.type, entry.num_features,
                                    path, file_name, file_version));
  entry.artifact_path = path;
  entry.file_name = file_name;
  entry.file_version = file_version;
  if (entry.servable != nullptr) {
    const std::string key = EntryKey(name, version);
    slice.budget.Add(key, entry.resident_bytes, /*evictable=*/true,
                     entry.pinned);
    // Now that this entry is reloadable it may be paged out — but not
    // immediately after the save/load that created it.
    EnforceBudgetLocked(slice, key);
  }
  return Status::OK();
}

Status ModelRegistry::SaveModel(const std::string& name, int version,
                                const std::string& path) const {
  QDB_ASSIGN_OR_RETURN(std::shared_ptr<const ServableModel> servable,
                       Lookup(name, version));
  QDB_RETURN_IF_ERROR(store::SaveArtifact(servable->artifact(), path));
  // The file was written from the registered artifact, so the file identity
  // IS the registered identity.
  QDB_RETURN_IF_ERROR(MarkFileBacked(name, servable->version(), path,
                                     servable->name(),
                                     servable->version()));
  PublishGauges();
  return Status::OK();
}

Result<std::shared_ptr<const ServableModel>> ModelRegistry::LoadModel(
    const std::string& path, bool reassign_version,
    const RetryPolicy& retry) {
  QDB_ASSIGN_OR_RETURN(
      ModelArtifact artifact,
      RetryResult<ModelArtifact>(
          retry, [&path](int) -> Result<ModelArtifact> {
            // Fault point "artifact.load" (scoped by path) sits inside the
            // retry loop, so injected transient errors exercise it;
            // store::LoadArtifact adds the lower-level "store.read" point.
            QDB_RETURN_IF_ERROR(
                fault::MaybeInject("artifact.load", path));
            return store::LoadArtifact(path);
          }));
  // Remember the identity the file actually holds *before* Register
  // reassigns or auto-assigns the registered version: reloads after a
  // page-out re-read this same file and must match it as-is on disk.
  const std::string file_name = artifact.name;
  const int file_version = artifact.version;
  if (reassign_version) artifact.version = 0;
  QDB_ASSIGN_OR_RETURN(std::shared_ptr<const ServableModel> servable,
                       Register(std::move(artifact)));
  QDB_RETURN_IF_ERROR(MarkFileBacked(servable->name(), servable->version(),
                                     path, file_name, file_version));
  PublishGauges();
  return servable;
}

StoreStatus ModelRegistry::store_status() const {
  StoreStatus status;
  status.budget_bytes = options_.store_budget_bytes;
  status.num_slices = static_cast<int>(slices_.size());
  for (const auto& slice : slices_) {
    std::lock_guard<std::mutex> lock(slice->mu);
    status.resident_bytes += slice->budget.resident_bytes();
    status.evictions += slice->evictions;
    status.reloads += slice->reloads;
    for (const auto& [name, versions] : slice->models) {
      for (const auto& [version, entry] : versions) {
        status.registered_models++;
        if (entry.servable != nullptr) {
          status.resident_models++;
        } else {
          status.evicted_models++;
        }
      }
    }
  }
  return status;
}

void ModelRegistry::PublishGauges() const {
  const StoreStatus status = store_status();
  RegisteredGauge()->Set(static_cast<double>(status.registered_models));
  ResidentBytesGauge()->Set(static_cast<double>(status.resident_bytes));
  ResidentModelsGauge()->Set(static_cast<double>(status.resident_models));
  BudgetBytesGauge()->Set(static_cast<double>(status.budget_bytes));
}

}  // namespace serve
}  // namespace qdb
