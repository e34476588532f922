#include "store/binary_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/hash.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"

namespace qdb {
namespace store {

namespace {

using serve::ModelArtifact;
using serve::ModelType;

constexpr char kMagic[8] = {'Q', 'D', 'B', 'S', 'T', 'O', 'R', '1'};
// First bytes of every file in the removed line-oriented text format.
constexpr std::string_view kRemovedTextMagic = "qdb-model-artifact";
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderSize = 64;
constexpr size_t kTableEntrySize = 32;
constexpr size_t kAlignment = 64;

// Header field offsets (see binary_format.h for the layout diagram).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffSectionCount = 16;
constexpr size_t kOffFileSize = 24;
constexpr size_t kOffHeaderChecksum = 32;

enum SectionType : uint32_t {
  kSectionMeta = 1,
  kSectionParams = 2,
  kSectionFingerprint = 3,
  kSectionSupportVectors = 4,
  kSectionQuboConfig = 5,
};

// Plausibility caps, so a corrupted count can never turn into a giant
// allocation.
constexpr uint64_t kMaxVectorCount = 1ull << 24;
constexpr uint64_t kMaxConfigCount = 1ull << 20;
constexpr uint64_t kMaxFeatures = 1ull << 20;
constexpr uint32_t kMaxSections = 64;

// --- little-endian scalar append/read (native layout on every platform we
// build for; the format is defined as little-endian) -------------------------

template <typename T>
void Put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void PutAt(std::string& out, size_t offset, T v) {
  std::memcpy(&out[offset], &v, sizeof(T));
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

Status Corrupted(const std::string& what) {
  return Status::InvalidArgument(
      StrCat("binary artifact corrupted: ", what));
}

struct Section {
  uint32_t type = 0;
  std::string payload;
};

std::string BuildMetaSection(const ModelArtifact& a) {
  std::string s;
  s.reserve(64 + a.name.size());
  Put<uint32_t>(s, static_cast<uint32_t>(a.type));
  Put<int32_t>(s, a.version);
  Put<int32_t>(s, a.num_features);
  Put<uint32_t>(s, static_cast<uint32_t>(a.encoding));
  Put<int32_t>(s, a.ansatz_layers);
  Put<uint32_t>(s, static_cast<uint32_t>(a.entanglement));
  Put<uint32_t>(s, static_cast<uint32_t>(a.kernel_encoding));
  Put<int32_t>(s, a.kernel_reps);
  Put<double>(s, a.feature_scale);
  Put<double>(s, a.kernel_scale);
  Put<double>(s, a.bias);
  Put<uint32_t>(s, static_cast<uint32_t>(a.name.size()));
  Put<uint32_t>(s, 0u);  // reserved
  s += a.name;
  return s;
}

Status ParseMetaSection(const std::string& s, ModelArtifact& a) {
  constexpr size_t kMetaFixed = 64;
  if (s.size() < kMetaFixed) return Corrupted("meta section too small");
  uint32_t type = 0, encoding = 0, entanglement = 0, kernel_encoding = 0;
  uint32_t name_len = 0, reserved = 0;
  int32_t version = 0, num_features = 0, ansatz_layers = 0, kernel_reps = 0;
  Get(s, 0, type);
  Get(s, 4, version);
  Get(s, 8, num_features);
  Get(s, 12, encoding);
  Get(s, 16, ansatz_layers);
  Get(s, 20, entanglement);
  Get(s, 24, kernel_encoding);
  Get(s, 28, kernel_reps);
  Get(s, 32, a.feature_scale);
  Get(s, 40, a.kernel_scale);
  Get(s, 48, a.bias);
  Get(s, 56, name_len);
  Get(s, 60, reserved);
  if (type > static_cast<uint32_t>(ModelType::kQuboConfig)) {
    return Corrupted("unknown model type");
  }
  if (encoding > static_cast<uint32_t>(VqcEncoding::kReuploading)) {
    return Corrupted("unknown encoding");
  }
  if (entanglement > static_cast<uint32_t>(Entanglement::kFull)) {
    return Corrupted("unknown entanglement");
  }
  if (kernel_encoding >
      static_cast<uint32_t>(serve::KernelEncodingKind::kZZFeatureMap)) {
    return Corrupted("unknown kernel encoding");
  }
  if (reserved != 0) return Corrupted("nonzero meta reserved field");
  if (num_features < 0 ||
      static_cast<uint64_t>(num_features) > kMaxFeatures) {
    return Corrupted("implausible feature count");
  }
  if (name_len != s.size() - kMetaFixed) {
    return Corrupted("meta name length does not match section size");
  }
  a.type = static_cast<ModelType>(type);
  a.version = version;
  a.num_features = num_features;
  a.encoding = static_cast<VqcEncoding>(encoding);
  a.ansatz_layers = ansatz_layers;
  a.entanglement = static_cast<Entanglement>(entanglement);
  a.kernel_encoding = static_cast<serve::KernelEncodingKind>(kernel_encoding);
  a.kernel_reps = kernel_reps;
  a.name = s.substr(kMetaFixed, name_len);
  return Status::OK();
}

std::string BuildParamsSection(const ModelArtifact& a) {
  std::string s;
  s.reserve(8 + a.params.size() * sizeof(double));
  Put<uint64_t>(s, a.params.size());
  s.append(reinterpret_cast<const char*>(a.params.data()),
           a.params.size() * sizeof(double));
  return s;
}

Status ParseParamsSection(const std::string& s, ModelArtifact& a) {
  uint64_t count = 0;
  if (!Get(s, 0, count)) return Corrupted("params section too small");
  if (count > kMaxVectorCount) return Corrupted("implausible params count");
  if (s.size() != 8 + count * sizeof(double)) {
    return Corrupted("params section size does not match its count");
  }
  a.params.resize(static_cast<size_t>(count));
  // An empty vector's data() may be null, and memcpy needs valid pointers
  // even for zero bytes.
  if (count > 0) {
    std::memcpy(a.params.data(), s.data() + 8, count * sizeof(double));
  }
  return Status::OK();
}

// Support vectors are stored SoA — all m coefficients, then the m×d feature
// matrix row-major — so loading is two memcpys instead of m row parses.
std::string BuildSupportVectorSection(const ModelArtifact& a) {
  const size_t m = a.support_vectors.size();
  const size_t d = static_cast<size_t>(a.num_features);
  std::string s;
  s.reserve(8 + m * (d + 1) * sizeof(double));
  Put<uint64_t>(s, m);
  for (const auto& sv : a.support_vectors) Put<double>(s, sv.coeff);
  for (const auto& sv : a.support_vectors) {
    s.append(reinterpret_cast<const char*>(sv.features.data()),
             sv.features.size() * sizeof(double));
  }
  return s;
}

Status ParseSupportVectorSection(const std::string& s, ModelArtifact& a) {
  uint64_t m = 0;
  if (!Get(s, 0, m)) return Corrupted("support-vector section too small");
  if (m > kMaxVectorCount) {
    return Corrupted("implausible support-vector count");
  }
  const uint64_t d = static_cast<uint64_t>(a.num_features);
  if (s.size() != 8 + m * (d + 1) * sizeof(double)) {
    return Corrupted("support-vector section size does not match its count");
  }
  a.support_vectors.resize(static_cast<size_t>(m));
  const char* coeffs = s.data() + 8;
  const char* features = coeffs + m * sizeof(double);
  for (uint64_t i = 0; i < m; ++i) {
    auto& sv = a.support_vectors[static_cast<size_t>(i)];
    std::memcpy(&sv.coeff, coeffs + i * sizeof(double), sizeof(double));
    sv.features.resize(static_cast<size_t>(d));
    if (d > 0) {  // data() may be null when d == 0 (see ParseParamsSection).
      std::memcpy(sv.features.data(), features + i * d * sizeof(double),
                  d * sizeof(double));
    }
  }
  return Status::OK();
}

std::string BuildQuboConfigSection(const ModelArtifact& a) {
  std::string s;
  Put<uint64_t>(s, a.config.size());
  for (const auto& [key, value] : a.config) {
    Put<uint32_t>(s, static_cast<uint32_t>(key.size()));
    Put<uint32_t>(s, static_cast<uint32_t>(value.size()));
    s += key;
    s += value;
  }
  return s;
}

Status ParseQuboConfigSection(const std::string& s, ModelArtifact& a) {
  uint64_t count = 0;
  if (!Get(s, 0, count)) return Corrupted("config section too small");
  // Each entry takes at least 9 bytes (two lengths and a nonempty key), so
  // a count the payload cannot hold fails before anything is reserved.
  if (count > kMaxConfigCount || count > (s.size() - 8) / 9) {
    return Corrupted("implausible config count");
  }
  size_t cursor = 8;
  a.config.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t klen = 0, vlen = 0;
    if (!Get(s, cursor, klen) || !Get(s, cursor + 4, vlen)) {
      return Corrupted("config entry header out of range");
    }
    cursor += 8;
    if (klen == 0) return Corrupted("config entry has an empty key");
    if (cursor + static_cast<size_t>(klen) + vlen > s.size() ||
        cursor + static_cast<size_t>(klen) + vlen < cursor) {
      return Corrupted("config entry bytes out of range");
    }
    std::string key = s.substr(cursor, klen);
    cursor += klen;
    std::string value = s.substr(cursor, vlen);
    cursor += vlen;
    a.config.emplace_back(std::move(key), std::move(value));
  }
  if (cursor != s.size()) return Corrupted("config section has trailing data");
  return Status::OK();
}

bool HasPrefix(const std::string& bytes, std::string_view prefix) {
  return bytes.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::string SerializeBinary(const serve::ModelArtifact& artifact) {
  std::vector<Section> sections;
  sections.push_back({kSectionMeta, BuildMetaSection(artifact)});
  switch (artifact.type) {
    case ModelType::kVqcClassifier:
    case ModelType::kVqrRegressor: {
      sections.push_back({kSectionParams, BuildParamsSection(artifact)});
      std::string fp;
      Put<uint64_t>(fp, artifact.circuit_fingerprint);
      sections.push_back({kSectionFingerprint, std::move(fp)});
      break;
    }
    case ModelType::kKernelSvm:
      sections.push_back(
          {kSectionSupportVectors, BuildSupportVectorSection(artifact)});
      break;
    case ModelType::kQuboConfig:
      sections.push_back({kSectionQuboConfig, BuildQuboConfigSection(artifact)});
      break;
  }

  // Lay out payloads 64-byte aligned after the header + table.
  const size_t table_size = sections.size() * kTableEntrySize;
  size_t cursor = kHeaderSize + table_size;
  std::vector<size_t> offsets(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = (cursor + kAlignment - 1) / kAlignment * kAlignment;
    offsets[i] = cursor;
    cursor += sections[i].payload.size();
  }
  const size_t file_size = cursor;

  std::string out(kHeaderSize + table_size, '\0');
  std::memcpy(&out[kOffMagic], kMagic, sizeof(kMagic));
  PutAt<uint32_t>(out, kOffVersion, kFormatVersion);
  PutAt<uint32_t>(out, kOffFlags, 0u);
  PutAt<uint32_t>(out, kOffSectionCount,
                  static_cast<uint32_t>(sections.size()));
  PutAt<uint64_t>(out, kOffFileSize, file_size);
  for (size_t i = 0; i < sections.size(); ++i) {
    const size_t entry = kHeaderSize + i * kTableEntrySize;
    PutAt<uint32_t>(out, entry, sections[i].type);
    PutAt<uint32_t>(out, entry + 4, 0u);  // reserved
    PutAt<uint64_t>(out, entry + 8, offsets[i]);
    PutAt<uint64_t>(out, entry + 16, sections[i].payload.size());
    PutAt<uint64_t>(out, entry + 24, Fnv1a64(sections[i].payload));
  }
  // The header checksum covers the header (checksum field zeroed, padding
  // included) and the section table, so any flipped byte there fails closed.
  PutAt<uint64_t>(out, kOffHeaderChecksum, Fnv1a64(out));

  out.resize(file_size, '\0');
  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(&out[offsets[i]], sections[i].payload.data(),
                sections[i].payload.size());
  }
  return out;
}

Result<serve::ModelArtifact> DeserializeBinary(const std::string& bytes) {
  if (!HasPrefix(bytes, std::string_view(kMagic, sizeof(kMagic)))) {
    if (HasPrefix(bytes, kRemovedTextMagic)) {
      return Status::Unimplemented(
          "text model artifact: the text format was removed; this build "
          "reads only the binary format (QDBSTOR1)");
    }
    return Status::InvalidArgument(
        "not a qdb binary artifact (bad magic header)");
  }
  if (bytes.size() < kHeaderSize) return Corrupted("truncated header");

  uint32_t version = 0, flags = 0, section_count = 0;
  uint64_t file_size = 0, stored_header_checksum = 0;
  Get(bytes, kOffVersion, version);
  Get(bytes, kOffFlags, flags);
  Get(bytes, kOffSectionCount, section_count);
  Get(bytes, kOffFileSize, file_size);
  Get(bytes, kOffHeaderChecksum, stored_header_checksum);

  if (section_count == 0 || section_count > kMaxSections) {
    return Corrupted("implausible section count");
  }
  const size_t table_end =
      kHeaderSize + static_cast<size_t>(section_count) * kTableEntrySize;
  if (bytes.size() < table_end) return Corrupted("truncated section table");

  // Verify the header+table checksum *before* trusting any other field
  // (including format_version): a flipped byte must read as corruption, not
  // as a mysterious future format.
  {
    std::string prefix = bytes.substr(0, table_end);
    PutAt<uint64_t>(prefix, kOffHeaderChecksum, 0ull);
    if (Fnv1a64(prefix) != stored_header_checksum) {
      return Corrupted("header checksum mismatch (file damaged or edited)");
    }
  }
  if (version != kFormatVersion) {
    return Status::Unimplemented(
        StrCat("unsupported binary artifact format version ", version,
               " (this build reads format ", kFormatVersion, ")"));
  }
  if (flags != 0) {
    return Status::Unimplemented(
        StrCat("binary artifact uses unsupported flags ", flags));
  }
  if (file_size != bytes.size()) {
    return Corrupted(StrCat("file is ", bytes.size(), " bytes but the header "
                            "says ", file_size, " (truncated?)"));
  }

  // Validate every table entry and its payload checksum up front.
  struct Entry {
    uint32_t type;
    size_t offset;
    size_t size;
  };
  std::vector<Entry> entries;
  entries.reserve(section_count);
  uint32_t seen_known = 0;  // Bitmask over SectionType.
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t e = kHeaderSize + i * kTableEntrySize;
    uint32_t type = 0;
    uint64_t offset = 0, size = 0, checksum = 0;
    Get(bytes, e, type);
    Get(bytes, e + 8, offset);
    Get(bytes, e + 16, size);
    Get(bytes, e + 24, checksum);
    if (offset < table_end || offset > bytes.size() ||
        size > bytes.size() - offset) {
      return Corrupted(StrCat("section ", i, " is out of range"));
    }
    if (Fnv1a64(std::string_view(bytes).substr(
                    offset, static_cast<size_t>(size))) != checksum) {
      return Corrupted(StrCat("section ", i,
                              " checksum mismatch (file damaged or edited)"));
    }
    // The writer emits each known section at most once. A crafted file that
    // repeats one would append config entries twice or silently overwrite
    // earlier payloads, so duplicates fail closed; only *unknown* types may
    // repeat (forward compatibility).
    if (type >= kSectionMeta && type <= kSectionQuboConfig) {
      const uint32_t bit = 1u << type;
      if (seen_known & bit) {
        return Corrupted(StrCat("duplicate section of type ", type));
      }
      seen_known |= bit;
    }
    entries.push_back({type, static_cast<size_t>(offset),
                       static_cast<size_t>(size)});
  }

  // Meta first (support-vector geometry depends on num_features), then the
  // rest in table order. Unknown section types were checksum-verified above
  // and are skipped for forward compatibility.
  ModelArtifact a;
  bool have_meta = false;
  for (const Entry& e : entries) {
    if (e.type != kSectionMeta) continue;
    QDB_RETURN_IF_ERROR(
        ParseMetaSection(bytes.substr(e.offset, e.size), a));
    have_meta = true;
    break;  // Duplicates were rejected above.
  }
  if (!have_meta) return Corrupted("missing meta section");
  for (const Entry& e : entries) {
    const std::string payload = bytes.substr(e.offset, e.size);
    switch (e.type) {
      case kSectionMeta:
        break;
      case kSectionParams:
        QDB_RETURN_IF_ERROR(ParseParamsSection(payload, a));
        break;
      case kSectionFingerprint:
        if (payload.size() != sizeof(uint64_t)) {
          return Corrupted("fingerprint section has the wrong size");
        }
        Get(payload, 0, a.circuit_fingerprint);
        break;
      case kSectionSupportVectors:
        QDB_RETURN_IF_ERROR(ParseSupportVectorSection(payload, a));
        break;
      case kSectionQuboConfig:
        QDB_RETURN_IF_ERROR(ParseQuboConfigSection(payload, a));
        break;
      default:
        break;  // Forward-compatible skip.
    }
  }
  return a;
}

Status AtomicWriteFile(const std::string& path, const std::string& payload,
                       const std::string& fault_scope) {
  // Fault point "artifact.save": an injected error aborts before any byte
  // is written; a torn write persists only a prefix of the temp file and
  // "crashes" before the rename below, so the destination is never left
  // half-written.
  size_t write_bytes = payload.size();
  bool torn = false;
  bool kill_after_write = false;
  if (fault::FaultInjector::Global().enabled()) {
    if (std::optional<fault::FaultSpec> fired =
            fault::FaultInjector::Global().Sample("artifact.save",
                                                  fault_scope)) {
      switch (fired->kind) {
        case fault::FaultKind::kError:
          return Status(fired->error_code,
                        StrCat("injected fault at 'artifact.save' for '",
                               fault_scope, "'"));
        case fault::FaultKind::kLatency:
          std::this_thread::sleep_for(
              std::chrono::microseconds(fired->latency_us));
          break;
        case fault::FaultKind::kTornWrite:
          torn = true;
          write_bytes = static_cast<size_t>(
              static_cast<double>(payload.size()) * fired->keep_fraction);
          break;
        case fault::FaultKind::kKill:
          // A real crash mid-save: persist keep_fraction of the temp file,
          // then SIGKILL before the rename — the destination must come
          // through either absent or complete, exactly like torn_write but
          // with the whole process actually dying.
          kill_after_write = true;
          write_bytes = static_cast<size_t>(
              static_cast<double>(payload.size()) * fired->keep_fraction);
          break;
        case fault::FaultKind::kSpuriousWake:
          break;
      }
    }
  }

  // Crash-safe save: write everything to <path>.tmp, fsync it, then rename
  // into place. A crash (or torn write) mid-save leaves at worst a stale
  // or partial .tmp file — the destination is either absent or a complete,
  // checksummed artifact. The fsync *before* the rename matters for power
  // loss, not just process crashes: rename-over is only atomic for bytes
  // the disk already has, so without it the destination name could land on
  // unflushed data.
  const std::string tmp = StrCat(path, ".tmp");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument(StrCat("cannot open '", tmp,
                                          "' for writing: ",
                                          std::strerror(errno)));
  }
  size_t written = 0;
  while (written < write_bytes) {
    const ssize_t n = ::write(fd, payload.data() + written,
                              write_bytes - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::Internal(StrCat("failed writing artifact to '", tmp,
                                     "': ", std::strerror(err)));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::Internal(StrCat("failed syncing artifact to '", tmp,
                                   "': ", std::strerror(err)));
  }
  if (::close(fd) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::Internal(StrCat("failed closing artifact '", tmp,
                                   "': ", std::strerror(err)));
  }
  if (kill_after_write) fault::KillProcess();
  if (torn) {
    // Simulated crash between the partial write and the rename: the torn
    // temp file stays on disk, the destination is untouched.
    return Status::Internal(StrCat(
        "injected torn write: only ", write_bytes, " of ", payload.size(),
        " bytes of '", path, "' were persisted before the simulated crash"));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrCat("failed renaming '", tmp, "' into '",
                                   path, "'"));
  }
  // Persist the rename itself: fsync the parent directory so the new
  // directory entry survives power loss. Best-effort — some filesystems
  // refuse fsync on directories, and by this point the data is durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/"
                                                     : path.substr(0, slash));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  // Fault point "store.read" (scoped by path): errors fail the read,
  // latency stalls it, and a torn_write spec models a torn *read* — only a
  // keep_fraction prefix of the file makes it into memory, as if the read
  // raced a writer or the page cache lost the tail.
  double keep_fraction = 1.0;
  if (fault::FaultInjector::Global().enabled()) {
    if (std::optional<fault::FaultSpec> fired =
            fault::FaultInjector::Global().Sample("store.read", path)) {
      switch (fired->kind) {
        case fault::FaultKind::kError:
          return Status(fired->error_code,
                        StrCat("injected fault at 'store.read' for '", path,
                               "'"));
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

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("cannot open artifact file '", path, "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  if (keep_fraction < 1.0) {
    bytes.resize(static_cast<size_t>(
        static_cast<double>(bytes.size()) * keep_fraction));
  }
  return bytes;
}

Result<serve::ModelArtifact> LoadArtifact(const std::string& path) {
  static obs::Counter* const loads = obs::GetCounter("store.artifact_loads");
  QDB_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  QDB_ASSIGN_OR_RETURN(ModelArtifact artifact, DeserializeBinary(bytes));
  loads->Increment();
  return artifact;
}

Status SaveArtifact(const serve::ModelArtifact& artifact,
                    const std::string& path) {
  return AtomicWriteFile(path, SerializeBinary(artifact), artifact.name);
}

}  // namespace store
}  // namespace qdb
