/// \file binary_format.h
/// \brief The on-disk format for model artifacts — the only one QDB reads
/// or writes — plus the shared crash-safe file I/O the storage tier runs on.
///
/// Layout (format version 1, little-endian, all offsets from byte 0):
///
///     [ 0..64)   header (64 bytes)
///       [ 0.. 8)  magic "QDBSTOR1"
///       [ 8..12)  u32 format_version
///       [12..16)  u32 flags (reserved, must be 0)
///       [16..20)  u32 section_count
///       [20..24)  u32 reserved (must be 0)
///       [24..32)  u64 file_size (total bytes, detects truncation)
///       [32..40)  u64 header_checksum — FNV-1a over the header (with this
///                 field zeroed) and the whole section table, so *any*
///                 flipped header/table byte fails closed
///       [40..64)  zero padding (covered by the checksum)
///     [64..64+32·n)  section table: n entries of
///       { u32 type; u32 reserved; u64 offset; u64 size; u64 checksum }
///     [...]      section payloads, each offset aligned to 64 bytes and
///                individually FNV-1a checksummed
///
/// Every checksum is 64-bit FNV-1a (common/hash.h) with prime
/// 0x100000001b3 and a non-standard offset basis: 1469598103934665603
/// (0x14650fb0739d0383), the published 14695981039346656037 with its last
/// digit dropped. A tool verifying a checksum must use that basis; changing
/// it needs a format_version bump.
///
/// Section types: meta (scalars + name — always present), params,
/// circuit fingerprint, support vectors (stored SoA: all coefficients,
/// then the feature matrix row-major — one memcpy each on load), and QUBO
/// config pairs. Unknown section types whose checksums verify are skipped,
/// so minor format extensions stay readable by old binaries; incompatible
/// changes bump format_version and fail with kUnimplemented. The fixed
/// header, 64-byte alignment, and SoA numeric payloads make the layout
/// mmap-friendly: every numeric array can be pointed at in place.
///
/// Corruption anywhere — header, table, or payload — fails with
/// kInvalidArgument; a valid file never deserializes to a silently wrong
/// model. Files in the removed line-oriented text format (first line
/// "qdb-model-artifact format 1") fail with kUnimplemented.

#ifndef QDB_STORE_BINARY_FORMAT_H_
#define QDB_STORE_BINARY_FORMAT_H_

#include <string>

#include "common/result.h"
#include "serve/model_artifact.h"

namespace qdb {
namespace store {

/// Serializes to the binary format (version 1).
std::string SerializeBinary(const serve::ModelArtifact& artifact);

/// Parses the binary format. Corrupted input (bad magic, damaged header or
/// table, failed section checksum, truncation, implausible counts) returns
/// kInvalidArgument; a structurally valid file with an unsupported
/// format_version, and a file in the removed text format, return
/// kUnimplemented.
Result<serve::ModelArtifact> DeserializeBinary(const std::string& bytes);

/// Crash-safe whole-file write: payload goes to `<path>.tmp`, is fsync'd,
/// then renamed into place (with a best-effort fsync of the parent
/// directory), so the destination is only ever absent or complete — across
/// process crashes and, on filesystems honoring fsync, power loss. Runs
/// the "artifact.save" fault point (scoped by `fault_scope`): injected
/// errors abort before any byte is written and torn writes persist only a
/// payload prefix of the temp file before a simulated crash.
Status AtomicWriteFile(const std::string& path, const std::string& payload,
                       const std::string& fault_scope);

/// Reads a whole file through the "store.read" fault point (scoped by
/// `path`): errors fail the read, latency stalls it, and torn_write faults
/// model a torn *read* by keeping only a prefix of the bytes. Missing
/// files return kNotFound.
Result<std::string> ReadFileBytes(const std::string& path);

/// Loads an artifact file (ReadFileBytes + DeserializeBinary). Increments
/// the store.artifact_loads counter on success.
Result<serve::ModelArtifact> LoadArtifact(const std::string& path);

/// Saves an artifact crash-safely (SerializeBinary + AtomicWriteFile).
Status SaveArtifact(const serve::ModelArtifact& artifact,
                    const std::string& path);

}  // namespace store
}  // namespace qdb

#endif  // QDB_STORE_BINARY_FORMAT_H_
