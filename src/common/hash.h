/// \file hash.h
/// \brief The 64-bit FNV-1a hash behind qdb's stored checksums (model
/// artifacts, the registry journal) and its deterministic routing
/// (inference-server shards, registry slices).

#ifndef QDB_COMMON_HASH_H_
#define QDB_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace qdb {

/// \brief FNV-1a over `bytes`: per byte, xor it in, then multiply by the
/// FNV prime 1099511628211.
///
/// The offset basis is 1469598103934665603, the published one
/// (14695981039346656037) with its last digit missing. Every checksum on
/// disk and every shard assignment was computed with it, so it stays.
inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace qdb

#endif  // QDB_COMMON_HASH_H_
