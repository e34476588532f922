// Tests for the qdb::store storage tier: the binary artifact format
// (field-exact round trips of every model type, byte-identical
// re-encoding, byte-flip and truncation fuzzing, a seeded mutation fuzz of
// the section parsers past the checksums, the removed text format's
// kUnimplemented), the memory-budget eviction policy, the sliced
// registry's paged-out/reload-on-demand path, and the async loader's
// double-buffered promotion — including a chaos profile over store.read
// (StoreChaosTest, driven by scripts/chaos.sh via QDB_FAULTS).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "serve/model_artifact.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "store/async_loader.h"
#include "store/binary_format.h"
#include "store/memory_budget.h"
#include "variational/ansatz.h"

namespace qdb {
namespace store {
namespace {

using serve::KernelEncodingKind;
using serve::ModelArtifact;
using serve::ModelRegistry;
using serve::ModelType;
using serve::RegistryOptions;
using serve::ServableModel;
using serve::StoreStatus;

std::string TempPath(const std::string& file) {
  return testing::TempDir() + "/" + file;
}

ModelArtifact TinyVqcArtifact(const std::string& name, int version = 0) {
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = name;
  a.version = version;
  a.num_features = 2;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 1;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 0.8;
  const int count = RealAmplitudesParamCount(a.num_features, a.ansatz_layers);
  for (int i = 0; i < count; ++i) {
    a.params.push_back(0.3 + 0.17 * static_cast<double>(i));
  }
  return a;
}

ModelArtifact TinyKernelArtifact(const std::string& name,
                                 int num_features = 2, int num_svs = 3) {
  ModelArtifact a;
  a.type = ModelType::kKernelSvm;
  a.name = name;
  a.version = 1;
  a.num_features = num_features;
  a.kernel_encoding = KernelEncodingKind::kAngle;
  a.kernel_scale = 1.25;
  a.kernel_reps = 2;
  a.bias = -1.0 / 3.0;
  for (int i = 0; i < num_svs; ++i) {
    serve::SupportVector sv;
    sv.coeff = (i % 2 == 0 ? 1.0 : -1.0) * (0.5 + 0.25 * i);
    for (int f = 0; f < num_features; ++f) {
      sv.features.push_back(0.1 * (i + 1) + 0.01 * f);
    }
    a.support_vectors.push_back(std::move(sv));
  }
  return a;
}

// The adversarial qubo config: a key literally named "checksum", which the
// old last-occurrence-of-"checksum " scan could mistake for the trailer.
ModelArtifact AdversarialQuboArtifact(const std::string& name) {
  return serve::MakeQuboConfigArtifact(
      {{"solver", "parallel_tempering"},
       {"checksum", "deadbeefdeadbeef"},
       {"sweeps", "2000 with trailing words"}},
      name);
}

// ---- MemoryBudget (pure policy) --------------------------------------------

TEST(MemoryBudgetTest, UnlimitedNeverPlansEvictions) {
  MemoryBudget budget(0);
  budget.Add("a:1", 1000, /*evictable=*/true);
  EXPECT_FALSE(budget.over_budget());
  EXPECT_TRUE(budget.PlanEvictions().empty());
}

TEST(MemoryBudgetTest, PlansLeastRecentlyUsedFirst) {
  MemoryBudget budget(250);
  budget.Add("a:1", 100, true);
  budget.Add("b:1", 100, true);
  budget.Add("c:1", 100, true);
  budget.Touch("a:1");  // c is now LRU... no: order added a,b,c; touch a → b LRU
  const std::vector<std::string> plan = budget.PlanEvictions();
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], "b:1");
}

TEST(MemoryBudgetTest, SkipsPinnedUnevictableAndProtected) {
  MemoryBudget budget(100);
  budget.Add("mem:1", 100, /*evictable=*/false);       // in-memory only
  budget.Add("pin:1", 100, /*evictable=*/true, true);  // pinned
  budget.Add("new:1", 100, /*evictable=*/true);
  // Everything is over budget, but only "new:1" could go — and it is
  // protected as the entry just loaded.
  EXPECT_TRUE(budget.over_budget());
  EXPECT_TRUE(budget.PlanEvictions("new:1").empty());
  const std::vector<std::string> plan = budget.PlanEvictions();
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], "new:1");
}

TEST(MemoryBudgetTest, AddUpsertsAndDropReleases) {
  MemoryBudget budget(1000);
  budget.Add("a:1", 400, true);
  budget.Add("a:1", 100, true);  // re-add replaces, not accumulates
  EXPECT_EQ(budget.resident_bytes(), 100u);
  budget.Drop("a:1");
  EXPECT_EQ(budget.resident_bytes(), 0u);
  EXPECT_EQ(budget.resident_count(), 0u);
  budget.Drop("a:1");  // unknown key is a no-op
}

TEST(MemoryBudgetTest, StopsPlanningOnceUnderBudget) {
  MemoryBudget budget(150);
  budget.Add("a:1", 100, true);
  budget.Add("b:1", 100, true);
  budget.Add("c:1", 100, true);
  // 300 resident, budget 150: evicting the two oldest suffices.
  const std::vector<std::string> plan = budget.PlanEvictions();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], "a:1");
  EXPECT_EQ(plan[1], "b:1");
}

// ---- Binary format round trips ---------------------------------------------

TEST(BinaryFormatTest, VqcRoundTripIsExact) {
  ModelArtifact a = TinyVqcArtifact("binary-vqc", 7);
  a.params[0] = M_PI / 3.0;
  a.circuit_fingerprint = 0x1234567890abcdefull;
  auto b = DeserializeBinary(SerializeBinary(a));
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b.value().type, a.type);
  EXPECT_EQ(b.value().name, a.name);
  EXPECT_EQ(b.value().version, 7);
  EXPECT_EQ(b.value().num_features, a.num_features);
  EXPECT_EQ(b.value().encoding, a.encoding);
  EXPECT_EQ(b.value().entanglement, a.entanglement);
  EXPECT_EQ(b.value().feature_scale, a.feature_scale);
  EXPECT_EQ(b.value().circuit_fingerprint, a.circuit_fingerprint);
  ASSERT_EQ(b.value().params.size(), a.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(b.value().params[i], a.params[i]) << i;
  }
}

TEST(BinaryFormatTest, KernelSvmRoundTripIsExact) {
  ModelArtifact a = TinyKernelArtifact("svm with spaces in name");
  a.support_vectors[1].features[0] = M_PI;
  auto b = DeserializeBinary(SerializeBinary(a));
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b.value().name, a.name);
  EXPECT_EQ(b.value().kernel_encoding, a.kernel_encoding);
  EXPECT_EQ(b.value().kernel_scale, a.kernel_scale);
  EXPECT_EQ(b.value().kernel_reps, a.kernel_reps);
  EXPECT_EQ(b.value().bias, a.bias);
  ASSERT_EQ(b.value().support_vectors.size(), a.support_vectors.size());
  for (size_t i = 0; i < a.support_vectors.size(); ++i) {
    EXPECT_EQ(b.value().support_vectors[i].coeff,
              a.support_vectors[i].coeff);
    EXPECT_EQ(b.value().support_vectors[i].features,
              a.support_vectors[i].features);
  }
}

TEST(BinaryFormatTest, QuboConfigRoundTripKeepsOrderAndSpaces) {
  ModelArtifact a = AdversarialQuboArtifact("qubo-binary");
  auto b = DeserializeBinary(SerializeBinary(a));
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b.value().type, ModelType::kQuboConfig);
  ASSERT_EQ(b.value().config.size(), 3u);
  EXPECT_EQ(b.value().config[1].first, "checksum");
  EXPECT_EQ(b.value().config[2].second, "2000 with trailing words");
}

// One artifact of each type, with doubles that only a bit-exact codec
// keeps (non-terminating decimals, a negative zero).
std::vector<ModelArtifact> OneOfEachType() {
  std::vector<ModelArtifact> artifacts;
  artifacts.push_back(TinyVqcArtifact("each-vqc", 3));
  artifacts.back().params[0] = M_PI / 7.0;
  artifacts.back().circuit_fingerprint = 0xfeedfacecafebeefull;
  ModelArtifact vqr = TinyVqcArtifact("each-vqr", 2);
  vqr.type = ModelType::kVqrRegressor;
  vqr.ansatz_layers = 2;
  vqr.feature_scale = 1.0 / 3.0;
  vqr.params.push_back(-0.0);
  vqr.circuit_fingerprint = 0x0123456789abcdefull;
  artifacts.push_back(vqr);
  artifacts.push_back(TinyKernelArtifact("each svm", 3, 4));
  artifacts.back().kernel_encoding = KernelEncodingKind::kZZFeatureMap;
  artifacts.back().kernel_reps = 3;
  artifacts.push_back(AdversarialQuboArtifact("each-qubo"));
  return artifacts;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameBits(const DVector& a, const DVector& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << what << "[" << i << "]";
  }
}

// Every field of ModelArtifact, doubles compared bit for bit.
void ExpectSameArtifact(const ModelArtifact& a, const ModelArtifact& b) {
  EXPECT_EQ(a.type, b.type) << a.name;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.version, b.version) << a.name;
  EXPECT_EQ(a.num_features, b.num_features) << a.name;
  EXPECT_EQ(a.encoding, b.encoding) << a.name;
  EXPECT_EQ(a.ansatz_layers, b.ansatz_layers) << a.name;
  EXPECT_EQ(a.entanglement, b.entanglement) << a.name;
  EXPECT_EQ(Bits(a.feature_scale), Bits(b.feature_scale)) << a.name;
  ExpectSameBits(a.params, b.params, a.name + " params");
  EXPECT_EQ(a.circuit_fingerprint, b.circuit_fingerprint) << a.name;
  EXPECT_EQ(a.kernel_encoding, b.kernel_encoding) << a.name;
  EXPECT_EQ(Bits(a.kernel_scale), Bits(b.kernel_scale)) << a.name;
  EXPECT_EQ(a.kernel_reps, b.kernel_reps) << a.name;
  EXPECT_EQ(Bits(a.bias), Bits(b.bias)) << a.name;
  ASSERT_EQ(a.support_vectors.size(), b.support_vectors.size()) << a.name;
  for (size_t i = 0; i < a.support_vectors.size(); ++i) {
    EXPECT_EQ(Bits(a.support_vectors[i].coeff),
              Bits(b.support_vectors[i].coeff))
        << a.name << " sv " << i;
    ExpectSameBits(a.support_vectors[i].features,
                   b.support_vectors[i].features, a.name + " sv features");
  }
  EXPECT_EQ(a.config, b.config) << a.name;
}

TEST(BinaryFormatTest, EveryFieldOfEveryTypeRoundTrips) {
  for (const ModelArtifact& a : OneOfEachType()) {
    auto b = DeserializeBinary(SerializeBinary(a));
    ASSERT_TRUE(b.ok()) << a.name << ": " << b.status();
    ExpectSameArtifact(a, b.value());
  }
}

TEST(BinaryFormatTest, ReencodingAParsedArtifactIsByteIdentical) {
  for (const ModelArtifact& a : OneOfEachType()) {
    const std::string bytes = SerializeBinary(a);
    auto b = DeserializeBinary(bytes);
    ASSERT_TRUE(b.ok()) << a.name << ": " << b.status();
    EXPECT_EQ(SerializeBinary(b.value()), bytes) << a.name;
  }
}

// A file in the removed line-oriented text format is a valid file that
// this build does not read, not a damaged one: kUnimplemented, with a
// message that names the cause, through the parser and through a load.
TEST(BinaryFormatTest, RemovedTextFormatIsUnimplemented) {
  const std::string text =
      "qdb-model-artifact format 1\n"
      "type qubo_config\n"
      "name legacy-solver\n"
      "version 1\n"
      "num_features 0\n"
      "config 1\n"
      "solver parallel_tempering\n"
      "end\n"
      "checksum 5b1f0e7a6a3ad4c9\n";
  const Result<ModelArtifact> parsed = DeserializeBinary(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(parsed.status().message().find("text format was removed"),
            std::string::npos)
      << parsed.status();

  const std::string path = TempPath("qdb_store_legacy_text.model");
  ASSERT_TRUE(AtomicWriteFile(path, text, "legacy-solver").ok());
  EXPECT_EQ(LoadArtifact(path).status().code(), StatusCode::kUnimplemented);
}

// ---- Corruption: fuzz-lite byte flips and truncation -----------------------

// Flip every byte of the header, the section table, and every section
// payload (XOR 0xFF — always a real change); each corrupted image must
// fail with kInvalidArgument. Never a crash, never a silently wrong model.
TEST(BinaryFormatTest, EveryCheckedByteFlipFailsWithInvalidArgument) {
  for (const ModelArtifact& a :
       {TinyKernelArtifact("fuzz svm", 2, 3), TinyVqcArtifact("fuzz-vqc", 1),
        AdversarialQuboArtifact("fuzz-qubo")}) {
    const std::string bytes = SerializeBinary(a);
    ASSERT_TRUE(DeserializeBinary(bytes).ok());

    // Checked regions: [0, 64 + 32·section_count) plus each payload range
    // from the table. Alignment gaps between payloads are the only
    // unchecksummed bytes in the file.
    uint32_t section_count = 0;
    std::memcpy(&section_count, bytes.data() + 16, sizeof(section_count));
    ASSERT_GT(section_count, 0u);
    std::vector<std::pair<size_t, size_t>> regions;
    regions.emplace_back(0, 64 + 32 * static_cast<size_t>(section_count));
    for (uint32_t i = 0; i < section_count; ++i) {
      uint64_t offset = 0, size = 0;
      std::memcpy(&offset, bytes.data() + 64 + 32 * i + 8, sizeof(offset));
      std::memcpy(&size, bytes.data() + 64 + 32 * i + 16, sizeof(size));
      regions.emplace_back(static_cast<size_t>(offset),
                           static_cast<size_t>(offset + size));
    }

    size_t flipped = 0;
    for (const auto& [begin, end] : regions) {
      for (size_t i = begin; i < end; ++i) {
        std::string corrupted = bytes;
        corrupted[i] = static_cast<char>(corrupted[i] ^ 0xFF);
        const Result<ModelArtifact> result = DeserializeBinary(corrupted);
        ASSERT_FALSE(result.ok())
            << a.name << ": flip at byte " << i << " was accepted";
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << a.name << ": flip at byte " << i << " → " << result.status();
        ++flipped;
      }
    }
    EXPECT_GT(flipped, 100u) << a.name;
  }
}

TEST(BinaryFormatTest, EveryTruncationFailsWithInvalidArgument) {
  const std::string bytes = SerializeBinary(TinyKernelArtifact("trunc svm"));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const Result<ModelArtifact> result =
        DeserializeBinary(bytes.substr(0, cut));
    ASSERT_FALSE(result.ok()) << "prefix of " << cut << " bytes was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << cut << " bytes → " << result.status();
  }
}

// (type, payload) pairs from a serialized image's section table.
std::vector<std::pair<uint32_t, std::string>> ExtractSections(
    const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 16, sizeof(count));
  std::vector<std::pair<uint32_t, std::string>> sections;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t e = 64 + 32 * static_cast<size_t>(i);
    uint32_t type = 0;
    uint64_t offset = 0, size = 0;
    std::memcpy(&type, bytes.data() + e, sizeof(type));
    std::memcpy(&offset, bytes.data() + e + 8, sizeof(offset));
    std::memcpy(&size, bytes.data() + e + 16, sizeof(size));
    sections.emplace_back(type, bytes.substr(static_cast<size_t>(offset),
                                             static_cast<size_t>(size)));
  }
  return sections;
}

// Builds a format-v1 image from scratch (the writer's layout: 64 B header,
// 32 B table entries, 64-byte-aligned payloads, FNV-1a checksums) so tests
// can craft files the library writer would never emit.
std::string RebuildWithSections(
    const std::vector<std::pair<uint32_t, std::string>>& sections) {
  const size_t table_size = sections.size() * 32;
  size_t cursor = 64 + table_size;
  std::vector<size_t> offsets(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = (cursor + 63) / 64 * 64;
    offsets[i] = cursor;
    cursor += sections[i].second.size();
  }
  const uint64_t file_size = cursor;
  std::string out(64 + table_size, '\0');
  std::memcpy(&out[0], "QDBSTOR1", 8);
  const uint32_t version = 1;
  std::memcpy(&out[8], &version, sizeof(version));
  const uint32_t count = static_cast<uint32_t>(sections.size());
  std::memcpy(&out[16], &count, sizeof(count));
  std::memcpy(&out[24], &file_size, sizeof(file_size));
  for (size_t i = 0; i < sections.size(); ++i) {
    const size_t e = 64 + 32 * i;
    std::memcpy(&out[e], &sections[i].first, sizeof(uint32_t));
    const uint64_t offset = offsets[i], size = sections[i].second.size();
    std::memcpy(&out[e + 8], &offset, sizeof(offset));
    std::memcpy(&out[e + 16], &size, sizeof(size));
    const uint64_t checksum = Fnv1a64(sections[i].second);
    std::memcpy(&out[e + 24], &checksum, sizeof(checksum));
  }
  const uint64_t header_checksum = Fnv1a64(out);
  std::memcpy(&out[32], &header_checksum, sizeof(header_checksum));
  out.resize(file_size, '\0');
  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(&out[offsets[i]], sections[i].second.data(),
                sections[i].second.size());
  }
  return out;
}

// A crafted file repeating a *known* section passes every checksum but
// must still fail closed: a duplicate config section would append its
// entries twice, and duplicate meta/params/support-vector/fingerprint
// sections would silently overwrite earlier payloads. Unknown types may
// repeat (forward compatibility).
TEST(BinaryFormatTest, DuplicateKnownSectionIsRejected) {
  for (const ModelArtifact& a :
       {AdversarialQuboArtifact("dup-qubo"), TinyVqcArtifact("dup-vqc", 1),
        TinyKernelArtifact("dup svm")}) {
    const auto sections = ExtractSections(SerializeBinary(a));
    // Sanity: the test's builder reproduces a loadable image.
    ASSERT_TRUE(DeserializeBinary(RebuildWithSections(sections)).ok())
        << a.name;
    for (size_t i = 0; i < sections.size(); ++i) {
      auto dup = sections;
      dup.push_back(sections[i]);
      const Result<ModelArtifact> result =
          DeserializeBinary(RebuildWithSections(dup));
      ASSERT_FALSE(result.ok())
          << a.name << ": duplicated section type " << sections[i].first
          << " was accepted";
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << a.name << " → " << result.status();
    }
    auto with_unknown = sections;
    with_unknown.emplace_back(99u, std::string("future-payload"));
    with_unknown.emplace_back(99u, std::string("future-payload"));
    EXPECT_TRUE(DeserializeBinary(RebuildWithSections(with_unknown)).ok())
        << a.name << ": repeated unknown sections must stay readable";
  }
}

// A *structurally valid* file from a newer format version is a different
// failure than corruption: kUnimplemented, so callers can tell "damaged"
// from "too new".
TEST(BinaryFormatTest, FutureFormatVersionIsUnimplemented) {
  std::string bytes = SerializeBinary(TinyVqcArtifact("future"));
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 16, sizeof(section_count));
  const uint32_t future_version = 2;
  std::memcpy(&bytes[8], &future_version, sizeof(future_version));
  // Re-stamp the header checksum the way the writer does: FNV-1a over
  // header + table with the checksum field zeroed.
  const size_t table_end = 64 + 32 * static_cast<size_t>(section_count);
  std::string prefix = bytes.substr(0, table_end);
  const uint64_t zero = 0;
  std::memcpy(&prefix[32], &zero, sizeof(zero));
  const uint64_t checksum = Fnv1a64(prefix);
  std::memcpy(&bytes[32], &checksum, sizeof(checksum));
  const Result<ModelArtifact> result = DeserializeBinary(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

// Seeded mutation fuzz of the section parsers. A byte flip in a written
// file is always stopped by a checksum, so here each mutation lands inside
// a section payload (or its type) and the file is rebuilt with valid
// checksums: the parsers themselves see the bad bytes. Every input must
// either fail with kInvalidArgument/kUnimplemented or parse to an artifact
// that re-serializes and re-parses to identical bytes.
TEST(BinaryFormatTest, MutatedSectionsFailClosedOrReencodeStably) {
  const std::vector<ModelArtifact> seeds = OneOfEachType();
  // Counts and lengths the parsers must refuse or bound: past every cap,
  // just past a cap, and the all-ones patterns of a u32 and a u64.
  const uint64_t kHuge[] = {~0ull, 0xffffffffull, (1ull << 24) + 1,
                            (1ull << 20) + 1, 1ull << 40};
  const uint32_t kTypes[] = {0, 1, 2, 3, 4, 5, 6, 99};
  size_t accepted = 0, rejected = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    std::mt19937_64 rng(seed);
    auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    for (int iter = 0; iter < 5000; ++iter) {
      const ModelArtifact& base = seeds[below(seeds.size())];
      auto sections = ExtractSections(SerializeBinary(base));
      const int mutations = 1 + static_cast<int>(below(3));
      for (int m = 0; m < mutations; ++m) {
        auto& [type, payload] = sections[below(sections.size())];
        switch (below(5)) {
          case 0:  // Bit flips.
            for (int f = 0, n = 1 + static_cast<int>(below(4));
                 f < n && !payload.empty(); ++f) {
              payload[below(payload.size())] ^=
                  static_cast<char>(1 << below(8));
            }
            break;
          case 1:  // Truncation.
            payload.resize(below(payload.size() + 1));
            break;
          case 2:  // Extension with random bytes.
            for (size_t n = 1 + below(64); n > 0; --n) {
              payload.push_back(static_cast<char>(rng()));
            }
            break;
          case 3: {  // A count or length field set to a huge value.
            if (payload.size() < 8) break;
            const uint64_t value = kHuge[below(std::size(kHuge))];
            const size_t offset = below(payload.size() / 4) * 4;
            const size_t width = offset + 8 <= payload.size() ? 8 : 4;
            std::memcpy(&payload[offset], &value, width);
            break;
          }
          case 4:  // A section retyped.
            type = kTypes[below(std::size(kTypes))];
            break;
        }
      }
      const std::string bytes = RebuildWithSections(sections);
      const Result<ModelArtifact> result = DeserializeBinary(bytes);
      if (!result.ok()) {
        const StatusCode code = result.status().code();
        ASSERT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kUnimplemented)
            << "seed " << seed << " iter " << iter << " → "
            << result.status();
        ++rejected;
        continue;
      }
      const std::string once = SerializeBinary(result.value());
      const Result<ModelArtifact> reparsed = DeserializeBinary(once);
      ASSERT_TRUE(reparsed.ok())
          << "seed " << seed << " iter " << iter << " → " << reparsed.status();
      ASSERT_EQ(SerializeBinary(reparsed.value()), once)
          << "seed " << seed << " iter " << iter;
      ++accepted;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---- Fault points -----------------------------------------------------------

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }
};

TEST_F(StoreFaultTest, StoreReadErrorFailsTheLoad) {
  const std::string path = TempPath("qdb_store_read_fault.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("read-fault", 1), path).ok());
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kError;
  spec.probability = 1.0;
  spec.error_code = StatusCode::kUnavailable;
  fault::FaultInjector::Global().Arm("store.read", spec);
  const Result<ModelArtifact> result = LoadArtifact(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  fault::FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(LoadArtifact(path).ok());
}

TEST_F(StoreFaultTest, TornReadOfBinaryArtifactFailsClosed) {
  const std::string path = TempPath("qdb_store_torn_read.model");
  ASSERT_TRUE(SaveArtifact(TinyKernelArtifact("torn-read"), path).ok());
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kTornWrite;  // on reads: keep a prefix only
  spec.probability = 1.0;
  spec.keep_fraction = 0.5;
  fault::FaultInjector::Global().Arm("store.read", spec);
  const Result<ModelArtifact> result = LoadArtifact(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- ServableModel::ResidentBytes ------------------------------------------

TEST(ResidentBytesTest, AngleKernelServableChargesFactoredSupportVectors) {
  // An angle encoding is a product state: each support vector is held as
  // one 2-vector per qubit, never as 2^features amplitudes.
  const int features = 10, svs = 3;
  auto servable =
      ServableModel::Create(TinyKernelArtifact("resident", features, svs));
  ASSERT_TRUE(servable.ok()) << servable.status();
  const size_t factored_lower_bound =
      static_cast<size_t>(svs) * features * 2 * sizeof(Complex);
  const size_t dense_bytes =
      static_cast<size_t>(svs) * (1u << features) * sizeof(Complex);
  EXPECT_GE(servable.value()->ResidentBytes(), factored_lower_bound);
  EXPECT_LT(servable.value()->ResidentBytes(), dense_bytes);
}

TEST(ResidentBytesTest, ZzKernelServableIsDominatedByEncodedStates) {
  const int features = 4, svs = 3;
  ModelArtifact artifact = TinyKernelArtifact("resident-zz", features, svs);
  artifact.kernel_encoding = KernelEncodingKind::kZZFeatureMap;
  auto servable = ServableModel::Create(artifact);
  ASSERT_TRUE(servable.ok()) << servable.status();
  // A ZZ feature map entangles, so each pre-encoded support vector holds
  // 2^features complex amplitudes.
  const size_t states_lower_bound =
      static_cast<size_t>(svs) * (1u << features) * sizeof(Complex);
  EXPECT_GE(servable.value()->ResidentBytes(), states_lower_bound);
  // And the estimate is not absurdly large for a tiny model.
  EXPECT_LT(servable.value()->ResidentBytes(), 1u << 20);
}

TEST(ResidentBytesTest, VqcServableCountsCompiledProgram) {
  auto servable = ServableModel::Create(TinyVqcArtifact("resident-vqc", 1));
  ASSERT_TRUE(servable.ok()) << servable.status();
  EXPECT_GT(servable.value()->ResidentBytes(), sizeof(ServableModel));
}

// ---- Registry: budget, eviction, reload-on-demand --------------------------

size_t OneModelBytes() {
  static const size_t bytes = [] {
    auto servable = ServableModel::Create(TinyVqcArtifact("sizer", 1));
    return servable.value()->ResidentBytes();
  }();
  return bytes;
}

TEST(RegistryBudgetTest, EvictsLruAndReloadsOnDemand) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 5 * OneModelBytes() / 2;  // fits ~2 models
  ModelRegistry registry(options);
  std::vector<std::string> names;
  for (int i = 0; i < 4; ++i) {
    const std::string name = StrCat("lru-", i);
    const std::string path = TempPath(StrCat("qdb_store_lru_", i, ".model"));
    ASSERT_TRUE(SaveArtifact(TinyVqcArtifact(name, 1), path).ok());
    ASSERT_TRUE(registry.LoadModel(path).ok()) << name;
    names.push_back(name);
  }
  StoreStatus status = registry.store_status();
  EXPECT_EQ(status.registered_models, 4u);
  EXPECT_GT(status.evictions, 0);
  EXPECT_LT(status.resident_models, 4u);
  EXPECT_LE(status.resident_bytes, options.store_budget_bytes);
  // Every model still serves: paged-out versions reload on demand.
  for (const std::string& name : names) {
    auto servable = registry.Lookup(name);
    ASSERT_TRUE(servable.ok()) << name << ": " << servable.status();
    EXPECT_EQ(servable.value()->name(), name);
  }
  status = registry.store_status();
  EXPECT_GT(status.reloads, 0);
  EXPECT_EQ(status.registered_models, 4u);
}

TEST(RegistryBudgetTest, InMemoryRegistrationsAreNeverPagedOut) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;  // absurdly small
  ModelRegistry registry(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.Register(TinyVqcArtifact(StrCat("mem-", i))).ok());
  }
  const StoreStatus status = registry.store_status();
  EXPECT_EQ(status.resident_models, 3u);  // soft budget: nowhere to reload
  EXPECT_EQ(status.evictions, 0);
  EXPECT_GT(status.resident_bytes, options.store_budget_bytes);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(registry.Lookup(StrCat("mem-", i)).ok());
  }
}

TEST(RegistryBudgetTest, SaveModelMakesTheVersionEvictable) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("durable")).ok());
  const std::string path = TempPath("qdb_store_durable.model");
  ASSERT_TRUE(registry.SaveModel("durable", 1, path).ok());
  // Now file-backed and over budget → paged out (it was the only entry,
  // protected at save time; the next registration triggers enforcement).
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("pressure")).ok());
  StoreStatus status = registry.store_status();
  EXPECT_GT(status.evictions, 0);
  // The paged-out model reloads transparently — from the binary file
  // SaveModel wrote (the storage-tier default format).
  auto servable = registry.Lookup("durable", 1);
  ASSERT_TRUE(servable.ok()) << servable.status();
  EXPECT_EQ(servable.value()->name(), "durable");
  EXPECT_GT(registry.store_status().reloads, 0);
}

TEST(RegistryBudgetTest, PinnedVersionSurvivesMemoryPressure) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  const std::string pinned_path = TempPath("qdb_store_pinned.model");
  ASSERT_TRUE(
      SaveArtifact(TinyVqcArtifact("pinned-model", 1), pinned_path).ok());
  ASSERT_TRUE(registry.LoadModel(pinned_path).ok());
  ASSERT_TRUE(registry.SetPinned("pinned-model", 1, true).ok());
  const std::string other_path = TempPath("qdb_store_pressure.model");
  ASSERT_TRUE(
      SaveArtifact(TinyVqcArtifact("pressure-model", 1), other_path).ok());
  ASSERT_TRUE(registry.LoadModel(other_path).ok());
  bool pinned_resident = false;
  for (const serve::ModelEntry& row : registry.List()) {
    if (row.name == "pinned-model") {
      pinned_resident = row.resident;
      EXPECT_TRUE(row.pinned);
    }
  }
  EXPECT_TRUE(pinned_resident)
      << "a pinned version must never be paged out by the budget";
  EXPECT_EQ(registry.SetPinned("missing", 1, true).code(),
            StatusCode::kNotFound);
}

TEST(RegistryBudgetTest, ReloadRefusesRepurposedArtifactFile) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  const std::string path = TempPath("qdb_store_repurposed.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("original", 1), path).ok());
  ASSERT_TRUE(registry.LoadModel(path).ok());
  // Page "original" out by loading another file-backed model.
  const std::string other = TempPath("qdb_store_repurposed_other.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("other", 1), other).ok());
  ASSERT_TRUE(registry.LoadModel(other).ok());
  // Someone rewrites the artifact file with a different model.
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("impostor", 1), path).ok());
  const auto result = registry.Lookup("original", 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status();
}

// Regression: a model loaded with reassign_version registers under a new
// version while its file keeps the old one. The reload-identity check must
// compare against the *file's* identity, or the model becomes permanently
// unserveable the moment the budget pages it out.
TEST(RegistryBudgetTest, ReassignedVersionReloadsAfterEviction) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  const std::string path = TempPath("qdb_store_reassign.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("reassigned", 7), path).ok());
  auto loaded = registry.LoadModel(path, /*reassign_version=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value()->version(), 1);  // reassigned: file still says 7
  // Page it out with another file-backed load.
  const std::string other = TempPath("qdb_store_reassign_other.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("reassign-other", 1), other).ok());
  ASSERT_TRUE(registry.LoadModel(other).ok());
  const auto reloaded = registry.Lookup("reassigned", 1);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  // The reload serves under the *registered* identity, not the file's.
  EXPECT_EQ(reloaded.value()->name(), "reassigned");
  EXPECT_EQ(reloaded.value()->version(), 1);
}

// Same failure mode for a file stored with version 0: Register assigns
// version 1, the file keeps 0, and the reload must still match.
TEST(RegistryBudgetTest, VersionZeroFileReloadsAfterEviction) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  const std::string path = TempPath("qdb_store_v0_file.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("auto-versioned", 0), path).ok());
  auto loaded = registry.LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value()->version(), 1);
  const std::string other = TempPath("qdb_store_v0_other.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("v0-other", 1), other).ok());
  ASSERT_TRUE(registry.LoadModel(other).ok());
  const auto reloaded = registry.Lookup("auto-versioned", 1);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded.value()->version(), 1);
}

// A missing artifact fails the cold start definitively, releases the
// per-entry loading latch (the next Lookup retries rather than hanging),
// leaves other models on the slice serving, and recovers once the file is
// back.
TEST(RegistryBudgetTest, FailedReloadReleasesTheLatchAndRecovers) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  const std::string a_path = TempPath("qdb_store_latch_a.model");
  const std::string b_path = TempPath("qdb_store_latch_b.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("latch-a", 1), a_path).ok());
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("latch-b", 1), b_path).ok());
  ASSERT_TRUE(registry.LoadModel(a_path).ok());
  ASSERT_TRUE(registry.LoadModel(b_path).ok());  // pages latch-a out
  ASSERT_EQ(std::remove(a_path.c_str()), 0);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto result = registry.Lookup("latch-a", 1);
    ASSERT_FALSE(result.ok()) << "attempt " << attempt;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
        << "attempt " << attempt << " → " << result.status();
  }
  // The rest of the slice is unaffected.
  EXPECT_TRUE(registry.Lookup("latch-b", 1).ok());
  // Restore the file: the same entry serves again.
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("latch-a", 1), a_path).ok());
  const auto recovered = registry.Lookup("latch-a", 1);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value()->name(), "latch-a");
}

TEST(RegistryBudgetTest, SlicesSplitTheBudgetIndependently) {
  RegistryOptions options;
  options.num_slices = 4;
  options.store_budget_bytes = 40 * OneModelBytes();
  ModelRegistry registry(options);
  EXPECT_EQ(registry.num_slices(), 4);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        registry.Register(TinyVqcArtifact(StrCat("sliced-", i))).ok());
  }
  EXPECT_EQ(registry.size(), 12u);
  EXPECT_EQ(registry.List().size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(registry.Lookup(StrCat("sliced-", i)).ok());
  }
  // Under-budget: no slice should have evicted anything.
  EXPECT_EQ(registry.store_status().evictions, 0);
}

// ---- Async loader -----------------------------------------------------------

TEST(AsyncLoaderTest, PrefetchPromotesWithoutInvalidatingInFlightRequests) {
  ModelRegistry registry;
  auto v1 = registry.Register(TinyVqcArtifact("rollout", 1));
  ASSERT_TRUE(v1.ok());
  const std::shared_ptr<const ServableModel> in_flight = v1.value();

  ModelArtifact next = TinyVqcArtifact("rollout", 2);
  next.params[0] += 0.25;  // a genuinely different version
  const std::string path = TempPath("qdb_store_rollout_v2.model");
  ASSERT_TRUE(SaveArtifact(next, path).ok());

  AsyncModelLoader loader(registry);
  ASSERT_TRUE(loader.Start().ok());
  AsyncModelLoader::LoadFuture future = loader.Prefetch(path);
  const Result<AsyncModelLoader::Servable> promoted = future.get();
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(promoted.value()->version(), 2);

  // Double-buffered promotion: the latest lookup resolves to v2 while the
  // in-flight handle still serves v1 untouched.
  auto latest = registry.Lookup("rollout");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value()->version(), 2);
  EXPECT_EQ(in_flight->version(), 1);
  EXPECT_EQ(in_flight->artifact().params[0], v1.value()->artifact().params[0]);
  loader.Shutdown();
  const AsyncModelLoader::Stats stats = loader.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
}

TEST(AsyncLoaderTest, WarmAbsorbsTheColdStartOffTheRequestPath) {
  RegistryOptions options;
  options.num_slices = 1;
  options.store_budget_bytes = 1;
  ModelRegistry registry(options);
  const std::string a_path = TempPath("qdb_store_warm_a.model");
  const std::string b_path = TempPath("qdb_store_warm_b.model");
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("warm-a", 1), a_path).ok());
  ASSERT_TRUE(SaveArtifact(TinyVqcArtifact("warm-b", 1), b_path).ok());
  ASSERT_TRUE(registry.LoadModel(a_path).ok());
  ASSERT_TRUE(registry.LoadModel(b_path).ok());  // pages warm-a out
  bool a_resident = true;
  for (const serve::ModelEntry& row : registry.List()) {
    if (row.name == "warm-a") a_resident = row.resident;
  }
  ASSERT_FALSE(a_resident) << "test setup: warm-a should be paged out";

  AsyncModelLoader loader(registry);
  ASSERT_TRUE(loader.Start().ok());
  const Result<AsyncModelLoader::Servable> warmed =
      loader.Warm("warm-a", 1).get();
  ASSERT_TRUE(warmed.ok()) << warmed.status();
  EXPECT_EQ(warmed.value()->name(), "warm-a");
  for (const serve::ModelEntry& row : registry.List()) {
    if (row.name == "warm-a") {
      EXPECT_TRUE(row.resident);
    }
  }
}

TEST(AsyncLoaderTest, FullQueueRejectsAndShutdownSettlesEverything) {
  ModelRegistry registry;
  AsyncLoaderOptions options;
  options.queue_capacity = 1;
  AsyncModelLoader loader(registry, options);
  // Not started: the first job waits in the queue, the second overflows.
  AsyncModelLoader::LoadFuture first = loader.Prefetch("/nonexistent/a");
  AsyncModelLoader::LoadFuture second = loader.Prefetch("/nonexistent/b");
  const Result<AsyncModelLoader::Servable> rejected = second.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  loader.Shutdown();  // never started: queued job fails, future settles
  const Result<AsyncModelLoader::Servable> drained = first.get();
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kUnavailable);
  // The overflow counts as rejected, not submitted/failed, so the books
  // balance: submitted == completed + failed once drained.
  const AsyncModelLoader::Stats stats = loader.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed);
}

TEST(AsyncLoaderTest, PrefetchOfMissingFileResolvesWithError) {
  ModelRegistry registry;
  AsyncModelLoader loader(registry);
  ASSERT_TRUE(loader.Start().ok());
  const Result<AsyncModelLoader::Servable> result =
      loader.Prefetch(TempPath("qdb_store_never_written.model")).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  loader.Shutdown();
  EXPECT_EQ(loader.stats().failed, 1);
  // Post-shutdown enqueues are turned away and tallied as rejections.
  const Result<AsyncModelLoader::Servable> late =
      loader.Prefetch(TempPath("qdb_store_late.model")).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(loader.stats().rejected, 1);
  EXPECT_EQ(loader.stats().submitted, 1);
}

// ---- Concurrency (runs under TSan in tier1) --------------------------------

TEST(StoreConcurrencyTest, LookupChurnUnderTinyBudgetIsRaceFree) {
  RegistryOptions options;
  options.num_slices = 2;
  options.store_budget_bytes = 3 * OneModelBytes();
  ModelRegistry registry(options);
  constexpr int kModels = 6;
  for (int i = 0; i < kModels; ++i) {
    const std::string path =
        TempPath(StrCat("qdb_store_churn_", i, ".model"));
    ASSERT_TRUE(
        SaveArtifact(TinyVqcArtifact(StrCat("churn-", i), 1), path).ok());
    ASSERT_TRUE(registry.LoadModel(path).ok());
  }
  AsyncModelLoader loader(registry);
  ASSERT_TRUE(loader.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &failures, t] {
      for (int i = 0; i < 120; ++i) {
        const std::string name = StrCat("churn-", (t + i) % kModels);
        if (!registry.Lookup(name).ok()) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&registry, &failures] {
    for (int i = 0; i < 40; ++i) {
      if (!registry.SetPinned(StrCat("churn-", i % kModels), 1,
                              i % 2 == 0)
               .ok()) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<AsyncModelLoader::LoadFuture> warms;
  for (int i = 0; i < 24; ++i) {
    warms.push_back(loader.Warm(StrCat("churn-", i % kModels), 1));
  }
  for (auto& thread : threads) thread.join();
  for (auto& warm : warms) {
    if (!warm.get().ok()) failures.fetch_add(1);
  }
  loader.Shutdown();
  EXPECT_EQ(failures.load(), 0);
  const StoreStatus status = registry.store_status();
  EXPECT_EQ(status.registered_models, static_cast<size_t>(kModels));
  EXPECT_GT(status.reloads, 0);  // the tiny budget forced churn
}

// ---- Chaos profile (driven by scripts/chaos.sh) -----------------------------

// Under a store.read latency/error profile, every prefetch must settle
// with a definitive Status, promoted models must serve, and the run must
// replay identically when re-armed (the injector streams are seeded).
TEST(StoreChaosTest, PrefetchUnderReadFaultsEveryLoadTerminates) {
  const char* profile = std::getenv("QDB_FAULTS");
  if (profile == nullptr || profile[0] == '\0') {
    GTEST_SKIP() << "QDB_FAULTS not set; run via scripts/chaos.sh";
  }
  constexpr int kModels = 8;
  std::vector<std::string> paths;
  for (int i = 0; i < kModels; ++i) {
    const std::string path =
        TempPath(StrCat("qdb_store_chaos_", i, ".model"));
    ASSERT_TRUE(
        SaveArtifact(TinyVqcArtifact(StrCat("chaos-", i), 1), path).ok());
    paths.push_back(path);
  }

  auto run_profile = [&](std::vector<bool>& outcomes) {
    fault::FaultInjector::Global().DisarmAll();
    ASSERT_TRUE(fault::FaultInjector::Global().ArmFromEnv().ok()) << profile;
    ASSERT_TRUE(fault::FaultInjector::Global().enabled());
    ModelRegistry registry;
    AsyncModelLoader loader(registry);
    ASSERT_TRUE(loader.Start().ok());
    std::vector<AsyncModelLoader::LoadFuture> futures;
    for (const std::string& path : paths) futures.push_back(
        loader.Prefetch(path));
    for (size_t i = 0; i < futures.size(); ++i) {
      const Result<AsyncModelLoader::Servable> result = futures[i].get();
      outcomes.push_back(result.ok());
      if (result.ok()) {
        // A promoted model must actually serve.
        EXPECT_TRUE(registry.Lookup(result.value()->name()).ok());
      } else {
        // Failures must be definitive, not hangs or corruption served as
        // success.
        EXPECT_NE(result.status().code(), StatusCode::kOk);
      }
    }
    loader.Shutdown();
    const AsyncModelLoader::Stats stats = loader.stats();
    EXPECT_EQ(stats.submitted, kModels);
    EXPECT_EQ(stats.completed + stats.failed, kModels);
    fault::FaultInjector::Global().DisarmAll();
  };

  std::vector<bool> first, second;
  run_profile(first);
  run_profile(second);
  // Seeded faults replay bit-for-bit: same profile, same outcomes.
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace store
}  // namespace qdb
