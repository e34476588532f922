#include "serve/model_artifact.h"

#include <sstream>
#include <string_view>

#include "common/hash.h"
#include "common/strings.h"
#include "serve/servable.h"
#include "store/binary_format.h"

namespace qdb {
namespace serve {

namespace {

constexpr const char* kMagic = "qdb-model-artifact";
constexpr int kFormatVersion = 1;

std::string FormatDouble(double v) { return StrFormat("%.17g", v); }

const char* EncodingName(VqcEncoding e) {
  switch (e) {
    case VqcEncoding::kAngle: return "angle";
    case VqcEncoding::kZZFeatureMap: return "zz";
    case VqcEncoding::kReuploading: return "reuploading";
  }
  return "angle";
}

const char* EntanglementName(Entanglement e) {
  switch (e) {
    case Entanglement::kLinear: return "linear";
    case Entanglement::kCircular: return "circular";
    case Entanglement::kFull: return "full";
  }
  return "linear";
}

const char* KernelEncodingName(KernelEncodingKind k) {
  switch (k) {
    case KernelEncodingKind::kAngle: return "angle";
    case KernelEncodingKind::kZZFeatureMap: return "zz";
  }
  return "angle";
}

Result<VqcEncoding> ParseEncoding(const std::string& s) {
  if (s == "angle") return VqcEncoding::kAngle;
  if (s == "zz") return VqcEncoding::kZZFeatureMap;
  if (s == "reuploading") return VqcEncoding::kReuploading;
  return Status::InvalidArgument(StrCat("unknown encoding '", s, "'"));
}

Result<Entanglement> ParseEntanglement(const std::string& s) {
  if (s == "linear") return Entanglement::kLinear;
  if (s == "circular") return Entanglement::kCircular;
  if (s == "full") return Entanglement::kFull;
  return Status::InvalidArgument(StrCat("unknown entanglement '", s, "'"));
}

Result<KernelEncodingKind> ParseKernelEncoding(const std::string& s) {
  if (s == "angle") return KernelEncodingKind::kAngle;
  if (s == "zz") return KernelEncodingKind::kZZFeatureMap;
  return Status::InvalidArgument(StrCat("unknown kernel encoding '", s, "'"));
}

/// Line-cursor over the artifact body with typed field readers. Every
/// reader validates the expected key, so a reordered or truncated file
/// fails fast with the offending key in the message.
class LineReader {
 public:
  explicit LineReader(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

  bool done() const { return pos_ >= lines_.size(); }

  Result<std::string> NextLine() {
    if (done()) {
      return Status::InvalidArgument("artifact truncated: unexpected end");
    }
    return lines_[pos_++];
  }

  /// "key value..." → the raw value string (rest of line after one space).
  Result<std::string> ReadRaw(const std::string& key) {
    QDB_ASSIGN_OR_RETURN(std::string line, NextLine());
    if (line.rfind(key + " ", 0) != 0) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: expected field '", key, "', got '",
                 line.substr(0, 32), "'"));
    }
    return line.substr(key.size() + 1);
  }

  Result<std::string> ReadToken(const std::string& key) {
    QDB_ASSIGN_OR_RETURN(std::string raw, ReadRaw(key));
    if (raw.find(' ') != std::string::npos) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: field '", key, "' has trailing data"));
    }
    return raw;
  }

  Result<long long> ReadInt(const std::string& key) {
    QDB_ASSIGN_OR_RETURN(std::string raw, ReadToken(key));
    std::istringstream is(raw);
    long long v = 0;
    if (!(is >> v) || !is.eof()) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: field '", key, "' is not an integer"));
    }
    return v;
  }

  Result<double> ReadDouble(const std::string& key) {
    QDB_ASSIGN_OR_RETURN(std::string raw, ReadToken(key));
    std::istringstream is(raw);
    double v = 0;
    if (!(is >> v) || !is.eof()) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: field '", key, "' is not a number"));
    }
    return v;
  }

  Result<uint64_t> ReadHex(const std::string& key) {
    QDB_ASSIGN_OR_RETURN(std::string raw, ReadToken(key));
    std::istringstream is(raw);
    uint64_t v = 0;
    if (!(is >> std::hex >> v) || !is.eof()) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: field '", key, "' is not hex"));
    }
    return v;
  }

  /// "key n" then one line of n space-separated doubles.
  Result<DVector> ReadVector(const std::string& key) {
    QDB_ASSIGN_OR_RETURN(long long n, ReadInt(key));
    if (n < 0 || n > (1 << 24)) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: implausible ", key, " count ", n));
    }
    QDB_ASSIGN_OR_RETURN(std::string line, NextLine());
    std::istringstream is(line);
    DVector out(static_cast<size_t>(n));
    for (auto& v : out) {
      if (!(is >> v)) {
        return Status::InvalidArgument(
            StrCat("artifact corrupted: short ", key, " row"));
      }
    }
    double extra;
    if (is >> extra) {
      return Status::InvalidArgument(
          StrCat("artifact corrupted: long ", key, " row"));
    }
    return out;
  }

 private:
  std::vector<std::string> lines_;
  size_t pos_ = 0;
};

void AppendVector(std::string& out, const std::string& key, const DVector& v) {
  out += StrCat(key, " ", v.size(), "\n");
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += " ";
    out += FormatDouble(v[i]);
  }
  out += "\n";
}

}  // namespace

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kVqcClassifier: return "vqc";
    case ModelType::kVqrRegressor: return "vqr";
    case ModelType::kKernelSvm: return "kernel_svm";
    case ModelType::kQuboConfig: return "qubo_config";
  }
  return "vqc";
}

std::string ModelArtifact::Serialize() const {
  std::string body = StrCat(kMagic, " format ", kFormatVersion, "\n");
  body += StrCat("type ", ModelTypeName(type), "\n");
  body += StrCat("name ", name, "\n");
  body += StrCat("version ", version, "\n");
  body += StrCat("num_features ", num_features, "\n");
  switch (type) {
    case ModelType::kVqcClassifier:
      body += StrCat("encoding ", EncodingName(encoding), "\n");
      body += StrCat("ansatz_layers ", ansatz_layers, "\n");
      body += StrCat("entanglement ", EntanglementName(entanglement), "\n");
      body += StrCat("feature_scale ", FormatDouble(feature_scale), "\n");
      body += StrCat("circuit_fingerprint ",
                     StrFormat("%016llx",
                               static_cast<unsigned long long>(
                                   circuit_fingerprint)), "\n");
      AppendVector(body, "params", params);
      break;
    case ModelType::kVqrRegressor:
      body += StrCat("ansatz_layers ", ansatz_layers, "\n");
      body += StrCat("feature_scale ", FormatDouble(feature_scale), "\n");
      body += StrCat("circuit_fingerprint ",
                     StrFormat("%016llx",
                               static_cast<unsigned long long>(
                                   circuit_fingerprint)), "\n");
      AppendVector(body, "params", params);
      break;
    case ModelType::kKernelSvm:
      body += StrCat("kernel_encoding ",
                     KernelEncodingName(kernel_encoding), "\n");
      body += StrCat("kernel_scale ", FormatDouble(kernel_scale), "\n");
      body += StrCat("kernel_reps ", kernel_reps, "\n");
      body += StrCat("bias ", FormatDouble(bias), "\n");
      body += StrCat("support_vectors ", support_vectors.size(), "\n");
      for (const auto& sv : support_vectors) {
        body += FormatDouble(sv.coeff);
        for (double f : sv.features) body += StrCat(" ", FormatDouble(f));
        body += "\n";
      }
      break;
    case ModelType::kQuboConfig:
      body += StrCat("config ", config.size(), "\n");
      for (const auto& [key, value] : config) {
        body += StrCat(key, " ", value, "\n");
      }
      break;
  }
  body += "end\n";
  return StrCat(body, "checksum ",
                StrFormat("%016llx",
                          static_cast<unsigned long long>(Fnv1a64(body))),
                "\n");
}

Result<ModelArtifact> ModelArtifact::Deserialize(const std::string& text) {
  // One streaming pass: the final line must be the checksum record, and the
  // body hash is folded while the body is split into lines — the body is
  // never copied or re-scanned. The last *line* (not the last occurrence of
  // "checksum ", which a config key or model name could forge) is the only
  // place the record is accepted, so a file cut mid-section always fails
  // with kInvalidArgument here instead of misparsing.
  constexpr const char kChecksumKey[] = "checksum ";
  constexpr size_t kChecksumKeyLen = sizeof(kChecksumKey) - 1;
  if (text.size() < kChecksumKeyLen + 2 || text.back() != '\n') {
    return Status::InvalidArgument("artifact corrupted: missing checksum");
  }
  const size_t prev_newline = text.rfind('\n', text.size() - 2);
  const size_t final_start =
      prev_newline == std::string::npos ? 0 : prev_newline + 1;
  // The checksum record, without its trailing newline.
  const std::string_view final_line(text.data() + final_start,
                                    text.size() - 1 - final_start);
  if (final_line.substr(0, kChecksumKeyLen) != kChecksumKey) {
    return Status::InvalidArgument("artifact corrupted: missing checksum");
  }
  uint64_t stored = 0;
  {
    const std::string_view hex = final_line.substr(kChecksumKeyLen);
    size_t digits = 0;
    for (; digits < hex.size() && digits <= 16; ++digits) {
      const char c = hex[digits];
      int nibble;
      if (c >= '0' && c <= '9') {
        nibble = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        nibble = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        nibble = c - 'A' + 10;
      } else {
        break;
      }
      stored = stored << 4 | static_cast<uint64_t>(nibble);
    }
    if (digits == 0 || digits > 16) {
      return Status::InvalidArgument("artifact corrupted: unreadable checksum");
    }
  }

  if (stored != Fnv1a64(std::string_view(text).substr(0, final_start))) {
    return Status::InvalidArgument(
        "artifact corrupted: checksum mismatch (file damaged or edited)");
  }
  std::vector<std::string> lines;
  size_t line_start = 0;
  for (size_t i = 0; i < final_start; ++i) {
    if (text[i] == '\n') {
      lines.emplace_back(text, line_start, i - line_start);
      line_start = i + 1;
    }
  }
  LineReader reader(std::move(lines));

  // Header: magic + format version.
  {
    QDB_ASSIGN_OR_RETURN(std::string header, reader.NextLine());
    std::istringstream is(header);
    std::string magic, kw;
    int format = 0;
    if (!(is >> magic >> kw >> format) || magic != kMagic || kw != "format") {
      return Status::InvalidArgument(
          "not a qdb model artifact (bad magic header)");
    }
    if (format != kFormatVersion) {
      return Status::Unimplemented(
          StrCat("unsupported artifact format version ", format,
                 " (this build reads format ", kFormatVersion, ")"));
    }
  }

  ModelArtifact a;
  QDB_ASSIGN_OR_RETURN(std::string type_name, reader.ReadToken("type"));
  if (type_name == "vqc") {
    a.type = ModelType::kVqcClassifier;
  } else if (type_name == "vqr") {
    a.type = ModelType::kVqrRegressor;
  } else if (type_name == "kernel_svm") {
    a.type = ModelType::kKernelSvm;
  } else if (type_name == "qubo_config") {
    a.type = ModelType::kQuboConfig;
  } else {
    return Status::InvalidArgument(
        StrCat("unknown artifact type '", type_name, "'"));
  }
  QDB_ASSIGN_OR_RETURN(a.name, reader.ReadRaw("name"));
  QDB_ASSIGN_OR_RETURN(long long version, reader.ReadInt("version"));
  a.version = static_cast<int>(version);
  QDB_ASSIGN_OR_RETURN(long long nf, reader.ReadInt("num_features"));
  a.num_features = static_cast<int>(nf);

  switch (a.type) {
    case ModelType::kVqcClassifier: {
      QDB_ASSIGN_OR_RETURN(std::string enc, reader.ReadToken("encoding"));
      QDB_ASSIGN_OR_RETURN(a.encoding, ParseEncoding(enc));
      QDB_ASSIGN_OR_RETURN(long long layers, reader.ReadInt("ansatz_layers"));
      a.ansatz_layers = static_cast<int>(layers);
      QDB_ASSIGN_OR_RETURN(std::string ent, reader.ReadToken("entanglement"));
      QDB_ASSIGN_OR_RETURN(a.entanglement, ParseEntanglement(ent));
      QDB_ASSIGN_OR_RETURN(a.feature_scale, reader.ReadDouble("feature_scale"));
      QDB_ASSIGN_OR_RETURN(a.circuit_fingerprint,
                           reader.ReadHex("circuit_fingerprint"));
      QDB_ASSIGN_OR_RETURN(a.params, reader.ReadVector("params"));
      break;
    }
    case ModelType::kVqrRegressor: {
      QDB_ASSIGN_OR_RETURN(long long layers, reader.ReadInt("ansatz_layers"));
      a.ansatz_layers = static_cast<int>(layers);
      QDB_ASSIGN_OR_RETURN(a.feature_scale, reader.ReadDouble("feature_scale"));
      QDB_ASSIGN_OR_RETURN(a.circuit_fingerprint,
                           reader.ReadHex("circuit_fingerprint"));
      QDB_ASSIGN_OR_RETURN(a.params, reader.ReadVector("params"));
      break;
    }
    case ModelType::kKernelSvm: {
      QDB_ASSIGN_OR_RETURN(std::string enc,
                           reader.ReadToken("kernel_encoding"));
      QDB_ASSIGN_OR_RETURN(a.kernel_encoding, ParseKernelEncoding(enc));
      QDB_ASSIGN_OR_RETURN(a.kernel_scale, reader.ReadDouble("kernel_scale"));
      QDB_ASSIGN_OR_RETURN(long long reps, reader.ReadInt("kernel_reps"));
      a.kernel_reps = static_cast<int>(reps);
      QDB_ASSIGN_OR_RETURN(a.bias, reader.ReadDouble("bias"));
      QDB_ASSIGN_OR_RETURN(long long m, reader.ReadInt("support_vectors"));
      if (m < 0 || m > (1 << 24)) {
        return Status::InvalidArgument(
            "artifact corrupted: implausible support-vector count");
      }
      a.support_vectors.reserve(static_cast<size_t>(m));
      for (long long i = 0; i < m; ++i) {
        QDB_ASSIGN_OR_RETURN(std::string line, reader.NextLine());
        std::istringstream is(line);
        SupportVector sv;
        if (!(is >> sv.coeff)) {
          return Status::InvalidArgument(
              "artifact corrupted: unreadable support-vector row");
        }
        double f;
        while (is >> f) sv.features.push_back(f);
        if (static_cast<int>(sv.features.size()) != a.num_features) {
          return Status::InvalidArgument(
              StrCat("artifact corrupted: support vector has ",
                     sv.features.size(), " features, expected ",
                     a.num_features));
        }
        a.support_vectors.push_back(std::move(sv));
      }
      break;
    }
    case ModelType::kQuboConfig: {
      QDB_ASSIGN_OR_RETURN(long long n, reader.ReadInt("config"));
      if (n < 0 || n > (1 << 20)) {
        return Status::InvalidArgument(
            "artifact corrupted: implausible config count");
      }
      for (long long i = 0; i < n; ++i) {
        QDB_ASSIGN_OR_RETURN(std::string line, reader.NextLine());
        const size_t space = line.find(' ');
        if (space == std::string::npos || space == 0) {
          return Status::InvalidArgument(
              "artifact corrupted: config line is not 'key value'");
        }
        a.config.emplace_back(line.substr(0, space), line.substr(space + 1));
      }
      break;
    }
  }
  QDB_ASSIGN_OR_RETURN(std::string tail, reader.NextLine());
  if (tail != "end" || !reader.done()) {
    return Status::InvalidArgument(
        "artifact corrupted: trailing data before checksum");
  }
  return a;
}

Status ModelArtifact::SaveToFile(const std::string& path) const {
  // Text format for API compatibility; the storage tier's binary writer is
  // store::SaveArtifact. Both share the crash-safe tmp+rename path and its
  // "artifact.save" fault point.
  return store::AtomicWriteFile(path, Serialize(), name);
}

Result<ModelArtifact> ModelArtifact::LoadFromFile(const std::string& path) {
  // Sniffs the on-disk format, so files written by either writer load
  // transparently through every existing call site.
  return store::LoadArtifact(path);
}

ModelArtifact MakeVqcArtifact(const VqcClassifier& model, std::string name) {
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = std::move(name);
  a.num_features = model.num_features();
  a.encoding = model.options().encoding;
  a.ansatz_layers = model.options().ansatz_layers;
  a.entanglement = model.options().entanglement;
  a.feature_scale = model.options().feature_scale;
  a.params = model.params();
  a.circuit_fingerprint = ArtifactCircuitFingerprint(a);
  return a;
}

ModelArtifact MakeVqrArtifact(const VqrRegressor& model, std::string name) {
  ModelArtifact a;
  a.type = ModelType::kVqrRegressor;
  a.name = std::move(name);
  a.num_features = model.num_features();
  a.ansatz_layers = model.options().ansatz_layers;
  a.feature_scale = model.options().feature_scale;
  a.params = model.params();
  a.circuit_fingerprint = ArtifactCircuitFingerprint(a);
  return a;
}

ModelArtifact MakeKernelSvmArtifact(const Svm& svm, const Dataset& train,
                                    KernelEncodingKind encoding,
                                    double kernel_scale, int kernel_reps,
                                    std::string name) {
  QDB_CHECK_EQ(svm.alphas().size(), train.size());
  ModelArtifact a;
  a.type = ModelType::kKernelSvm;
  a.name = std::move(name);
  a.num_features = train.num_features();
  a.kernel_encoding = encoding;
  a.kernel_scale = kernel_scale;
  a.kernel_reps = kernel_reps;
  a.bias = svm.bias();
  for (size_t i = 0; i < train.size(); ++i) {
    if (svm.alphas()[i] <= 0.0) continue;
    SupportVector sv;
    sv.coeff = svm.alphas()[i] * train.labels[i];
    sv.features = train.features[i];
    a.support_vectors.push_back(std::move(sv));
  }
  return a;
}

ModelArtifact MakeQuboConfigArtifact(
    std::vector<std::pair<std::string, std::string>> config,
    std::string name) {
  ModelArtifact a;
  a.type = ModelType::kQuboConfig;
  a.name = std::move(name);
  a.config = std::move(config);
  return a;
}

}  // namespace serve
}  // namespace qdb
