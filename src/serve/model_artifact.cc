#include "serve/model_artifact.h"

#include "serve/servable.h"

namespace qdb {
namespace serve {

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kVqcClassifier: return "vqc";
    case ModelType::kVqrRegressor: return "vqr";
    case ModelType::kKernelSvm: return "kernel_svm";
    case ModelType::kQuboConfig: return "qubo_config";
  }
  return "vqc";
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
