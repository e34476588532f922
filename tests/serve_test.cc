// Tests for the qdb::serve subsystem: artifact files, the model registry,
// servable correctness against the training-side implementations,
// micro-batching, admission control, deadlines, graceful drain, and the
// result cache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "classical/dataset.h"
#include "classical/svm.h"
#include "common/rng.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "kernel/quantum_kernel.h"
#include "serve/inference_server.h"
#include "serve/model_artifact.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"
#include "serve/servable.h"
#include "sim/compiled_circuit.h"
#include "sim/statevector_simulator.h"
#include "store/binary_format.h"
#include "variational/ansatz.h"
#include "variational/vqc.h"
#include "variational/vqr.h"

namespace qdb {
namespace serve {
namespace {

// A hand-built angle-encoded classifier artifact (no training needed).
ModelArtifact TinyVqcArtifact(const std::string& name,
                              VqcEncoding encoding = VqcEncoding::kAngle) {
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = name;
  a.num_features = 2;
  a.encoding = encoding;
  a.ansatz_layers = 1;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 0.8;
  const int count = encoding == VqcEncoding::kReuploading
                        ? 2 * a.ansatz_layers * a.num_features
                        : RealAmplitudesParamCount(a.num_features,
                                                   a.ansatz_layers);
  for (int i = 0; i < count; ++i) {
    a.params.push_back(0.3 + 0.17 * static_cast<double>(i));
  }
  return a;
}

std::string TempPath(const std::string& file) {
  return testing::TempDir() + "/" + file;
}

// ---- Artifact files ---------------------------------------------------------

TEST(ModelArtifactTest, FileRoundTrip) {
  ModelArtifact a = TinyVqcArtifact("file-model");
  const std::string path = TempPath("qdb_serve_file_roundtrip.model");
  ASSERT_TRUE(store::SaveArtifact(a, path).ok());
  auto b = store::LoadArtifact(path);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b.value().name, "file-model");
  EXPECT_EQ(b.value().params, a.params);
}

TEST(ModelArtifactTest, MissingFileIsNotFound) {
  auto b = store::LoadArtifact(TempPath("does_not_exist.model"));
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kNotFound);
}

// ---- Servable correctness ---------------------------------------------------

TEST(ServableTest, SymbolicCircuitMatchesBoundCircuit) {
  // The compiled symbolic-feature program must agree with the bound
  // (training-style) construction for every encoding that supports it.
  for (VqcEncoding encoding :
       {VqcEncoding::kAngle, VqcEncoding::kReuploading}) {
    ModelArtifact a = TinyVqcArtifact("symbolic", encoding);
    auto symbolic = BuildSymbolicInferenceCircuit(a);
    ASSERT_TRUE(symbolic.ok()) << symbolic.status();
    StateVectorSimulator sim;
    const DVector x = {0.7, 2.1};
    auto bound = BuildBoundInferenceCircuit(a, x);
    ASSERT_TRUE(bound.ok()) << bound.status();
    auto sym_state = sim.Run(symbolic.value(), x);
    auto bound_state = sim.Run(bound.value());
    ASSERT_TRUE(sym_state.ok() && bound_state.ok());
    EXPECT_NEAR(ExpectationZ(sym_state.value(), 0),
                ExpectationZ(bound_state.value(), 0), 1e-12)
        << "encoding " << static_cast<int>(encoding);
  }
}

TEST(ServableTest, VqcServesQubitZerosLightCone) {
  // 12 qubits, linear entanglement, 2 layers: 70 gates, of which ⟨Z_0⟩'s
  // light cone holds 12 on qubits {0, 1, 2}.
  ModelArtifact a = TinyVqcArtifact("cone");
  a.num_features = 12;
  a.ansatz_layers = 2;
  a.params.clear();
  for (int i = 0; i < RealAmplitudesParamCount(12, 2); ++i) {
    a.params.push_back(0.3 + 0.17 * static_cast<double>(i));
  }
  auto servable = ServableModel::Create(a);
  ASSERT_TRUE(servable.ok()) << servable.status();
  const CompiledCircuit* program = servable.value()->program();
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_qubits(), 3);
  EXPECT_EQ(program->source_qubits(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(program->stats().source_gates, 12u);
  EXPECT_EQ(program->stats().pruned_gates, 58u);

  Rng rng(5);
  std::vector<DVector> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back(rng.UniformVector(12, 0.0, M_PI));
  auto out = servable.value()->RunBatch(RequestKind::kPredict, inputs);
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto bound = BuildBoundInferenceCircuit(a, inputs[i]);
    ASSERT_TRUE(bound.ok()) << bound.status();
    StateVector state(12);
    ASSERT_TRUE(StateVectorSimulator().RunStreamed(bound.value(), state).ok());
    EXPECT_NEAR(out.value()[i].value, ExpectationZ(state, 0), 1e-12) << i;
  }
}

TEST(ServableTest, CircularVqcConeIsTheWholeRegister) {
  // CX(11, 0) closes the ring, so qubit 0's cone is every qubit: the
  // program keeps all 12 qubits and drops only the final RY layer on
  // qubits 1–11, which follows every gate that reaches qubit 0. A batch
  // of four does enough work to fan out across the pool.
  ModelArtifact a = TinyVqcArtifact("ring");
  a.num_features = 12;
  a.ansatz_layers = 2;
  a.entanglement = Entanglement::kCircular;
  a.params.clear();
  for (int i = 0; i < RealAmplitudesParamCount(12, 2); ++i) {
    a.params.push_back(0.3 + 0.17 * static_cast<double>(i));
  }
  auto servable = ServableModel::Create(a);
  ASSERT_TRUE(servable.ok()) << servable.status();
  const CompiledCircuit* program = servable.value()->program();
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_qubits(), 12);
  EXPECT_EQ(program->stats().pruned_gates, 11u);

  Rng rng(6);
  std::vector<DVector> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(rng.UniformVector(12, 0.0, M_PI));
  auto out = servable.value()->RunBatch(RequestKind::kPredict, inputs);
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto bound = BuildBoundInferenceCircuit(a, inputs[i]);
    ASSERT_TRUE(bound.ok()) << bound.status();
    StateVector state(12);
    ASSERT_TRUE(StateVectorSimulator().RunStreamed(bound.value(), state).ok());
    EXPECT_NEAR(out.value()[i].value, ExpectationZ(state, 0), 1e-12) << i;
  }
}

TEST(ServableTest, ZzEncodingHasNoSymbolicCircuit) {
  ModelArtifact a = TinyVqcArtifact("zz", VqcEncoding::kZZFeatureMap);
  auto symbolic = BuildSymbolicInferenceCircuit(a);
  ASSERT_FALSE(symbolic.ok());
  // ...but it is still servable through the per-request bind path.
  auto servable = ServableModel::Create(a);
  ASSERT_TRUE(servable.ok()) << servable.status();
  auto out = servable.value()->RunBatch(RequestKind::kPredict, {{0.4, 1.3}});
  ASSERT_TRUE(out.ok()) << out.status();
  StateVectorSimulator sim;
  auto state = sim.Run(BuildBoundInferenceCircuit(a, {0.4, 1.3}).value());
  ASSERT_TRUE(state.ok());
  EXPECT_NEAR(out.value()[0].value, ExpectationZ(state.value(), 0), 1e-12);
}

TEST(ServableTest, ServedVqcMatchesTrainedModel) {
  Rng rng(11);
  Dataset data = MakeBlobs(12, 2, 3.0, 0.4, rng);
  MinMaxScale(data, data, 0.0, M_PI);
  VqcOptions opts;
  opts.ansatz_layers = 1;
  opts.adam.max_iterations = 5;
  auto model = VqcClassifier::Train(data, opts);
  ASSERT_TRUE(model.ok()) << model.status();

  auto servable =
      ServableModel::Create(MakeVqcArtifact(model.value(), "blobs"));
  ASSERT_TRUE(servable.ok()) << servable.status();
  auto out =
      servable.value()->RunBatch(RequestKind::kPredict, data.features);
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < data.features.size(); ++i) {
    auto score = model.value().Score(data.features[i]);
    ASSERT_TRUE(score.ok());
    EXPECT_NEAR(out.value()[i].value, score.value(), 1e-9) << i;
    EXPECT_EQ(out.value()[i].label, score.value() < 0 ? -1 : 1) << i;
  }
}

TEST(ServableTest, ServedVqrMatchesTrainedModel) {
  std::vector<DVector> xs = {{0.1}, {0.9}, {1.7}, {2.5}};
  DVector ys = {-0.6, -0.2, 0.3, 0.7};
  VqrOptions opts;
  opts.ansatz_layers = 2;
  opts.adam.max_iterations = 5;
  auto model = VqrRegressor::Train(xs, ys, opts);
  ASSERT_TRUE(model.ok()) << model.status();

  auto servable =
      ServableModel::Create(MakeVqrArtifact(model.value(), "vqr"));
  ASSERT_TRUE(servable.ok()) << servable.status();
  auto out = servable.value()->RunBatch(RequestKind::kPredict, xs);
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < xs.size(); ++i) {
    auto pred = model.value().Predict(xs[i]);
    ASSERT_TRUE(pred.ok());
    EXPECT_NEAR(out.value()[i].value, pred.value(), 1e-9) << i;
    EXPECT_EQ(out.value()[i].label, 0) << "regressors have no label";
  }
}

TEST(ServableTest, ServedKernelSvmMatchesDirectEvaluation) {
  Rng rng(13);
  Dataset data = MakeXor(8, 0.05, rng);
  MinMaxScale(data, data, 0.0, M_PI);
  FidelityQuantumKernel kernel = MakeAngleKernel();
  auto gram = kernel.GramMatrix(data.features);
  ASSERT_TRUE(gram.ok());
  SvmOptions svm_opts;
  svm_opts.kernel = SvmKernel::kPrecomputed;
  auto svm = Svm::Train(data, svm_opts, &gram.value());
  ASSERT_TRUE(svm.ok()) << svm.status();

  ModelArtifact artifact =
      MakeKernelSvmArtifact(svm.value(), data, KernelEncodingKind::kAngle,
                            /*kernel_scale=*/1.0, /*kernel_reps=*/2, "qsvm");
  auto servable = ServableModel::Create(artifact);
  ASSERT_TRUE(servable.ok()) << servable.status();

  const std::vector<DVector> queries = {{0.3, 2.8}, {2.9, 0.2}};
  auto out = servable.value()->RunBatch(RequestKind::kPredict, queries);
  ASSERT_TRUE(out.ok()) << out.status();
  auto cross = kernel.CrossMatrix(queries, data.features);
  ASSERT_TRUE(cross.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    DVector row(data.size());
    for (size_t j = 0; j < data.size(); ++j) {
      row[j] = cross.value()(i, j).real();
    }
    const double expect = svm.value().DecisionValueFromKernelRow(row);
    EXPECT_NEAR(out.value()[i].value, expect, 1e-9) << i;
  }

  // Kernel-row requests return the row against the support set only.
  auto rows = servable.value()->RunBatch(RequestKind::kKernelRow, queries);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value()[0].row.size(),
            servable.value()->artifact().support_vectors.size());
  for (double k : rows.value()[0].row) {
    EXPECT_GE(k, -1e-12);
    EXPECT_LE(k, 1.0 + 1e-12);
  }
}

TEST(ServableTest, DenseKernelEncodingsBypassCompilationCache) {
  // Every dense encoding circuit bakes one point's features into its
  // angles, so it is compiled privately: a ZZ Gram fill and ZZ kernel
  // requests neither look up nor fill the global cache.
  ModelArtifact artifact;
  artifact.type = ModelType::kKernelSvm;
  artifact.name = "zz-private-compile";
  artifact.num_features = 3;
  artifact.kernel_encoding = KernelEncodingKind::kZZFeatureMap;
  artifact.kernel_reps = 2;
  artifact.support_vectors.push_back({0.5, {0.1, 0.2, 0.3}});
  artifact.support_vectors.push_back({-0.5, {1.4, 0.7, 2.9}});
  const std::vector<DVector> queries = {{0.3, 2.8, 1.0}, {2.9, 0.2, 0.6}};

  const CompilationCache::Stats before = CompilationCache::Global().stats();
  auto gram = MakeZZFeatureMapKernel(2).GramMatrix(queries);
  ASSERT_TRUE(gram.ok()) << gram.status();
  auto servable = ServableModel::Create(artifact);
  ASSERT_TRUE(servable.ok()) << servable.status();
  auto out = servable.value()->RunBatch(RequestKind::kPredict, queries);
  ASSERT_TRUE(out.ok()) << out.status();
  const CompilationCache::Stats after = CompilationCache::Global().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.size, before.size);
}

TEST(ServableTest, FingerprintMismatchIsRejected) {
  ModelArtifact a = TinyVqcArtifact("wrong-ansatz");
  a.circuit_fingerprint = 0xdeadbeef;  // Not what this build produces.
  auto servable = ServableModel::Create(a);
  ASSERT_FALSE(servable.ok());
  EXPECT_EQ(servable.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServableTest, WrongParameterCountIsRejected) {
  ModelArtifact a = TinyVqcArtifact("short-params");
  a.params.pop_back();
  auto servable = ServableModel::Create(a);
  ASSERT_FALSE(servable.ok());
  EXPECT_EQ(servable.status().code(), StatusCode::kInvalidArgument);
}

// ---- Registry ---------------------------------------------------------------

TEST(ModelRegistryTest, AssignsVersionsAndServesLatest) {
  ModelRegistry registry;
  auto v1 = registry.Register(TinyVqcArtifact("m"));
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(v1.value()->version(), 1);
  ModelArtifact second = TinyVqcArtifact("m");
  second.params[0] += 0.5;
  auto v2 = registry.Register(second);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value()->version(), 2);

  auto latest = registry.Lookup("m");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value()->version(), 2);
  auto pinned = registry.Lookup("m", 1);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value()->version(), 1);
  EXPECT_EQ(registry.size(), 2u);

  // Explicit duplicate version is refused.
  ModelArtifact dup = TinyVqcArtifact("m");
  dup.version = 2;
  auto clash = registry.Register(dup);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(registry.Evict("m", 1).ok());
  EXPECT_FALSE(registry.Lookup("m", 1).ok());
  EXPECT_TRUE(registry.Lookup("m").ok());
  ASSERT_TRUE(registry.Evict("m").ok());
  EXPECT_EQ(registry.Lookup("m").status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, SaveAndLoadModel) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("persist")).ok());
  const std::string path = TempPath("qdb_serve_registry.model");
  ASSERT_TRUE(registry.SaveModel("persist", 1, path).ok());

  ModelRegistry fresh;
  auto loaded = fresh.LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value()->name(), "persist");
  EXPECT_EQ(loaded.value()->version(), 1);

  // Loading into the original registry again clashes on the version...
  auto clash = registry.LoadModel(path);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kAlreadyExists);
  // ...unless the caller asks for reassignment.
  auto reassigned = registry.LoadModel(path, /*reassign_version=*/true);
  ASSERT_TRUE(reassigned.ok()) << reassigned.status();
  EXPECT_EQ(reassigned.value()->version(), 2);
}

// ---- Result cache -----------------------------------------------------------

TEST(ResultCacheTest, LruEviction) {
  ResultCache cache(2);
  InferenceValue v;
  v.value = 1.0;
  cache.Insert("a", v);
  cache.Insert("b", v);
  ASSERT_TRUE(cache.Lookup("a").has_value());  // "a" is now most recent.
  cache.Insert("c", v);                        // Evicts "b".
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  InferenceValue v;
  cache.Insert("a", v);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

TEST(ResultCacheTest, KeyIsBitExact) {
  const std::string k1 = ResultCache::MakeKey("m", 1, RequestKind::kPredict,
                                              {0.1, 0.2});
  const std::string k2 = ResultCache::MakeKey("m", 1, RequestKind::kPredict,
                                              {0.1, 0.2000000000000001});
  const std::string k3 = ResultCache::MakeKey("m", 2, RequestKind::kPredict,
                                              {0.1, 0.2});
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
}

// ---- Inference server -------------------------------------------------------

class InferenceServerTest : public ::testing::Test {
 protected:
  void RegisterTiny(const std::string& name) {
    auto servable = registry_.Register(TinyVqcArtifact(name));
    ASSERT_TRUE(servable.ok()) << servable.status();
    servable_ = servable.value();
  }

  InferenceRequest Request(const std::string& model, DVector input,
                           long timeout_us = 0) {
    InferenceRequest r;
    r.model = model;
    r.input = std::move(input);
    r.timeout_us = timeout_us;
    return r;
  }

  ModelRegistry registry_;
  std::shared_ptr<const ServableModel> servable_;
};

TEST_F(InferenceServerTest, CoalescesQueuedRequestsIntoOneBatch) {
  RegisterTiny("m");
  ServerOptions opts;
  opts.max_batch_size = 8;
  opts.max_wait_us = 0;
  InferenceServer server(registry_, opts);
  // Submit before Start: everything queues, so the first dispatcher pass
  // must coalesce all six requests into a single micro-batch.
  std::vector<std::future<Result<InferenceResponse>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(
        Request("m", {0.1 * static_cast<double>(i), 0.5})));
  }
  EXPECT_EQ(server.queue_depth(), 6u);
  ASSERT_TRUE(server.Start().ok());
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response.value().batch_size, 6u);
    EXPECT_EQ(response.value().model_version, 1);
    EXPECT_FALSE(response.value().from_cache);
  }
  EXPECT_EQ(servable_->batch_executions(), 1);
  EXPECT_EQ(server.stats().completed, 6);
  EXPECT_EQ(server.stats().batches, 1);
}

TEST_F(InferenceServerTest, QueueOverflowFailsFastWithUnavailable) {
  RegisterTiny("m");
  ServerOptions opts;
  opts.queue_capacity = 2;
  InferenceServer server(registry_, opts);
  auto f1 = server.Submit(Request("m", {0.1, 0.2}));
  auto f2 = server.Submit(Request("m", {0.3, 0.4}));
  auto f3 = server.Submit(Request("m", {0.5, 0.6}));
  // The overflowing submit resolves immediately, before Start.
  auto rejected = f3.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected, 1);

  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

TEST_F(InferenceServerTest, ExpiredDeadlineNeverReachesSimulator) {
  RegisterTiny("m");
  InferenceServer server(registry_);
  // 1µs deadline, and the dispatcher does not exist yet: by the time
  // Start() runs, the request is long expired.
  auto f = server.Submit(Request("m", {0.1, 0.2}, /*timeout_us=*/1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(server.Start().ok());
  auto response = f.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  server.Shutdown();
  EXPECT_EQ(servable_->batch_executions(), 0)
      << "a cancelled request must not execute";
  EXPECT_EQ(server.stats().expired, 1);
}

TEST_F(InferenceServerTest, GracefulDrainCompletesAdmittedWork) {
  RegisterTiny("m");
  ServerOptions opts;
  opts.max_batch_size = 4;
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<Result<InferenceResponse>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.Submit(
        Request("m", {0.05 * static_cast<double>(i), 1.0})));
  }
  server.Shutdown();  // Must drain, not drop.
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.status();
  }
  // After shutdown, admission fails with kUnavailable.
  auto late = server.Submit(Request("m", {0.0, 0.0})).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST_F(InferenceServerTest, ShutdownWithoutStartFailsQueuedRequests) {
  RegisterTiny("m");
  InferenceServer server(registry_);
  auto f = server.Submit(Request("m", {0.1, 0.2}));
  server.Shutdown();
  auto response = f.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(servable_->batch_executions(), 0);
}

TEST_F(InferenceServerTest, RepeatedQueryHitsResultCache) {
  RegisterTiny("m");
  InferenceServer server(registry_);
  ASSERT_TRUE(server.Start().ok());
  const DVector x = {0.25, 0.75};
  auto first = server.Submit(Request("m", x)).get();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first.value().from_cache);
  auto second = server.Submit(Request("m", x)).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().result.value, first.value().result.value);
  EXPECT_EQ(servable_->batch_executions(), 1);
  EXPECT_EQ(server.stats().cache_hits, 1);
}

TEST_F(InferenceServerTest, AdmissionRejectsUnknownModelAndBadInput) {
  RegisterTiny("m");
  InferenceServer server(registry_);
  auto unknown = server.Submit(Request("nope", {0.1, 0.2})).get();
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  auto narrow = server.Submit(Request("m", {0.1})).get();
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.queue_depth(), 0u) << "rejected work must not queue";
}

TEST_F(InferenceServerTest, ConcurrentClientsAllComplete) {
  RegisterTiny("m");
  ServerOptions opts;
  opts.max_batch_size = 8;
  opts.max_wait_us = 100;
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const double a = 0.01 * static_cast<double>(c * kPerClient + i);
        auto response = server.Submit(Request("m", {a, 1.0 - a})).get();
        if (response.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Shutdown();
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed + stats.cache_hits, kClients * kPerClient);
}

TEST_F(InferenceServerTest, ShutdownRaceNeverDropsPromises) {
  // Clients hammer Submit while another thread calls Shutdown: every future
  // must still resolve with a definitive Status (a dropped promise would
  // throw std::future_error(broken_promise) from .get()), and the terminal
  // buckets must exactly account for every admission attempt.
  for (int round = 0; round < 5; ++round) {
    RegisterTiny("m");
    ServerOptions opts;
    opts.max_batch_size = 4;
    opts.max_wait_us = 50;
    InferenceServer server(registry_, opts);
    ASSERT_TRUE(server.Start().ok());
    constexpr int kClients = 4;
    constexpr int kPerClient = 50;
    std::atomic<int> resolved{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const double a = 0.001 * static_cast<double>(c * kPerClient + i);
          auto future = server.Submit(Request("m", {a, 1.0 - a}));
          (void)future.get();  // Throws on a broken promise → test aborts.
          resolved.fetch_add(1);
        }
      });
    }
    // Let the race land mid-traffic.
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    server.Shutdown();
    for (auto& t : clients) t.join();
    EXPECT_EQ(resolved.load(), kClients * kPerClient);
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, kClients * kPerClient);
    EXPECT_EQ(stats.submitted, stats.completed + stats.cache_hits +
                                   stats.degraded + stats.rejected +
                                   stats.quota_rejected + stats.expired +
                                   stats.failed)
        << "every request must land in exactly one terminal bucket";
    EXPECT_EQ(stats.fifo_violations, 0);
  }
}

TEST_F(InferenceServerTest, DeadlineExpiresMidRetryStopsRetrying) {
  // Every dispatch attempt fails; the retry backoff (20ms) cannot fit the
  // 10ms request deadline, so the loop must cut immediately with
  // kDeadlineExceeded instead of burning through all 10 attempts (~180ms+)
  // on a result nobody will wait for.
  fault::FaultInjector::Global().DisarmAll();
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kError;
  spec.target = "m";
  fault::FaultInjector::Global().Arm("serve.dispatch", spec);
  RegisterTiny("m");
  ServerOptions opts;
  opts.max_wait_us = 0;
  opts.retry.max_attempts = 10;
  opts.retry.initial_backoff_us = 20000;
  opts.retry.decorrelated_jitter = false;
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());
  const auto start = std::chrono::steady_clock::now();
  auto response =
      server.Submit(Request("m", {0.2, 0.8}, /*timeout_us=*/10000)).get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  fault::FaultInjector::Global().DisarmAll();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(servable_->batch_executions(), 0)
      << "injected dispatch faults fire before the simulator runs";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            100)
      << "the retry loop must stop at the deadline, not run all 10 attempts";
  server.Shutdown();
  EXPECT_EQ(server.stats().expired, 1);
}

// ---- Request-scoped tracing -------------------------------------------------

// Trace events for one request, split into the root "serve.request" span
// (exactly one per submitted request) and everything underneath it.
struct TraceTree {
  const obs::TraceEvent* root = nullptr;
  int root_count = 0;
  std::vector<const obs::TraceEvent*> children;
};

TraceTree TreeFor(const std::vector<obs::TraceEvent>& events,
                  uint64_t trace_id) {
  TraceTree tree;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    if (std::string(e.name) == "serve.request") {
      tree.root = &e;
      ++tree.root_count;
    } else {
      tree.children.push_back(&e);
    }
  }
  return tree;
}

TEST_F(InferenceServerTest, EveryRequestYieldsExactlyOneRootSpanTree) {
  RegisterTiny("m");
  obs::TraceLog::Global().Clear();
  obs::EnableTracing();
  ServerOptions opts;
  opts.max_batch_size = 8;
  opts.max_wait_us = 0;
  constexpr int kRequests = 6;
  std::vector<InferenceResponse> responses;
  {
    InferenceServer server(registry_, opts);
    // Submit before Start so all six coalesce into one micro-batch: the
    // batch then has to fan causal edges into six distinct request trees.
    std::vector<std::future<Result<InferenceResponse>>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(
          server.Submit(Request("m", {0.1 * static_cast<double>(i), 0.5})));
    }
    ASSERT_TRUE(server.Start().ok());
    for (auto& f : futures) {
      auto response = f.get();
      ASSERT_TRUE(response.ok()) << response.status();
      responses.push_back(std::move(response.value()));
    }
    server.Shutdown();
  }
  obs::DisableTracing();
  const auto events = obs::TraceLog::Global().Snapshot();

  std::set<uint64_t> trace_ids;
  for (const auto& response : responses) {
    ASSERT_NE(response.trace.trace_id, 0u);
    trace_ids.insert(response.trace.trace_id);
    EXPECT_GE(response.trace.attempts, 1);
    // The summary's parts never exceed the end-to-end latency it reports.
    EXPECT_LE(response.trace.queue_wait_us + response.trace.exec_us,
              response.trace.total_us);
  }
  ASSERT_EQ(trace_ids.size(), responses.size()) << "trace ids must be unique";

  for (uint64_t trace_id : trace_ids) {
    const TraceTree tree = TreeFor(events, trace_id);
    ASSERT_EQ(tree.root_count, 1)
        << StrFormat("trace %016llx needs exactly one serve.request root",
                     static_cast<unsigned long long>(trace_id));
    EXPECT_EQ(tree.root->parent_span_id, 0u);
    EXPECT_FALSE(tree.children.empty());

    // Every non-root event hangs off a span recorded in the same trace —
    // the tree is causally connected, not a bag of events.
    std::set<uint64_t> span_ids{tree.root->span_id};
    for (const auto* child : tree.children) span_ids.insert(child->span_id);
    long accounted_us = 0;
    int queue_waits = 0;
    for (const auto* child : tree.children) {
      EXPECT_NE(child->parent_span_id, 0u) << child->name;
      EXPECT_TRUE(span_ids.count(child->parent_span_id))
          << child->name << " parents outside its trace";
      const std::string name = child->name;
      if (name == "serve.queue_wait" || name == "serve.attempt") {
        accounted_us += child->duration_us;
      }
      queue_waits += name == "serve.queue_wait" ? 1 : 0;
    }
    EXPECT_EQ(queue_waits, 1);
    // Queue wait and execution attempts are disjoint sub-intervals of the
    // root span, so their durations sum to at most the request latency.
    EXPECT_LE(accounted_us, tree.root->duration_us);
  }

  // The batch links every coalesced member's trace from the leader's tree.
  std::set<uint64_t> linked;
  for (const auto& e : events) {
    if (std::string(e.name) == "serve.batch.member") {
      EXPECT_NE(e.link_trace_id, 0u);
      linked.insert(e.link_trace_id);
    }
  }
  EXPECT_EQ(linked, trace_ids);
}

TEST_F(InferenceServerTest, RetryStormProducesOneCausallyLinkedTraceTree) {
  // Every dispatch attempt fails (injected), so one request rides the full
  // retry ladder to a terminal failure. Its trace must contain the whole
  // story: attempts, backoff sleeps, and the failure marker, all linked
  // under a single root span.
  fault::FaultInjector::Global().DisarmAll();
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kError;
  spec.target = "m";
  fault::FaultInjector::Global().Arm("serve.dispatch", spec);
  RegisterTiny("m");
  obs::TraceLog::Global().Clear();
  obs::EnableTracing();
  ServerOptions opts;
  opts.max_wait_us = 0;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff_us = 200;
  opts.retry.decorrelated_jitter = false;
  opts.enable_breaker = false;  // Keep every attempt flowing.
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());
  auto response = server.Submit(Request("m", {0.2, 0.8})).get();
  server.Shutdown();
  obs::DisableTracing();
  fault::FaultInjector::Global().DisarmAll();
  ASSERT_FALSE(response.ok());

  const auto events = obs::TraceLog::Global().Snapshot();
  // Exactly one root span in the whole log: the one failed request.
  uint64_t trace_id = 0;
  for (const auto& e : events) {
    if (std::string(e.name) == "serve.request") {
      EXPECT_EQ(trace_id, 0u) << "more than one root span recorded";
      trace_id = e.trace_id;
    }
  }
  ASSERT_NE(trace_id, 0u);
  const TraceTree tree = TreeFor(events, trace_id);
  ASSERT_EQ(tree.root_count, 1);
  int attempts = 0, backoffs = 0, failed_markers = 0;
  for (const auto* child : tree.children) {
    const std::string name = child->name;
    attempts += name == "serve.attempt" ? 1 : 0;
    backoffs += name == "serve.retry_backoff" ? 1 : 0;
    failed_markers += name == "serve.outcome.failed" ? 1 : 0;
    EXPECT_NE(child->parent_span_id, 0u) << name;
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(backoffs, 2);  // Sleeps between attempts, not after the last.
  EXPECT_EQ(failed_markers, 1);
}

TEST_F(InferenceServerTest, QuboConfigModelsAreNotExecutable) {
  ASSERT_TRUE(registry_
                  .Register(MakeQuboConfigArtifact({{"solver", "sa"}},
                                                   "qubo-cfg"))
                  .ok());
  InferenceServer server(registry_);
  auto response = server.Submit(Request("qubo-cfg", {})).get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace qdb
