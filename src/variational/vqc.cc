#include "variational/vqc.h"

#include <cmath>

#include "autodiff/adjoint.h"
#include "autodiff/expectation.h"
#include "autodiff/parameter_shift.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "encoding/encodings.h"
#include "linalg/vector_ops.h"
#include "obs/trace.h"

namespace qdb {

Circuit VqcClassifier::BuildCircuit(const DVector& x) const {
  QDB_CHECK_EQ(static_cast<int>(x.size()), num_features_);
  const int n = num_features_;
  DVector scaled(x);
  for (auto& v : scaled) v *= options_.feature_scale;

  Circuit c(n);
  switch (options_.encoding) {
    case VqcEncoding::kAngle:
      c.Append(AngleEncoding(scaled, RotationAxis::kY));
      c.Append(RealAmplitudesAnsatz(n, options_.ansatz_layers,
                                    options_.entanglement));
      break;
    case VqcEncoding::kZZFeatureMap:
      c.Append(ZZFeatureMap(scaled, /*reps=*/2));
      c.Append(RealAmplitudesAnsatz(n, options_.ansatz_layers,
                                    options_.entanglement));
      break;
    case VqcEncoding::kReuploading:
      // Features are already scaled above, so the shared circuit gets 1.0.
      c.Append(DataReuploadingCircuit(scaled, options_.ansatz_layers, 1.0));
      break;
  }
  return c;
}

Result<VqcClassifier> VqcClassifier::Train(const Dataset& data,
                                           const VqcOptions& options) {
  if (data.size() < 2) {
    return Status::InvalidArgument("VQC needs at least two training samples");
  }
  if (data.labels.size() != data.size()) {
    return Status::InvalidArgument("feature/label count mismatch");
  }
  for (int y : data.labels) {
    if (y != 1 && y != -1) {
      return Status::InvalidArgument("labels must be +1 or -1");
    }
  }
  if (options.ansatz_layers < 1) {
    return Status::InvalidArgument("ansatz_layers must be >= 1");
  }

  QDB_TRACE_SCOPE("VqcClassifier::Train", "train");
  VqcClassifier model;
  model.options_ = options;
  model.num_features_ = data.num_features();

  // One expectation function per training sample (the data is baked into
  // the circuit as constants; θ stays symbolic).
  const PauliSum observable =
      PauliSum(model.num_features_)
          .Add(1.0, PauliString::Single(model.num_features_, 0, PauliOp::kZ));
  std::vector<ExpectationFunction> sample_fns;
  sample_fns.reserve(data.size());
  for (const auto& x : data.features) {
    sample_fns.emplace_back(model.BuildCircuit(x), observable);
  }
  const int num_params = sample_fns.front().num_parameters();
  if (num_params == 0) {
    return Status::Internal("VQC circuit has no trainable parameters");
  }

  // Per-sample evaluations are independent, so both the loss and the
  // gradient fan out across the shared ThreadPool; accumulation stays
  // serial and in sample order, keeping results thread-count independent.
  const size_t num_samples = sample_fns.size();
  const double inv_n = 1.0 / static_cast<double>(data.size());
  Objective loss = [&](const DVector& theta) -> Result<double> {
    std::vector<double> scores(num_samples, 0.0);
    std::vector<Status> statuses(num_samples);
    ThreadPool::Global().RunTasks(num_samples, [&](size_t i) {
      Result<double> r = sample_fns[i].Evaluate(theta);
      if (r.ok()) scores[i] = r.value();
      statuses[i] = r.status();
    });
    double acc = 0.0;
    for (size_t i = 0; i < num_samples; ++i) {
      QDB_RETURN_IF_ERROR(statuses[i]);
      const double diff = scores[i] - data.labels[i];
      acc += diff * diff;
    }
    return acc * inv_n;
  };
  GradientFn grad = [&](const DVector& theta) -> Result<DVector> {
    std::vector<double> scores(num_samples, 0.0);
    std::vector<DVector> grads(num_samples);
    std::vector<Status> statuses(num_samples);
    ThreadPool::Global().RunTasks(num_samples, [&](size_t i) {
      if (options.gradient == GradientMethod::kAdjoint) {
        Result<AdjointResult> r =
            AdjointGradient(sample_fns[i].circuit(), observable, theta);
        if (r.ok()) {
          scores[i] = r.value().value;
          grads[i] = std::move(r.value().gradient);
        }
        statuses[i] = r.status();
      } else {
        Result<double> score = sample_fns[i].Evaluate(theta);
        statuses[i] = score.status();
        if (!score.ok()) return;
        scores[i] = score.value();
        Result<DVector> g = ParameterShiftGradient(sample_fns[i], theta);
        if (g.ok()) grads[i] = std::move(g).value();
        statuses[i] = g.status();
      }
    });
    DVector total(theta.size(), 0.0);
    for (size_t i = 0; i < num_samples; ++i) {
      QDB_RETURN_IF_ERROR(statuses[i]);
      const double coeff = 2.0 * (scores[i] - data.labels[i]) * inv_n;
      for (size_t k = 0; k < total.size(); ++k) {
        total[k] += coeff * grads[i][k];
      }
    }
    return total;
  };

  Rng rng(options.seed);
  DVector initial =
      rng.UniformVector(num_params, -options.init_scale, options.init_scale);
  QDB_ASSIGN_OR_RETURN(OptimizeResult opt,
                       MinimizeAdam(loss, grad, initial, options.adam));

  model.params_ = std::move(opt.params);
  model.loss_history_ = std::move(opt.history);
  model.gradient_norm_history_ = std::move(opt.gradient_norm_history);
  for (const auto& fn : sample_fns) {
    model.circuit_evaluations_ += fn.evaluation_count();
  }
  return model;
}

Result<double> VqcClassifier::Score(const DVector& x) const {
  if (static_cast<int>(x.size()) != num_features_) {
    return Status::InvalidArgument("feature dimension mismatch");
  }
  const PauliSum observable =
      PauliSum(num_features_)
          .Add(1.0, PauliString::Single(num_features_, 0, PauliOp::kZ));
  ExpectationFunction fn(BuildCircuit(x), observable);
  return fn.Evaluate(params_);
}

Result<int> VqcClassifier::Predict(const DVector& x) const {
  QDB_ASSIGN_OR_RETURN(double score, Score(x));
  return score >= 0.0 ? 1 : -1;
}

}  // namespace qdb
