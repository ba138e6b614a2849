#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/metrics.h"
#include "common/trace.h"
#include "nn/optimizer.h"
#include "nn/visit.h"

namespace automc {
namespace nn {

using tensor::Tensor;

namespace {

// Adds the L1 subgradient of |gamma| to every BatchNorm gamma gradient
// (Network Slimming sparsity term).
void ApplyBnGammaL1(Model* model, float strength) {
  VisitLayers(model->net(), [strength](Layer* layer) {
    auto* bn = dynamic_cast<BatchNorm2d*>(layer);
    if (bn == nullptr) return;
    Param& gamma = bn->gamma();
    for (int64_t i = 0; i < gamma.value.numel(); ++i) {
      float g = gamma.value[i];
      gamma.grad[i] += strength * (g > 0.0f ? 1.0f : (g < 0.0f ? -1.0f : 0.0f));
    }
  });
}

}  // namespace

Status Trainer::Fit(Model* model, const data::Dataset& train, LossFn loss_fn,
                    EpochHook epoch_hook, float* final_loss) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (train.Size() == 0) return Status::InvalidArgument("empty training set");
  if (config_.epochs < 0) return Status::InvalidArgument("negative epochs");
  if (config_.batch_size <= 0) return Status::InvalidArgument("bad batch size");

  if (!loss_fn) {
    loss_fn = [](const Tensor& logits, const std::vector<int>& labels,
                 const Tensor&) { return CrossEntropy(logits, labels); };
  }

  Rng rng(config_.seed);
  Sgd opt(config_.lr, config_.momentum, config_.weight_decay);
  std::vector<int64_t> order(static_cast<size_t>(train.Size()));
  std::iota(order.begin(), order.end(), 0);

  float last_epoch_loss = 0.0f;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    opt.set_lr(config_.lr *
               std::pow(config_.lr_decay, static_cast<float>(epoch)));
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    {
      AUTOMC_SCOPED_TIMER("trainer.epoch_ms");
      for (size_t start = 0; start < order.size();
           start += static_cast<size_t>(config_.batch_size)) {
        size_t end = std::min(order.size(),
                              start + static_cast<size_t>(config_.batch_size));
        std::vector<int64_t> idx(order.begin() + static_cast<int64_t>(start),
                                 order.begin() + static_cast<int64_t>(end));
        Tensor images = train.GatherImages(idx);
        std::vector<int> labels = train.GatherLabels(idx);
        if (config_.augment) {
          images = data::Augment(images, config_.augment_config, &rng);
        }

        model->ZeroGrad();
        // Intra-batch data parallelism lives inside the layer kernels
        // (per-group conv im2col+GEMM, per-channel batch norm, per-row
        // GEMM), not here: splitting the batch across model replicas would
        // change batch-norm statistics and gradient reduction order. The
        // kernels chunk work independently of AUTOMC_THREADS and reduce
        // shared gradients in a fixed order, so the loss curve is
        // bit-identical for any thread count.
        Tensor logits = model->Forward(images, /*training=*/true);
        LossResult lr = loss_fn(logits, labels, images);
        model->Backward(lr.grad);
        if (config_.bn_gamma_l1 > 0.0f) {
          ApplyBnGammaL1(model, config_.bn_gamma_l1);
        }
        opt.Step(model->Params());
        epoch_loss += lr.loss;
        ++batches;
      }
    }
    last_epoch_loss =
        batches > 0 ? static_cast<float>(epoch_loss / batches) : 0.0f;
    AUTOMC_METRIC_COUNT("trainer.epochs");
    AUTOMC_METRIC_COUNT("trainer.steps", batches);
    AUTOMC_METRIC_OBSERVE("trainer.epoch_loss", last_epoch_loss);
    if (epoch_hook) epoch_hook(epoch, model);
    if (!std::isfinite(last_epoch_loss)) {
      // Diverged (aggressive compression + high lr can blow up). Stop
      // training; the caller observes the resulting (poor) accuracy.
      break;
    }
  }
  if (final_loss != nullptr) *final_loss = last_epoch_loss;
  return Status::OK();
}

double Trainer::Evaluate(Model* model, const data::Dataset& ds,
                         int batch_size) {
  AUTOMC_CHECK(model != nullptr);
  if (ds.Size() == 0) return 0.0;
  int64_t correct = 0;
  for (int64_t start = 0; start < ds.Size(); start += batch_size) {
    int64_t end = std::min(ds.Size(), start + batch_size);
    std::vector<int64_t> idx;
    idx.reserve(static_cast<size_t>(end - start));
    for (int64_t i = start; i < end; ++i) idx.push_back(i);
    Tensor images = ds.GatherImages(idx);
    std::vector<int> labels = ds.GatherLabels(idx);
    Tensor logits = model->Forward(images, /*training=*/false);
    correct += static_cast<int64_t>(
        std::llround(Accuracy(logits, labels) * static_cast<double>(labels.size())));
  }
  return static_cast<double>(correct) / static_cast<double>(ds.Size());
}

}  // namespace nn
}  // namespace automc
