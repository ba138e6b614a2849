#include <cmath>
#include <memory>

#include "common/metrics.h"
#include "common/trace.h"
#include "compress/methods.h"
#include "nn/trainer.h"
#include "nn/visit.h"

namespace automc {
namespace compress {

// See methods.h: QuantCompressor implements the paper's fourth method
// category (quantization) as a search-space extension. Uniform symmetric
// per-tensor fake quantization of every weight to `bits`, followed by
// quantization-aware fine-tuning where weights are re-quantized after each
// epoch (straight-through-style: full-precision gradients, quantized
// values).
namespace {

void QuantizeTensor(tensor::Tensor* t, int bits) {
  if (t->numel() == 0) return;
  float max_abs = 0.0f;
  for (int64_t i = 0; i < t->numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs((*t)[i]));
  }
  if (max_abs == 0.0f) return;
  float levels = static_cast<float>((1 << (bits - 1)) - 1);
  float scale = max_abs / levels;
  for (int64_t i = 0; i < t->numel(); ++i) {
    (*t)[i] = scale * std::round((*t)[i] / scale);
  }
}

void QuantizeModelWeights(nn::Model* model, int bits) {
  for (nn::Param* p : model->Params()) QuantizeTensor(&p->value, bits);
}

}  // namespace

Status QuantCompressor::Compress(nn::Model* model,
                                 const CompressionContext& ctx,
                                 CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.QT.invocations");
  AUTOMC_SCOPED_TIMER("compress.QT.ms");
  if (config_.bits < 2 || config_.bits > 16) {
    return Status::InvalidArgument("QT bits must be in [2,16]");
  }
  if (config_.bits >= model->weight_bits()) {
    return Status::FailedPrecondition(
        "model already quantized to fewer or equal bits");
  }
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        QuantizeModelWeights(model, config_.bits);
        model->set_weight_bits(config_.bits);
        // Quantization-aware fine-tuning: train in full precision, snap the
        // weights back to the grid after every epoch.
        nn::TrainConfig tc;
        tc.epochs = ctx.EpochsFromFraction(config_.finetune_frac);
        tc.batch_size = ctx.batch_size;
        tc.lr = ctx.lr;
        tc.seed = ctx.seed + 707;
        nn::Trainer trainer(tc);
        int bits = config_.bits;
        return trainer.Fit(model, *ctx.train, nullptr,
                           [bits](int, nn::Model* m) {
                             QuantizeModelWeights(m, bits);
                           });
      },
      stats);
}

}  // namespace compress
}  // namespace automc
