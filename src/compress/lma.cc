#include "common/metrics.h"
#include "common/trace.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {

using tensor::Tensor;

Status LmaCompressor::Compress(nn::Model* model, const CompressionContext& ctx,
                               CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.LMA.invocations");
  AUTOMC_SCOPED_TIMER("compress.LMA.ms");
  if (config_.alpha < 0.0 || config_.alpha > 1.0) {
    return Status::InvalidArgument("LMA alpha must be in [0,1]");
  }
  if (config_.temperature <= 0.0) {
    return Status::InvalidArgument("LMA temperature must be positive");
  }
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        // The uncompressed model acts as the distillation teacher.
        std::unique_ptr<nn::Model> teacher = model->Clone();

        // Build the student in place: shrink structurally to the decrease
        // ratio, then swap in multi-segment activations.
        GlobalPruneOptions opts;
        opts.target_param_fraction = config_.decrease_ratio;
        AUTOMC_RETURN_IF_ERROR(
            GlobalStructuredPrune(model, opts, FilterL2));
        nn::LMAActivation prototype(config_.segments);
        ReplaceAllActivations(model, prototype);

        // Distill: alpha * CE + (1 - alpha) * T^2 KL(teacher || student).
        nn::Model* teacher_ptr = teacher.get();
        float temp = static_cast<float>(config_.temperature);
        float alpha = static_cast<float>(config_.alpha);
        nn::LossFn loss = [teacher_ptr, temp, alpha](
                              const Tensor& logits,
                              const std::vector<int>& labels,
                              const Tensor& images) {
          Tensor teacher_logits =
              teacher_ptr->Forward(images, /*training=*/false);
          nn::LossResult ce = nn::CrossEntropy(logits, labels);
          nn::LossResult kd =
              nn::DistillationKl(logits, teacher_logits, temp);
          nn::LossResult out;
          out.loss = alpha * ce.loss + (1.0f - alpha) * kd.loss;
          out.grad = ce.grad;
          out.grad.Scale(alpha);
          out.grad.AxpyInPlace(1.0f - alpha, kd.grad);
          return out;
        };

        nn::TrainConfig tc;
        tc.epochs = ctx.EpochsFromFraction(config_.finetune_frac);
        tc.batch_size = ctx.batch_size;
        tc.lr = ctx.lr;
        tc.seed = ctx.seed + 101;
        nn::Trainer trainer(tc);
        return trainer.Fit(model, *ctx.train, loss);
      },
      stats);
}

}  // namespace compress
}  // namespace automc
