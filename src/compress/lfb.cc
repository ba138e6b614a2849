#include <memory>

#include "common/metrics.h"
#include "common/trace.h"
#include "compress/lowrank_apply.h"
#include "compress/methods.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {

using tensor::Tensor;

Status LfbCompressor::Compress(nn::Model* model, const CompressionContext& ctx,
                               CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.LFB.invocations");
  AUTOMC_SCOPED_TIMER("compress.LFB.ms");
  if (config_.aux_loss != "NLL" && config_.aux_loss != "CE" &&
      config_.aux_loss != "MSE") {
    return Status::InvalidArgument("LFB unknown aux loss " + config_.aux_loss);
  }
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        std::unique_ptr<nn::Model> teacher = model->Clone();

        // TE9: express filters over a truncated shared basis (SVD split of
        // each spatial conv), sized to meet HP2 globally.
        AUTOMC_RETURN_IF_ERROR(ApplyLowRankGlobal(
            model, config_.decrease_ratio, DecompKind::kSvd));

        // HP1/HP15/HP16: fine-tune with CE plus the configured auxiliary
        // term — label-based (NLL/CE variants) or teacher-logit MSE.
        nn::Model* teacher_ptr = teacher.get();
        float factor = static_cast<float>(config_.aux_factor);
        std::string kind = config_.aux_loss;
        nn::LossFn loss = [teacher_ptr, factor, kind](
                              const Tensor& logits,
                              const std::vector<int>& labels,
                              const Tensor& images) {
          nn::LossResult main = nn::CrossEntropy(logits, labels);
          nn::LossResult aux;
          if (kind == "NLL") {
            aux = nn::NegativeLikelihood(logits, labels);
          } else if (kind == "CE") {
            // CE auxiliary = soft-target CE against the teacher (T = 1 KD).
            Tensor teacher_logits =
                teacher_ptr->Forward(images, /*training=*/false);
            aux = nn::DistillationKl(logits, teacher_logits, 1.0f);
          } else {
            Tensor teacher_logits =
                teacher_ptr->Forward(images, /*training=*/false);
            aux = nn::Mse(logits, teacher_logits);
          }
          nn::LossResult out;
          out.loss = main.loss + factor * aux.loss;
          out.grad = main.grad;
          out.grad.AxpyInPlace(factor, aux.grad);
          return out;
        };
        nn::TrainConfig tc;
        tc.epochs = ctx.EpochsFromFraction(config_.finetune_frac);
        tc.batch_size = ctx.batch_size;
        tc.lr = ctx.lr;
        tc.seed = ctx.seed + 606;
        nn::Trainer trainer(tc);
        return trainer.Fit(model, *ctx.train, loss);
      },
      stats);
}

}  // namespace compress
}  // namespace automc
