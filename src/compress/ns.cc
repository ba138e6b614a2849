#include <algorithm>

#include "common/metrics.h"
#include "common/trace.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {

Status NsCompressor::Compress(nn::Model* model, const CompressionContext& ctx,
                              CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.NS.invocations");
  AUTOMC_SCOPED_TIMER("compress.NS.ms");
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        // TE4 step 1: sparsity training — L1 on BatchNorm scaling factors
        // pushes unimportant channels' gammas toward zero.
        nn::TrainConfig sparsity;
        sparsity.epochs =
            std::max(1, ctx.pretrain_epochs / 4);  // short sparsity phase
        sparsity.batch_size = ctx.batch_size;
        sparsity.lr = ctx.lr;
        sparsity.bn_gamma_l1 = 0.01f;
        sparsity.seed = ctx.seed + 303;
        nn::Trainer trainer(sparsity);
        AUTOMC_RETURN_IF_ERROR(trainer.Fit(model, *ctx.train));

        // TE4 step 2: global channel pruning by gamma magnitude.
        GlobalPruneOptions opts;
        opts.target_param_fraction = config_.decrease_ratio;
        opts.max_prune_ratio_per_layer = config_.max_prune_ratio;
        AUTOMC_RETURN_IF_ERROR(
            GlobalStructuredPrune(model, opts, FilterBnGamma));

        // TE3: fine-tune.
        return Finetune(model, ctx,
                        ctx.EpochsFromFraction(config_.finetune_frac));
      },
      stats);
}

}  // namespace compress
}  // namespace automc
