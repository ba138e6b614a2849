#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "compress/lowrank_apply.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {

using tensor::Tensor;

namespace {

// Higher-order statistic of one filter's weights (HP12).
double FilterStat(const std::string& criterion, const PrunableUnit& unit,
                  int64_t filter) {
  const nn::Conv2d* conv = unit.conv;
  int64_t fsize = conv->in_channels() * conv->kernel() * conv->kernel();
  const float* w = conv->weight().value.data() + filter * fsize;
  size_t n = static_cast<size_t>(fsize);
  if (criterion == "l1norm") return L1Norm(w, n);
  if (criterion == "k34") {
    // Combined 3rd + 4th standardized moments: far-from-Gaussian filters
    // carry structure worth keeping.
    return std::fabs(Skewness(w, n)) + std::fabs(Kurtosis(w, n));
  }
  // "skew_kur": euclidean combination.
  double s = Skewness(w, n), k = Kurtosis(w, n);
  return std::sqrt(s * s + k * k);
}

}  // namespace

Status HosCompressor::Compress(nn::Model* model, const CompressionContext& ctx,
                               CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.HOS.invocations");
  AUTOMC_SCOPED_TIMER("compress.HOS.ms");
  if (config_.stat_criterion != "l1norm" && config_.stat_criterion != "k34" &&
      config_.stat_criterion != "skew_kur") {
    return Status::InvalidArgument("HOS unknown stat criterion " +
                                   config_.stat_criterion);
  }
  if (config_.global_criterion != "P1" && config_.global_criterion != "P2" &&
      config_.global_criterion != "P3") {
    return Status::InvalidArgument("HOS unknown global criterion " +
                                   config_.global_criterion);
  }
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        std::unique_ptr<nn::Model> teacher = model->Clone();
        int64_t params0 = model->ParamCount();

        // TE6: filter pruning scored by higher-order statistics, normalized
        // across layers per HP11. Half of the reduction budget goes to
        // pruning, half to the HOOI decomposition below.
        double prune_target = config_.decrease_ratio * 0.5;
        {
          // Per-unit normalizers for P2 (mean) / P3 (max).
          std::map<const nn::Conv2d*, double> norm;
          for (const PrunableUnit& unit : CollectPrunableUnits(model)) {
            double mean = 0.0, mx = 0.0;
            int64_t n = unit.conv->out_channels();
            for (int64_t f = 0; f < n; ++f) {
              double s = FilterStat(config_.stat_criterion, unit, f);
              mean += s;
              mx = std::max(mx, s);
            }
            mean /= std::max<int64_t>(1, n);
            if (config_.global_criterion == "P2") {
              norm[unit.conv] = (mean > 1e-12) ? mean : 1.0;
            } else if (config_.global_criterion == "P3") {
              norm[unit.conv] = (mx > 1e-12) ? mx : 1.0;
            } else {
              norm[unit.conv] = 1.0;
            }
          }
          GlobalPruneOptions opts;
          opts.target_param_fraction = prune_target;
          ImportanceFn importance = [this, &norm](const PrunableUnit& unit,
                                                  int64_t filter) {
            return FilterStat(config_.stat_criterion, unit, filter) /
                   norm.at(unit.conv);
          };
          AUTOMC_RETURN_IF_ERROR(GlobalStructuredPrune(model, opts, importance));
        }

        // TE7: HOOI Tucker-2 decomposition for the remaining budget,
        // measured against the original parameter count.
        double achieved =
            1.0 - static_cast<double>(model->ParamCount()) / params0;
        double remaining = config_.decrease_ratio - achieved;
        if (remaining > 0.01) {
          // Convert "fraction of params0" into "fraction of current params".
          double frac_now = remaining * static_cast<double>(params0) /
                            static_cast<double>(model->ParamCount());
          frac_now = std::min(frac_now, 0.95);
          AUTOMC_RETURN_IF_ERROR(
              ApplyLowRankGlobal(model, frac_now, DecompKind::kHooi));
        }

        // HP13/HP14: optimization epochs with an auxiliary logit
        // reconstruction MSE against the pre-compression teacher.
        nn::Model* teacher_ptr = teacher.get();
        float mse_factor = static_cast<float>(config_.mse_factor);
        nn::LossFn loss = [teacher_ptr, mse_factor](
                              const Tensor& logits,
                              const std::vector<int>& labels,
                              const Tensor& images) {
          Tensor teacher_logits =
              teacher_ptr->Forward(images, /*training=*/false);
          nn::LossResult ce = nn::CrossEntropy(logits, labels);
          nn::LossResult mse = nn::Mse(logits, teacher_logits);
          nn::LossResult out;
          out.loss = ce.loss + mse_factor * mse.loss;
          out.grad = ce.grad;
          out.grad.AxpyInPlace(mse_factor, mse.grad);
          return out;
        };
        nn::TrainConfig tc;
        tc.epochs = ctx.EpochsFromFraction(config_.optim_frac);
        tc.batch_size = ctx.batch_size;
        tc.lr = ctx.lr;
        tc.seed = ctx.seed + 505;
        nn::Trainer trainer(tc);
        AUTOMC_RETURN_IF_ERROR(trainer.Fit(model, *ctx.train, loss));

        // TE3: plain fine-tune.
        return Finetune(model, ctx,
                        ctx.EpochsFromFraction(config_.finetune_frac));
      },
      stats);
}

}  // namespace compress
}  // namespace automc
