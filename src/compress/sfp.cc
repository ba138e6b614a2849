#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {

namespace {

// Zeroes the `fraction` lowest-l2 filters of every prunable unit — conv
// weights AND the downstream BatchNorm affine parameters, so a soft-zeroed
// channel contributes exactly nothing and the eventual hard prune is
// function-preserving. The parameters stay in the network and keep
// receiving gradients, so a wrongly-zeroed filter can recover (the "soft"
// part of soft filter pruning).
void SoftZeroFilters(nn::Model* model, double fraction) {
  for (const PrunableUnit& unit : CollectPrunableUnits(model)) {
    int64_t n = unit.conv->out_channels();
    int64_t zero_n = static_cast<int64_t>(std::floor(fraction * n));
    zero_n = std::min(zero_n, n - 2);
    if (zero_n <= 0) continue;
    std::vector<std::pair<double, int64_t>> scored;
    for (int64_t f = 0; f < n; ++f) scored.push_back({FilterL2(unit, f), f});
    std::sort(scored.begin(), scored.end());
    int64_t fsize = unit.conv->in_channels() * unit.conv->kernel() *
                    unit.conv->kernel();
    // In-place surgery on this model's weights: MutableData materializes a
    // private copy, so cached snapshots sharing the buffer stay intact.
    float* wd = unit.conv->weight().value.MutableData();
    for (int64_t i = 0; i < zero_n; ++i) {
      int64_t f = scored[static_cast<size_t>(i)].second;
      float* w = wd + f * fsize;
      std::fill(w, w + fsize, 0.0f);
      if (unit.conv->has_bias()) unit.conv->bias().value[f] = 0.0f;
      if (unit.bn != nullptr) {
        unit.bn->gamma().value[f] = 0.0f;
        unit.bn->beta().value[f] = 0.0f;
      }
    }
  }
}

// Finds the per-layer filter fraction whose uniform hard prune removes
// `target` of the model's parameters, by binary search on throwaway clones.
double SolveFilterFraction(nn::Model* model, double target) {
  int64_t params0 = model->ParamCount();
  double lo = 0.0, hi = 0.95;
  for (int it = 0; it < 12; ++it) {
    double mid = 0.5 * (lo + hi);
    std::unique_ptr<nn::Model> probe = model->Clone();
    Status st = UniformStructuredPrune(probe.get(), mid, FilterL2);
    if (!st.ok()) break;
    double achieved =
        1.0 - static_cast<double>(probe->ParamCount()) / params0;
    if (achieved < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

Status SfpCompressor::Compress(nn::Model* model, const CompressionContext& ctx,
                               CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.SFP.invocations");
  AUTOMC_SCOPED_TIMER("compress.SFP.ms");
  if (config_.update_frequency <= 0) {
    return Status::InvalidArgument("SFP update_frequency must be positive");
  }
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        if (CollectPrunableUnits(model).empty()) {
          return Status::FailedPrecondition("no prunable units");
        }
        double fraction = SolveFilterFraction(model, config_.decrease_ratio);

        // TE5: train with periodic soft zeroing of the weakest filters.
        nn::TrainConfig tc;
        tc.epochs = ctx.EpochsFromFraction(config_.backprop_frac);
        tc.batch_size = ctx.batch_size;
        tc.lr = ctx.lr;
        tc.seed = ctx.seed + 404;
        nn::Trainer trainer(tc);
        int freq = config_.update_frequency;
        SoftZeroFilters(model, fraction);
        AUTOMC_RETURN_IF_ERROR(trainer.Fit(
            model, *ctx.train, nullptr,
            [fraction, freq](int epoch, nn::Model* m) {
              if ((epoch + 1) % freq == 0) SoftZeroFilters(m, fraction);
            }));

        // Final selection becomes a hard structural prune.
        return UniformStructuredPrune(model, fraction, FilterL2);
      },
      stats);
}

}  // namespace compress
}  // namespace automc
