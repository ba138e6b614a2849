#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {

namespace {

// Base filter score selected by HP8.
double BaseScore(const std::string& criterion, const PrunableUnit& unit,
                 int64_t filter) {
  if (criterion == "l1_weight") return FilterL1(unit, filter);
  if (criterion == "l2_weight") return FilterL2(unit, filter);
  // "l2_bn_param": the BN gamma scaled by the filter's l2 norm.
  return FilterBnGamma(unit, filter) * FilterL2(unit, filter);
}

// One individual: per-unit affine transform (scale, shift) of base scores.
struct Individual {
  std::vector<double> scale;
  std::vector<double> shift;
  double fitness = -1.0;
};

}  // namespace

Status LegrCompressor::Compress(nn::Model* model,
                                const CompressionContext& ctx,
                                CompressionStats* stats) {
  AUTOMC_METRIC_COUNT("compress.LeGR.invocations");
  AUTOMC_SCOPED_TIMER("compress.LeGR.ms");
  if (config_.criterion != "l1_weight" && config_.criterion != "l2_weight" &&
      config_.criterion != "l2_bn_param") {
    return Status::InvalidArgument("LeGR unknown criterion " +
                                   config_.criterion);
  }
  return MeasureAround(
      model, ctx,
      [&]() -> Status {
        size_t num_units = CollectPrunableUnits(model).size();
        if (num_units == 0) {
          return Status::FailedPrecondition("no prunable units");
        }

        Rng rng(ctx.seed + 202);
        // Fitness-evaluation split: a slice of train acts as validation so
        // the EA does not overfit the test set.
        Rng split_rng = rng.Fork();
        auto [val, fit_train] = ctx.train->Split(0.3, &split_rng);

        GlobalPruneOptions opts;
        opts.target_param_fraction = config_.decrease_ratio;
        opts.max_prune_ratio_per_layer = config_.max_prune_ratio;

        // Evaluate one individual: clone, prune with its transformed scores,
        // measure validation accuracy.
        auto evaluate = [&](const Individual& ind) -> Result<double> {
          std::unique_ptr<nn::Model> probe = model->Clone();
          std::vector<PrunableUnit> units = CollectPrunableUnits(probe.get());
          AUTOMC_CHECK_EQ(units.size(), ind.scale.size());
          // Map conv pointer -> unit index for the importance closure.
          std::map<const nn::Conv2d*, size_t> index;
          for (size_t u = 0; u < units.size(); ++u) index[units[u].conv] = u;
          ImportanceFn importance = [&](const PrunableUnit& unit,
                                        int64_t filter) {
            size_t u = index.at(unit.conv);
            return ind.scale[u] * BaseScore(config_.criterion, unit, filter) +
                   ind.shift[u];
          };
          Status st = GlobalStructuredPrune(probe.get(), opts, importance);
          if (!st.ok()) return st;
          return nn::Trainer::Evaluate(probe.get(), val);
        };

        // Initialize population around the identity transform.
        const int kPopulation = 6;
        int generations =
            std::max(2, ctx.EpochsFromFraction(config_.evolution_frac));
        std::vector<Individual> population;
        for (int p = 0; p < kPopulation; ++p) {
          Individual ind;
          ind.scale.assign(num_units, 1.0);
          ind.shift.assign(num_units, 0.0);
          if (p > 0) {
            for (size_t u = 0; u < num_units; ++u) {
              ind.scale[u] = std::exp(rng.Normal(0.0, 0.4));
              ind.shift[u] = rng.Normal(0.0, 0.1);
            }
          }
          AUTOMC_ASSIGN_OR_RETURN(ind.fitness, evaluate(ind));
          population.push_back(std::move(ind));
        }

        auto best_of = [](const std::vector<Individual>& pop) {
          size_t best = 0;
          for (size_t i = 1; i < pop.size(); ++i) {
            if (pop[i].fitness > pop[best].fitness) best = i;
          }
          return best;
        };

        // Regularized-evolution style loop: mutate the best, replace the
        // worst.
        for (int g = 0; g < generations; ++g) {
          Individual child = population[best_of(population)];
          for (size_t u = 0; u < num_units; ++u) {
            if (rng.Bernoulli(0.3)) {
              child.scale[u] *= std::exp(rng.Normal(0.0, 0.3));
              child.shift[u] += rng.Normal(0.0, 0.05);
            }
          }
          AUTOMC_ASSIGN_OR_RETURN(child.fitness, evaluate(child));
          size_t worst = 0;
          for (size_t i = 1; i < population.size(); ++i) {
            if (population[i].fitness < population[worst].fitness) worst = i;
          }
          if (child.fitness > population[worst].fitness) {
            population[worst] = std::move(child);
          }
        }

        // Prune the real model with the best learned ranking.
        const Individual& best = population[best_of(population)];
        std::vector<PrunableUnit> units = CollectPrunableUnits(model);
        std::map<const nn::Conv2d*, size_t> index;
        for (size_t u = 0; u < units.size(); ++u) index[units[u].conv] = u;
        ImportanceFn importance = [&](const PrunableUnit& unit,
                                      int64_t filter) {
          size_t u = index.at(unit.conv);
          return best.scale[u] * BaseScore(config_.criterion, unit, filter) +
                 best.shift[u];
        };
        AUTOMC_RETURN_IF_ERROR(GlobalStructuredPrune(model, opts, importance));

        return Finetune(model, ctx,
                        ctx.EpochsFromFraction(config_.finetune_frac));
      },
      stats);
}

}  // namespace compress
}  // namespace automc
