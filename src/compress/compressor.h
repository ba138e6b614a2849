#ifndef AUTOMC_COMPRESS_COMPRESSOR_H_
#define AUTOMC_COMPRESS_COMPRESSOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "nn/model.h"

namespace automc {
namespace compress {

// Everything a compression strategy needs about the task it runs on.
// Epoch-fraction hyperparameters (the paper's "*0.1 ... *0.5" grids) are
// resolved against `pretrain_epochs`.
struct CompressionContext {
  const data::Dataset* train = nullptr;
  const data::Dataset* test = nullptr;
  int pretrain_epochs = 4;
  int batch_size = 32;
  float lr = 0.02f;
  uint64_t seed = 1;

  // Converts an epoch-fraction hyperparameter into a concrete epoch count.
  int EpochsFromFraction(double fraction) const;
};

// Before/after measurements of one compression step.
struct CompressionStats {
  int64_t params_before = 0, params_after = 0;
  int64_t flops_before = 0, flops_after = 0;
  double acc_before = 0.0, acc_after = 0.0;

  // PR(S, M) of the paper: relative parameter reduction in [0, 1].
  double ParamReduction() const {
    return params_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(params_after) / params_before;
  }
  // FR(S, M): relative FLOPs reduction.
  double FlopReduction() const {
    return flops_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(flops_after) / flops_before;
  }
  // AR(S, M): relative accuracy change (> -1).
  double AccIncrease() const {
    return acc_before <= 0.0 ? 0.0 : acc_after / acc_before - 1.0;
  }
};

// A compression method bound to one hyperparameter setting (one
// "compression strategy" in the paper's vocabulary). Compress() mutates the
// model in place and reports measurements through *stats (optional).
class Compressor {
 public:
  virtual ~Compressor() = default;
  virtual std::string MethodName() const = 0;
  virtual Status Compress(nn::Model* model, const CompressionContext& ctx,
                          CompressionStats* stats) = 0;
};

// A compression method name plus raw hyperparameter assignments, as
// enumerated by the search space (values kept as strings so the knowledge
// graph can treat each setting as an entity).
struct StrategySpec {
  std::string method;
  std::map<std::string, std::string> hp;

  // "LeGR(HP1=0.2,HP2=0.12,...)"
  std::string ToString() const;
};

// Parses hp values with range checks.
Result<double> GetHpDouble(const StrategySpec& spec, const std::string& key);
Result<int> GetHpInt(const StrategySpec& spec, const std::string& key);
Result<std::string> GetHpString(const StrategySpec& spec,
                                const std::string& key);

// Instantiates the concrete compressor for a strategy. Fails on unknown
// method names or missing/invalid hyperparameters.
Result<std::unique_ptr<Compressor>> CreateCompressor(const StrategySpec& spec);

// Fills `stats` around a compression body: measures the model before,
// invokes `body`, measures after. Used by every method implementation.
// With null `stats` it only runs `body`: nothing is measured.
Status MeasureAround(nn::Model* model, const CompressionContext& ctx,
                     const std::function<Status()>& body,
                     CompressionStats* stats);

// Standard fine-tuning pass (technique TE3 of Table 1).
Status Finetune(nn::Model* model, const CompressionContext& ctx, int epochs);

}  // namespace compress
}  // namespace automc

#endif  // AUTOMC_COMPRESS_COMPRESSOR_H_
