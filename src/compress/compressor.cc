#include "compress/compressor.h"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "nn/trainer.h"

namespace automc {
namespace compress {

int CompressionContext::EpochsFromFraction(double fraction) const {
  return std::max(1, static_cast<int>(std::llround(fraction * pretrain_epochs)));
}

std::string StrategySpec::ToString() const {
  std::ostringstream os;
  os << method << "(";
  bool first = true;
  for (const auto& [k, v] : hp) {
    if (!first) os << ",";
    os << k << "=" << v;
    first = false;
  }
  os << ")";
  return os.str();
}

Result<std::string> GetHpString(const StrategySpec& spec,
                                const std::string& key) {
  auto it = spec.hp.find(key);
  if (it == spec.hp.end()) {
    return Status::NotFound(spec.method + " missing hyperparameter " + key);
  }
  return it->second;
}

Result<double> GetHpDouble(const StrategySpec& spec, const std::string& key) {
  AUTOMC_ASSIGN_OR_RETURN(std::string raw, GetHpString(spec, key));
  char* end = nullptr;
  double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') {
    return Status::InvalidArgument(spec.method + "." + key +
                                   " is not numeric: " + raw);
  }
  return v;
}

Result<int> GetHpInt(const StrategySpec& spec, const std::string& key) {
  AUTOMC_ASSIGN_OR_RETURN(double v, GetHpDouble(spec, key));
  double rounded = std::round(v);
  if (std::fabs(v - rounded) > 1e-9) {
    return Status::InvalidArgument(spec.method + "." + key +
                                   " is not integral");
  }
  return static_cast<int>(rounded);
}

Status MeasureAround(nn::Model* model, const CompressionContext& ctx,
                     const std::function<Status()>& body,
                     CompressionStats* stats) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (ctx.train == nullptr || ctx.test == nullptr) {
    return Status::InvalidArgument("context missing datasets");
  }
  if (stats == nullptr) return body();  // nobody reads the measurements
  CompressionStats local;
  local.params_before = model->EffectiveParamCount();
  local.flops_before = model->FlopsPerSample();
  local.acc_before = nn::Trainer::Evaluate(model, *ctx.test);

  AUTOMC_RETURN_IF_ERROR(body());

  local.params_after = model->EffectiveParamCount();
  local.flops_after = model->FlopsPerSample();
  local.acc_after = nn::Trainer::Evaluate(model, *ctx.test);
  *stats = local;
  return Status::OK();
}

Status Finetune(nn::Model* model, const CompressionContext& ctx, int epochs) {
  if (epochs <= 0) return Status::OK();
  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = ctx.batch_size;
  tc.lr = ctx.lr;
  tc.seed = ctx.seed + 17;
  nn::Trainer trainer(tc);
  return trainer.Fit(model, *ctx.train);
}

}  // namespace compress
}  // namespace automc
