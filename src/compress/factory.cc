#include "compress/compressor.h"

#include "compress/methods.h"

namespace automc {
namespace compress {

namespace {

Result<std::unique_ptr<Compressor>> MakeLma(const StrategySpec& s) {
  LmaConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.finetune_frac, GetHpDouble(s, "HP1"));
  AUTOMC_ASSIGN_OR_RETURN(c.decrease_ratio, GetHpDouble(s, "HP2"));
  AUTOMC_ASSIGN_OR_RETURN(c.segments, GetHpInt(s, "HP3"));
  AUTOMC_ASSIGN_OR_RETURN(c.temperature, GetHpDouble(s, "HP4"));
  AUTOMC_ASSIGN_OR_RETURN(c.alpha, GetHpDouble(s, "HP5"));
  return std::unique_ptr<Compressor>(new LmaCompressor(c));
}

Result<std::unique_ptr<Compressor>> MakeLegr(const StrategySpec& s) {
  LegrConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.finetune_frac, GetHpDouble(s, "HP1"));
  AUTOMC_ASSIGN_OR_RETURN(c.decrease_ratio, GetHpDouble(s, "HP2"));
  AUTOMC_ASSIGN_OR_RETURN(c.max_prune_ratio, GetHpDouble(s, "HP6"));
  AUTOMC_ASSIGN_OR_RETURN(c.evolution_frac, GetHpDouble(s, "HP7"));
  AUTOMC_ASSIGN_OR_RETURN(c.criterion, GetHpString(s, "HP8"));
  return std::unique_ptr<Compressor>(new LegrCompressor(c));
}

Result<std::unique_ptr<Compressor>> MakeNs(const StrategySpec& s) {
  NsConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.finetune_frac, GetHpDouble(s, "HP1"));
  AUTOMC_ASSIGN_OR_RETURN(c.decrease_ratio, GetHpDouble(s, "HP2"));
  AUTOMC_ASSIGN_OR_RETURN(c.max_prune_ratio, GetHpDouble(s, "HP6"));
  return std::unique_ptr<Compressor>(new NsCompressor(c));
}

Result<std::unique_ptr<Compressor>> MakeSfp(const StrategySpec& s) {
  SfpConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.decrease_ratio, GetHpDouble(s, "HP2"));
  AUTOMC_ASSIGN_OR_RETURN(c.backprop_frac, GetHpDouble(s, "HP9"));
  AUTOMC_ASSIGN_OR_RETURN(c.update_frequency, GetHpInt(s, "HP10"));
  return std::unique_ptr<Compressor>(new SfpCompressor(c));
}

Result<std::unique_ptr<Compressor>> MakeHos(const StrategySpec& s) {
  HosConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.finetune_frac, GetHpDouble(s, "HP1"));
  AUTOMC_ASSIGN_OR_RETURN(c.decrease_ratio, GetHpDouble(s, "HP2"));
  AUTOMC_ASSIGN_OR_RETURN(c.global_criterion, GetHpString(s, "HP11"));
  AUTOMC_ASSIGN_OR_RETURN(c.stat_criterion, GetHpString(s, "HP12"));
  AUTOMC_ASSIGN_OR_RETURN(c.optim_frac, GetHpDouble(s, "HP13"));
  AUTOMC_ASSIGN_OR_RETURN(c.mse_factor, GetHpDouble(s, "HP14"));
  return std::unique_ptr<Compressor>(new HosCompressor(c));
}

Result<std::unique_ptr<Compressor>> MakeQuant(const StrategySpec& s) {
  QuantConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.finetune_frac, GetHpDouble(s, "HP1"));
  AUTOMC_ASSIGN_OR_RETURN(c.bits, GetHpInt(s, "HP17"));
  return std::unique_ptr<Compressor>(new QuantCompressor(c));
}

Result<std::unique_ptr<Compressor>> MakeLfb(const StrategySpec& s) {
  LfbConfig c;
  AUTOMC_ASSIGN_OR_RETURN(c.finetune_frac, GetHpDouble(s, "HP1"));
  AUTOMC_ASSIGN_OR_RETURN(c.decrease_ratio, GetHpDouble(s, "HP2"));
  AUTOMC_ASSIGN_OR_RETURN(c.aux_factor, GetHpDouble(s, "HP15"));
  AUTOMC_ASSIGN_OR_RETURN(c.aux_loss, GetHpString(s, "HP16"));
  return std::unique_ptr<Compressor>(new LfbCompressor(c));
}

}  // namespace

Result<std::unique_ptr<Compressor>> CreateCompressor(const StrategySpec& spec) {
  if (spec.method == "LMA") return MakeLma(spec);
  if (spec.method == "LeGR") return MakeLegr(spec);
  if (spec.method == "NS") return MakeNs(spec);
  if (spec.method == "SFP") return MakeSfp(spec);
  if (spec.method == "HOS") return MakeHos(spec);
  if (spec.method == "LFB") return MakeLfb(spec);
  if (spec.method == "QT") return MakeQuant(spec);
  return Status::NotFound("unknown compression method: " + spec.method);
}

}  // namespace compress
}  // namespace automc
