#include "core/run_spec.h"

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "search/evolutionary.h"
#include "search/random_search.h"
#include "search/rl.h"
#include "store/experience_store.h"

namespace automc {
namespace core {

namespace {

constexpr uint32_t kRunSpecVersion = 1;

bool OneOf(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return true;
  }
  return false;
}

}  // namespace

Status ValidateRunSpec(const RunSpec& spec) {
  if (!OneOf(spec.family, {"resnet", "vgg"})) {
    return Status::InvalidArgument("unknown model family: " + spec.family);
  }
  if (!OneOf(spec.dataset, {"c10", "c100", "tiny"})) {
    return Status::InvalidArgument("unknown dataset: " + spec.dataset);
  }
  if (!OneOf(spec.searcher, {"automc", "random", "evolution", "rl"})) {
    return Status::InvalidArgument("unknown searcher: " + spec.searcher);
  }
  if (spec.depth < 1 || spec.depth > 200) {
    return Status::InvalidArgument("depth out of range: " +
                                   std::to_string(spec.depth));
  }
  if (spec.budget < 1) {
    return Status::InvalidArgument("budget must be >= 1");
  }
  if (spec.eval_batch < 0) {
    return Status::InvalidArgument("eval_batch must be >= 0");
  }
  if (spec.pretrain < 0) {
    return Status::InvalidArgument("pretrain must be >= 0");
  }
  if (spec.gamma < 0.0 || spec.gamma >= 1.0) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  return Status::OK();
}

std::string RunSpecSummary(const RunSpec& spec) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s %s-%d %s gamma=%.2f budget=%d seed=%llu",
                spec.searcher.c_str(), spec.family.c_str(), spec.depth,
                spec.dataset.c_str(), spec.gamma, spec.budget,
                static_cast<unsigned long long>(spec.seed));
  return buf;
}

void EncodeRunSpec(const RunSpec& spec, ByteWriter* w) {
  w->U32(kRunSpecVersion);
  w->Str(spec.family);
  w->I32(spec.depth);
  w->Str(spec.dataset);
  w->F64(spec.gamma);
  w->I32(spec.budget);
  w->I32(spec.eval_batch);
  w->Str(spec.searcher);
  w->I32(spec.pretrain);
  w->U64(spec.seed);
}

bool DecodeRunSpec(ByteReader* r, RunSpec* spec) {
  uint32_t version = 0;
  if (!r->U32(&version) || version != kRunSpecVersion) return false;
  return r->Str(&spec->family) && r->I32(&spec->depth) &&
         r->Str(&spec->dataset) && r->F64(&spec->gamma) &&
         r->I32(&spec->budget) && r->I32(&spec->eval_batch) &&
         r->Str(&spec->searcher) && r->I32(&spec->pretrain) &&
         r->U64(&spec->seed);
}

CompressionTask MakeTask(const RunSpec& spec) {
  CompressionTask task;
  if (spec.dataset == "tiny") {
    data::SyntheticTaskConfig cfg;
    cfg.num_classes = 3;
    cfg.train_per_class = 12;
    cfg.test_per_class = 4;
    cfg.seed = spec.seed;
    task.data = data::MakeSyntheticTask(cfg);
  } else if (spec.dataset == "c100") {
    task.data = data::MakeCifar100Like(spec.seed);
  } else {
    task.data = data::MakeCifar10Like(spec.seed);
  }
  task.model_spec.family = spec.family;
  task.model_spec.depth = spec.depth;
  task.model_spec.base_width = 4;  // CLI synthetic-data width
  task.model_spec.num_classes = task.data.train.num_classes;
  task.pretrain_epochs = 4;
  task.base_train_epochs = spec.pretrain;
  task.search_data_fraction = 0.25;
  task.seed = spec.seed;
  return task;
}

Result<AutoMCResult> RunSearch(const RunSpec& spec,
                               const CompressionTask& task,
                               const RunHooks& hooks) {
  AUTOMC_RETURN_IF_ERROR(ValidateRunSpec(spec));

  if (spec.searcher == "automc") {
    AutoMCOptions opts;
    opts.search.max_strategy_executions = spec.budget;
    opts.search.gamma = spec.gamma;
    if (spec.eval_batch >= 1) opts.search.eval_batch = spec.eval_batch;
    opts.search.stop = hooks.stop;
    opts.embedding.train_epochs = 8;
    opts.experience.num_tasks = 1;
    opts.experience.strategies_per_task = 10;
    opts.seed = spec.seed;
    opts.experience_store = hooks.store;
    opts.checkpointer = hooks.checkpointer;
    AutoMC automc(opts);
    return automc.Run(task);
  }

  AutoMCResult result;
  AUTOMC_RETURN_IF_ERROR(PretrainBase(task, &result));

  search::SearchSpace space = search::SearchSpace::FullTable1();
  const SearchContext search_ctx(task, spec.seed, /*automc=*/false);
  search::SchemeEvaluator evaluator(&space, result.base_model.get(),
                                    search_ctx.ctx, {});
  if (hooks.store != nullptr) {
    AUTOMC_RETURN_IF_ERROR(evaluator.AttachStore(hooks.store));
    hooks.store->set_task_features(data::TaskFeatureVector(
        search_ctx.search_train, result.base_model->ParamCount(),
        result.base_model->FlopsPerSample(), evaluator.base_point().acc));
  }

  std::unique_ptr<search::Searcher> searcher;
  if (spec.searcher == "random") {
    searcher = std::make_unique<search::RandomSearcher>();
  } else if (spec.searcher == "evolution") {
    searcher = std::make_unique<search::EvolutionarySearcher>();
  } else {
    searcher = std::make_unique<search::RlSearcher>();
  }
  search::SearchConfig scfg;
  scfg.max_strategy_executions = spec.budget;
  scfg.gamma = spec.gamma;
  scfg.seed = spec.seed + 6;
  if (spec.eval_batch >= 1) scfg.eval_batch = spec.eval_batch;
  scfg.checkpointer = hooks.checkpointer;
  scfg.stop = hooks.stop;
  AUTOMC_RETURN_IF_ERROR(
      RunSearcher(searcher.get(), &evaluator, space, scfg, &result));
  return result;
}

Result<AutoMCResult> RunSearch(const RunSpec& spec, const RunHooks& hooks) {
  return RunSearch(spec, MakeTask(spec), hooks);
}

std::string SchemeIndicesToString(const std::vector<int>& scheme) {
  std::string out;
  for (size_t i = 0; i < scheme.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(scheme[i]);
  }
  return out;
}

Result<std::vector<int>> ParseSchemeIndices(const std::string& text) {
  std::vector<int> out;
  if (text.empty()) return out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma == pos) {
      return Status::InvalidArgument("empty scheme element in '" + text + "'");
    }
    int value = 0;
    for (size_t i = pos; i < comma; ++i) {
      const char c = text[i];
      if (c < '0' || c > '9' || value > 100000) {
        return Status::InvalidArgument("bad scheme index in '" + text + "'");
      }
      value = value * 10 + (c - '0');
    }
    out.push_back(value);
    pos = comma + 1;
  }
  return out;
}

namespace {

// `base` (a search's pretrained base model) with `scheme`'s steps applied in
// that search's context, exactly as its evaluator built the scheme's model.
Result<std::unique_ptr<nn::Model>> BuildSchemeModel(
    const RunSpec& spec, const CompressionTask& task, const nn::Model& base,
    const std::vector<int>& scheme) {
  const search::SearchSpace space = search::SearchSpace::FullTable1();
  for (int s : scheme) {
    if (s < 0 || static_cast<size_t>(s) >= space.size()) {
      return Status::InvalidArgument("scheme index " + std::to_string(s) +
                                     " outside the strategy table");
    }
  }
  const SearchContext search_ctx(task, spec.seed,
                                 /*automc=*/spec.searcher == "automc");
  std::unique_ptr<nn::Model> model = base.Clone();
  for (size_t i = 0; i < scheme.size(); ++i) {
    AUTOMC_RETURN_IF_ERROR(search::ApplySchemeStep(space, scheme[i], i,
                                                   search_ctx.ctx,
                                                   model.get()));
  }
  return model;
}

}  // namespace

Result<std::shared_ptr<nn::Model>> WinningModel(const RunSpec& spec,
                                                const CompressionTask& task,
                                                const AutoMCResult& result) {
  AUTOMC_ASSIGN_OR_RETURN(size_t win, PickWinningScheme(result.outcome));
  if (result.winner_model != nullptr) return result.winner_model;
  AUTOMC_ASSIGN_OR_RETURN(
      std::unique_ptr<nn::Model> model,
      BuildSchemeModel(spec, task, *result.base_model,
                       result.outcome.pareto_schemes[win]));
  return std::shared_ptr<nn::Model>(std::move(model));
}

Result<std::unique_ptr<nn::Model>> MaterializeScheme(
    const RunSpec& spec, const std::vector<int>& scheme) {
  AUTOMC_RETURN_IF_ERROR(ValidateRunSpec(spec));
  const CompressionTask task = MakeTask(spec);
  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> base,
                          PretrainModel(task));
  return BuildSchemeModel(spec, task, *base, scheme);
}

}  // namespace core
}  // namespace automc
