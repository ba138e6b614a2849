#include "core/automc.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "nn/trainer.h"
#include "search/rl.h"

namespace automc {
namespace core {

Result<std::unique_ptr<nn::Model>> PretrainModel(const CompressionTask& task) {
  Rng rng(task.seed);
  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                          nn::BuildModel(task.model_spec, &rng));
  nn::TrainConfig tc;
  tc.epochs = task.base_train_epochs > 0 ? task.base_train_epochs
                                         : task.pretrain_epochs;
  tc.batch_size = task.batch_size;
  tc.lr = task.lr;
  tc.lr_decay = task.lr_decay;
  tc.seed = task.seed + 1;
  nn::Trainer trainer(tc);
  AUTOMC_RETURN_IF_ERROR(trainer.Fit(model.get(), task.data.train));
  return model;
}

SearchContext::SearchContext(const CompressionTask& task, uint64_t seed,
                             bool automc) {
  Rng sub_rng(seed + 4);
  search_train =
      task.search_data_fraction < 1.0
          ? task.data.train.Subsample(task.search_data_fraction, &sub_rng)
          : task.data.train;
  ctx.train = &search_train;
  ctx.test = &task.data.test;
  ctx.batch_size = task.batch_size;
  ctx.seed = seed + 5;
  if (automc) {
    // The search subsample is much smaller than the full split; scale the
    // epoch base so strategies' fine-tuning sees a comparable number of
    // gradient steps during search and at deployment.
    ctx.pretrain_epochs = static_cast<int>(std::max(
        1.0, 0.5 * task.pretrain_epochs /
                 std::max(0.1, task.search_data_fraction)));
    ctx.lr = task.FinetuneLr();
  } else {
    ctx.pretrain_epochs = task.pretrain_epochs;
    ctx.lr = task.lr;
  }
}

Result<search::EvalPoint> ExecuteScheme(
    const search::SearchSpace& space, const std::vector<int>& scheme,
    nn::Model* model, const compress::CompressionContext& ctx) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  search::EvalPoint before;
  before.acc = nn::Trainer::Evaluate(model, *ctx.test);
  before.params = model->EffectiveParamCount();
  before.flops = model->FlopsPerSample();

  for (size_t i = 0; i < scheme.size(); ++i) {
    int idx = scheme[i];
    if (idx < 0 || static_cast<size_t>(idx) >= space.size()) {
      return Status::OutOfRange("strategy index out of range");
    }
    AUTOMC_ASSIGN_OR_RETURN(
        std::unique_ptr<compress::Compressor> compressor,
        compress::CreateCompressor(space.strategy(static_cast<size_t>(idx))));
    compress::CompressionContext step_ctx = ctx;
    step_ctx.seed = ctx.seed + 31 * i + static_cast<uint64_t>(idx);
    Status st = compressor->Compress(model, step_ctx, nullptr);
    if (st.code() == StatusCode::kFailedPrecondition) {
      // Inapplicable to the current model state (e.g. transferred scheme
      // prunes a structure this model no longer has): skip the step.
      AUTOMC_LOG(Warning) << "scheme step " << i << " inapplicable: "
                          << st.ToString();
    } else if (!st.ok()) {
      return st;
    }
  }

  search::EvalPoint after;
  after.acc = nn::Trainer::Evaluate(model, *ctx.test);
  after.params = model->EffectiveParamCount();
  after.flops = model->FlopsPerSample();
  after.ar = before.acc > 0 ? after.acc / before.acc - 1.0 : 0.0;
  after.pr = before.params > 0
                 ? 1.0 - static_cast<double>(after.params) / before.params
                 : 0.0;
  after.fr = before.flops > 0
                 ? 1.0 - static_cast<double>(after.flops) / before.flops
                 : 0.0;
  return after;
}

search::SearchSpace AutoMC::MakeSearchSpace() const {
  return options_.multi_source ? search::SearchSpace::FullTable1()
                               : search::SearchSpace::SingleMethod("LeGR");
}

Status PretrainBase(const CompressionTask& task, AutoMCResult* result) {
  AUTOMC_SCOPED_TIMER("automc.pretrain_ms");
  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> base, PretrainModel(task));
  result->base_model = std::shared_ptr<nn::Model>(std::move(base));
  result->base_accuracy =
      nn::Trainer::Evaluate(result->base_model.get(), task.data.test);
  return Status::OK();
}

namespace {

// The knowledge branch of AutoMC::Run: strategy embeddings (Algorithm 1)
// learned from the knowledge graph and measured experience. Nothing here
// reads the target's base model.
Status LearnEmbeddings(const AutoMCOptions& options,
                       const search::SearchSpace& space,
                       std::vector<kg::ExperienceRecord>* experience,
                       std::vector<tensor::Tensor>* embeddings) {
  AUTOMC_SCOPED_TIMER("automc.learn_ms");
  kg::EmbeddingLearnerConfig ecfg = options.embedding;
  ecfg.use_kg = options.use_kg;
  ecfg.use_exp = options.use_exp;
  ecfg.seed = options.seed + 2;

  if (options.use_exp) {
    kg::ExperienceGenConfig xcfg = options.experience;
    xcfg.seed = options.seed + 3;
    AUTOMC_ASSIGN_OR_RETURN(*experience,
                            kg::GenerateExperience(space.strategies(), xcfg));
    AUTOMC_LOG(Info) << "generated " << experience->size()
                     << " experience records";
  }
  // Accumulated search experience from earlier runs: every record the
  // store held when it was opened becomes an extra NN_exp training pair.
  // The cutoff is pinned in the checkpoint (sticky section) so a resumed
  // run exports exactly the set its crashed original saw — records the
  // crashed run appended must not alter the embeddings it learned.
  if (options.use_exp && options.experience_store != nullptr) {
    uint64_t export_limit =
        static_cast<uint64_t>(options.experience_store->loaded_size());
    if (options.checkpointer != nullptr) {
      auto it = options.checkpointer->pending().find("kg_export_limit");
      if (it != options.checkpointer->pending().end()) {
        ByteReader r(it->second);
        uint64_t pinned = 0;
        if (!r.U64(&pinned)) {
          return Status::InvalidArgument(
              "corrupted kg_export_limit checkpoint section");
        }
        export_limit = pinned;
      }
      ByteWriter w;
      w.U64(export_limit);
      options.checkpointer->SetStickySection("kg_export_limit", w.Take());
    }
    if (export_limit > 0) {
      std::vector<store::ExperienceStep> steps =
          options.experience_store->ExportSteps(
              search::SchemeEvaluator::SpaceFingerprint(space), export_limit);
      for (const store::ExperienceStep& step : steps) {
        kg::ExperienceRecord rec;
        rec.strategy_index = static_cast<size_t>(step.strategy);
        rec.task_features = step.task_features;
        rec.ar = step.ar_step;
        rec.pr = step.pr_step;
        experience->push_back(std::move(rec));
      }
      AUTOMC_LOG(Info) << "imported " << steps.size()
                       << " experience steps from the store";
    }
  }
  kg::StrategyEmbeddingLearner learner(space.strategies(), ecfg);
  AUTOMC_RETURN_IF_ERROR(learner.Learn(*experience));
  embeddings->reserve(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    embeddings->push_back(learner.Embedding(i));
  }
  return Status::OK();
}

}  // namespace

Result<AutoMCResult> AutoMC::Run(const CompressionTask& task) {
  AUTOMC_SCOPED_TIMER("automc.run_ms");
  AutoMCResult result;
  search::SearchSpace space = MakeSearchSpace();
  AUTOMC_LOG(Info) << "AutoMC search space: " << space.size() << " strategies";

  // 1. Pretraining and embedding learning share the pool as two chunks of
  //    one loop. Each branch writes only its own outputs from its own seeds,
  //    so neither which lane runs a branch nor whether the two overlap can
  //    change a bit. The knowledge branch is chunk 0, the one the calling
  //    thread normally claims (the placement with the lowest peak RSS). The
  //    RL ablation has its own action embeddings, so it only pretrains, on
  //    the caller's lane.
  std::vector<tensor::Tensor> embeddings;
  std::vector<kg::ExperienceRecord> experience;
  Status model_status;
  Status knowledge_status;
  if (options_.use_progressive) {
    automc::ParallelFor(2, 1, [&](int64_t branch, int64_t) {
      if (branch == 0) {
        knowledge_status =
            LearnEmbeddings(options_, space, &experience, &embeddings);
      } else {
        model_status = PretrainBase(task, &result);
      }
    });
  } else {
    model_status = PretrainBase(task, &result);
  }
  // Errors come back in stage order: pretraining's first.
  AUTOMC_RETURN_IF_ERROR(model_status);
  AUTOMC_RETURN_IF_ERROR(knowledge_status);

  // 2. Search on a subsample of the training data (10% in the paper).
  AUTOMC_SCOPED_TIMER("automc.search_ms");
  const SearchContext search_ctx(task, options_.seed, /*automc=*/true);
  search::SchemeEvaluator evaluator(&space, result.base_model.get(),
                                    search_ctx.ctx,
                                    search::SchemeEvaluator::Options{});

  // 7-dim task descriptor of this run: fed to F_mo and attached to every
  // record this run appends to the store (future runs train NN_exp on them).
  std::vector<float> feats = data::TaskFeatureVector(
      search_ctx.search_train, result.base_model->ParamCount(),
      result.base_model->FlopsPerSample(), evaluator.base_point().acc);

  if (options_.experience_store != nullptr) {
    AUTOMC_RETURN_IF_ERROR(evaluator.AttachStore(options_.experience_store));
    options_.experience_store->set_task_features(feats);
  }

  std::unique_ptr<search::Searcher> searcher;
  if (options_.use_progressive) {
    tensor::Tensor task_features({data::kTaskFeatureDim});
    for (int i = 0; i < data::kTaskFeatureDim; ++i) {
      task_features[i] = feats[static_cast<size_t>(i)];
    }
    // Warm-start F_mo from the measured experience: each record is a
    // one-step transition (empty prefix -> strategy) with its observed
    // AR/PR, exactly F_mo's training signal.
    std::vector<search::FmoExample> warm_start;
    for (const kg::ExperienceRecord& rec : experience) {
      search::FmoExample ex;
      ex.candidate = embeddings[rec.strategy_index];
      ex.task = tensor::Tensor({data::kTaskFeatureDim});
      for (int i = 0; i < data::kTaskFeatureDim; ++i) {
        ex.task[i] = rec.task_features[static_cast<size_t>(i)];
      }
      ex.ar_step = rec.ar;
      ex.pr_step = rec.pr;
      warm_start.push_back(std::move(ex));
    }
    auto progressive = std::make_unique<search::ProgressiveSearcher>(
        std::move(embeddings), std::move(task_features), options_.progressive);
    progressive->set_warm_start(std::move(warm_start));
    searcher = std::move(progressive);
  } else {
    searcher = std::make_unique<search::RlSearcher>();
  }

  search::SearchConfig scfg = options_.search;
  scfg.seed = options_.seed + 6;
  scfg.checkpointer = options_.checkpointer;
  AUTOMC_RETURN_IF_ERROR(
      RunSearcher(searcher.get(), &evaluator, space, scfg, &result));
  return result;
}

Result<size_t> PickWinningScheme(const search::SearchOutcome& outcome) {
  if (outcome.pareto_points.empty() ||
      outcome.pareto_points.size() != outcome.pareto_schemes.size()) {
    return Status::NotFound("search produced no pareto points");
  }
  size_t best = 0;
  for (size_t i = 1; i < outcome.pareto_points.size(); ++i) {
    const search::EvalPoint& p = outcome.pareto_points[i];
    const search::EvalPoint& b = outcome.pareto_points[best];
    if (p.acc > b.acc || (p.acc == b.acc && p.params < b.params)) {
      best = i;
    }
  }
  return best;
}

Status RunSearcher(search::Searcher* searcher,
                   search::SchemeEvaluator* evaluator,
                   const search::SearchSpace& space,
                   const search::SearchConfig& config, AutoMCResult* result) {
  AUTOMC_ASSIGN_OR_RETURN(result->outcome,
                          searcher->Search(evaluator, space, config));
  for (const auto& scheme : result->outcome.pareto_schemes) {
    result->pareto_descriptions.push_back(space.SchemeToString(scheme));
  }
  if (Result<size_t> win = PickWinningScheme(result->outcome); win.ok()) {
    result->winner_model =
        evaluator->CachedModel(result->outcome.pareto_schemes[*win]);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace automc
