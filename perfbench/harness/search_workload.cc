// search: the researcher's job. A closed loop of core::RunSearch calls on
// the default RunSpec (what automc_cli runs with no flags), in process, one
// at a time. The traced run alternates each untraced RunSearch with a
// recomposition of AutoMC::Run from the same public calls, each wrapped in
// one of the benchmark's spans, and checks that both give the same bytes.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/automc.h"
#include "core/run_spec.h"
#include "harness.h"
#include "kg/embedding.h"
#include "kg/experience.h"
#include "nn/trainer.h"
#include "search/fmo.h"
#include "search/progressive.h"
#include "search/report.h"

namespace perfbench {

namespace {

using automc::Result;
using automc::core::AutoMCResult;
using automc::core::RunSpec;

const char* const kMethods[] = {"LMA", "LeGR", "NS", "SFP", "HOS", "LFB", "QT"};

// The six top-level spans of one traced search, in call order.
const char* const kTopSpans[] = {"core.make_task_ms",   "nn.pretrain_ms",
                                 "nn.evaluate_ms",      "kg.experience_gen_ms",
                                 "kg.embedding_learn_ms", "search.search_ms"};

uint64_t SearchSeed(uint64_t workload_seed, int k) {
  return 1 + Mix64(workload_seed * 7919 + static_cast<uint64_t>(k)) % 1000000;
}

// core::RunSearch's automc branch (AutoMC::Run with the options RunSearch
// sets), rebuilt from the layers' public calls so each call can be timed.
// Must stay byte-identical to core::RunSearch(spec): the traced run and the
// helper tests check that it does.
Result<AutoMCResult> TracedRunSearch(const RunSpec& spec, Tracer* tracer) {
  namespace core = automc::core;
  namespace kg = automc::kg;
  namespace search = automc::search;
  Tracer::Scope root(tracer, "search_run");

  core::CompressionTask task;
  {
    Tracer::Scope s(tracer, "core.make_task_ms");
    task = core::MakeTask(spec);
  }
  search::SearchSpace space = search::SearchSpace::FullTable1();

  AutoMCResult result;
  {
    Tracer::Scope s(tracer, "nn.pretrain_ms");
    AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<automc::nn::Model> base,
                            core::PretrainModel(task));
    result.base_model = std::shared_ptr<automc::nn::Model>(std::move(base));
  }
  {
    Tracer::Scope s(tracer, "nn.evaluate_ms");
    result.base_accuracy = automc::nn::Trainer::Evaluate(
        result.base_model.get(), task.data.test);
  }

  std::vector<kg::ExperienceRecord> experience;
  {
    Tracer::Scope s(tracer, "kg.experience_gen_ms");
    kg::ExperienceGenConfig xcfg;
    xcfg.num_tasks = 1;
    xcfg.strategies_per_task = 10;
    xcfg.seed = spec.seed + 3;
    AUTOMC_ASSIGN_OR_RETURN(experience,
                            kg::GenerateExperience(space.strategies(), xcfg));
  }
  std::vector<automc::tensor::Tensor> embeddings;
  {
    Tracer::Scope s(tracer, "kg.embedding_learn_ms");
    kg::EmbeddingLearnerConfig ecfg;
    ecfg.train_epochs = 8;
    ecfg.seed = spec.seed + 2;
    kg::StrategyEmbeddingLearner learner(space.strategies(), ecfg);
    AUTOMC_RETURN_IF_ERROR(learner.Learn(experience));
    for (size_t i = 0; i < space.size(); ++i) {
      embeddings.push_back(learner.Embedding(i));
    }
  }

  automc::Rng sub_rng(spec.seed + 4);
  automc::data::Dataset search_train =
      task.search_data_fraction < 1.0
          ? task.data.train.Subsample(task.search_data_fraction, &sub_rng)
          : task.data.train;
  automc::compress::CompressionContext ctx;
  ctx.train = &search_train;
  ctx.test = &task.data.test;
  ctx.pretrain_epochs = static_cast<int>(std::max(
      1.0, 0.5 * task.pretrain_epochs /
               std::max(0.1, task.search_data_fraction)));
  ctx.batch_size = task.batch_size;
  ctx.lr = task.FinetuneLr();
  ctx.seed = spec.seed + 5;
  search::SchemeEvaluator evaluator(&space, result.base_model.get(), ctx,
                                    search::SchemeEvaluator::Options{});
  const std::vector<float> feats = automc::data::TaskFeatureVector(
      search_train, result.base_model->ParamCount(),
      result.base_model->FlopsPerSample(), evaluator.base_point().acc);

  automc::tensor::Tensor task_features({automc::data::kTaskFeatureDim});
  for (int i = 0; i < automc::data::kTaskFeatureDim; ++i) {
    task_features[i] = feats[static_cast<size_t>(i)];
  }
  std::vector<search::FmoExample> warm_start;
  for (const kg::ExperienceRecord& rec : experience) {
    search::FmoExample ex;
    ex.candidate = embeddings[rec.strategy_index];
    ex.task = automc::tensor::Tensor({automc::data::kTaskFeatureDim});
    for (int i = 0; i < automc::data::kTaskFeatureDim; ++i) {
      ex.task[i] = rec.task_features[static_cast<size_t>(i)];
    }
    ex.ar_step = rec.ar;
    ex.pr_step = rec.pr;
    warm_start.push_back(std::move(ex));
  }
  search::ProgressiveSearcher searcher(std::move(embeddings),
                                       std::move(task_features));
  searcher.set_warm_start(std::move(warm_start));

  search::SearchConfig scfg;
  scfg.max_strategy_executions = spec.budget;
  scfg.gamma = spec.gamma;
  if (spec.eval_batch >= 1) scfg.eval_batch = spec.eval_batch;
  scfg.seed = spec.seed + 6;
  {
    Tracer::Scope s(tracer, "search.search_ms");
    AUTOMC_ASSIGN_OR_RETURN(result.outcome,
                            searcher.Search(&evaluator, space, scfg));
  }
  for (const auto& scheme : result.outcome.pareto_schemes) {
    result.pareto_descriptions.push_back(space.SchemeToString(scheme));
  }
  return result;
}

// Registry values the per-layer metrics are deltas of.
struct LayerCounters {
  std::map<std::string, double> values;

  static LayerCounters Read() {
    LayerCounters c;
    auto counter = [&c](const std::string& name) {
      c.values[name] = static_cast<double>(CounterValue(name));
    };
    auto hist_sum = [&c](const std::string& name) {
      c.values[name + ".sum"] = HistogramSum(name);
    };
    for (const char* m : kMethods) {
      counter(std::string("compress.") + m + ".invocations");
      hist_sum(std::string("compress.") + m + ".ms");
    }
    for (const char* name :
         {"trainer.epochs", "search.strategy_executions",
          "evaluator.cache_hits", "evaluator.cache_misses", "simd.gemm_avx2",
          "simd.gemm_scalar", "tensor.cow_materialized_bytes", "pool.tasks"}) {
      counter(name);
    }
    for (const char* name : {"trainer.epoch_ms", "eval.batch_ms",
                             "pool.idle_ms"}) {
      hist_sum(name);
    }
    return c;
  }

  double Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }

  // Adds the change from `before` to `after` into this running total.
  void AddDelta(const LayerCounters& before, const LayerCounters& after) {
    for (const auto& [name, v] : after.values) {
      values[name] += v - before.Get(name);
    }
  }
};

bool ValidOutcome(const std::string& bytes, const RunSpec& spec) {
  auto outcome = automc::search::LoadOutcomeBytes(bytes);
  return outcome.ok() && !outcome->pareto_schemes.empty() &&
         outcome->executions >= 1 && outcome->executions <= spec.budget;
}

std::string LayersJson(const Tracer& tracer, const LayerCounters& d, int n,
                       double traced_wall_ms, double overhead_pct) {
  const double per = n > 0 ? 1.0 / n : 0.0;
  JsonObject layers;
  for (const char* name : kTopSpans) {
    layers.Num(name, tracer.SumMs(name) * per);
  }
  const double search_ms = tracer.SumMs("search.search_ms") * per;
  const double eval_batch_ms = d.Get("eval.batch_ms.sum") * per;
  const double hits = d.Get("evaluator.cache_hits");
  const double misses = d.Get("evaluator.cache_misses");
  const double avx2 = d.Get("simd.gemm_avx2");
  const double scalar = d.Get("simd.gemm_scalar");
  const int threads = automc::ThreadPool::Global().threads();
  double top_ms = 0.0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    if (tracer.spans()[i].parent < 0) {
      top_ms += tracer.ChildrenMs(static_cast<int>(i));
    }
  }
  layers.Num("nn.epoch_ms_sum", d.Get("trainer.epoch_ms.sum") * per)
      .Num("nn.train_epochs", d.Get("trainer.epochs") * per)
      .Num("search.eval_batch_ms", eval_batch_ms)
      .Num("search.self_ms", search_ms - eval_batch_ms)
      .Num("search.strategy_executions",
           d.Get("search.strategy_executions") * per)
      .Num("search.cache_hit_ratio",
           hits + misses > 0 ? hits / (hits + misses) : 0.0);
  for (const char* m : kMethods) {
    const std::string base = std::string("compress.") + m;
    layers.Num(base + ".ms", d.Get(base + ".ms.sum") * per)
        .Num(base + ".invocations", d.Get(base + ".invocations") * per);
  }
  layers.Num("tensor.gemm_calls", (avx2 + scalar) * per)
      .Num("tensor.gemm_scalar_share",
           avx2 + scalar > 0 ? scalar / (avx2 + scalar) : 0.0)
      .Num("tensor.tune_probes",
           static_cast<double>(CounterValue("simd.tune_probes")))
      .Num("tensor.cow_materialized_bytes",
           d.Get("tensor.cow_materialized_bytes") * per)
      .Num("common.pool_tasks", d.Get("pool.tasks") * per)
      .Num("common.pool_idle_share",
           traced_wall_ms > 0
               ? d.Get("pool.idle_ms.sum") / (threads * traced_wall_ms)
               : 0.0)
      .Num("trace.span_coverage",
           traced_wall_ms > 0 ? top_ms / traced_wall_ms : 0.0)
      .Num("trace.overhead_pct", overhead_pct);
  return layers.str();
}

}  // namespace

int RunSearchWorkload(const Args& args) {
  Checks checks;
  RunSpec spec;  // the default RunSpec: automc, resnet-20, c10, budget 12
  spec.seed = SearchSeed(args.seed, 0);

  // Set-up: one untimed warm-up search, which fills the GEMM tuner table
  // every fresh process pays for.
  auto warm = automc::core::RunSearch(spec);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm-up search failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  const double setup_s = SecondsSince(args.start);
  const std::string warm_bytes =
      automc::search::SaveOutcomeBytes(warm->outcome);
  checks.Expect(ValidOutcome(warm_bytes, spec), "warm-up outcome invalid");

  Tracer tracer;
  LayerCounters deltas;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  const auto timed_start = Clock::now();
  for (int i = 0; SecondsSince(timed_start) < args.seconds; ++i) {
    spec.seed = SearchSeed(args.seed, i);
    std::string bytes;
    auto untraced = [&]() {
      const auto t0 = Clock::now();
      auto run = automc::core::RunSearch(spec);
      untraced_ms.push_back(MsSince(t0));
      if (!run.ok()) {
        checks.Expect(false, "RunSearch failed: " + run.status().ToString());
        return;
      }
      bytes = automc::search::SaveOutcomeBytes(run->outcome);
      checks.Expect(ValidOutcome(bytes, spec),
                    "invalid outcome for seed " + std::to_string(spec.seed));
      if (i == 0) {
        checks.Expect(bytes == warm_bytes,
                      "repeated seed gave different outcome bytes");
      }
    };
    std::string traced_bytes;
    auto traced = [&]() {
      const LayerCounters before = LayerCounters::Read();
      const auto t0 = Clock::now();
      auto run = TracedRunSearch(spec, &tracer);
      traced_ms.push_back(MsSince(t0));
      deltas.AddDelta(before, LayerCounters::Read());
      if (run.ok()) {
        traced_bytes = automc::search::SaveOutcomeBytes(run->outcome);
      }
    };
    if (!args.trace) {
      untraced();
      continue;
    }
    // Each pair alternates which side runs first, so the warm caches of a
    // seed's second run cancel out of the overhead.
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    checks.Expect(!bytes.empty() && traced_bytes == bytes,
                  "traced recomposition differs from RunSearch for seed " +
                      std::to_string(spec.seed));
  }

  JsonObject out;
  out.Str("workload", "search")
      .Raw("stamp", MachineStamp())
      .Nums("setup_s", {setup_s})
      .Num("peak_rss_mb", SelfPeakRssMb())
      .Nums("op_ms", untraced_ms)
      .Raw("checks", checks.ToJson());
  if (args.trace) {
    double traced_total = 0.0;
    for (double v : traced_ms) traced_total += v;
    const double base = Median(untraced_ms);
    const double overhead_pct =
        base > 0 ? 100.0 * (Median(traced_ms) - base) / base : 0.0;
    out.Nums("traced_op_ms", traced_ms)
        .Raw("layers", LayersJson(tracer, deltas,
                                  static_cast<int>(traced_ms.size()),
                                  traced_total, overhead_pct))
        .Raw("spans", tracer.ToJson());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int RunRecomposeSelfTest(const Args& args) {
  RunSpec spec;
  spec.dataset = "tiny";
  spec.budget = 3;
  spec.pretrain = 1;
  spec.seed = SearchSeed(args.seed, 0);
  auto direct = automc::core::RunSearch(spec);
  Tracer tracer;
  auto traced = TracedRunSearch(spec, &tracer);
  const bool identical =
      direct.ok() && traced.ok() &&
      automc::search::SaveOutcomeBytes(direct->outcome) ==
          automc::search::SaveOutcomeBytes(traced->outcome);
  int top_spans = 0;
  for (const Tracer::SpanRecord& s : tracer.spans()) {
    if (s.parent == 0) ++top_spans;
  }
  std::printf("%s\n", JsonObject()
                          .Bool("identical", identical)
                          .Int("top_spans", top_spans)
                          .str()
                          .c_str());
  return identical ? 0 : 1;
}

}  // namespace perfbench
