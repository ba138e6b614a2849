// Kill-and-resume identity for every searcher: a run that crashes mid-search
// (power cut while writing its second checkpoint) and is resumed from its
// checkpoint + experience store must finish with a SearchOutcome
// byte-identical to an uninterrupted run. Exercises Snapshot/Restore of all
// four searchers, the evaluator's state snapshot, and store-served
// re-evaluation of the rounds that fell between the last checkpoint and the
// crash.
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/trainer.h"
#include "search/evaluator.h"
#include "search/evolutionary.h"
#include "search/progressive.h"
#include "search/random_search.h"
#include "search/report.h"
#include "search/rl.h"
#include "search/search_space.h"
#include "store/checkpoint.h"
#include "store/experience_store.h"
#include "test_util.h"

namespace automc {
namespace search {
namespace {

namespace fs = std::filesystem;
using automc::testing::ScopedTempDir;

struct ResumeFixture {
  data::TaskData task;
  std::unique_ptr<nn::Model> model;
  compress::CompressionContext ctx;
  SearchSpace space = SearchSpace::SingleMethod("NS");

  ResumeFixture() {
    data::SyntheticTaskConfig cfg;
    cfg.num_classes = 3;
    cfg.train_per_class = 12;
    cfg.test_per_class = 4;
    cfg.seed = 41;
    task = MakeSyntheticTask(cfg);

    nn::ModelSpec spec;
    spec.family = "vgg";
    spec.depth = 13;
    spec.num_classes = 3;
    spec.base_width = 4;
    Rng rng(5);
    model = std::move(nn::BuildModel(spec, &rng)).value();
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 12;
    nn::Trainer trainer(tc);
    AUTOMC_CHECK(trainer.Fit(model.get(), task.train).ok());

    ctx.train = &task.train;
    ctx.test = &task.test;
    ctx.pretrain_epochs = 1;
    ctx.batch_size = 12;
    ctx.seed = 3;
  }

  // Deterministic factory: repeated calls build identical searchers (the
  // progressive searcher's embeddings come from a fixed-seed RNG).
  std::unique_ptr<Searcher> Make(const std::string& kind) const {
    if (kind == "random") return std::make_unique<RandomSearcher>();
    if (kind == "evolution") {
      EvolutionarySearcher::Options opts;
      opts.population = 2;
      return std::make_unique<EvolutionarySearcher>(opts);
    }
    if (kind == "rl") return std::make_unique<RlSearcher>();
    AUTOMC_CHECK(kind == "automc");
    Rng rng(123);
    std::vector<tensor::Tensor> embeddings;
    for (size_t i = 0; i < space.size(); ++i) {
      embeddings.push_back(tensor::Tensor::Randn({8}, &rng, 0.5f));
    }
    tensor::Tensor feats({data::kTaskFeatureDim});
    for (int i = 0; i < data::kTaskFeatureDim; ++i) {
      feats[i] = 0.1f * static_cast<float>(i + 1);
    }
    ProgressiveSearcher::Options opts;
    opts.sample_schemes = 3;
    opts.candidates_per_scheme = 16;
    opts.max_evals_per_round = 2;
    opts.max_replay = 64;
    return std::make_unique<ProgressiveSearcher>(std::move(embeddings),
                                                 std::move(feats), opts);
  }
};

std::string OutcomeString(const SearchOutcome& outcome) {
  std::ostringstream os;
  Status st = SaveOutcome(outcome, &os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

SearchConfig BaseConfig(const std::string& kind) {
  SearchConfig cfg;
  cfg.max_strategy_executions = kind == "evolution" ? 10 : 8;
  cfg.max_length = 3;
  cfg.gamma = 0.3;
  cfg.seed = 11;
  // Small rounds keep the searchers checkpointing often enough that the
  // power cut in the second checkpoint fires within the tiny budget.
  cfg.eval_batch = 2;
  return cfg;
}

void CheckKillResumeIdentity(const std::string& kind) {
  ResumeFixture f;
  const SearchConfig cfg = BaseConfig(kind);

  // Reference: one uninterrupted run, no persistence at all.
  std::string reference;
  {
    SchemeEvaluator ev(&f.space, f.model.get(), f.ctx, {});
    auto searcher = f.Make(kind);
    auto out = searcher->Search(&ev, f.space, cfg);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    reference = OutcomeString(*out);
  }

  ScopedTempDir dir(kind);
  const std::string store_path = dir.File("store.bin");

  // Victim: checkpoints every round; the power fails in the middle of the
  // second checkpoint write, leaving round 1's checkpoint and every
  // evaluation up to the crash durably on disk.
  {
    auto store = store::ExperienceStore::Open(store_path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    automc::testing::PowerCutAfter cut(
        "checkpoint.bin", automc::testing::kCutInSecondCheckpoint);
    store::SearchCheckpointer::Options copts;
    copts.dir = dir.path().string();
    copts.every_rounds = 1;
    store::SearchCheckpointer ckpt(copts);

    SchemeEvaluator ev(&f.space, f.model.get(), f.ctx, {});
    ASSERT_TRUE(ev.AttachStore(store->get()).ok());
    SearchConfig vcfg = cfg;
    vcfg.checkpointer = &ckpt;
    auto searcher = f.Make(kind);
    auto out = searcher->Search(&ev, f.space, vcfg);
    ASSERT_FALSE(out.ok()) << kind << ": fault injection never fired — "
                           << "the budget finished before round 2";
    EXPECT_EQ(out.status().code(), StatusCode::kInternal);
    EXPECT_EQ(ckpt.writes(), 1);
  }

  // Resume: a fresh process (new searcher, new evaluator) picks up the
  // pending checkpoint and the store, and must land exactly where the
  // uninterrupted run did.
  {
    auto store = store::ExperienceStore::Open(store_path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store::SearchCheckpointer::Options copts;
    copts.dir = dir.path().string();
    copts.every_rounds = 1;
    store::SearchCheckpointer ckpt(copts);
    ASSERT_TRUE(ckpt.LoadPending().ok());

    SchemeEvaluator ev(&f.space, f.model.get(), f.ctx, {});
    ASSERT_TRUE(ev.AttachStore(store->get()).ok());
    SearchConfig rcfg = cfg;
    rcfg.checkpointer = &ckpt;
    auto searcher = f.Make(kind);
    auto out = searcher->Search(&ev, f.space, rcfg);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(OutcomeString(*out), reference) << kind;
    // Round 2 was evaluated before the crash: the resume replays it from
    // the store instead of executing it again.
    EXPECT_GT(ev.store_hits(), 0) << kind;
  }
}

TEST(ResumeTest, RandomKillResumeIsByteIdentical) {
  CheckKillResumeIdentity("random");
}

TEST(ResumeTest, EvolutionKillResumeIsByteIdentical) {
  CheckKillResumeIdentity("evolution");
}

TEST(ResumeTest, RlKillResumeIsByteIdentical) {
  CheckKillResumeIdentity("rl");
}

TEST(ResumeTest, AutoMCKillResumeIsByteIdentical) {
  CheckKillResumeIdentity("automc");
}

// Resuming under a different configuration (or a different searcher) would
// silently diverge from the crashed run; both are rejected up front.
TEST(ResumeTest, MismatchedConfigOrSearcherIsRejected) {
  ResumeFixture f;
  SearchConfig cfg = BaseConfig("random");
  ScopedTempDir dir("mismatch");

  {
    automc::testing::PowerCutAfter cut(
        "checkpoint.bin", automc::testing::kCutInSecondCheckpoint);
    store::SearchCheckpointer::Options copts;
    copts.dir = dir.path().string();
    copts.every_rounds = 1;
    store::SearchCheckpointer ckpt(copts);
    SchemeEvaluator ev(&f.space, f.model.get(), f.ctx, {});
    SearchConfig vcfg = cfg;
    vcfg.checkpointer = &ckpt;
    auto searcher = f.Make("random");
    ASSERT_FALSE(searcher->Search(&ev, f.space, vcfg).ok());
  }

  auto resume_with = [&](std::unique_ptr<Searcher> searcher,
                         SearchConfig rcfg) {
    store::SearchCheckpointer ckpt({dir.path().string()});
    AUTOMC_CHECK(ckpt.LoadPending().ok());
    rcfg.checkpointer = &ckpt;
    SchemeEvaluator ev(&f.space, f.model.get(), f.ctx, {});
    return searcher->Search(&ev, f.space, rcfg).status();
  };

  SearchConfig other_seed = cfg;
  other_seed.seed = cfg.seed + 1;
  EXPECT_EQ(resume_with(f.Make("random"), other_seed).code(),
            StatusCode::kFailedPrecondition);
  SearchConfig other_budget = cfg;
  other_budget.max_strategy_executions += 5;
  EXPECT_EQ(resume_with(f.Make("random"), other_budget).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(resume_with(f.Make("evolution"), BaseConfig("evolution")).code(),
            StatusCode::kFailedPrecondition);

  // The matching searcher + config still resumes fine.
  EXPECT_TRUE(resume_with(f.Make("random"), cfg).ok());
}

// A checkpoint written against one base model must not restore into an
// evaluator built around a different one (e.g. a retrained base).
TEST(ResumeTest, ForeignBasePointIsRejected) {
  ResumeFixture f;
  SearchConfig cfg = BaseConfig("random");
  ScopedTempDir dir("foreignbase");

  {
    automc::testing::PowerCutAfter cut(
        "checkpoint.bin", automc::testing::kCutInSecondCheckpoint);
    store::SearchCheckpointer::Options copts;
    copts.dir = dir.path().string();
    copts.every_rounds = 1;
    store::SearchCheckpointer ckpt(copts);
    SchemeEvaluator ev(&f.space, f.model.get(), f.ctx, {});
    SearchConfig vcfg = cfg;
    vcfg.checkpointer = &ckpt;
    auto searcher = f.Make("random");
    ASSERT_FALSE(searcher->Search(&ev, f.space, vcfg).ok());
  }

  // A wider base model: same family, provably different base point (params).
  nn::ModelSpec spec = f.model->spec();
  spec.base_width *= 2;
  Rng rng(99);
  std::unique_ptr<nn::Model> other = std::move(nn::BuildModel(spec, &rng)).value();

  store::SearchCheckpointer ckpt({dir.path().string()});
  ASSERT_TRUE(ckpt.LoadPending().ok());
  SearchConfig rcfg = cfg;
  rcfg.checkpointer = &ckpt;
  SchemeEvaluator ev(&f.space, other.get(), f.ctx, {});
  auto searcher = f.Make("random");
  EXPECT_EQ(searcher->Search(&ev, f.space, rcfg).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace search
}  // namespace automc
