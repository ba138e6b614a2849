#include "kg/embedding.h"

#include <numeric>

#include "common/trace.h"
#include "nn/optimizer.h"

namespace automc {
namespace kg {

using tensor::Tensor;

StrategyEmbeddingLearner::StrategyEmbeddingLearner(
    std::vector<compress::StrategySpec> strategies,
    EmbeddingLearnerConfig config)
    : strategies_(std::move(strategies)),
      config_(config),
      graph_(KnowledgeGraph::Build(strategies_)) {
  AUTOMC_CHECK(!strategies_.empty());
  transr_ = std::make_unique<TransR>(graph_.num_entities(), kNumRelations,
                                     config_.transr);
  Rng rng(config_.seed);
  nn_exp_ = std::make_unique<nn::VecMlp>(
      std::vector<int64_t>{config_.transr.entity_dim + data::kTaskFeatureDim,
                           64, 32, 2},
      &rng);
  embeddings_.resize(strategies_.size());
}

Status StrategyEmbeddingLearner::Learn(
    const std::vector<ExperienceRecord>& experience) {
  if (config_.use_exp && experience.empty()) {
    return Status::InvalidArgument(
        "use_exp requires non-empty experience records");
  }
  for (const ExperienceRecord& r : experience) {
    if (r.strategy_index >= strategies_.size()) {
      return Status::OutOfRange("experience references unknown strategy");
    }
    if (r.task_features.size() != static_cast<size_t>(data::kTaskFeatureDim)) {
      return Status::InvalidArgument("bad task feature dimension");
    }
  }

  Rng rng(config_.seed + 1);
  nn::Adam exp_opt(config_.exp_lr);
  int64_t d = config_.transr.entity_dim;

  for (int epoch = 0; epoch < config_.train_epochs; ++epoch) {
    // (Line 5) one TransR epoch over the knowledge graph.
    if (config_.use_kg) {
      AUTOMC_SCOPED_TIMER("kg.transr_epoch_ms");
      transr_->TrainEpoch(graph_.triplets(), graph_.num_entities(), &rng);
    }
    // (Lines 6-9) refine strategy embeddings through NN_exp.
    if (config_.use_exp) {
      AUTOMC_SCOPED_TIMER("kg.exp_epoch_ms");
      std::vector<size_t> order(experience.size());
      std::iota(order.begin(), order.end(), 0);
      rng.Shuffle(&order);
      double total = 0.0;
      for (size_t idx : order) {
        const ExperienceRecord& rec = experience[idx];
        int64_t entity = graph_.StrategyEntity(rec.strategy_index);
        Tensor emb = transr_->EntityEmbedding(entity);

        Tensor input({d + data::kTaskFeatureDim});
        for (int64_t i = 0; i < d; ++i) input[i] = emb[i];
        for (int64_t i = 0; i < data::kTaskFeatureDim; ++i) {
          input[d + i] = rec.task_features[static_cast<size_t>(i)];
        }

        nn::VecMlp::Cache cache;
        Tensor pred = nn_exp_->Forward(input, &cache);
        // Equation 3: squared error between (AR, PR) and predictions.
        Tensor dy({2});
        float e_ar = pred[0] - rec.ar;
        float e_pr = pred[1] - rec.pr;
        total += 0.5 * (e_ar * e_ar + e_pr * e_pr);
        dy[0] = e_ar;
        dy[1] = e_pr;

        for (nn::Param* p : nn_exp_->Params()) p->ZeroGrad();
        Tensor dx = nn_exp_->Backward(cache, dy);
        exp_opt.Step(nn_exp_->Params());

        // Refine the embedding against the input gradient and write it back
        // into the entity table so TransR and NN_exp co-train.
        for (int64_t i = 0; i < d; ++i) {
          emb[i] -= config_.emb_lr * dx[i];
        }
        transr_->SetEntityEmbedding(entity, emb);
      }
      last_exp_loss_ = total / static_cast<double>(experience.size());
    }
  }

  // (Line 11) export final high-level embeddings.
  for (size_t i = 0; i < strategies_.size(); ++i) {
    embeddings_[i] = transr_->EntityEmbedding(graph_.StrategyEntity(i));
  }
  return Status::OK();
}

const Tensor& StrategyEmbeddingLearner::Embedding(
    size_t strategy_index) const {
  AUTOMC_CHECK_LT(strategy_index, embeddings_.size());
  AUTOMC_CHECK(!embeddings_[strategy_index].empty())
      << "Learn() must run before Embedding()";
  return embeddings_[strategy_index];
}

}  // namespace kg
}  // namespace automc
