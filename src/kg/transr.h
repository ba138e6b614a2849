#ifndef AUTOMC_KG_TRANSR_H_
#define AUTOMC_KG_TRANSR_H_

#include <vector>

#include "common/rng.h"
#include "kg/knowledge_graph.h"
#include "tensor/tensor.h"

namespace automc {
namespace kg {

struct TransRConfig {
  int64_t entity_dim = 32;    // d
  int64_t relation_dim = 32;  // k
  float margin = 1.0f;
  float lr = 0.01f;
  uint64_t seed = 11;
};

// TransR knowledge-graph embedding (Lin et al. 2015): entities live in R^d,
// each relation r has its own space R^k and projection matrix W_r in
// R^{k x d}; a valid triplet satisfies W_r e_h + e_r ~= W_r e_t. Trained
// with margin-based ranking against corrupted negatives, SGD updates, and
// unit-ball renormalization.
class TransR {
 public:
  TransR(int64_t num_entities, int64_t num_relations, TransRConfig config);

  // One pass over the triplets (shuffled) with one sampled negative per
  // positive. Returns the mean hinge loss.
  double TrainEpoch(const std::vector<Triplet>& triplets, int64_t num_entities,
                    Rng* rng);

  // Energy ||W_r e_h + e_r - W_r e_t||^2 of a triplet (lower = more
  // plausible).
  double Score(const Triplet& t) const;

  // Link-prediction quality of the embedding (standard KG-completion
  // protocol): for each evaluated triplet, rank the true tail against all
  // tail corruptions by score.
  struct RankingMetrics {
    double mrr = 0.0;      // mean reciprocal rank
    double hits_at_1 = 0.0;
    double hits_at_10 = 0.0;
    int evaluated = 0;
  };
  // Evaluates at most `max_triplets` (sampled deterministically from the
  // front of the list) against `num_entities` candidate tails.
  RankingMetrics EvaluateRanking(const std::vector<Triplet>& triplets,
                                 int64_t num_entities,
                                 int max_triplets = 200) const;

  // Copy of entity embedding [d].
  tensor::Tensor EntityEmbedding(int64_t id) const;
  // Overwrites entity embedding (used by the joint Algorithm-1 loop when
  // experience gradients refine strategy embeddings).
  void SetEntityEmbedding(int64_t id, const tensor::Tensor& e);

  const TransRConfig& config() const { return config_; }

 private:
  // Scores a (positive, negative) pair, whose negative replaces the head or
  // the tail of the positive, and applies its SGD step when the hinge is
  // active. Returns the pair's hinge loss.
  double TrainPair(const Triplet& pos, const Triplet& neg);
  void RenormalizeEntity(int64_t id);

  TransRConfig config_;
  int64_t num_entities_;
  int64_t num_relations_;
  tensor::Tensor entities_;   // [E, d]
  tensor::Tensor relations_;  // [R, k]
  tensor::Tensor proj_;       // [R, k, d] flattened as [R, k*d]
  // TrainPair's working set, sized once: 3 widened entity rows, and
  // 3 projections + 2 residuals + 2 d-vectors.
  std::vector<double> wide_;
  std::vector<float> scratch_;
};

}  // namespace kg
}  // namespace automc

#endif  // AUTOMC_KG_TRANSR_H_
