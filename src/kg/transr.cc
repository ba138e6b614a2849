#include "kg/transr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace automc {
namespace kg {

using tensor::Tensor;

TransR::TransR(int64_t num_entities, int64_t num_relations,
               TransRConfig config)
    : config_(config), num_entities_(num_entities),
      num_relations_(num_relations),
      wide_(static_cast<size_t>(3 * config.entity_dim)),
      scratch_(static_cast<size_t>(5 * config.relation_dim +
                                   2 * config.entity_dim)) {
  AUTOMC_CHECK_GT(num_entities, 0);
  AUTOMC_CHECK_GT(num_relations, 0);
  Rng rng(config.seed);
  float escale = 1.0f / std::sqrt(static_cast<float>(config.entity_dim));
  float rscale = 1.0f / std::sqrt(static_cast<float>(config.relation_dim));
  entities_ = Tensor::Randn({num_entities, config.entity_dim}, &rng, escale);
  relations_ =
      Tensor::Randn({num_relations, config.relation_dim}, &rng, rscale);
  // Projections start near identity-ish random maps.
  proj_ = Tensor::Randn(
      {num_relations, config.relation_dim * config.entity_dim}, &rng, escale);
  for (int64_t r = 0; r < num_relations; ++r) {
    for (int64_t i = 0; i < std::min(config.relation_dim, config.entity_dim);
         ++i) {
      proj_[r * config.relation_dim * config.entity_dim +
            i * config.entity_dim + i] += 1.0f;
    }
  }
}

namespace {

// out[c][i] = float(sum_j double(w[i*d + j]) * e[c][j]) for N entities at
// once: one pass over W_r (k x d) serves them all. Every element is its own
// double chain over ascending j, the chain a one-entity projection runs;
// interleaving two rows and N entities only hands the FP units independent
// chains, so the bits never depend on N. `e` holds the entity rows widened
// to double (exact) so the inner loop converts nothing.
template <int N>
void Project(const float* w, int64_t k, int64_t d, const double* const (&e)[N],
             float* const (&out)[N]) {
  int64_t i = 0;
  for (; i + 2 <= k; i += 2) {
    const float* w0 = w + i * d;
    const float* w1 = w0 + d;
    double s0[N] = {}, s1[N] = {};
#pragma GCC unroll 4
    for (int64_t j = 0; j < d; ++j) {
      double a = w0[j], b = w1[j];
#pragma GCC unroll 3
      for (int c = 0; c < N; ++c) {
        s0[c] += a * e[c][j];
        s1[c] += b * e[c][j];
      }
    }
    for (int c = 0; c < N; ++c) {
      out[c][i] = static_cast<float>(s0[c]);
      out[c][i + 1] = static_cast<float>(s1[c]);
    }
  }
  for (; i < k; ++i) {
    const float* wi = w + i * d;
    double s[N] = {};
    for (int64_t j = 0; j < d; ++j) {
      double a = wi[j];
#pragma GCC unroll 3
      for (int c = 0; c < N; ++c) s[c] += a * e[c][j];
    }
    for (int c = 0; c < N; ++c) out[c][i] = static_cast<float>(s[c]);
  }
}

void Widen(const float* src, int64_t n, double* dst) {
  for (int64_t j = 0; j < n; ++j) dst[j] = src[j];
}

// u = W e_h + e_r - W e_t, elementwise in float; returns the energy
// sum_i double(u_i)^2 over ascending i.
double Residual(const float* ph, const float* er, const float* pt, int64_t k,
                float* u) {
  double s = 0.0;
  for (int64_t i = 0; i < k; ++i) {
    u[i] = ph[i] + er[i] - pt[i];
    s += static_cast<double>(u[i]) * u[i];
  }
  return s;
}

// Columns per block in Step's W loops: -O2 vectorizes only fixed-length
// loops, and the lanes of a block are distinct columns, so no element's
// chain or update expression changes.
constexpr int64_t kColBlock = 8;

// One SGD step on the energy of (h, r, t) with residual u (computed from the
// current parameters) and step = 2 * lr * sign:
//   dd/de_h = 2 W^T u ; dd/de_t = -2 W^T u ; dd/de_r = 2u ;
//   dd/dW = 2 u (e_h - e_t)^T.
// Each parameter element gets one float update from pre-step values, so the
// loops may run in any order except where e_h and e_t are the same row (the
// only pointers that may alias): then each element's e_h update lands before
// its e_t update. `wtu` and `diff` are d-float scratch.
void Step(float* __restrict w, float* eh, float* et, float* __restrict er,
          const float* __restrict u, float step, int64_t k, int64_t d,
          float* __restrict wtu, float* __restrict diff) {
  // W^T u: per j, a float chain over ascending i.
  int64_t j0 = 0;
  for (; j0 + kColBlock <= d; j0 += kColBlock) {
    float acc[kColBlock] = {};
    for (int64_t i = 0; i < k; ++i) {
      const float* wi = w + i * d + j0;
      float ui = u[i];
      for (int64_t c = 0; c < kColBlock; ++c) acc[c] += wi[c] * ui;
    }
    for (int64_t c = 0; c < kColBlock; ++c) wtu[j0 + c] = acc[c];
  }
  for (int64_t j = j0; j < d; ++j) {
    float acc = 0.0f;
    for (int64_t i = 0; i < k; ++i) acc += w[i * d + j] * u[i];
    wtu[j] = acc;
  }
  for (int64_t j = 0; j < d; ++j) diff[j] = eh[j] - et[j];
  for (int64_t j = 0; j < d; ++j) {
    eh[j] -= step * wtu[j];
    et[j] += step * wtu[j];
  }
  for (int64_t i = 0; i < k; ++i) {
    float* wi = w + i * d;
    float su = step * u[i];
    int64_t j = 0;
    for (; j + kColBlock <= d; j += kColBlock) {
      for (int64_t c = 0; c < kColBlock; ++c) wi[j + c] -= su * diff[j + c];
    }
    for (; j < d; ++j) wi[j] -= su * diff[j];
  }
  for (int64_t i = 0; i < k; ++i) er[i] -= step * u[i];
}

}  // namespace

double TransR::Score(const Triplet& t) const {
  int64_t d = config_.entity_dim, k = config_.relation_dim;
  const float* w = proj_.data() + t.relation * k * d;
  const float* er = relations_.data() + t.relation * k;
  std::vector<double> e(static_cast<size_t>(2 * d));
  std::vector<float> p(static_cast<size_t>(3 * k));
  Widen(entities_.data() + t.head * d, d, e.data());
  Widen(entities_.data() + t.tail * d, d, e.data() + d);
  Project<2>(w, k, d, {e.data(), e.data() + d}, {p.data(), p.data() + k});
  return Residual(p.data(), er, p.data() + k, k, p.data() + 2 * k);
}

void TransR::RenormalizeEntity(int64_t id) {
  int64_t d = config_.entity_dim;
  float* e = entities_.MutableData() + id * d;
  double n = 0.0;
  for (int64_t i = 0; i < d; ++i) n += static_cast<double>(e[i]) * e[i];
  n = std::sqrt(n);
  if (n > 1.0) {
    float inv = static_cast<float>(1.0 / n);
    for (int64_t i = 0; i < d; ++i) e[i] *= inv;
  }
}

double TransR::TrainPair(const Triplet& pos, const Triplet& neg) {
  int64_t d = config_.entity_dim, k = config_.relation_dim;
  // wide_ holds three widened entity rows; scratch_ holds three
  // projections, two residuals, W^T u and e_h - e_t.
  double* e = wide_.data();
  float* p = scratch_.data();
  float* u_pos = p + 3 * k;
  float* u_neg = u_pos + k;
  float* wtu = u_neg + k;
  float* diff = wtu + d;

  // The negative shares the relation and one entity with the positive, so
  // one pass over W_r projects all three entities the pair touches.
  int64_t other = neg.head != pos.head ? neg.head : neg.tail;
  const float* w = proj_.data() + pos.relation * k * d;
  const float* er = relations_.data() + pos.relation * k;
  Widen(entities_.data() + pos.head * d, d, e);
  Widen(entities_.data() + pos.tail * d, d, e + d);
  Widen(entities_.data() + other * d, d, e + 2 * d);
  Project<3>(w, k, d, {e, e + d, e + 2 * d}, {p, p + k, p + 2 * k});
  const float* neg_h = neg.head == pos.head ? p : p + 2 * k;
  const float* neg_t = neg.tail == pos.tail ? p + k : p + 2 * k;
  double d_pos = Residual(p, er, p + k, k, u_pos);
  double d_neg = Residual(neg_h, er, neg_t, k, u_neg);
  double loss = config_.margin + d_pos - d_neg;
  if (loss <= 0.0) return 0.0;  // hinge inactive

  float step = 2.0f * config_.lr;
  float* wm = proj_.MutableData() + pos.relation * k * d;
  float* erm = relations_.MutableData() + pos.relation * k;
  float* ents = entities_.MutableData();
  // Decrease the positive energy with the residual already at hand.
  Step(wm, ents + pos.head * d, ents + pos.tail * d, erm, u_pos, step, k, d,
       wtu, diff);
  // That step moved W_r, e_r and at least one of the negative's entities,
  // so its residual is recomputed before the step that raises its energy.
  Widen(ents + neg.head * d, d, e);
  Widen(ents + neg.tail * d, d, e + d);
  Project<2>(wm, k, d, {e, e + d}, {p, p + k});
  Residual(p, erm, p + k, k, u_neg);
  Step(wm, ents + neg.head * d, ents + neg.tail * d, erm, u_neg, -step, k, d,
       wtu, diff);
  RenormalizeEntity(pos.head);
  RenormalizeEntity(pos.tail);
  RenormalizeEntity(neg.head);
  RenormalizeEntity(neg.tail);
  return std::max(0.0, loss);
}

double TransR::TrainEpoch(const std::vector<Triplet>& triplets,
                          int64_t num_entities, Rng* rng) {
  AUTOMC_CHECK(!triplets.empty());
  std::vector<size_t> order(triplets.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  double total = 0.0;
  for (size_t idx : order) {
    const Triplet& pos = triplets[idx];
    Triplet neg = pos;
    // Corrupt head or tail with a uniform entity.
    if (rng->Bernoulli(0.5)) {
      neg.head = rng->UniformInt(num_entities);
    } else {
      neg.tail = rng->UniformInt(num_entities);
    }
    total += TrainPair(pos, neg);
  }
  return total / static_cast<double>(triplets.size());
}

TransR::RankingMetrics TransR::EvaluateRanking(
    const std::vector<Triplet>& triplets, int64_t num_entities,
    int max_triplets) const {
  RankingMetrics m;
  int limit = std::min<int>(max_triplets, static_cast<int>(triplets.size()));
  for (int i = 0; i < limit; ++i) {
    const Triplet& t = triplets[static_cast<size_t>(i)];
    double true_score = Score(t);
    // Rank = 1 + number of corruptions scoring strictly better.
    int64_t rank = 1;
    for (int64_t e = 0; e < num_entities; ++e) {
      if (e == t.tail) continue;
      Triplet corrupted = t;
      corrupted.tail = e;
      if (Score(corrupted) < true_score) ++rank;
    }
    m.mrr += 1.0 / static_cast<double>(rank);
    if (rank <= 1) m.hits_at_1 += 1.0;
    if (rank <= 10) m.hits_at_10 += 1.0;
    ++m.evaluated;
  }
  if (m.evaluated > 0) {
    m.mrr /= m.evaluated;
    m.hits_at_1 /= m.evaluated;
    m.hits_at_10 /= m.evaluated;
  }
  return m;
}

Tensor TransR::EntityEmbedding(int64_t id) const {
  AUTOMC_CHECK(id >= 0 && id < num_entities_);
  int64_t d = config_.entity_dim;
  Tensor out({d});
  const float* e = entities_.data() + id * d;
  std::copy(e, e + d, out.MutableData());
  return out;
}

void TransR::SetEntityEmbedding(int64_t id, const Tensor& e) {
  AUTOMC_CHECK(id >= 0 && id < num_entities_);
  int64_t d = config_.entity_dim;
  AUTOMC_CHECK_EQ(e.numel(), d);
  std::copy(e.data(), e.data() + d, entities_.MutableData() + id * d);
}

}  // namespace kg
}  // namespace automc
