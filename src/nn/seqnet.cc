#include "nn/seqnet.h"

#include <algorithm>
#include <cmath>

namespace automc {
namespace nn {

using tensor::Tensor;

namespace {

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// y = W x (+accumulate into y), W is [out, in], x is [in].
void MatVec(const Tensor& w, const Tensor& x, Tensor* y) {
  int64_t out = w.size(0), in = w.size(1);
  AUTOMC_CHECK_EQ(x.numel(), in);
  AUTOMC_CHECK_EQ(y->numel(), out);
  const float* wd = w.data();
  const float* xd = x.data();
  float* yd = y->MutableData();
  for (int64_t o = 0; o < out; ++o) {
    const float* row = wd + o * in;
    double s = 0.0;
    for (int64_t i = 0; i < in; ++i) {
      s += static_cast<double>(row[i]) * xd[i];
    }
    yd[o] += static_cast<float>(s);
  }
}

// dx += W^T dy.
void MatVecTranspose(const Tensor& w, const Tensor& dy, Tensor* dx) {
  int64_t out = w.size(0), in = w.size(1);
  AUTOMC_CHECK_EQ(dy.numel(), out);
  AUTOMC_CHECK_EQ(dx->numel(), in);
  for (int64_t o = 0; o < out; ++o) {
    const float* row = w.data() + o * in;
    float g = dy[o];
    if (g == 0.0f) continue;
    for (int64_t i = 0; i < in; ++i) (*dx)[i] += g * row[i];
  }
}

// dW += dy x^T (outer product).
void OuterAccumulate(const Tensor& dy, const Tensor& x, Tensor* dw) {
  int64_t out = dy.numel(), in = x.numel();
  AUTOMC_CHECK_EQ(dw->size(0), out);
  AUTOMC_CHECK_EQ(dw->size(1), in);
  for (int64_t o = 0; o < out; ++o) {
    float g = dy[o];
    if (g == 0.0f) continue;
    float* row = dw->MutableData() + o * in;
    for (int64_t i = 0; i < in; ++i) row[i] += g * x[i];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// GruCell

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wz_(Tensor::KaimingNormal({hidden_dim, input_dim}, input_dim, rng)),
      uz_(Tensor::KaimingNormal({hidden_dim, hidden_dim}, hidden_dim, rng)),
      bz_(Tensor::Zeros({hidden_dim})),
      wr_(Tensor::KaimingNormal({hidden_dim, input_dim}, input_dim, rng)),
      ur_(Tensor::KaimingNormal({hidden_dim, hidden_dim}, hidden_dim, rng)),
      br_(Tensor::Zeros({hidden_dim})),
      wn_(Tensor::KaimingNormal({hidden_dim, input_dim}, input_dim, rng)),
      un_(Tensor::KaimingNormal({hidden_dim, hidden_dim}, hidden_dim, rng)),
      bn_(Tensor::Zeros({hidden_dim})) {
  AUTOMC_CHECK_GT(input_dim, 0);
  AUTOMC_CHECK_GT(hidden_dim, 0);
}

std::vector<Param*> GruCell::Params() {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wn_, &un_, &bn_};
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h_prev,
                     Cache* cache) const {
  AUTOMC_CHECK_EQ(x.numel(), input_dim_);
  AUTOMC_CHECK_EQ(h_prev.numel(), hidden_dim_);

  Tensor z = bz_.value;
  MatVec(wz_.value, x, &z);
  MatVec(uz_.value, h_prev, &z);
  for (int64_t i = 0; i < hidden_dim_; ++i) z[i] = Sigmoid(z[i]);

  Tensor r = br_.value;
  MatVec(wr_.value, x, &r);
  MatVec(ur_.value, h_prev, &r);
  for (int64_t i = 0; i < hidden_dim_; ++i) r[i] = Sigmoid(r[i]);

  Tensor rh({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) rh[i] = r[i] * h_prev[i];

  Tensor n = bn_.value;
  MatVec(wn_.value, x, &n);
  MatVec(un_.value, rh, &n);
  for (int64_t i = 0; i < hidden_dim_; ++i) n[i] = std::tanh(n[i]);

  Tensor h({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) {
    h[i] = (1.0f - z[i]) * n[i] + z[i] * h_prev[i];
  }

  if (cache != nullptr) {
    cache->x = x;
    cache->h_prev = h_prev;
    cache->z = z;
    cache->r = r;
    cache->n = n;
  }
  return h;
}

std::pair<Tensor, Tensor> GruCell::BackwardStep(const Cache& cache,
                                                const Tensor& dh) {
  const Tensor& x = cache.x;
  const Tensor& h_prev = cache.h_prev;
  const Tensor& z = cache.z;
  const Tensor& r = cache.r;
  const Tensor& n = cache.n;

  Tensor dx({input_dim_});
  Tensor dh_prev({hidden_dim_});

  Tensor dn({hidden_dim_}), dz({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) {
    dn[i] = dh[i] * (1.0f - z[i]);
    dz[i] = dh[i] * (h_prev[i] - n[i]);
    dh_prev[i] += dh[i] * z[i];
  }

  // n = tanh(an), an = Wn x + Un (r*h_prev) + bn
  Tensor dan({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) dan[i] = dn[i] * (1.0f - n[i] * n[i]);
  Tensor rh({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) rh[i] = r[i] * h_prev[i];
  OuterAccumulate(dan, x, &wn_.grad);
  OuterAccumulate(dan, rh, &un_.grad);
  bn_.grad.AddInPlace(dan);
  MatVecTranspose(wn_.value, dan, &dx);
  Tensor drh({hidden_dim_});
  MatVecTranspose(un_.value, dan, &drh);
  Tensor dr({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) {
    dr[i] = drh[i] * h_prev[i];
    dh_prev[i] += drh[i] * r[i];
  }

  // z = sigmoid(az), az = Wz x + Uz h_prev + bz
  Tensor daz({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) daz[i] = dz[i] * z[i] * (1.0f - z[i]);
  OuterAccumulate(daz, x, &wz_.grad);
  OuterAccumulate(daz, h_prev, &uz_.grad);
  bz_.grad.AddInPlace(daz);
  MatVecTranspose(wz_.value, daz, &dx);
  MatVecTranspose(uz_.value, daz, &dh_prev);

  // r = sigmoid(ar), ar = Wr x + Ur h_prev + br
  Tensor dar({hidden_dim_});
  for (int64_t i = 0; i < hidden_dim_; ++i) dar[i] = dr[i] * r[i] * (1.0f - r[i]);
  OuterAccumulate(dar, x, &wr_.grad);
  OuterAccumulate(dar, h_prev, &ur_.grad);
  br_.grad.AddInPlace(dar);
  MatVecTranspose(wr_.value, dar, &dx);
  MatVecTranspose(ur_.value, dar, &dh_prev);

  return {std::move(dx), std::move(dh_prev)};
}

// ---------------------------------------------------------------------------
// VecMlp

VecMlp::VecMlp(std::vector<int64_t> dims, Rng* rng) : dims_(std::move(dims)) {
  AUTOMC_CHECK_GE(dims_.size(), 2u);
  for (size_t i = 0; i + 1 < dims_.size(); ++i) {
    weights_.emplace_back(
        Tensor::KaimingNormal({dims_[i + 1], dims_[i]}, dims_[i], rng));
    biases_.emplace_back(Tensor::Zeros({dims_[i + 1]}));
  }
}

std::vector<Param*> VecMlp::Params() {
  std::vector<Param*> out;
  for (size_t i = 0; i < weights_.size(); ++i) {
    out.push_back(&weights_[i]);
    out.push_back(&biases_[i]);
  }
  return out;
}

Tensor VecMlp::Forward(const Tensor& x, Cache* cache) const {
  AUTOMC_CHECK_EQ(x.numel(), dims_.front());
  if (cache != nullptr) {
    cache->inputs.clear();
    cache->pre.clear();
  }
  Tensor h = x;
  for (size_t l = 0; l < weights_.size(); ++l) {
    if (cache != nullptr) cache->inputs.push_back(h);
    Tensor y = biases_[l].value;
    MatVec(weights_[l].value, h, &y);
    if (cache != nullptr) cache->pre.push_back(y);
    if (l + 1 < weights_.size()) {
      for (int64_t i = 0; i < y.numel(); ++i) y[i] = std::max(0.0f, y[i]);
    }
    h = std::move(y);
  }
  return h;
}

Tensor VecMlp::Backward(const Cache& cache, const Tensor& dy) {
  AUTOMC_CHECK_EQ(cache.inputs.size(), weights_.size());
  Tensor g = dy;
  for (size_t l = weights_.size(); l-- > 0;) {
    if (l + 1 < weights_.size()) {
      // Undo ReLU of this layer's output.
      const Tensor& pre = cache.pre[l];
      for (int64_t i = 0; i < g.numel(); ++i) {
        if (pre[i] <= 0.0f) g[i] = 0.0f;
      }
    }
    OuterAccumulate(g, cache.inputs[l], &weights_[l].grad);
    biases_[l].grad.AddInPlace(g);
    Tensor dx({dims_[l]});
    MatVecTranspose(weights_[l].value, g, &dx);
    g = std::move(dx);
  }
  return g;
}

}  // namespace nn
}  // namespace automc
