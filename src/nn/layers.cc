#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace automc {
namespace nn {

using tensor::ConvGeometry;
using tensor::Tensor;

namespace {

// Chunk size for element-wise activation kernels: big enough that the pool
// dispatch amortizes, independent of the thread count so chunk boundaries
// (and therefore results) are reproducible.
constexpr int64_t kElemwiseGrain = 1 << 13;

// Per-channel loops (BatchNorm) get a grain derived from the per-channel
// work so tiny maps stay serial.
int64_t ChannelGrain(int64_t channels, int64_t work_per_channel) {
  int64_t per_chunk = (1 << 14) / std::max<int64_t>(1, work_per_channel);
  if (per_chunk < 1) per_chunk = 1;
  if (per_chunk > channels && channels > 0) per_chunk = channels;
  return per_chunk;
}

// Conv2d folds samples side by side into one [C*k*k, group*OH*OW] GEMM
// operand until it is at least this many columns wide, so small late-stage
// maps stop issuing GEMMs too narrow for the vector path.
constexpr int64_t kFoldCols = 64;

// Samples per folded conv GEMM: a pure function of the batch size and the
// output-map size, never of the thread count.
int64_t FoldGroup(int64_t batch, int64_t map_size) {
  return std::clamp<int64_t>((kFoldCols + map_size - 1) / map_size, 1, batch);
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv2d

Conv2d::Conv2d(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
               int64_t pad, bool has_bias, Rng* rng)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(has_bias),
      weight_(rng != nullptr
                  ? Tensor::KaimingNormal({out_c, in_c, kernel, kernel},
                                          in_c * kernel * kernel, rng)
                  : Tensor::Zeros({out_c, in_c, kernel, kernel})),
      bias_(Tensor::Zeros({has_bias ? out_c : 0})) {
  AUTOMC_CHECK_GT(in_c, 0);
  AUTOMC_CHECK_GT(out_c, 0);
  AUTOMC_CHECK_GT(kernel, 0);
  AUTOMC_CHECK_GT(stride, 0);
}

Tensor Conv2d::Forward(const Tensor& x, bool training) {
  AUTOMC_CHECK_EQ(x.dim(), 4);
  AUTOMC_CHECK_EQ(x.size(1), in_c_) << "Conv2d input channels mismatch";
  int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  ConvGeometry g{in_c_, h, w, kernel_, stride_, pad_};
  int64_t oh = g.OutH(), ow = g.OutW();
  AUTOMC_CHECK(oh > 0 && ow > 0) << "conv output collapsed: " << x.ShapeString();

  int64_t ckk = in_c_ * kernel_ * kernel_;
  int64_t p = oh * ow;
  int64_t group = FoldGroup(n, p);
  int64_t groups = (n + group - 1) / group;
  Tensor wmat = weight_.value.Reshaped({out_c_, ckk});
  Tensor y({n, out_c_, oh, ow});

  // Backward re-unfolds the input for dW, so training keeps only an O(1)
  // alias of x instead of column blocks k*k times its size.
  cached_ = training;
  if (training) x_cache_ = x;
  // One im2col block + GEMM per group of samples, each group writing a
  // disjoint slice of y. Every output element is the GEMM's ascending-k
  // chain from its bias wherever its column sits, so folding changes no
  // bit. A single group runs on the caller and its GEMM parallelizes
  // internally instead.
  const float* xd = x.data();
  const float* wd = wmat.data();
  const float* bd = has_bias_ ? bias_.value.data() : nullptr;
  float* yd = y.MutableData();
  int64_t out_c = out_c_, in_c = in_c_;
  automc::ParallelFor(groups, 1, [&, xd, wd, bd, yd](int64_t g0, int64_t g1) {
    // Scratch for one full group, reused by the chunk's groups.
    Tensor cols({ckk, group * p});
    Tensor folded({group > 1 ? out_c * group * p : 0});
    for (int64_t gi = g0; gi < g1; ++gi) {
      int64_t s0 = gi * group, ns = std::min(group, n - s0), cw = ns * p;
      float* cd = cols.MutableData();
      for (int64_t s = 0; s < ns; ++s) {
        tensor::Im2Col(xd + (s0 + s) * in_c * h * w, g, cd + s * p, cw);
      }
      // A lone sample's [out_c, p] result is its slice of y; a folded
      // group's [out_c, ns*p] result is scattered per sample.
      float* dst = ns == 1 ? yd + s0 * out_c * p : folded.MutableData();
      for (int64_t f = 0; f < out_c; ++f) {
        std::fill(dst + f * cw, dst + (f + 1) * cw,
                  bd != nullptr ? bd[f] : 0.0f);
      }
      tensor::GemmAccumRaw(wd, cd, dst, out_c, ckk, cw);
      if (ns > 1) {
        for (int64_t s = 0; s < ns; ++s) {
          for (int64_t f = 0; f < out_c; ++f) {
            const float* src = dst + f * cw + s * p;
            std::copy(src, src + p, yd + ((s0 + s) * out_c + f) * p);
          }
        }
      }
    }
  });
  flops_last_ = n * out_c_ * ckk * p;
  return y;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(cached_) << "Conv2d::Backward without training Forward";
  int64_t n = x_cache_.size(0), h = x_cache_.size(2), w = x_cache_.size(3);
  ConvGeometry g{in_c_, h, w, kernel_, stride_, pad_};
  int64_t oh = g.OutH(), ow = g.OutW();
  AUTOMC_CHECK_EQ(grad_out.size(0), n);
  AUTOMC_CHECK_EQ(grad_out.size(1), out_c_);

  int64_t ckk = in_c_ * kernel_ * kernel_;
  int64_t p = oh * ow;
  int64_t group = FoldGroup(n, p);
  int64_t groups = (n + group - 1) / group;
  Tensor wmat = weight_.value.Reshaped({out_c_, ckk});
  Tensor dx(x_cache_.shape());

  // dX folds like the forward pass: per group one GEMM dcols = W^T dY, each
  // element a chain over the filters from zero, then one col2im per sample
  // into its disjoint dx slice.
  const float* xd = x_cache_.data();
  const float* gd = grad_out.data();
  const float* wd = wmat.data();
  float* dxd = dx.MutableData();
  int64_t out_c = out_c_, in_c = in_c_;
  automc::ParallelFor(groups, 1, [&, gd, wd, dxd](int64_t g0, int64_t g1) {
    Tensor folded({group > 1 ? out_c * group * p : 0});
    Tensor dcols({ckk, group * p});
    for (int64_t gi = g0; gi < g1; ++gi) {
      int64_t s0 = gi * group, ns = std::min(group, n - s0), cw = ns * p;
      // dY of the group in the folded [out_c, ns*p] layout.
      const float* dyg = gd + s0 * out_c * p;
      if (ns > 1) {
        float* dst = folded.MutableData();
        for (int64_t s = 0; s < ns; ++s) {
          for (int64_t f = 0; f < out_c; ++f) {
            const float* src = gd + ((s0 + s) * out_c + f) * p;
            std::copy(src, src + p, dst + f * cw + s * p);
          }
        }
        dyg = dst;
      }
      float* dc = dcols.MutableData();
      std::fill(dc, dc + ckk * cw, 0.0f);
      tensor::GemmTransposeARaw(wd, dyg, dc, ckk, out_c, cw);
      for (int64_t s = 0; s < ns; ++s) {
        tensor::Col2Im(dc + s * p, cw, g, dxd + (s0 + s) * in_c * h * w);
      }
    }
  });

  // dW and db sum over a sample's positions; one GEMM over a folded group
  // would merge those sums across samples. They stay per-sample partials,
  // reduced in ascending sample order below, so neither the grouping nor
  // the thread count changes their bits.
  std::vector<Tensor> dw_part(static_cast<size_t>(n));
  std::vector<Tensor> db_part(static_cast<size_t>(n));
  bool has_bias = has_bias_;
  automc::ParallelFor(n, 1, [&, xd, gd](int64_t i0, int64_t i1) {
    Tensor cols({ckk, p});
    for (int64_t i = i0; i < i1; ++i) {
      tensor::Im2Col(xd + i * in_c * h * w, g, cols.MutableData(), p);
      const float* dyi = gd + i * out_c * p;  // [out_c, p] slice
      // dW_i = dY_i * cols_i^T
      Tensor dwp({out_c, ckk});
      tensor::GemmTransposeBRaw(dyi, cols.data(), dwp.MutableData(), out_c, p,
                                ckk);
      dw_part[static_cast<size_t>(i)] = std::move(dwp);
      if (has_bias) {
        Tensor dbp({out_c});
        for (int64_t f = 0; f < out_c; ++f) {
          double sum = 0.0;
          for (int64_t q = 0; q < p; ++q) sum += dyi[f * p + q];
          dbp[f] += static_cast<float>(sum);
        }
        db_part[static_cast<size_t>(i)] = std::move(dbp);
      }
    }
  });
  Tensor dwmat({out_c_, ckk});
  for (const Tensor& part : dw_part) dwmat.AddInPlace(part);
  weight_.grad.AddInPlace(dwmat.Reshaped(weight_.value.shape()));
  if (has_bias_) {
    for (const Tensor& part : db_part) bias_.grad.AddInPlace(part);
  }
  cached_ = false;
  x_cache_ = Tensor();
  return dx;
}

std::vector<Param*> Conv2d::Params() {
  std::vector<Param*> out = {&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  // rng == nullptr skips weight init (zero-page alias); the assignments
  // below re-alias this layer's buffers, so the whole clone is O(1).
  auto copy = std::make_unique<Conv2d>(in_c_, out_c_, kernel_, stride_, pad_,
                                       has_bias_, nullptr);
  copy->weight_.value = weight_.value;
  copy->weight_.grad = Tensor::Zeros(weight_.value.shape());
  if (has_bias_) {
    copy->bias_.value = bias_.value;
    copy->bias_.grad = Tensor::Zeros(bias_.value.shape());
  }
  return copy;
}

void Conv2d::KeepOutputFilters(const std::vector<int64_t>& keep) {
  AUTOMC_CHECK(!keep.empty());
  Tensor nw({static_cast<int64_t>(keep.size()), in_c_, kernel_, kernel_});
  float* nwd = nw.MutableData();
  for (size_t i = 0; i < keep.size(); ++i) {
    int64_t f = keep[i];
    AUTOMC_CHECK(f >= 0 && f < out_c_);
    const float* src = weight_.value.data() + f * in_c_ * kernel_ * kernel_;
    float* dst = nwd + static_cast<int64_t>(i) * in_c_ * kernel_ * kernel_;
    std::copy(src, src + in_c_ * kernel_ * kernel_, dst);
  }
  if (has_bias_) {
    Tensor nb({static_cast<int64_t>(keep.size())});
    for (size_t i = 0; i < keep.size(); ++i) nb[static_cast<int64_t>(i)] = bias_.value[keep[i]];
    bias_ = Param(std::move(nb));
  }
  out_c_ = static_cast<int64_t>(keep.size());
  weight_ = Param(std::move(nw));
  cached_ = false;
  x_cache_ = Tensor();
}

void Conv2d::KeepInputChannels(const std::vector<int64_t>& keep) {
  AUTOMC_CHECK(!keep.empty());
  int64_t kk = kernel_ * kernel_;
  Tensor nw({out_c_, static_cast<int64_t>(keep.size()), kernel_, kernel_});
  float* nwd = nw.MutableData();
  for (int64_t f = 0; f < out_c_; ++f) {
    for (size_t i = 0; i < keep.size(); ++i) {
      int64_t c = keep[i];
      AUTOMC_CHECK(c >= 0 && c < in_c_);
      const float* src = weight_.value.data() + (f * in_c_ + c) * kk;
      float* dst =
          nwd + (f * static_cast<int64_t>(keep.size()) + static_cast<int64_t>(i)) * kk;
      std::copy(src, src + kk, dst);
    }
  }
  in_c_ = static_cast<int64_t>(keep.size());
  weight_ = Param(std::move(nw));
  cached_ = false;
  x_cache_ = Tensor();
}

// ---------------------------------------------------------------------------
// Linear

Linear::Linear(int64_t in, int64_t out, Rng* rng)
    : in_(in),
      out_(out),
      weight_(rng != nullptr ? Tensor::KaimingNormal({out, in}, in, rng)
                             : Tensor::Zeros({out, in})),
      bias_(Tensor::Zeros({out})) {
  AUTOMC_CHECK_GT(in, 0);
  AUTOMC_CHECK_GT(out, 0);
}

Tensor Linear::Forward(const Tensor& x, bool training) {
  AUTOMC_CHECK_EQ(x.dim(), 2);
  AUTOMC_CHECK_EQ(x.size(1), in_);
  if (training) x_cache_ = x;
  Tensor y = tensor::MatMulTransposeB(x, weight_.value);  // [N, out]
  for (int64_t i = 0; i < y.size(0); ++i) {
    for (int64_t j = 0; j < out_; ++j) y.at(i, j) += bias_.value[j];
  }
  flops_last_ = x.size(0) * in_ * out_;
  return y;
}

Tensor Linear::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(!x_cache_.empty()) << "Linear::Backward without Forward";
  // dW = dy^T x ; dx = dy W ; db = colsum(dy)
  Tensor dw = tensor::MatMulTransposeA(grad_out, x_cache_);
  weight_.grad.AddInPlace(dw);
  for (int64_t i = 0; i < grad_out.size(0); ++i) {
    for (int64_t j = 0; j < out_; ++j) bias_.grad[j] += grad_out.at(i, j);
  }
  Tensor dx = tensor::MatMul(grad_out, weight_.value);
  x_cache_ = Tensor();
  return dx;
}

std::vector<Param*> Linear::Params() { return {&weight_, &bias_}; }

std::unique_ptr<Layer> Linear::Clone() const {
  auto copy = std::make_unique<Linear>(in_, out_, nullptr);
  copy->weight_.value = weight_.value;
  copy->weight_.grad = Tensor::Zeros(weight_.value.shape());
  copy->bias_.value = bias_.value;
  copy->bias_.grad = Tensor::Zeros(bias_.value.shape());
  return copy;
}

void Linear::KeepInputFeatures(const std::vector<int64_t>& keep_channels,
                               int64_t group) {
  AUTOMC_CHECK(!keep_channels.empty());
  AUTOMC_CHECK_GT(group, 0);
  int64_t new_in = static_cast<int64_t>(keep_channels.size()) * group;
  Tensor nw({out_, new_in});
  for (int64_t o = 0; o < out_; ++o) {
    int64_t dst = 0;
    for (int64_t c : keep_channels) {
      AUTOMC_CHECK((c + 1) * group <= in_);
      for (int64_t g = 0; g < group; ++g, ++dst) {
        nw.at(o, dst) = weight_.value.at(o, c * group + g);
      }
    }
  }
  in_ = new_in;
  weight_ = Param(std::move(nw));
}

// ---------------------------------------------------------------------------
// BatchNorm2d

BatchNorm2d::BatchNorm2d(int64_t channels)
    : channels_(channels),
      gamma_(Tensor::Full({channels}, 1.0f)),
      beta_(Tensor::Zeros({channels})),
      running_mean_(Tensor::Zeros({channels})),
      running_var_(Tensor::Full({channels}, 1.0f)) {
  AUTOMC_CHECK_GT(channels, 0);
}

Tensor BatchNorm2d::Forward(const Tensor& x, bool training) {
  AUTOMC_CHECK_EQ(x.dim(), 4);
  AUTOMC_CHECK_EQ(x.size(1), channels_);
  int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  int64_t hw = h * w;
  Tensor y(x.shape());

  // Channels are independent, so both modes parallelize per channel:
  // batch statistics, running-stat updates, and the normalized outputs for
  // channel c touch only channel-c slices. Per-channel arithmetic order is
  // unchanged, so results are bit-identical for any thread count. All
  // tensor accesses are hoisted to raw pointers before the parallel
  // region: COW materialization must happen exactly once on this thread,
  // never concurrently inside the lambda.
  const float* xd = x.data();
  float* yd = y.MutableData();
  const float* gv = gamma_.value.data();
  const float* bv = beta_.value.data();
  if (training) {
    x_shape_ = x.shape();
    x_hat_ = Tensor(x.shape());
    batch_inv_std_ = Tensor({channels_});
    float* xhd = x_hat_.MutableData();
    float* bis = batch_inv_std_.MutableData();
    float* rm = running_mean_.MutableData();
    float* rv = running_var_.MutableData();
    int64_t m = n * hw;
    int64_t channels = channels_;
    float momentum = momentum_, eps = eps_;
    automc::ParallelFor(
        channels_, ChannelGrain(channels_, 4 * m),
        [=](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            double mean = 0.0;
            for (int64_t i = 0; i < n; ++i) {
              const float* p = xd + (i * channels + c) * hw;
              for (int64_t k = 0; k < hw; ++k) mean += p[k];
            }
            mean /= m;
            double var = 0.0;
            for (int64_t i = 0; i < n; ++i) {
              const float* p = xd + (i * channels + c) * hw;
              for (int64_t k = 0; k < hw; ++k) {
                double d = p[k] - mean;
                var += d * d;
              }
            }
            var /= m;
            float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
            bis[c] = inv_std;
            rm[c] = (1 - momentum) * rm[c] +
                    momentum * static_cast<float>(mean);
            rv[c] = (1 - momentum) * rv[c] +
                    momentum * static_cast<float>(var);
            float g = gv[c], b = bv[c];
            for (int64_t i = 0; i < n; ++i) {
              const float* p = xd + (i * channels + c) * hw;
              float* xh = xhd + (i * channels + c) * hw;
              float* py = yd + (i * channels + c) * hw;
              for (int64_t k = 0; k < hw; ++k) {
                xh[k] = (p[k] - static_cast<float>(mean)) * inv_std;
                py[k] = g * xh[k] + b;
              }
            }
          }
        });
    trained_forward_ = true;
  } else {
    const float* rm = running_mean_.data();
    const float* rv = running_var_.data();
    int64_t channels = channels_;
    float eps = eps_;
    automc::ParallelFor(
        channels_, ChannelGrain(channels_, 2 * n * hw),
        [=](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            float inv_std = 1.0f / std::sqrt(rv[c] + eps);
            float g = gv[c], b = bv[c], mu = rm[c];
            for (int64_t i = 0; i < n; ++i) {
              const float* p = xd + (i * channels + c) * hw;
              float* py = yd + (i * channels + c) * hw;
              for (int64_t k = 0; k < hw; ++k) {
                py[k] = g * (p[k] - mu) * inv_std + b;
              }
            }
          }
        });
    trained_forward_ = false;
  }
  return y;
}

Tensor BatchNorm2d::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(trained_forward_) << "BatchNorm2d::Backward without training Forward";
  int64_t n = x_shape_[0], h = x_shape_[2], w = x_shape_[3];
  int64_t hw = h * w;
  int64_t m = n * hw;
  Tensor dx(x_shape_);
  // Parallel per channel: gamma/beta grads and dx for channel c depend only
  // on channel-c slices, so writes are disjoint and per-channel order is the
  // serial order. Pointers are hoisted (materializing the shared gradients
  // once, here) so the lambda never touches a Tensor member.
  const float* gd = grad_out.data();
  const float* xhd = x_hat_.data();
  const float* gv = gamma_.value.data();
  const float* bis = batch_inv_std_.data();
  float* gg = gamma_.grad.MutableData();
  float* bg = beta_.grad.MutableData();
  float* dxd = dx.MutableData();
  int64_t channels = channels_;
  automc::ParallelFor(
      channels_, ChannelGrain(channels_, 5 * m),
      [=](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          double sum_dy = 0.0, sum_dy_xhat = 0.0;
          for (int64_t i = 0; i < n; ++i) {
            const float* dy = gd + (i * channels + c) * hw;
            const float* xh = xhd + (i * channels + c) * hw;
            for (int64_t k = 0; k < hw; ++k) {
              sum_dy += dy[k];
              sum_dy_xhat += static_cast<double>(dy[k]) * xh[k];
            }
          }
          gg[c] += static_cast<float>(sum_dy_xhat);
          bg[c] += static_cast<float>(sum_dy);
          float g = gv[c];
          float inv_std = bis[c];
          float coef = g * inv_std / static_cast<float>(m);
          for (int64_t i = 0; i < n; ++i) {
            const float* dy = gd + (i * channels + c) * hw;
            const float* xh = xhd + (i * channels + c) * hw;
            float* pdx = dxd + (i * channels + c) * hw;
            for (int64_t k = 0; k < hw; ++k) {
              pdx[k] = coef * (static_cast<float>(m) * dy[k] -
                               static_cast<float>(sum_dy) -
                               xh[k] * static_cast<float>(sum_dy_xhat));
            }
          }
        }
      });
  trained_forward_ = false;
  x_hat_ = Tensor();
  return dx;
}

std::vector<Param*> BatchNorm2d::Params() { return {&gamma_, &beta_}; }

std::unique_ptr<Layer> BatchNorm2d::Clone() const {
  auto copy = std::make_unique<BatchNorm2d>(channels_);
  copy->gamma_.value = gamma_.value;
  copy->beta_.value = beta_.value;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

void BatchNorm2d::KeepChannels(const std::vector<int64_t>& keep) {
  AUTOMC_CHECK(!keep.empty());
  int64_t nc = static_cast<int64_t>(keep.size());
  Tensor g({nc}), b({nc}), rm({nc}), rv({nc});
  for (int64_t i = 0; i < nc; ++i) {
    int64_t c = keep[static_cast<size_t>(i)];
    AUTOMC_CHECK(c >= 0 && c < channels_);
    g[i] = gamma_.value[c];
    b[i] = beta_.value[c];
    rm[i] = running_mean_[c];
    rv[i] = running_var_[c];
  }
  channels_ = nc;
  gamma_ = Param(std::move(g));
  beta_ = Param(std::move(b));
  running_mean_ = std::move(rm);
  running_var_ = std::move(rv);
  trained_forward_ = false;
}

// ---------------------------------------------------------------------------
// ReLU

Tensor ReLU::Forward(const Tensor& x, bool training) {
  Tensor y(x.shape());
  if (training) mask_ = Tensor(x.shape());
  const float* src = x.data();
  float* dst = y.MutableData();
  float* mask = training ? mask_.MutableData() : nullptr;
  automc::ParallelFor(x.numel(), kElemwiseGrain, [=](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      bool pos = src[i] > 0.0f;
      dst[i] = pos ? src[i] : 0.0f;
      if (mask != nullptr) mask[i] = pos ? 1.0f : 0.0f;
    }
  });
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(!mask_.empty()) << "ReLU::Backward without training Forward";
  Tensor dx(grad_out.shape());
  const float* g = grad_out.data();
  const float* mask = mask_.data();
  float* dst = dx.MutableData();
  automc::ParallelFor(dx.numel(), kElemwiseGrain, [=](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dst[i] = g[i] * mask[i];
  });
  mask_ = Tensor();
  return dx;
}

// ---------------------------------------------------------------------------
// LMAActivation

LMAActivation::LMAActivation(int64_t segments, float bound)
    : segments_(segments),
      bound_(bound),
      width_(2.0f * bound / static_cast<float>(segments)),
      slopes_(Tensor::Zeros({segments})),
      offset_(Tensor::Zeros({1})) {
  AUTOMC_CHECK_GE(segments, 2);
  // Initialize to a ReLU-like shape: zero slope left of 0, unit slope right.
  for (int64_t s = 0; s < segments_; ++s) {
    float left = SegmentLeft(s);
    slopes_.value[s] = (left >= -1e-6f) ? 1.0f : 0.0f;
  }
}

int64_t LMAActivation::SegmentOf(float x) const {
  // NaN inputs (diverged upstream training) must not index out of bounds;
  // all comparisons with NaN are false, so handle it first.
  if (std::isnan(x)) return 0;
  if (x <= -bound_) return 0;
  if (x >= bound_) return segments_ - 1;
  int64_t s = static_cast<int64_t>((x + bound_) / width_);
  return std::clamp<int64_t>(s, 0, segments_ - 1);
}

float LMAActivation::SegmentLeft(int64_t seg) const {
  return -bound_ + static_cast<float>(seg) * width_;
}

float LMAActivation::Eval(float x, int64_t seg) const {
  float v = offset_.value[0];
  for (int64_t j = 0; j < seg; ++j) v += slopes_.value[j] * width_;
  v += slopes_.value[seg] * (x - SegmentLeft(seg));
  return v;
}

Tensor LMAActivation::Forward(const Tensor& x, bool training) {
  if (training) x_cache_ = x;
  Tensor y(x.shape());
  // Forward reads only the (shared, immutable here) slope/offset params, so
  // elementwise chunks are independent. Backward stays serial: every element
  // accumulates into the same slope/offset gradients.
  const float* src = x.data();
  float* dst = y.MutableData();
  automc::ParallelFor(x.numel(), kElemwiseGrain, [&, src, dst](int64_t b,
                                                               int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      dst[i] = Eval(src[i], SegmentOf(src[i]));
    }
  });
  return y;
}

Tensor LMAActivation::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(!x_cache_.empty()) << "LMA::Backward without training Forward";
  Tensor dx(grad_out.shape());
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    float x = x_cache_[i];
    float g = grad_out[i];
    int64_t seg = SegmentOf(x);
    dx[i] = g * slopes_.value[seg];
    // d/dslope_j: width for j < seg, (x - left) for j == seg.
    for (int64_t j = 0; j < seg; ++j) slopes_.grad[j] += g * width_;
    slopes_.grad[seg] += g * (x - SegmentLeft(seg));
    offset_.grad[0] += g;
  }
  x_cache_ = Tensor();
  return dx;
}

std::vector<Param*> LMAActivation::Params() { return {&slopes_, &offset_}; }

std::unique_ptr<Layer> LMAActivation::Clone() const {
  auto copy = std::make_unique<LMAActivation>(segments_, bound_);
  copy->slopes_.value = slopes_.value;
  copy->offset_.value = offset_.value;
  return copy;
}

// ---------------------------------------------------------------------------
// MaxPool2d

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride) {
  AUTOMC_CHECK_GT(kernel, 0);
  AUTOMC_CHECK_GT(stride, 0);
}

Tensor MaxPool2d::Forward(const Tensor& x, bool training) {
  AUTOMC_CHECK_EQ(x.dim(), 4);
  int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  int64_t oh = (h - kernel_) / stride_ + 1;
  int64_t ow = (w - kernel_) / stride_ + 1;
  AUTOMC_CHECK(oh > 0 && ow > 0);
  Tensor y({n, c, oh, ow});
  if (training) {
    x_shape_ = x.shape();
    argmax_.assign(static_cast<size_t>(n * c * oh * ow), 0);
  }
  // Parallel over (sample, channel) maps; each map writes a disjoint
  // [oh, ow] output slice at a base index computed from the map id, so no
  // running counter crosses chunk boundaries.
  int64_t per_map = oh * ow;
  const float* xd = x.data();
  float* yd = y.MutableData();
  int64_t* am = training ? argmax_.data() : nullptr;
  int64_t kernel = kernel_, stride = stride_;
  automc::ParallelFor(
      n * c, ChannelGrain(n * c, per_map * kernel * kernel),
      [=](int64_t m0, int64_t m1) {
        for (int64_t map = m0; map < m1; ++map) {
          const float* xp = xd + map * h * w;
          int64_t out_idx = map * per_map;
          for (int64_t oi = 0; oi < oh; ++oi) {
            for (int64_t oj = 0; oj < ow; ++oj, ++out_idx) {
              float best = -std::numeric_limits<float>::infinity();
              int64_t best_idx = 0;
              for (int64_t ki = 0; ki < kernel; ++ki) {
                for (int64_t kj = 0; kj < kernel; ++kj) {
                  int64_t si = oi * stride + ki, sj = oj * stride + kj;
                  float v = xp[si * w + sj];
                  if (v > best) {
                    best = v;
                    best_idx = si * w + sj;
                  }
                }
              }
              yd[out_idx] = best;
              if (am != nullptr) am[out_idx] = best_idx;
            }
          }
        }
      });
  return y;
}

Tensor MaxPool2d::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(!argmax_.empty()) << "MaxPool2d::Backward without Forward";
  int64_t n = x_shape_[0], c = x_shape_[1], h = x_shape_[2], w = x_shape_[3];
  Tensor dx(x_shape_);
  int64_t per_map = grad_out.size(2) * grad_out.size(3);
  // Each (sample, channel) map scatters only into its own [h, w] slice of
  // dx, so maps are independent.
  const float* gd = grad_out.data();
  const int64_t* am = argmax_.data();
  float* dxd = dx.MutableData();
  automc::ParallelFor(
      n * c, ChannelGrain(n * c, per_map),
      [=](int64_t m0, int64_t m1) {
        for (int64_t map = m0; map < m1; ++map) {
          float* dxp = dxd + map * h * w;
          const float* gp = gd + map * per_map;
          const int64_t* ap = am + map * per_map;
          for (int64_t p = 0; p < per_map; ++p) dxp[ap[p]] += gp[p];
        }
      });
  argmax_.clear();
  return dx;
}

// ---------------------------------------------------------------------------
// GlobalAvgPool

Tensor GlobalAvgPool::Forward(const Tensor& x, bool training) {
  AUTOMC_CHECK_EQ(x.dim(), 4);
  int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  if (training) x_shape_ = x.shape();
  Tensor y({n, c, 1, 1});
  float inv = 1.0f / static_cast<float>(h * w);
  const float* xd = x.data();
  float* yd = y.MutableData();
  int64_t hw = h * w;
  automc::ParallelFor(n * c, ChannelGrain(n * c, hw),
                      [=](int64_t m0, int64_t m1) {
                        for (int64_t map = m0; map < m1; ++map) {
                          const float* p = xd + map * hw;
                          double s = 0.0;
                          for (int64_t k = 0; k < hw; ++k) s += p[k];
                          yd[map] = static_cast<float>(s) * inv;
                        }
                      });
  return y;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(!x_shape_.empty()) << "GlobalAvgPool::Backward without Forward";
  int64_t n = x_shape_[0], c = x_shape_[1], h = x_shape_[2], w = x_shape_[3];
  Tensor dx(x_shape_);
  float inv = 1.0f / static_cast<float>(h * w);
  const float* gd = grad_out.data();
  float* dxd = dx.MutableData();
  int64_t hw = h * w;
  automc::ParallelFor(n * c, ChannelGrain(n * c, hw),
                      [=](int64_t m0, int64_t m1) {
                        for (int64_t map = m0; map < m1; ++map) {
                          float g = gd[map] * inv;
                          float* p = dxd + map * hw;
                          for (int64_t k = 0; k < hw; ++k) p[k] = g;
                        }
                      });
  x_shape_.clear();
  return dx;
}

// ---------------------------------------------------------------------------
// Flatten

Tensor Flatten::Forward(const Tensor& x, bool training) {
  if (training) x_shape_ = x.shape();
  int64_t n = x.size(0);
  return x.Reshaped({n, x.numel() / n});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  AUTOMC_CHECK(!x_shape_.empty()) << "Flatten::Backward without Forward";
  Tensor dx = grad_out.Reshaped(x_shape_);
  x_shape_.clear();
  return dx;
}

// ---------------------------------------------------------------------------
// Sequential

std::unique_ptr<Layer> Sequential::ReplaceChild(int64_t i,
                                                std::unique_ptr<Layer> layer) {
  AUTOMC_CHECK(i >= 0 && i < NumChildren());
  std::unique_ptr<Layer> old = std::move(children_[static_cast<size_t>(i)]);
  children_[static_cast<size_t>(i)] = std::move(layer);
  return old;
}

Tensor Sequential::Forward(const Tensor& x, bool training) {
  Tensor h = x;
  for (auto& child : children_) h = child->Forward(h, training);
  return h;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::Params() {
  std::vector<Param*> out;
  for (auto& child : children_) {
    for (Param* p : child->Params()) out.push_back(p);
  }
  return out;
}

std::unique_ptr<Layer> Sequential::Clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& child : children_) copy->Add(child->Clone());
  return copy;
}

int64_t Sequential::FlopsLastForward() const {
  int64_t total = 0;
  for (const auto& child : children_) total += child->FlopsLastForward();
  return total;
}

}  // namespace nn
}  // namespace automc
