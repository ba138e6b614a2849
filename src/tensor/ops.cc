#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/metrics.h"
#include "tensor/simd.h"

namespace automc {
namespace tensor {

namespace {

// All three GEMM entry points funnel through here. The AVX2 path packs B
// into this thread's scratch and runs the tiled microkernels; every other
// mode — and shapes too narrow to fill one 8-column panel — runs the
// scalar fma-chain kernel. Both kernels honour the microkernel contract in
// simd.h, so which branch runs never changes the bits.
void GemmDispatch(simd::GemmOp op, const float* a, const float* b, float* c,
                  int64_t m, int64_t k, int64_t n) {
  if (simd::ActiveMode() == simd::SimdMode::kAvx2 && n >= 8) {
    AUTOMC_METRIC_COUNT("simd.gemm_avx2");
    simd::GemmAvx2(op, a, b, c, m, k, n);
    return;
  }
  AUTOMC_METRIC_COUNT("simd.gemm_scalar");
  simd::GemmScalar(op, a, b, c, m, k, n);
}

}  // namespace

void GemmAccumRaw(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  GemmDispatch(simd::GemmOp::kNormal, a, b, c, m, k, n);
}

void GemmTransposeARaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  GemmDispatch(simd::GemmOp::kTransposeA, a, b, c, m, k, n);
}

void GemmTransposeBRaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  GemmDispatch(simd::GemmOp::kTransposeB, a, b, c, m, k, n);
}

void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  AUTOMC_CHECK_EQ(a.dim(), 2);
  AUTOMC_CHECK_EQ(b.dim(), 2);
  AUTOMC_CHECK_EQ(c->dim(), 2);
  int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  AUTOMC_CHECK_EQ(b.size(0), k);
  AUTOMC_CHECK_EQ(c->size(0), m);
  AUTOMC_CHECK_EQ(c->size(1), n);
  GemmAccumRaw(a.data(), b.data(), c->MutableData(), m, k, n);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.size(0), b.size(1)});
  MatMulAccumulate(a, b, &c);
  return c;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  AUTOMC_CHECK_EQ(a.dim(), 2);
  AUTOMC_CHECK_EQ(b.dim(), 2);
  int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  AUTOMC_CHECK_EQ(b.size(0), k);
  Tensor c({m, n});
  GemmTransposeARaw(a.data(), b.data(), c.MutableData(), m, k, n);
  return c;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  AUTOMC_CHECK_EQ(a.dim(), 2);
  AUTOMC_CHECK_EQ(b.dim(), 2);
  int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  AUTOMC_CHECK_EQ(b.size(1), k);
  Tensor c({m, n});
  GemmTransposeBRaw(a.data(), b.data(), c.MutableData(), m, k, n);
  return c;
}

namespace {

// For each kernel offset k, the output positions o in [0, out) whose input
// index o * stride + k - pad falls inside [0, in) form one range
// [r[2k], r[2k + 1]) (empty when equal). Im2Col/Col2Im compute these once
// per call, so their rows carry no bounds test.
std::vector<int64_t> ValidRanges(const ConvGeometry& g, int64_t in,
                                 int64_t out) {
  std::vector<int64_t> r(static_cast<size_t>(2 * g.kernel));
  for (int64_t k = 0; k < g.kernel; ++k) {
    int64_t off = k - g.pad;
    int64_t first = off >= 0 ? 0 : (g.stride - 1 - off) / g.stride;
    int64_t end = in - off <= 0 ? 0 : (in - 1 - off) / g.stride + 1;
    int64_t lo = std::min(first, out);
    r[static_cast<size_t>(2 * k)] = lo;
    r[static_cast<size_t>(2 * k + 1)] = std::max(lo, std::min(end, out));
  }
  return r;
}

}  // namespace

void Im2Col(const float* x, const ConvGeometry& g, float* cols, int64_t ld) {
  int64_t oh = g.OutH(), ow = g.OutW();
  AUTOMC_CHECK_GE(ld, oh * ow);
  const std::vector<int64_t> ri = ValidRanges(g, g.in_h, oh);
  const std::vector<int64_t> rj = ValidRanges(g, g.in_w, ow);
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* xc = x + c * g.in_h * g.in_w;
    for (int64_t ki = 0; ki < g.kernel; ++ki) {
      int64_t i0 = ri[static_cast<size_t>(2 * ki)];
      int64_t i1 = ri[static_cast<size_t>(2 * ki + 1)];
      for (int64_t kj = 0; kj < g.kernel; ++kj) {
        int64_t j0 = rj[static_cast<size_t>(2 * kj)];
        int64_t j1 = rj[static_cast<size_t>(2 * kj + 1)];
        float* row = cols + ((c * g.kernel + ki) * g.kernel + kj) * ld;
        // Positions outside the valid window read padding: zero the row
        // once when there are any, then copy the window.
        if (i0 > 0 || i1 < oh || j0 > 0 || j1 < ow) {
          std::fill(row, row + oh * ow, 0.0f);
        }
        for (int64_t i = i0; i < i1; ++i) {
          float* r = row + i * ow;
          int64_t src = (i * g.stride + ki - g.pad) * g.in_w + kj - g.pad;
          for (int64_t j = j0; j < j1; ++j) r[j] = xc[src + j * g.stride];
        }
      }
    }
  }
}

void Im2Col(const float* x, const ConvGeometry& g, Tensor* cols) {
  AUTOMC_CHECK_EQ(cols->dim(), 2);
  AUTOMC_CHECK_EQ(cols->size(0), g.in_c * g.kernel * g.kernel);
  AUTOMC_CHECK_EQ(cols->size(1), g.OutH() * g.OutW());
  // Every element (zero padding included) is written, so a shared cols
  // buffer is replaced, never copied.
  Im2Col(x, g, cols->MutableDataDiscard(), cols->size(1));
}

void Col2Im(const float* cols, int64_t ld, const ConvGeometry& g,
            float* dx) {
  int64_t oh = g.OutH(), ow = g.OutW();
  AUTOMC_CHECK_GE(ld, oh * ow);
  // Accumulates in (c, ki, kj, i, j) order; skipping the padding positions
  // leaves the order of the sums that do land unchanged.
  const std::vector<int64_t> ri = ValidRanges(g, g.in_h, oh);
  const std::vector<int64_t> rj = ValidRanges(g, g.in_w, ow);
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* xc = dx + c * g.in_h * g.in_w;
    for (int64_t ki = 0; ki < g.kernel; ++ki) {
      int64_t i0 = ri[static_cast<size_t>(2 * ki)];
      int64_t i1 = ri[static_cast<size_t>(2 * ki + 1)];
      for (int64_t kj = 0; kj < g.kernel; ++kj) {
        int64_t j0 = rj[static_cast<size_t>(2 * kj)];
        int64_t j1 = rj[static_cast<size_t>(2 * kj + 1)];
        const float* row = cols + ((c * g.kernel + ki) * g.kernel + kj) * ld;
        for (int64_t i = i0; i < i1; ++i) {
          const float* r = row + i * ow;
          int64_t dst = (i * g.stride + ki - g.pad) * g.in_w + kj - g.pad;
          for (int64_t j = j0; j < j1; ++j) xc[dst + j * g.stride] += r[j];
        }
      }
    }
  }
}

void Col2Im(const Tensor& cols, const ConvGeometry& g, float* dx) {
  AUTOMC_CHECK_EQ(cols.dim(), 2);
  AUTOMC_CHECK_EQ(cols.size(0), g.in_c * g.kernel * g.kernel);
  AUTOMC_CHECK_EQ(cols.size(1), g.OutH() * g.OutW());
  Col2Im(cols.data(), cols.size(1), g, dx);
}

Tensor LogSoftmax(const Tensor& logits) {
  AUTOMC_CHECK_EQ(logits.dim(), 2);
  int64_t n = logits.size(0), c = logits.size(1);
  Tensor out({n, c});
  const float* src = logits.data();
  float* dst = out.MutableData();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = src + i * c;
    float* orow = dst + i * c;
    float mx = row[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      sum += std::exp(static_cast<double>(row[j]) - mx);
    }
    float lse = mx + static_cast<float>(std::log(sum));
    for (int64_t j = 0; j < c; ++j) orow[j] = row[j] - lse;
  }
  return out;
}

}  // namespace tensor
}  // namespace automc
