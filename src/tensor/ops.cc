#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

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

void Conv2dForward(const float* x, const float* w, const float* bias,
                   float* y, int64_t n, int64_t f, const ConvGeometry& g) {
  if (simd::ActiveMode() == simd::SimdMode::kAvx2) {
    simd::ConvForwardAvx2(x, w, bias, y, n, f, g);
  } else {
    simd::ConvForwardScalar(x, w, bias, y, n, f, g);
  }
}

void Conv2dBackward(const float* x, const float* dy, const float* w,
                    float* dx, float* dw, int64_t n, int64_t f,
                    const ConvGeometry& g) {
  if (simd::ActiveMode() == simd::SimdMode::kAvx2) {
    simd::ConvBackwardAvx2(x, dy, w, dx, dw, n, f, g);
  } else {
    simd::ConvBackwardScalar(x, dy, w, dx, dw, n, f, g);
  }
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
