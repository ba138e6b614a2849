#ifndef AUTOMC_TENSOR_OPS_H_
#define AUTOMC_TENSOR_OPS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace automc {
namespace tensor {

// Dense kernels shared by the layer implementations. All output tensors are
// allocated by the caller-facing functions; shapes are checked.
//
// Every GEMM routes through the raw kernels below, which run on the calling
// thread: the AVX2 register tile when that path is active and n >= 8, else
// the scalar fma chains (tensor/simd.h). No kernel enters the thread pool,
// and each output element's accumulation order is fixed, so results are
// bit-identical for any AUTOMC_THREADS or AUTOMC_SIMD value.

// c = a * b for 2-D tensors; a is [m,k], b is [k,n], result [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// c += a * b into an existing [m,n] tensor.
void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor* c);
// c = a^T * b with a [k,m], b [k,n] -> [m,n].
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);
// c = a * b^T with a [m,k], b [n,k] -> [m,n].
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

// Raw row-major GEMM kernels over caller-owned buffers. The layer code
// (Conv2d's im2col path) uses these directly on tensor slices to avoid
// per-sample copies; the Tensor wrappers above add shape checks.
// C[m,n] += A[m,k] * B[k,n].
void GemmAccumRaw(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n);
// C[m,n] += A[k,m]^T * B[k,n].
void GemmTransposeARaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);
// C[m,n] += A[m,k] * B[n,k]^T.
void GemmTransposeBRaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);

// Geometry of a 2-D convolution / pooling window.
struct ConvGeometry {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel = 1, stride = 1, pad = 0;
  int64_t OutH() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int64_t OutW() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

// Unfolds one image x[c,h,w] (given as a pointer into an NCHW batch) into a
// column matrix of shape [C*k*k, OH*OW]; zero padding outside the image.
void Im2Col(const float* x, const ConvGeometry& g, Tensor* cols);
// Adjoint of Im2Col: folds the column matrix back, accumulating into dx
// (dx must be pre-zeroed by the caller for a pure adjoint).
void Col2Im(const Tensor& cols, const ConvGeometry& g, float* dx);
// Row-stride forms: the [C*k*k, OH*OW] block starts at `cols` and its rows
// are `ld` >= OH*OW floats apart, so several samples can sit side by side
// in one [C*k*k, group*OH*OW] matrix (Conv2d's folded GEMM operand).
void Im2Col(const float* x, const ConvGeometry& g, float* cols, int64_t ld);
void Col2Im(const float* cols, int64_t ld, const ConvGeometry& g, float* dx);

// Row-wise log-softmax of a [n, c] tensor.
Tensor LogSoftmax(const Tensor& logits);

}  // namespace tensor
}  // namespace automc

#endif  // AUTOMC_TENSOR_OPS_H_
