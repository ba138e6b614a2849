#ifndef AUTOMC_TENSOR_OPS_H_
#define AUTOMC_TENSOR_OPS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace automc {
namespace tensor {

// Dense kernels shared by the layer implementations. All output tensors are
// allocated by the caller-facing functions; shapes are checked.
//
// Every GEMM routes through the raw kernels below, and every convolution
// through Conv2dForward/Conv2dBackward. They run on the calling thread: the
// AVX2 register tiles when that path is active (for a GEMM, when n >= 8),
// else the scalar fma chains (tensor/simd.h). No kernel enters the thread
// pool, and each output element's accumulation order is fixed, so results
// are bit-identical for any AUTOMC_THREADS or AUTOMC_SIMD value.

// c = a * b for 2-D tensors; a is [m,k], b is [k,n], result [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// c += a * b into an existing [m,n] tensor.
void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor* c);
// c = a^T * b with a [k,m], b [k,n] -> [m,n].
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);
// c = a * b^T with a [m,k], b [n,k] -> [m,n].
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

// Raw row-major GEMM kernels over caller-owned buffers; the Tensor wrappers
// above add shape checks.
// C[m,n] += A[m,k] * B[k,n].
void GemmAccumRaw(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n);
// C[m,n] += A[k,m]^T * B[k,n].
void GemmTransposeARaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);
// C[m,n] += A[m,k] * B[n,k]^T.
void GemmTransposeBRaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n);

// Geometry of a 2-D convolution window.
struct ConvGeometry {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel = 1, stride = 1, pad = 0;
  int64_t OutH() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int64_t OutW() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

// Direct convolution of an NCHW batch x [n, C, H, W] with f filters
// w [f, C, k, k] and an optional bias [f] (null for none), zero-padded:
// writes y [n, f, OH, OW]. Each element's fma chain is fixed (tensor/simd.h),
// so the AVX2 and scalar paths give the same bits.
void Conv2dForward(const float* x, const float* w, const float* bias,
                   float* y, int64_t n, int64_t f, const ConvGeometry& g);
// The same convolution's backward pass for dy [n, f, OH, OW]: writes
// dx [n, C, H, W] and adds the weight gradient, summed over the samples in
// ascending order, into dw [f, C, k, k].
void Conv2dBackward(const float* x, const float* dy, const float* w,
                    float* dx, float* dw, int64_t n, int64_t f,
                    const ConvGeometry& g);

// Row-wise log-softmax of a [n, c] tensor.
Tensor LogSoftmax(const Tensor& logits);

}  // namespace tensor
}  // namespace automc

#endif  // AUTOMC_TENSOR_OPS_H_
