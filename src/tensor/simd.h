#ifndef AUTOMC_TENSOR_SIMD_H_
#define AUTOMC_TENSOR_SIMD_H_

#include <cstdint>

#include "tensor/ops.h"

namespace automc {
namespace tensor {
namespace simd {

// Vectorized GEMM and direct-convolution substrate behind tensor/ops.cc.
//
// Microkernel contract (the determinism anchor)
// ---------------------------------------------
// For every output element c[i][j] of a GEMM, every kernel in this layer —
// the hand-tiled AVX2/FMA path, the compiler-scalar fallback, and the
// packed remainder handling — computes exactly the chain
//
//     acc = c[i][j]
//     for kk = 0 .. k-1 (ascending):  acc = fma(a(i,kk), b(kk,j), acc)
//     c[i][j] = acc
//
// where fma is the IEEE-754 single-rounding fused multiply-add
// (std::fmaf on the scalar paths, _mm256_fmadd_ps lanes on the AVX2
// path — bitwise the same operation). Zero operands participate like any
// other value; no path skips a product (the old scalar kernels skipped
// av == 0.0f in their tail loops, which made tails and tiles bitwise
// incomparable — that shortcut is intentionally gone). The register tile,
// panel packing and the SIMD/scalar choice only reorder *which elements*
// are computed when, never the per-element chain, so results are
// bit-identical across every AUTOMC_SIMD setting. The convolution kernels
// keep the chains listed above ConvForwardScalar in the same way.
//
// Dispatch
// --------
// The active mode is derived once (then cached in an atomic) from
// compile-time availability of the AVX2 translation unit, runtime cpuid
// (AVX2 + FMA), and the AUTOMC_SIMD environment knob:
//
//   kAvx2          compiled && cpuid ok && AUTOMC_SIMD != 0
//   kScalarHwFma   compiled && cpuid ok && AUTOMC_SIMD == 0
//                  (scalar fma chains from the -mavx2 -mfma TU: no packing,
//                  no hand vectorization — the bitwise reference)
//   kScalarGeneric everything else (std::fmaf via libm; the only mode on
//                  non-x86 or pre-AVX2 hardware)
enum class SimdMode { kAvx2, kScalarHwFma, kScalarGeneric };

// True when simd_avx2.cc was compiled into this binary.
bool KernelsCompiled();
// True when the running CPU reports AVX2 and FMA.
bool HardwareOk();
// The cached dispatch decision (see table above).
SimdMode ActiveMode();
// Re-derives the dispatch decision from the environment (AUTOMC_SIMD) and
// cpuid. Tests flip AUTOMC_SIMD with setenv and call this; normal code
// never needs to.
void RefreshDispatch();

// The three GEMM layouts tensor/ops.cc exposes. The effective computation
// is always C[m,n] += A'[m,k] * B'[k,n] with
//   kNormal      a'(i,kk) = a[i*k + kk]   b'(kk,j) = b[kk*n + j]
//   kTransposeA  a'(i,kk) = a[kk*m + i]   b'(kk,j) = b[kk*n + j]
//   kTransposeB  a'(i,kk) = a[i*k + kk]   b'(kk,j) = b[j*k + kk]
enum class GemmOp { kNormal, kTransposeA, kTransposeB };

// Scalar reference kernel: full-k fma chains over the whole matrix.
// Dispatches to the fma-TU instantiation when the hardware supports it,
// else to the libm-fmaf generic one. Bit-identical to the AVX2 path by the
// microkernel contract.
void GemmScalar(GemmOp op, const float* a, const float* b, float* c,
                int64_t m, int64_t k, int64_t n);

// AVX2/FMA path over the whole matrix: packs B into this thread's scratch,
// runs the register-tiled microkernels over every 8-column panel and the
// scalar chains over the n % 8 tail columns. Only callable when
// ActiveMode() could return kAvx2 (i.e. KernelsCompiled() && HardwareOk()).
void GemmAvx2(GemmOp op, const float* a, const float* b, float* c, int64_t m,
              int64_t k, int64_t n);

// Direct convolution (tensor::Conv2dForward / Conv2dBackward): x and dx
// [n, C, H, W], w and dw [f, C, k, k], bias [f] or null, y and dy
// [n, f, OH, OW], all NCHW. Writing kk = (c, ki, kj) and q = (oy, ox) in
// ascending row-major order, every path computes each element's chains
// exactly as the unfold-and-GEMM convolution did:
//
//   y   acc = bias (or +0); for kk: acc = fma(w[f,kk], x(kk, q), acc)
//       where x(kk, q) is the input under the window, +0 in the padding.
//   dx  acc = +0; for each (ki, kj) whose window position covers the
//       element: t = +0; for f: t = fma(w[f,c,ki,kj], dy[f,q], t);
//       acc += t.
//   dw  acc = +0; for each sample in ascending order: t = +0; for q:
//       t = fma(dy[f,q], x(kk, q), t); acc += t. Then dw[f,kk] += acc.
//
// The AVX2 path puts 8 samples on the vector lanes: it copies x into a
// zero-padded [C][H+2p][W+2p][n rounded up to 8] buffer and dy into
// [f][OH*OW][n rounded up to 8], so every operand is one aligned vector
// load and no shape needs a gather or a scalar tail; the copies live in
// this thread's scratch. Lanes past n are never stored or summed. The
// scalar twins use the same layouts with n unrounded, so their innermost
// loops run over the samples.
void ConvForwardScalar(const float* x, const float* w, const float* bias,
                       float* y, int64_t n, int64_t f, const ConvGeometry& g);
void ConvBackwardScalar(const float* x, const float* dy, const float* w,
                        float* dx, float* dw, int64_t n, int64_t f,
                        const ConvGeometry& g);
// Only callable when ActiveMode() could return kAvx2, like GemmAvx2.
void ConvForwardAvx2(const float* x, const float* w, const float* bias,
                     float* y, int64_t n, int64_t f, const ConvGeometry& g);
void ConvBackwardAvx2(const float* x, const float* dy, const float* w,
                      float* dx, float* dw, int64_t n, int64_t f,
                      const ConvGeometry& g);

}  // namespace simd
}  // namespace tensor
}  // namespace automc

#endif  // AUTOMC_TENSOR_SIMD_H_
