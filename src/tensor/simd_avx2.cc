// AVX2/FMA GEMM microkernels. This is the only translation unit compiled
// with -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing here executes
// unless runtime cpuid confirmed both features, so the rest of the binary
// stays runnable on baseline x86-64.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <new>

#include "tensor/simd.h"

namespace automc {
namespace tensor {
namespace simd {

namespace {

#include "tensor/simd_scalar.inc"

// The register tile: kRows rows of C by kPanels 8-float vectors. Its 12
// accumulators, kPanels B vectors and one broadcast A value fill AVX2's 16
// ymm registers.
constexpr int kRows = 4;
constexpr int kPanels = 3;

// Growable 64-byte-aligned per-thread pack scratch. One buffer per thread
// suffices: a GEMM packs, then consumes the packed panels on the same
// thread before returning, so a thread never packs while an earlier pack
// on it is still live.
struct PackScratch {
  float* data = nullptr;
  size_t capacity = 0;

  ~PackScratch() { ::operator delete(data, std::align_val_t(64)); }

  float* Ensure(size_t n) {
    if (n > capacity) {
      ::operator delete(data, std::align_val_t(64));
      size_t want = capacity ? capacity : size_t{1} << 12;
      while (want < n) want *= 2;
      data = static_cast<float*>(
          ::operator new(want * sizeof(float), std::align_val_t(64)));
      capacity = want;
    }
    return data;
  }
};

thread_local PackScratch t_pack_scratch;

// Packs the first 8*(n/8) columns of the effective B'[k,n] into groups of
// kPanels 8-column panels (the last group may be narrower): the group at
// column col0 holds k rows of its 8*w contiguous floats, so the microkernel
// streams one linear buffer per group. Group starts are 32-byte aligned (8
// floats per panel row), so the microkernel can use aligned vector loads.
// The n % 8 tail columns are computed from the unpacked B. The result
// aliases this thread's scratch until the thread packs again.
const float* PackB(GemmOp op, const float* b, int64_t k, int64_t n) {
  const int64_t n8 = n / 8;
  float* const out = t_pack_scratch.Ensure(static_cast<size_t>(k * n8 * 8));
  float* dst = out;
  for (int64_t col0 = 0; col0 < n8 * 8;) {
    const int64_t row_floats = 8 * std::min<int64_t>(kPanels, n8 - col0 / 8);
    if (op == GemmOp::kTransposeB) {
      // b'(kk, j) = b[j*k + kk]: transpose-gather one source row (a column
      // of B') at a time so reads stay contiguous.
      for (int64_t j = 0; j < row_floats; ++j) {
        const float* src = b + (col0 + j) * k;
        float* lane = dst + j;
        for (int64_t kk = 0; kk < k; ++kk) lane[kk * row_floats] = src[kk];
      }
    } else {
      // B is row-major [k, n]: each packed row is a straight copy.
      for (int64_t kk = 0; kk < k; ++kk) {
        std::memcpy(dst + kk * row_floats, b + kk * n + col0,
                    static_cast<size_t>(row_floats) * sizeof(float));
      }
    }
    dst += k * row_floats;
    col0 += row_floats;
  }
  return out;
}

// MR x (8*W) register tile of C held across the whole k loop: per element
// the chain is acc = fmadd(a, b, acc) in ascending-k order (the microkernel
// contract in simd.h). B arrives packed so every k step reads 8*W
// contiguous aligned floats; A is read as MR broadcast scalars through the
// (a_rs, a_ks) strides, which covers both the row-major and transposed-A
// layouts without packing A.
template <int MR, int W>
void MicroKernel(const float* a, int64_t a_rs, int64_t a_ks, const float* bp,
                 float* c, int64_t ldc, int64_t k) {
  // The unroll pragmas are load-bearing: without them gcc -O2 leaves the
  // MR x W tile loops rolled, `acc` stays a stack array, and every fma
  // round-trips C through memory (~3x slower). Fully unrolled, scalar
  // replacement promotes the whole tile into ymm registers for the k loop.
  __m256 acc[MR][W];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) {
      acc[r][v] = _mm256_loadu_ps(c + r * ldc + 8 * v);
    }
  }
  // Unrolling k by 2 interleaves two body copies (halving loop overhead
  // and giving the scheduler more independent work) without touching the
  // per-element chain: each acc[r][v] still receives its fmas in ascending
  // kk order — the compiler cannot reassociate FP math without fast-math.
#pragma GCC unroll 2
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * 8 * W;
    __m256 bv[W];
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) bv[v] = _mm256_load_ps(brow + 8 * v);
    const float* ak = a + kk * a_ks;
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      __m256 av = _mm256_broadcast_ss(ak + r * a_rs);
#pragma GCC unroll 3
      for (int v = 0; v < W; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) {
      _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
    }
  }
}

using KernelFn = void (*)(const float*, int64_t, int64_t, const float*,
                          float*, int64_t, int64_t);

// [vectors W - 1][rows MR - 1]: the full tile and every remainder of a
// row band (m % kRows) or a panel group (n / 8 % kPanels).
constexpr KernelFn kKernels[kPanels][kRows] = {
    {MicroKernel<1, 1>, MicroKernel<2, 1>, MicroKernel<3, 1>,
     MicroKernel<4, 1>},
    {MicroKernel<1, 2>, MicroKernel<2, 2>, MicroKernel<3, 2>,
     MicroKernel<4, 2>},
    {MicroKernel<1, 3>, MicroKernel<2, 3>, MicroKernel<3, 3>,
     MicroKernel<4, 3>},
};

}  // namespace

// Scalar fma chains compiled in this TU: std::fmaf inlines to vfmadd, so
// the AUTOMC_SIMD=0 reference path keeps hardware speed on FMA machines.
// Declared in simd.cc, which forwards GemmScalar here when cpuid allows.
void GemmScalarFmaTu(GemmOp op, const float* a, const float* b, float* c,
                     int64_t m, int64_t k, int64_t n) {
  ScalarRowsImpl(op, a, b, c, m, k, n, 0, n);
}

void GemmAvx2(GemmOp op, const float* a, const float* b, float* c, int64_t m,
              int64_t k, int64_t n) {
  if (k == 0) return;  // every chain is empty: C stays as it is
  const float* packed = PackB(op, b, k, n);
  const bool ta = op == GemmOp::kTransposeA;
  const int64_t a_rs = ta ? 1 : k;  // a stride between band rows
  const int64_t a_ks = ta ? m : 1;  // a stride per k step
  const int64_t n8 = n / 8;
  for (int64_t i = 0; i < m; i += kRows) {
    const int mr = static_cast<int>(std::min<int64_t>(kRows, m - i));
    const float* aband = ta ? a + i : a + i * k;
    const float* group = packed;
    for (int64_t p = 0; p < n8; p += kPanels) {
      const int w = static_cast<int>(std::min<int64_t>(kPanels, n8 - p));
      kKernels[w - 1][mr - 1](aband, a_rs, a_ks, group, c + i * n + 8 * p, n,
                              k);
      group += k * 8 * w;
    }
  }
  // n % 8 tail columns: scalar fma chains over the full k.
  if (n8 * 8 < n) ScalarRowsImpl(op, a, b, c, m, k, n, n8 * 8, n);
}

}  // namespace simd
}  // namespace tensor
}  // namespace automc
