#ifndef AUTOMC_TENSOR_SIMD_H_
#define AUTOMC_TENSOR_SIMD_H_

#include <cstdint>

namespace automc {
namespace tensor {
namespace simd {

// Vectorized GEMM substrate behind tensor/ops.cc.
//
// Microkernel contract (the determinism anchor)
// ---------------------------------------------
// For every output element c[i][j], every kernel in this layer — the
// hand-tiled AVX2/FMA path, the compiler-scalar fallback, and the packed
// remainder handling — computes exactly the chain
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
// incomparable — that shortcut is intentionally gone). Tiling parameters
// (MR/NV/KC), panel packing, row ranges, and the SIMD/scalar choice only
// reorder *which elements* are computed when, never the per-element chain,
// so results are bit-identical across every tuning and every AUTOMC_SIMD
// setting.
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
//                  no tuner, no hand vectorization — the bitwise reference)
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

// Tile / pack parameters the auto-tuner (tensor/tune.h) searches over.
//   mr — output rows per register tile (1..6)
//   nv — 8-float vectors per register tile row (1..3, i.e. NR = 8*nv)
//   kc — k-block length; C tiles are flushed and reloaded between k-blocks
//        (exact: a float store/load round-trip is bit-preserving). <= 0
//        means "no blocking" (one block of the full k).
// Constraint: mr * nv <= 12 so the accumulator tile fits in 16 ymm regs.
struct TileParams {
  int32_t mr = 4;
  int32_t nv = 2;
  int32_t kc = 0;
};

// B packed into 64-byte-aligned panel groups (see PackB). Covers columns
// [0, 8*n8); the n%8 tail columns are computed from the unpacked B.
struct PackedB {
  const float* data = nullptr;
  int64_t n8 = 0;  // number of packed 8-column panels
  int32_t nv = 1;  // panels per group (group width = 8*nv columns)
};

// Packs the effective B'[k,n] into groups of nv 8-column panels: group g
// holds columns [g*8*nv, ...) as k rows of 8*nv contiguous floats, so the
// microkernel streams one aligned linear buffer per group. The returned
// pointer aliases a growable thread-local scratch buffer owned by the
// calling thread; it stays valid until that same thread packs again, and
// the GEMM that packed consumes it before it returns.
PackedB PackB(GemmOp op, const float* b, int64_t k, int64_t n, int32_t nv);

// Scalar reference kernel: rows [r0, r1), columns [0, n), full-k fma
// chains. Dispatches to the fma-TU instantiation when the hardware
// supports it, else to the libm-fmaf generic one. Bit-identical to the
// AVX2 path by the microkernel contract.
void GemmRowsScalar(GemmOp op, const float* a, const float* b, float* c,
                    int64_t m, int64_t k, int64_t n, int64_t r0, int64_t r1);

// AVX2/FMA packed path: rows [r0, r1), packed columns via `pb`, n%8 tail
// columns from the raw `b`. Only callable when ActiveMode() could return
// kAvx2 (i.e. KernelsCompiled() && HardwareOk()).
void GemmRowsAvx2(GemmOp op, const TileParams& p, const float* a,
                  const PackedB& pb, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1);

}  // namespace simd
}  // namespace tensor
}  // namespace automc

#endif  // AUTOMC_TENSOR_SIMD_H_
