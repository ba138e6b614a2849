// AVX2/FMA GEMM and convolution kernels. This is the only translation unit
// compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing here
// executes unless runtime cpuid confirmed both features, so the rest of the
// binary stays runnable on baseline x86-64.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

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

// Growable 64-byte-aligned per-thread scratch. One buffer of each kind per
// thread suffices: a kernel fills its buffers, then consumes them on the
// same thread before returning, so a thread never refills a buffer while
// an earlier use of it is still live.
struct Scratch {
  float* data = nullptr;
  size_t capacity = 0;

  ~Scratch() { ::operator delete(data, std::align_val_t(64)); }

  // Never null, so an empty batch's zero-length memset is well defined.
  float* Ensure(size_t n) {
    if (n > capacity || data == nullptr) {
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

thread_local Scratch t_pack_scratch;  // the GEMM's packed B panels
// The convolution's lane-layout copies of x and dy, its y or padded dx, and
// its column and window offsets.
thread_local Scratch t_conv_x, t_conv_dy, t_conv_out;
thread_local std::vector<int64_t> t_conv_index;

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

// ---------------------------------------------------------------------------
// Direct convolution with 8 samples on the vector lanes (simd.h).

// The vector path's ConvLayouts have n rounded up to 8 lanes, so the
// vector at (c, y, x, block b) holds samples 8b..8b+7 of one pixel.
size_t Floats(const ConvLayout& l) {
  return static_cast<size_t>(l.At(l.ch, 0, 0));
}

// Walks the pixels inside a ConvLayout's border in NCHW order.
class PixelWalk {
 public:
  explicit PixelWalk(const ConvLayout& l)
      : l_(l), off_(l.At(0, l.pad, l.pad)) {}
  int64_t off() const { return off_; }
  void Next() {
    off_ += l_.n;
    if (++x_ < l_.w) return;
    x_ = 0;
    off_ += (l_.wp - l_.w) * l_.n;
    if (++y_ < l_.h) return;
    y_ = 0;
    off_ += (l_.hp - l_.h) * l_.wp * l_.n;
  }

 private:
  const ConvLayout& l_;
  int64_t off_, x_ = 0, y_ = 0;
};

// r[i][j] becomes r[j][i].
inline void Transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// Copies the n samples of an NCHW batch into `l`'s layout, 8 pixels of 8
// samples per transpose. Every lane of every pixel is written (+0 past n),
// and the border is zeroed.
void PackLanes(const float* x, int64_t n, const ConvLayout& l, float* out) {
  if (l.hp > l.h || l.wp > l.w) std::memset(out, 0, Floats(l) * sizeof(float));
  const int64_t chw = l.ch * l.h * l.w, full = chw / 8 * 8;
  for (int64_t b = 0; 8 * b < n; ++b) {
    const int64_t nv = std::min<int64_t>(8, n - 8 * b);
    const float* src = x + 8 * b * chw;
    float* dst = out + 8 * b;
    PixelWalk px(l);
    for (int64_t t = 0; t < full; t += 8) {
      __m256 r[8];
#pragma GCC unroll 8
      for (int s = 0; s < 8; ++s) {
        r[s] = s < nv ? _mm256_loadu_ps(src + s * chw + t)
                      : _mm256_setzero_ps();
      }
      Transpose8x8(r);
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i, px.Next()) {
        _mm256_store_ps(dst + px.off(), r[i]);
      }
    }
    for (int64_t t = full; t < chw; ++t, px.Next()) {
      for (int s = 0; s < 8; ++s) {
        dst[px.off() + s] = s < nv ? src[s * chw + t] : 0.0f;
      }
    }
  }
}

// The inverse of PackLanes for the n samples, dropping the border.
void UnpackLanes(const float* in, const ConvLayout& l, int64_t n, float* y) {
  const int64_t chw = l.ch * l.h * l.w, full = chw / 8 * 8;
  for (int64_t b = 0; 8 * b < n; ++b) {
    const int64_t nv = std::min<int64_t>(8, n - 8 * b);
    const float* src = in + 8 * b;
    float* dst = y + 8 * b * chw;
    PixelWalk px(l);
    for (int64_t t = 0; t < full; t += 8) {
      __m256 r[8];
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i, px.Next()) {
        r[i] = _mm256_load_ps(src + px.off());
      }
      Transpose8x8(r);
#pragma GCC unroll 8
      for (int s = 0; s < 8; ++s) {
        if (s < nv) _mm256_storeu_ps(dst + s * chw + t, r[s]);
      }
    }
    for (int64_t t = full; t < chw; ++t, px.Next()) {
      for (int64_t s = 0; s < nv; ++s) dst[s * chw + t] = src[px.off() + s];
    }
  }
}

// What the three kernels of one call share. A column is one output pixel's
// lane block, j = (oy * OW + ox) * blocks + b; col_base[j] is the float
// offset of its window's top-left corner in the padded input, and
// kk_off[kk] that of kk = (c, ki, kj) from there.
struct ConvPlan {
  ConvLayout in;
  int64_t blocks, q, cols, ckk;
  const int64_t* col_base;
  const int64_t* kk_off;
};

ConvPlan MakePlan(int64_t n, const ConvGeometry& g) {
  const ConvLayout in((n + 7) / 8 * 8, g);
  const int64_t blocks = in.n / 8, q = in.oh * in.ow, cols = q * blocks;
  const int64_t ckk = in.ch * in.k * in.k;
  t_conv_index.resize(static_cast<size_t>(cols + ckk));
  int64_t* col = t_conv_index.data();
  for (int64_t oy = 0; oy < in.oh; ++oy) {
    for (int64_t ox = 0; ox < in.ow; ++ox) {
      const int64_t base = in.At(0, oy * in.stride, ox * in.stride);
      for (int64_t b = 0; b < blocks; ++b) *col++ = base + 8 * b;
    }
  }
  for (int64_t c = 0; c < in.ch; ++c) {
    for (int64_t ki = 0; ki < in.k; ++ki) {
      for (int64_t kj = 0; kj < in.k; ++kj) *col++ = in.At(c, ki, kj);
    }
  }
  return {in, blocks, q, cols, ckk, t_conv_index.data(),
          t_conv_index.data() + cols};
}

// The forward register tile: MR filters by W columns, like MicroKernel
// with the input window in place of packed B. Each chain starts from the
// bias and runs over kk in ascending order; the padding is +0 in the input
// copy. As in MicroKernel, the unroll pragmas keep the tile in registers.
template <int MR, int W>
void ConvForwardTile(const float* w, int64_t ckk, const int64_t* kk_off,
                     const float* const* cols, const float* bias, float* y,
                     int64_t ldy) {
  __m256 acc[MR][W];
  const float* xc[W];
#pragma GCC unroll 3
  for (int v = 0; v < W; ++v) xc[v] = cols[v];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    const __m256 b0 =
        bias != nullptr ? _mm256_set1_ps(bias[r]) : _mm256_setzero_ps();
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) acc[r][v] = b0;
  }
#pragma GCC unroll 2
  for (int64_t kk = 0; kk < ckk; ++kk) {
    const int64_t o = kk_off[kk];
    __m256 xv[W];
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) xv[v] = _mm256_load_ps(xc[v] + o);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 wv = _mm256_broadcast_ss(w + r * ckk + kk);
#pragma GCC unroll 3
      for (int v = 0; v < W; ++v) {
        acc[r][v] = _mm256_fmadd_ps(wv, xv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) _mm256_store_ps(y + r * ldy + 8 * v, acc[r][v]);
  }
}

// The dX register tile: MR input channels by W columns for one window
// offset (ki, kj). Each chain runs over the nf filters from +0, then is
// added into the padded dx pixel the offset maps its column to. No two
// columns of one offset share a pixel, so only the order of the offsets
// matters, and the caller keeps it ascending.
template <int MR, int W>
void ConvDxTile(const float* w, int64_t w_fs, int64_t w_cs, int64_t nf,
                const float* dy, int64_t ldy, float* const* cols,
                int64_t dx_cs) {
  __m256 acc[MR][W];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) acc[r][v] = _mm256_setzero_ps();
  }
#pragma GCC unroll 2
  for (int64_t fi = 0; fi < nf; ++fi) {
    __m256 dv[W];
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) dv[v] = _mm256_load_ps(dy + fi * ldy + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 wv = _mm256_broadcast_ss(w + fi * w_fs + r * w_cs);
#pragma GCC unroll 3
      for (int v = 0; v < W; ++v) {
        acc[r][v] = _mm256_fmadd_ps(wv, dv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < W; ++v) {
      float* px = cols[v] + r * dx_cs;
      _mm256_store_ps(px, _mm256_add_ps(_mm256_load_ps(px), acc[r][v]));
    }
  }
}

// The dW tile: one filter by V consecutive kk, over every lane block in
// ascending order. Per block each lane's chain runs over the output
// positions from +0; a transpose turns the V chain vectors into one vector
// per sample, and those are added into `sum` in ascending sample order,
// skipping the lanes past n. `sum` is added into dw once.
template <int V>
void ConvDwTile(const float* dy, const float* const* xk,
                const ConvPlan& p, int64_t n, float* dw) {
  const int64_t lanes = p.in.n;
  __m256 sum = _mm256_setzero_ps();
  for (int64_t b = 0; b < p.blocks; ++b) {
    __m256 acc[8];
    const float* xb[V];
#pragma GCC unroll 8
    for (int v = 0; v < 8; ++v) acc[v] = _mm256_setzero_ps();
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) xb[v] = xk[v] + 8 * b;
    const float* d = dy + 8 * b;
    const int64_t* pos = p.col_base;  // b == 0 columns: one per position
#pragma GCC unroll 2
    for (int64_t qi = 0; qi < p.q; ++qi, d += lanes, pos += p.blocks) {
      const __m256 dv = _mm256_load_ps(d);
      const int64_t o = *pos;
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[v] = _mm256_fmadd_ps(dv, _mm256_load_ps(xb[v] + o), acc[v]);
      }
    }
    Transpose8x8(acc);
    const int64_t nv = n - 8 * b;
#pragma GCC unroll 8
    for (int s = 0; s < 8; ++s) {
      if (s < nv) sum = _mm256_add_ps(sum, acc[s]);
    }
  }
  alignas(32) float out[8];
  _mm256_store_ps(out, sum);
  for (int v = 0; v < V; ++v) dw[v] += out[v];
}

using ConvForwardFn = void (*)(const float*, int64_t, const int64_t*,
                               const float* const*, const float*, float*,
                               int64_t);
using ConvDxFn = void (*)(const float*, int64_t, int64_t, int64_t,
                          const float*, int64_t, float* const*, int64_t);
using ConvDwFn = void (*)(const float*, const float* const*, const ConvPlan&,
                          int64_t, float*);

// [columns W - 1][rows MR - 1], as kKernels.
constexpr ConvForwardFn kConvForward[kPanels][kRows] = {
    {ConvForwardTile<1, 1>, ConvForwardTile<2, 1>, ConvForwardTile<3, 1>,
     ConvForwardTile<4, 1>},
    {ConvForwardTile<1, 2>, ConvForwardTile<2, 2>, ConvForwardTile<3, 2>,
     ConvForwardTile<4, 2>},
    {ConvForwardTile<1, 3>, ConvForwardTile<2, 3>, ConvForwardTile<3, 3>,
     ConvForwardTile<4, 3>},
};
constexpr ConvDxFn kConvDx[kPanels][kRows] = {
    {ConvDxTile<1, 1>, ConvDxTile<2, 1>, ConvDxTile<3, 1>, ConvDxTile<4, 1>},
    {ConvDxTile<1, 2>, ConvDxTile<2, 2>, ConvDxTile<3, 2>, ConvDxTile<4, 2>},
    {ConvDxTile<1, 3>, ConvDxTile<2, 3>, ConvDxTile<3, 3>, ConvDxTile<4, 3>},
};
// [kk in the tile - 1].
constexpr ConvDwFn kConvDw[8] = {ConvDwTile<1>, ConvDwTile<2>, ConvDwTile<3>,
                                 ConvDwTile<4>, ConvDwTile<5>, ConvDwTile<6>,
                                 ConvDwTile<7>, ConvDwTile<8>};


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

void ConvForwardScalarFmaTu(const float* x, const float* w, const float* bias,
                            float* y, int64_t n, int64_t f,
                            const ConvGeometry& g) {
  ScalarConvForwardImpl(x, w, bias, y, n, f, g);
}

void ConvBackwardScalarFmaTu(const float* x, const float* dy, const float* w,
                             float* dx, float* dw, int64_t n, int64_t f,
                             const ConvGeometry& g) {
  ScalarConvBackwardImpl(x, dy, w, dx, dw, n, f, g);
}

void ConvForwardAvx2(const float* x, const float* w, const float* bias,
                     float* y, int64_t n, int64_t f, const ConvGeometry& g) {
  const ConvPlan p = MakePlan(n, g);
  float* xp = t_conv_x.Ensure(Floats(p.in));
  PackLanes(x, n, p.in, xp);
  const ConvLayout out(p.in.n, {f, p.in.oh, p.in.ow, 1, 1, 0});
  float* yp = t_conv_out.Ensure(Floats(out));
  const int64_t ldy = p.q * p.in.n;
  for (int64_t f0 = 0; f0 < f; f0 += kRows) {
    const int mr = static_cast<int>(std::min<int64_t>(kRows, f - f0));
    for (int64_t j0 = 0; j0 < p.cols; j0 += kPanels) {
      const int wv = static_cast<int>(std::min<int64_t>(kPanels, p.cols - j0));
      const float* cols[kPanels];
      for (int v = 0; v < wv; ++v) cols[v] = xp + p.col_base[j0 + v];
      kConvForward[wv - 1][mr - 1](w + f0 * p.ckk, p.ckk, p.kk_off, cols,
                                   bias != nullptr ? bias + f0 : nullptr,
                                   yp + f0 * ldy + 8 * j0, ldy);
    }
  }
  UnpackLanes(yp, out, n, y);
}

void ConvBackwardAvx2(const float* x, const float* dy, const float* w,
                      float* dx, float* dw, int64_t n, int64_t f,
                      const ConvGeometry& g) {
  const ConvPlan p = MakePlan(n, g);
  const ConvLayout dyl(p.in.n, {f, p.in.oh, p.in.ow, 1, 1, 0});
  float* dyp = t_conv_dy.Ensure(Floats(dyl));
  PackLanes(dy, n, dyl, dyp);
  const int64_t ldy = p.q * p.in.n;

  // dX: one pass per window offset, in ascending order, into a padded dx.
  float* dxp = t_conv_out.Ensure(Floats(p.in));
  std::memset(dxp, 0, Floats(p.in) * sizeof(float));
  const int64_t k = g.kernel, kk2 = k * k, plane = p.in.At(1, 0, 0);
  for (int64_t ki = 0; ki < k; ++ki) {
    for (int64_t kj = 0; kj < k; ++kj) {
      const int64_t shift = p.in.At(0, ki, kj);
      for (int64_t c0 = 0; c0 < g.in_c; c0 += kRows) {
        const int mr = static_cast<int>(std::min<int64_t>(kRows, g.in_c - c0));
        for (int64_t j0 = 0; j0 < p.cols; j0 += kPanels) {
          const int wv =
              static_cast<int>(std::min<int64_t>(kPanels, p.cols - j0));
          float* cols[kPanels];
          for (int v = 0; v < wv; ++v) {
            cols[v] = dxp + c0 * plane + p.col_base[j0 + v] + shift;
          }
          kConvDx[wv - 1][mr - 1](w + c0 * kk2 + ki * k + kj, g.in_c * kk2,
                                  kk2, f, dyp + 8 * j0, ldy, cols, plane);
        }
      }
    }
  }
  UnpackLanes(dxp, p.in, n, dx);

  // dW: chains over the padded input copy, 8 kk at a time.
  float* xp = t_conv_x.Ensure(Floats(p.in));
  PackLanes(x, n, p.in, xp);
  for (int64_t fi = 0; fi < f; ++fi) {
    for (int64_t kk0 = 0; kk0 < p.ckk; kk0 += 8) {
      const int v = static_cast<int>(std::min<int64_t>(8, p.ckk - kk0));
      const float* xk[8];
      for (int i = 0; i < v; ++i) xk[i] = xp + p.kk_off[kk0 + i];
      kConvDw[v - 1](dyp + fi * ldy, xk, p, n, dw + fi * p.ckk + kk0);
    }
  }
}

}  // namespace simd
}  // namespace tensor
}  // namespace automc
