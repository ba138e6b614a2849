#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace automc {
namespace tensor {
namespace simd {

// Instantiated in simd_avx2.cc (compiled with -mavx2 -mfma) when the
// toolchain supports it; see GemmScalar below.
void GemmScalarFmaTu(GemmOp op, const float* a, const float* b, float* c,
                     int64_t m, int64_t k, int64_t n);
void ConvForwardScalarFmaTu(const float* x, const float* w, const float* bias,
                            float* y, int64_t n, int64_t f,
                            const ConvGeometry& g);
void ConvBackwardScalarFmaTu(const float* x, const float* dy, const float* w,
                             float* dx, float* dw, int64_t n, int64_t f,
                             const ConvGeometry& g);

namespace {

#include "tensor/simd_scalar.inc"

bool DetectHardware() {
#if defined(AUTOMC_HAVE_AVX2_KERNELS)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

SimdMode DeriveMode() {
  if (!KernelsCompiled() || !HardwareOk()) return SimdMode::kScalarGeneric;
  const char* env = std::getenv("AUTOMC_SIMD");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') {
    return SimdMode::kScalarHwFma;
  }
  return SimdMode::kAvx2;
}

std::atomic<SimdMode> g_mode{SimdMode::kScalarGeneric};
std::atomic<bool> g_mode_valid{false};

}  // namespace

bool KernelsCompiled() {
#if defined(AUTOMC_HAVE_AVX2_KERNELS)
  return true;
#else
  return false;
#endif
}

bool HardwareOk() {
  static const bool ok = DetectHardware();
  return ok;
}

SimdMode ActiveMode() {
  if (!g_mode_valid.load(std::memory_order_acquire)) RefreshDispatch();
  return g_mode.load(std::memory_order_relaxed);
}

void RefreshDispatch() {
  g_mode.store(DeriveMode(), std::memory_order_relaxed);
  g_mode_valid.store(true, std::memory_order_release);
}

void GemmScalar(GemmOp op, const float* a, const float* b, float* c,
                int64_t m, int64_t k, int64_t n) {
#if defined(AUTOMC_HAVE_AVX2_KERNELS)
  // Same source, same chains — but std::fmaf inlines to vfmadd instead of
  // a libm call per element, so AUTOMC_SIMD=0 runs stay fast on FMA
  // hardware. Results are identical either way (IEEE fma is fma).
  if (HardwareOk()) {
    GemmScalarFmaTu(op, a, b, c, m, k, n);
    return;
  }
#endif
  ScalarRowsImpl(op, a, b, c, m, k, n, 0, n);
}

void ConvForwardScalar(const float* x, const float* w, const float* bias,
                       float* y, int64_t n, int64_t f, const ConvGeometry& g) {
#if defined(AUTOMC_HAVE_AVX2_KERNELS)
  if (HardwareOk()) {
    ConvForwardScalarFmaTu(x, w, bias, y, n, f, g);
    return;
  }
#endif
  ScalarConvForwardImpl(x, w, bias, y, n, f, g);
}

void ConvBackwardScalar(const float* x, const float* dy, const float* w,
                        float* dx, float* dw, int64_t n, int64_t f,
                        const ConvGeometry& g) {
#if defined(AUTOMC_HAVE_AVX2_KERNELS)
  if (HardwareOk()) {
    ConvBackwardScalarFmaTu(x, dy, w, dx, dw, n, f, g);
    return;
  }
#endif
  ScalarConvBackwardImpl(x, dy, w, dx, dw, n, f, g);
}

}  // namespace simd
}  // namespace tensor
}  // namespace automc
