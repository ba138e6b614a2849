#ifndef AUTOMC_TENSOR_TUNE_H_
#define AUTOMC_TENSOR_TUNE_H_

#include <cstdint>

#include "tensor/simd.h"

namespace automc {
namespace tensor {
namespace simd {

// Shape-adaptive tile auto-tuner for the AVX2 GEMM path.
//
// Shapes are bucketed into classes by (op, floor(log2(m)), floor(log2(k)),
// floor(log2(n))). The first time a class is seen, a small exhaustive grid
// of TileParams candidates is benchmarked on synthetic operands shaped like
// the triggering call, and the fastest candidate is cached — in memory and,
// when AUTOMC_TUNE_CACHE names a file, on disk so later processes skip the
// probes entirely.
//
// Tuning never affects results: every candidate obeys the microkernel
// contract (simd.h), so the tuner is free to pick differently run-to-run or
// machine-to-machine and outputs stay bit-identical.
//
// On-disk format (little-endian, replaced via durable::AtomicWriteFile):
//   "AMTN" | u32 version | u32 count | count x (u32 key, i32 mr, i32 nv,
//   i32 kc) | u32 crc32-of-preceding-bytes
// Any mismatch — magic, version, truncation, CRC — makes the loader ignore
// the file and re-tune from scratch; the next save rewrites it whole.

// Tuned tile parameters for the shape class of (op, m, k, n). Probes and
// caches on first use of a class. Only meaningful when ActiveMode() is
// kAvx2; callers on the scalar paths never ask.
TileParams ChooseTile(GemmOp op, int64_t m, int64_t k, int64_t n);

// Forces every ChooseTile call to return `p` until cleared — lets tests
// sweep tilings and assert bitwise-identical outputs.
void SetTileOverrideForTest(const TileParams& p);
void ClearTileOverrideForTest();

// Drops the in-memory table and re-reads AUTOMC_TUNE_CACHE on next use
// (does not delete any cache file).
void ResetTunerForTest();

}  // namespace simd
}  // namespace tensor
}  // namespace automc

#endif  // AUTOMC_TENSOR_TUNE_H_
