#ifndef AUTOMC_TENSOR_TENSOR_H_
#define AUTOMC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/rng.h"

namespace automc {
namespace tensor {

// Contiguous float32 N-dimensional array (up to 4-D in practice: NCHW
// activations, FCKK convolution kernels, 2-D weight matrices, 1-D biases).
//
// Copy-on-write: a Tensor is a (shape, shared buffer) pair. Copying a
// Tensor — copy construction, copy assignment, Reshaped — aliases the
// buffer in O(1); the first write through a mutable accessor materializes
// a private copy iff the buffer is shared. This is what makes
// Model::Clone a shallow alias of every parameter, so the search can
// snapshot candidate models for free and pay only for the layers a
// compression step actually rewrites.
//
// Aliasing rules:
//   * `data()` is const-only. Writers must use `MutableData()` (unshares,
//     preserving bytes) or `MutableDataDiscard()` (unshares without
//     copying — only when every element will be overwritten).
//   * Non-const `operator[]` / `at()` unshare on every access (one
//     relaxed atomic use_count load when already unique).
//   * All-zero tensors (`Zeros`, `Fill(0)` on a shared buffer) alias one
//     process-wide zero page, so cloned gradients and fresh optimizer
//     state cost nothing until written.
//
// Thread safety: distinct Tensor objects aliasing one buffer may be read
// and materialized concurrently (the shared_ptr control block is atomic;
// buffer bytes are immutable while shared). The same Tensor object is not
// thread-safe: concurrent pool tasks must each use their own Tensor objects.
class Tensor {
 public:
  // Buffers are 64-byte aligned so `data()`/`MutableData()` of any tensor
  // (and the shared zero page) start on a cache line and the SIMD kernels
  // can use aligned vector loads against buffer starts.
  using Buffer = std::vector<float, AlignedAllocator<float, 64>>;

  Tensor() = default;
  explicit Tensor(std::vector<int64_t> shape);  // fresh zero-filled buffer
  Tensor(std::initializer_list<int64_t> shape)
      : Tensor(std::vector<int64_t>(shape)) {}

  // O(1) buffer-aliasing copies (see class comment).
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  // Aliases the shared zero page: O(1), no allocation.
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  // Gaussian init with the given standard deviation.
  static Tensor Randn(std::vector<int64_t> shape, Rng* rng,
                      float stddev = 1.0f);
  // Kaiming/He normal init for a fan-in of `fan_in`.
  static Tensor KaimingNormal(std::vector<int64_t> shape, int64_t fan_in,
                              Rng* rng);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const {
    AUTOMC_CHECK(axis >= 0 && axis < dim());
    return shape_[static_cast<size_t>(axis)];
  }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  // Read-only view of the buffer; nullptr when empty.
  const float* data() const { return buf_ ? buf_->data() : nullptr; }
  // Writable view; materializes a private copy first when shared.
  float* MutableData() {
    EnsureUnique();
    return buf_ ? buf_->data() : nullptr;
  }
  // Writable view that skips the copy: when shared, swaps in a fresh
  // *uninitialized-to-zero* buffer instead of duplicating bytes. Only
  // valid when the caller overwrites every element before reading any.
  float* MutableDataDiscard();

  float& operator[](int64_t i) {
    AUTOMC_CHECK(i >= 0 && i < numel_);
    EnsureUnique();
    return (*buf_)[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    AUTOMC_CHECK(i >= 0 && i < numel_);
    return (*buf_)[static_cast<size_t>(i)];
  }

  // Multi-dimensional accessors (checked in debug-style via AUTOMC_CHECK).
  float& at(int64_t i, int64_t j) {
    size_t idx = Index2(i, j);
    EnsureUnique();
    return (*buf_)[idx];
  }
  float at(int64_t i, int64_t j) const { return (*buf_)[Index2(i, j)]; }
  float& at(int64_t i, int64_t j, int64_t k, int64_t l) {
    size_t idx = Index4(i, j, k, l);
    EnsureUnique();
    return (*buf_)[idx];
  }
  float at(int64_t i, int64_t j, int64_t k, int64_t l) const {
    return (*buf_)[Index4(i, j, k, l)];
  }

  // Fill(0) on a shared buffer re-aliases the zero page (O(1)); any other
  // fill materializes (without copying) and writes in place.
  void Fill(float value);
  // Returns an O(1) alias with a new shape; numel must match.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  // In-place arithmetic (materializes when shared).
  void AddInPlace(const Tensor& other);            // this += other
  void AxpyInPlace(float alpha, const Tensor& x);  // this += alpha * x
  void Scale(float alpha);                         // this *= alpha

  float SumAll() const;
  float L2NormSquared() const;
  std::string ShapeString() const;

  // --- COW introspection (tests, metrics) ----------------------------------
  // Owners of this buffer: other aliases plus, for all-zero tensors, the
  // global zero-page holder. 0 for an empty tensor, 1 when exclusively
  // owned (writes are in-place).
  int64_t use_count() const {
    return buf_ ? static_cast<int64_t>(buf_.use_count()) : 0;
  }
  bool SharesBufferWith(const Tensor& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

 private:
  // Materializes a private copy of the first numel_ elements when the
  // buffer is shared; no-op when exclusively owned or empty.
  void EnsureUnique();

  size_t Index2(int64_t i, int64_t j) const {
    AUTOMC_CHECK_EQ(dim(), 2);
    AUTOMC_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
    return static_cast<size_t>(i * shape_[1] + j);
  }
  size_t Index4(int64_t i, int64_t j, int64_t k, int64_t l) const {
    AUTOMC_CHECK_EQ(dim(), 4);
    AUTOMC_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] &&
                 k >= 0 && k < shape_[2] && l >= 0 && l < shape_[3]);
    return static_cast<size_t>(
        ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l);
  }

  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
  // Invariant: buf_ != nullptr iff numel_ > 0; buf_->size() >= numel_
  // (zero-page buffers can be larger than the tensor that aliases them).
  std::shared_ptr<Buffer> buf_;
};

}  // namespace tensor
}  // namespace automc

#endif  // AUTOMC_TENSOR_TENSOR_H_
