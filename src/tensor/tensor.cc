#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "common/metrics.h"

namespace automc {
namespace tensor {

namespace {

int64_t Product(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    AUTOMC_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

// Process-wide all-zeros buffer, grown geometrically and never written.
// The global holder keeps its use_count >= 2 for every tensor aliasing it,
// so a write through any alias always materializes instead of dirtying the
// page. After a growth step the retiring page is released by the holder; a
// sole surviving alias then owns it exclusively and may write in place,
// which is safe precisely because nobody else can see that buffer anymore.
std::mutex g_zero_mu;
std::shared_ptr<Tensor::Buffer> g_zero_page;  // NOLINT

std::shared_ptr<Tensor::Buffer> ZeroPage(int64_t numel) {
  std::lock_guard<std::mutex> lock(g_zero_mu);
  if (g_zero_page == nullptr ||
      static_cast<int64_t>(g_zero_page->size()) < numel) {
    size_t want = g_zero_page ? 2 * g_zero_page->size() : size_t{1} << 12;
    while (static_cast<int64_t>(want) < numel) want *= 2;
    g_zero_page = std::make_shared<Tensor::Buffer>(want, 0.0f);
  }
  return g_zero_page;
}

// tensor.* accounting. Copies and materializations happen inside parallel
// kernels; each macro site keeps its counter, so an event costs a couple of
// relaxed atomics and never the registry mutex.
void NoteAlias(int64_t numel) {
  if (numel <= 0) return;
  AUTOMC_METRIC_COUNT("tensor.cow_copies");
  AUTOMC_METRIC_COUNT("tensor.shared_bytes",
                      numel * static_cast<int64_t>(sizeof(float)));
}

void NoteZeroAlias(int64_t numel) {
  if (numel <= 0) return;
  AUTOMC_METRIC_COUNT("tensor.shared_bytes",
                      numel * static_cast<int64_t>(sizeof(float)));
}

void NoteMaterialize(int64_t copied_bytes) {
  AUTOMC_METRIC_COUNT("tensor.cow_materializations");
  AUTOMC_METRIC_COUNT("tensor.cow_materialized_bytes", copied_bytes);
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), numel_(Product(shape_)) {
  if (numel_ > 0) {
    buf_ = std::make_shared<Buffer>(static_cast<size_t>(numel_), 0.0f);
  }
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), numel_(other.numel_), buf_(other.buf_) {
  NoteAlias(numel_);
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  numel_ = other.numel_;
  buf_ = other.buf_;
  NoteAlias(numel_);
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      numel_(other.numel_),
      buf_(std::move(other.buf_)) {
  other.shape_.clear();
  other.numel_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = std::move(other.shape_);
  numel_ = other.numel_;
  buf_ = std::move(other.buf_);
  other.shape_.clear();
  other.numel_ = 0;
  return *this;
}

void Tensor::EnsureUnique() {
  if (buf_ == nullptr || buf_.use_count() == 1) return;
  auto fresh = std::make_shared<Buffer>(buf_->begin(), buf_->begin() + numel_);
  buf_ = std::move(fresh);
  NoteMaterialize(numel_ * static_cast<int64_t>(sizeof(float)));
}

float* Tensor::MutableDataDiscard() {
  if (buf_ == nullptr) return nullptr;
  if (buf_.use_count() != 1) {
    buf_ = std::make_shared<Buffer>(static_cast<size_t>(numel_));
    NoteMaterialize(0);
  }
  return buf_->data();
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = Product(t.shape_);
  if (t.numel_ > 0) {
    t.buf_ = ZeroPage(t.numel_);
    NoteZeroAlias(t.numel_);
  }
  return t;
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng* rng, float stddev) {
  AUTOMC_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  float* d = t.MutableData();
  for (int64_t i = 0; i < t.numel(); ++i) {
    d[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::KaimingNormal(std::vector<int64_t> shape, int64_t fan_in,
                             Rng* rng) {
  AUTOMC_CHECK_GT(fan_in, 0);
  float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Randn(std::move(shape), rng, stddev);
}

void Tensor::Fill(float value) {
  if (numel_ == 0) return;
  if (value == 0.0f && buf_.use_count() != 1) {
    buf_ = ZeroPage(numel_);
    NoteZeroAlias(numel_);
    return;
  }
  float* d = MutableDataDiscard();
  std::fill(d, d + numel_, value);
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.numel_ = Product(out.shape_);
  AUTOMC_CHECK_EQ(out.numel_, numel_)
      << "reshape " << ShapeString() << " -> " << out.ShapeString();
  out.buf_ = buf_;
  NoteAlias(numel_);
  return out;
}

void Tensor::AddInPlace(const Tensor& other) {
  AUTOMC_CHECK_EQ(numel_, other.numel_);
  if (numel_ == 0) return;
  float* d = MutableData();
  const float* s = other.data();
  for (int64_t i = 0; i < numel_; ++i) d[i] += s[i];
}

void Tensor::AxpyInPlace(float alpha, const Tensor& x) {
  AUTOMC_CHECK_EQ(numel_, x.numel_);
  if (numel_ == 0) return;
  float* d = MutableData();
  const float* s = x.data();
  for (int64_t i = 0; i < numel_; ++i) d[i] += alpha * s[i];
}

void Tensor::Scale(float alpha) {
  if (numel_ == 0) return;
  float* d = MutableData();
  for (int64_t i = 0; i < numel_; ++i) d[i] *= alpha;
}

float Tensor::SumAll() const {
  double s = 0.0;
  const float* d = data();
  for (int64_t i = 0; i < numel_; ++i) s += d[i];
  return static_cast<float>(s);
}

float Tensor::L2NormSquared() const {
  double s = 0.0;
  const float* d = data();
  for (int64_t i = 0; i < numel_; ++i) {
    s += static_cast<double>(d[i]) * d[i];
  }
  return static_cast<float>(s);
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ",";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace tensor
}  // namespace automc
