#include "nn/loss.h"

#include <cmath>

#include "tensor/ops.h"

namespace automc {
namespace nn {

using tensor::Tensor;

namespace {

// Row-wise softmax of [n, c] logits.
Tensor Softmax(const Tensor& logits) {
  Tensor lsm = tensor::LogSoftmax(logits);
  Tensor p(lsm.shape());
  for (int64_t i = 0; i < p.numel(); ++i) p[i] = std::exp(lsm[i]);
  return p;
}

void CheckLabels(const Tensor& logits, const std::vector<int>& labels) {
  AUTOMC_CHECK_EQ(logits.dim(), 2);
  AUTOMC_CHECK_EQ(logits.size(0), static_cast<int64_t>(labels.size()));
  for (int y : labels) {
    AUTOMC_CHECK(y >= 0 && y < logits.size(1)) << "label out of range: " << y;
  }
}

}  // namespace

LossResult CrossEntropy(const Tensor& logits, const std::vector<int>& labels) {
  CheckLabels(logits, labels);
  int64_t n = logits.size(0), c = logits.size(1);
  Tensor lsm = tensor::LogSoftmax(logits);
  LossResult out;
  out.grad = Tensor({n, c});
  double loss = 0.0;
  float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    int y = labels[static_cast<size_t>(i)];
    loss -= lsm.at(i, y);
    for (int64_t j = 0; j < c; ++j) {
      float p = std::exp(lsm.at(i, j));
      out.grad.at(i, j) = (p - (j == y ? 1.0f : 0.0f)) * inv_n;
    }
  }
  out.loss = static_cast<float>(loss / n);
  return out;
}

LossResult NegativeLikelihood(const Tensor& logits,
                              const std::vector<int>& labels) {
  CheckLabels(logits, labels);
  int64_t n = logits.size(0), c = logits.size(1);
  Tensor p = Softmax(logits);
  LossResult out;
  out.grad = Tensor({n, c});
  double loss = 0.0;
  float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    int y = labels[static_cast<size_t>(i)];
    float py = p.at(i, y);
    loss -= py;
    // d(-p_y)/ds_j = -p_y * (1{j==y} - p_j)
    for (int64_t j = 0; j < c; ++j) {
      out.grad.at(i, j) =
          -py * ((j == y ? 1.0f : 0.0f) - p.at(i, j)) * inv_n;
    }
  }
  out.loss = static_cast<float>(loss / n);
  return out;
}

LossResult Mse(const Tensor& pred, const Tensor& target) {
  AUTOMC_CHECK_EQ(pred.numel(), target.numel());
  LossResult out;
  out.grad = Tensor(pred.shape());
  double loss = 0.0;
  float scale = 1.0f / static_cast<float>(pred.numel());
  for (int64_t i = 0; i < pred.numel(); ++i) {
    float r = pred[i] - target[i];
    loss += static_cast<double>(r) * r;
    out.grad[i] = 2.0f * r * scale;
  }
  out.loss = static_cast<float>(loss) * scale;
  return out;
}

LossResult DistillationKl(const Tensor& student_logits,
                          const Tensor& teacher_logits, float temperature) {
  AUTOMC_CHECK_EQ(student_logits.numel(), teacher_logits.numel());
  AUTOMC_CHECK_GT(temperature, 0.0f);
  int64_t n = student_logits.size(0), c = student_logits.size(1);
  float t = temperature;

  Tensor s_scaled({n, c}), t_scaled({n, c});
  for (int64_t i = 0; i < n * c; ++i) {
    s_scaled[i] = student_logits[i] / t;
    t_scaled[i] = teacher_logits[i] / t;
  }
  Tensor ls = tensor::LogSoftmax(s_scaled);
  Tensor lt = tensor::LogSoftmax(t_scaled);

  LossResult out;
  out.grad = Tensor({n, c});
  double loss = 0.0;
  float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      float q = std::exp(lt.at(i, j));  // teacher prob
      float p = std::exp(ls.at(i, j));  // student prob
      loss += static_cast<double>(q) * (lt.at(i, j) - ls.at(i, j));
      // d[T^2 * KL]/ds = T * (p - q) / n
      out.grad.at(i, j) = t * (p - q) * inv_n;
    }
  }
  out.loss = static_cast<float>(loss) * t * t * inv_n;
  return out;
}

double Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  AUTOMC_CHECK_EQ(logits.size(0), static_cast<int64_t>(labels.size()));
  int64_t n = logits.size(0), c = logits.size(1);
  int64_t correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (logits.at(i, j) > logits.at(i, best)) best = j;
    }
    if (best == labels[static_cast<size_t>(i)]) ++correct;
  }
  return n == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace nn
}  // namespace automc
