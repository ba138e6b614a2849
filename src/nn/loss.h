#ifndef AUTOMC_NN_LOSS_H_
#define AUTOMC_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace automc {
namespace nn {

// Loss value plus its gradient with respect to the logits argument.
struct LossResult {
  float loss = 0.0f;
  tensor::Tensor grad;  // same shape as the logits
};

// Mean softmax cross-entropy over the batch; labels in [0, num_classes).
LossResult CrossEntropy(const tensor::Tensor& logits,
                        const std::vector<int>& labels);

// Mean negative likelihood of the correct class, -p_y (linear, not log).
// Distinct from CrossEntropy; one of the LFB auxiliary-loss choices (HP16).
LossResult NegativeLikelihood(const tensor::Tensor& logits,
                              const std::vector<int>& labels);

// Plain mean squared error between two equal-shaped tensors (gradient with
// respect to `pred`). Used for logit-matching auxiliary losses.
LossResult Mse(const tensor::Tensor& pred, const tensor::Tensor& target);

// Hinton-style distillation term: T^2 * KL(softmax(teacher/T) ||
// softmax(student/T)), averaged over the batch. Gradient is with respect to
// the student logits.
LossResult DistillationKl(const tensor::Tensor& student_logits,
                          const tensor::Tensor& teacher_logits,
                          float temperature);

// Fraction of rows whose argmax matches the label.
double Accuracy(const tensor::Tensor& logits, const std::vector<int>& labels);

}  // namespace nn
}  // namespace automc

#endif  // AUTOMC_NN_LOSS_H_
