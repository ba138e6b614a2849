#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace automc {

namespace {
// Tile edge for the blocked transpose: a 64x64 double tile is 32 KB for
// source + destination together, so both stay cache-resident while the
// column-major writes land.
constexpr int64_t kTransposeTile = 64;
}  // namespace

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  const double* src = data_.data();
  double* dst = t.data();
  int64_t rows = rows_, cols = cols_;
  for (int64_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    int64_t r1 = std::min(rows, r0 + kTransposeTile);
    for (int64_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      int64_t c1 = std::min(cols, c0 + kTransposeTile);
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  AUTOMC_CHECK_EQ(cols_, other.rows());
  int64_t m = rows_, k = cols_, n = other.cols();
  Matrix out(m, n);
  // Transpose B once so every dot product streams two contiguous rows; the
  // k-accumulation order per output element matches the serial kernel.
  Matrix bt = other.Transposed();
  const double* pa = data_.data();
  const double* pb = bt.data();
  double* pc = out.data();
  int64_t i = 0;
  // Quads of output rows share each B^T row read.
  for (; i + 4 <= m; i += 4) {
    const double* a0 = pa + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    for (int64_t j = 0; j < n; ++j) {
      const double* brow = pb + j * k;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        double bv = brow[kk];
        s0 += a0[kk] * bv;
        s1 += a1[kk] * bv;
        s2 += a2[kk] * bv;
        s3 += a3[kk] * bv;
      }
      pc[i * n + j] = s0;
      pc[(i + 1) * n + j] = s1;
      pc[(i + 2) * n + j] = s2;
      pc[(i + 3) * n + j] = s3;
    }
  }
  for (; i < m; ++i) {
    const double* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const double* brow = pb + j * k;
      double s = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      pc[i * n + j] = s;
    }
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

SvdResult TruncatedSvd(const Matrix& a, int64_t rank) {
  // One-sided Jacobi on the (possibly transposed) matrix so columns are the
  // short dimension: orthogonalize columns of W = A (m x n, n <= m); then
  // singular values are column norms, V from rotations, U = W / s.
  bool transposed = a.cols() > a.rows();
  Matrix w = transposed ? a.Transposed() : a;
  int64_t m = w.rows();
  int64_t n = w.cols();
  rank = std::max<int64_t>(1, std::min(rank, n));

  // V accumulates the right rotations (n x n, starts as identity).
  Matrix v(n, n);
  for (int64_t i = 0; i < n; ++i) v.at(i, i) = 1.0;

  const int kMaxSweeps = 60;
  const double kTol = 1e-12;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (int64_t i = 0; i < m; ++i) {
          double wp = w.at(i, p), wq = w.at(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        off = std::max(off, std::fabs(gamma) / std::sqrt(alpha * beta + 1e-300));
        if (std::fabs(gamma) < kTol * std::sqrt(alpha * beta + 1e-300)) continue;
        double zeta = (beta - alpha) / (2.0 * gamma);
        double t = ((zeta >= 0.0) ? 1.0 : -1.0) /
                   (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = c * t;
        for (int64_t i = 0; i < m; ++i) {
          double wp = w.at(i, p), wq = w.at(i, q);
          w.at(i, p) = c * wp - s * wq;
          w.at(i, q) = s * wp + c * wq;
        }
        for (int64_t i = 0; i < n; ++i) {
          double vp = v.at(i, p), vq = v.at(i, q);
          v.at(i, p) = c * vp - s * vq;
          v.at(i, q) = s * vp + c * vq;
        }
      }
    }
    if (off < 1e-10) break;
  }

  // Column norms are singular values; sort descending.
  std::vector<double> sigma(static_cast<size_t>(n), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (int64_t i = 0; i < m; ++i) s += w.at(i, j) * w.at(i, j);
    sigma[static_cast<size_t>(j)] = std::sqrt(s);
  }
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return sigma[static_cast<size_t>(x)] > sigma[static_cast<size_t>(y)];
  });

  SvdResult out;
  out.s.resize(static_cast<size_t>(rank));
  Matrix u_full(m, rank);   // left vectors of w
  Matrix v_full(n, rank);   // right vectors of w
  for (int64_t j = 0; j < rank; ++j) {
    int64_t src = order[static_cast<size_t>(j)];
    double s = sigma[static_cast<size_t>(src)];
    out.s[static_cast<size_t>(j)] = s;
    double inv = (s > 1e-300) ? 1.0 / s : 0.0;
    for (int64_t i = 0; i < m; ++i) u_full.at(i, j) = w.at(i, src) * inv;
    for (int64_t i = 0; i < n; ++i) v_full.at(i, j) = v.at(i, src);
  }

  if (transposed) {
    // a = (w)^T = V S U^T, so swap roles.
    out.u = std::move(v_full);
    out.v = std::move(u_full);
  } else {
    out.u = std::move(u_full);
    out.v = std::move(v_full);
  }
  return out;
}

}  // namespace automc
