#include "src/linalg/cholesky.h"

#include <cassert>
#include <cmath>

namespace p3c::linalg {

Result<Cholesky> Cholesky::Factorize(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) {
      return Status::FailedPrecondition(
          "matrix is not positive definite (pivot " + std::to_string(j) + ")");
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  return Cholesky(std::move(l));
}

Vector Cholesky::Solve(const Vector& b) const {
  const size_t n = l_.rows();
  assert(b.size() == n);
  // Forward substitution: L y = b.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (size_t k = 0; k < i; ++k) acc -= l_(i, k) * y[k];
    y[i] = acc / l_(i, i);
  }
  // Backward substitution: L^T x = y.
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::Inverse() const {
  const size_t n = l_.rows();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    const Vector col = Solve(e);
    for (size_t r = 0; r < n; ++r) inv(r, c) = col[r];
    e[c] = 0.0;
  }
  return inv;
}

double Cholesky::LogDet() const {
  double acc = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

double Cholesky::MahalanobisSquared(const Vector& x, const Vector& mu) const {
  const size_t n = l_.rows();
  assert(x.size() == n && mu.size() == n);
  // Forward substitution of (x - mu) through L; the squared norm of the
  // result equals (x-mu)^T A^{-1} (x-mu). The per-point hot paths call
  // this k times per row, so y lives in per-thread scratch.
  thread_local Vector y;
  y.resize(n);
  double acc_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double acc = x[i] - mu[i];
    for (size_t k = 0; k < i; ++k) acc -= l_(i, k) * y[k];
    y[i] = acc / l_(i, i);
    acc_sq += y[i] * y[i];
  }
  return acc_sq;
}

}  // namespace p3c::linalg
