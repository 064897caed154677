#include "src/linalg/matrix.h"

#include <cassert>
#include <cmath>

#include "src/core/kernels/kernels.h"

namespace p3c::linalg {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::Add(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::MatVec(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

void Matrix::AddToDiagonal(double eps) {
  assert(IsSquare());
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += eps;
}

void Matrix::AddLowerOuterProduct(const Vector& v, double w) {
  assert(IsSquare() && v.size() == cols_);
  core::kernels::Active().outer_accumulate(data_.data(), v.data(), w, cols_);
}

void Matrix::MirrorLower() {
  assert(IsSquare());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < i; ++j) (*this)(j, i) = (*this)(i, j);
  }
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double worst = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  }
  return worst;
}

double Dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double SquaredDistance(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

Vector VecAdd(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector VecSub(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector VecScale(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace p3c::linalg
