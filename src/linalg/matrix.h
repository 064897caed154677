#ifndef P3C_LINALG_MATRIX_H_
#define P3C_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"

namespace p3c::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Sized for the small systems this library solves: covariance matrices
/// restricted to the relevant subspace `Arel` (tens of dimensions). All
/// operations are straightforward O(n^3)/O(n^2) loops; no BLAS.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity matrix of size n x n.
  static Matrix Identity(size_t n);

  /// Diagonal matrix from a vector.
  static Matrix Diagonal(const Vector& d);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// this + other. Dimensions must match.
  Matrix Add(const Matrix& other) const;
  /// this - other. Dimensions must match.
  Matrix Sub(const Matrix& other) const;
  /// this * scalar.
  Matrix Scale(double s) const;
  /// Matrix product this * other; requires cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;
  /// Matrix-vector product; requires cols() == v.size().
  Vector MatVec(const Vector& v) const;
  /// Transpose.
  Matrix Transposed() const;

  /// Adds `eps` to every diagonal entry in place (ridge regularization of
  /// near-singular covariance estimates).
  void AddToDiagonal(double eps);

  /// Rank-1 update of the lower triangle: this(i, j) += (w * v[i]) * v[j]
  /// for j <= i (v must have cols() entries; requires a square matrix).
  /// Entries above the diagonal are left as they are. Used when
  /// accumulating covariances: Cholesky::Factorize reads only the lower
  /// triangle, and a caller that hands the matrix on mirrors it once
  /// with MirrorLower after its last elementwise step.
  void AddLowerOuterProduct(const Vector& v, double w);

  /// Copies every entry below the diagonal to its mirror above it, so
  /// the square matrix is exactly symmetric.
  void MirrorLower();

  /// Max |a_ij - b_ij|; utility for tests.
  double MaxAbsDiff(const Matrix& other) const;

  bool IsSquare() const { return rows_ == cols_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Squared Euclidean distance between two equally sized vectors.
double SquaredDistance(const Vector& a, const Vector& b);

/// a + b element-wise.
Vector VecAdd(const Vector& a, const Vector& b);
/// a - b element-wise.
Vector VecSub(const Vector& a, const Vector& b);
/// a * s element-wise.
Vector VecScale(const Vector& a, double s);

}  // namespace p3c::linalg

#endif  // P3C_LINALG_MATRIX_H_
