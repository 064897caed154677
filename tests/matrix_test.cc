#include "src/linalg/matrix.h"

#include <gtest/gtest.h>

namespace p3c::linalg {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
}

TEST(MatrixTest, Identity) {
  const Matrix id = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, Diagonal) {
  const Matrix d = Matrix::Diagonal({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, AddSubScale) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  Matrix b(2, 2, 1.0);
  const Matrix sum = a.Add(b);
  EXPECT_DOUBLE_EQ(sum(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(sum(0, 1), 1.0);
  const Matrix diff = sum.Sub(b);
  EXPECT_DOUBLE_EQ(diff.MaxAbsDiff(a), 0.0);
  const Matrix scaled = a.Scale(3.0);
  EXPECT_DOUBLE_EQ(scaled(1, 1), 6.0);
}

TEST(MatrixTest, MatMul) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  // [7 8; 9 10; 11 12]
  b(0, 0) = 7;  b(0, 1) = 8;
  b(1, 0) = 9;  b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, MatVec) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  const Vector v = a.MatVec({5.0, 6.0});
  EXPECT_DOUBLE_EQ(v[0], 17.0);
  EXPECT_DOUBLE_EQ(v[1], 39.0);
}

TEST(MatrixTest, Transposed) {
  Matrix a(2, 3);
  a(0, 2) = 5.0;
  const Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
}

TEST(MatrixTest, AddToDiagonal) {
  Matrix a(3, 3);
  a.AddToDiagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(a(2, 2), 0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(MatrixTest, AddLowerOuterProduct) {
  Matrix a(2, 2);
  a(0, 1) = -7.0;  // above the diagonal: left as it is
  a.AddLowerOuterProduct({1.0, 2.0}, 2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), -7.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 8.0);
  a.MirrorLower();
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 8.0);
}

TEST(MatrixTest, MirrorLowerMakesExactlySymmetric) {
  Matrix a(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      a(i, j) = 0.1 * static_cast<double>(i) + static_cast<double>(j + 1);
    }
  }
  const Matrix before = a;
  a.MirrorLower();
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(a(i, j), before(i, j));
      EXPECT_EQ(a(j, i), before(i, j));
    }
  }
}

TEST(VectorOpsTest, DotAndDistance) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

TEST(VectorOpsTest, AddSubScale) {
  const Vector sum = VecAdd({1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(sum[0], 4.0);
  EXPECT_DOUBLE_EQ(sum[1], 6.0);
  const Vector diff = VecSub({3, 4}, {1, 2});
  EXPECT_DOUBLE_EQ(diff[0], 2.0);
  const Vector scaled = VecScale({1, 2}, 2.5);
  EXPECT_DOUBLE_EQ(scaled[1], 5.0);
}

}  // namespace
}  // namespace p3c::linalg
