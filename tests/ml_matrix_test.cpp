#include "ml/matrix.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels.h"
#include "util/rng.h"

namespace rafiki::ml {
namespace {

TEST(Matrix, MultiplyAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const auto c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);

  const auto at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_EQ(at.cols(), 2u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

TEST(Matrix, GramEqualsTransposeTimesSelf) {
  Matrix a(3, 2);
  double v = 1.0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) a(r, c) = v++;
  }
  const auto gram = a.gram();
  const auto expected = a.transpose().multiply(a);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(gram(r, c), expected(r, c));
    }
  }
}

TEST(Matrix, VectorProducts) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 0; a(0, 2) = 2;
  a(1, 0) = 0; a(1, 1) = 3; a(1, 2) = 1;
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const auto ax = a.times(x);
  EXPECT_DOUBLE_EQ(ax[0], 7.0);
  EXPECT_DOUBLE_EQ(ax[1], 9.0);
  const std::vector<double> y = {1.0, 1.0};
  const auto aty = a.transpose_times(y);
  EXPECT_DOUBLE_EQ(aty[0], 1.0);
  EXPECT_DOUBLE_EQ(aty[1], 3.0);
  EXPECT_DOUBLE_EQ(aty[2], 3.0);
}

TEST(Matrix, SolveSpdRecoversSolution) {
  // A = M^T M + I is SPD for any M.
  Matrix m(4, 3);
  double v = 0.3;
  for (auto& x : m.data()) {
    x = std::sin(v);
    v += 0.7;
  }
  Matrix a = m.gram();
  a.add_diagonal(1.0);
  const std::vector<double> truth = {1.5, -2.0, 0.25};
  const auto b = a.times(truth);
  const auto solved = a.solve_spd(b);
  ASSERT_EQ(solved.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(solved[i], truth[i], 1e-9);
}

TEST(Matrix, SolveSpdFailsGracefullyOnIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // not positive definite
  EXPECT_TRUE(a.solve_spd(std::vector<double>{1.0, 1.0}).empty());
}

TEST(Matrix, TraceInverseMatchesDirectInverse) {
  // Diagonal SPD: trace(A^-1) is the sum of reciprocal diagonal entries.
  Matrix a(3, 3);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(2, 2) = 5.0;
  EXPECT_NEAR(a.trace_inverse_spd(), 0.5 + 0.25 + 0.2, 1e-12);

  // Non-diagonal check against a hand-inverted 2x2.
  Matrix b(2, 2);
  b(0, 0) = 4.0; b(0, 1) = 1.0;
  b(1, 0) = 1.0; b(1, 1) = 3.0;
  // inverse = 1/11 * [3 -1; -1 4]; trace = 7/11
  EXPECT_NEAR(b.trace_inverse_spd(), 7.0 / 11.0, 1e-12);
}

TEST(Matrix, IdentityBehaves) {
  const auto eye = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 2), 0.0);
  EXPECT_NEAR(eye.trace_inverse_spd(), 3.0, 1e-12);
}

// --- Cholesky/solve edge cases (the Levenberg-Marquardt failure paths) ----

TEST(Matrix, SolveSpdOneByOne) {
  Matrix a(1, 1);
  a(0, 0) = 4.0;
  const auto x = a.solve_spd(std::vector<double>{2.0});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_NEAR(a.trace_inverse_spd(), 0.25, 1e-15);

  a(0, 0) = -4.0;
  EXPECT_TRUE(a.solve_spd(std::vector<double>{2.0}).empty());
  EXPECT_DOUBLE_EQ(a.trace_inverse_spd(), -1.0);
}

TEST(Matrix, SolveSpdRejectsSingularMatrix) {
  // Rank-1: row 2 = 2 * row 1. Cholesky must fail, not divide by zero.
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_TRUE(a.solve_spd(std::vector<double>{1.0, 2.0}).empty());
  EXPECT_DOUBLE_EQ(a.trace_inverse_spd(), -1.0);

  // All-zero matrix (LM's J^T J before any damping when J is zero).
  Matrix z(3, 3);
  EXPECT_TRUE(z.solve_spd(std::vector<double>{1.0, 1.0, 1.0}).empty());
}

TEST(Matrix, SolveSpdRejectsNonPsdWithPositiveDiagonal) {
  // Positive diagonal but indefinite: the failure only shows up once the
  // off-diagonal elimination drives a pivot negative (s <= 0 mid-sweep).
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 5.0;
  a(1, 0) = 5.0; a(1, 1) = 1.0;  // eigenvalues 6 and -4
  EXPECT_TRUE(a.solve_spd(std::vector<double>{1.0, 1.0}).empty());
}

TEST(Matrix, SolveSpdRejectsNonFiniteInput) {
  Matrix a(2, 2);
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  a(1, 1) = 1.0;
  EXPECT_TRUE(a.solve_spd(std::vector<double>{1.0, 1.0}).empty());

  a(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(a.solve_spd(std::vector<double>{1.0, 1.0}).empty());
}

TEST(Matrix, SolveSpdRejectsShapeMismatch) {
  Matrix rect(2, 3, 1.0);
  EXPECT_TRUE(rect.solve_spd(std::vector<double>{1.0, 1.0}).empty());

  Matrix a = Matrix::identity(3);
  EXPECT_TRUE(a.solve_spd(std::vector<double>{1.0, 1.0}).empty());  // b too short
  EXPECT_TRUE(a.solve_spd(std::vector<double>(4, 1.0)).empty());    // b too long
}

TEST(Matrix, SolveSpdNearSingularStaysFinite) {
  // Tiny but strictly positive pivot: must solve, and stay finite (UBSan
  // watches the divides here under the asan preset).
  Matrix a(2, 2);
  a(0, 0) = 1e-12; a(1, 1) = 1.0;
  const auto x = a.solve_spd(std::vector<double>{1e-12, 2.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, EmptyMatrixEdges) {
  Matrix empty;
  EXPECT_EQ(empty.rows(), 0u);
  const auto x = empty.solve_spd(std::vector<double>{});
  EXPECT_TRUE(x.empty());
  EXPECT_DOUBLE_EQ(empty.trace_inverse_spd(), 0.0);  // vacuous sum
}

// --- Bit parity with the plain scalar loops --------------------------------
//
// The reference functions are the plain scalar loops that define what each
// Matrix kernel computes; the kernels only compute independent elements side
// by side (register tiles, lockstep lanes). Every kernel must reproduce them
// bit for bit (memcmp, so -0.0 vs +0.0 and NaN payloads count), on shapes
// that are not multiples of any tile or lane width.

namespace reference {

Matrix gram(const Matrix& x) {
  const std::size_t rows = x.rows();
  const std::size_t n = x.cols();
  Matrix out(n, n);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = x.row(r);
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = row[i];
      for (std::size_t j = i; j < n; ++j) out(i, j) += xi * row[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

/// Returns the row count on success, else the row whose pivot failed.
std::size_t cholesky(const Matrix& a, Matrix& lower) {
  const std::size_t n = a.rows();
  lower = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= lower(i, k) * lower(j, k);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return i;
        lower(i, i) = std::sqrt(s);
      } else {
        lower(i, j) = s / lower(j, j);
      }
    }
  }
  return n;
}

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b) {
  Matrix lower;
  if (cholesky(a, lower) != a.rows()) return {};
  const std::size_t n = a.rows();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= lower(i, k) * y[k];
    y[i] = s / lower(i, i);
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= lower(k, ii) * x[k];
    x[ii] = s / lower(ii, ii);
  }
  return x;
}

double trace_inverse_spd(const Matrix& a) {
  Matrix lower;
  if (cholesky(a, lower) != a.rows()) return -1.0;
  const std::size_t n = a.rows();
  double trace = 0.0;
  std::vector<double> col(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = i == j ? 1.0 : 0.0;
      for (std::size_t k = (i == 0 ? 0 : j); k < i; ++k) s -= lower(i, k) * col[k];
      col[i] = i >= j ? s / lower(i, i) : 0.0;
    }
    for (std::size_t i = j; i < n; ++i) trace += col[i] * col[i];
  }
  return trace;
}

}  // namespace reference

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// A Jacobian-like matrix: uniform entries with signed zeros and subnormals
/// mixed in, so the parity checks also cover sums of those.
Matrix jacobian_like(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix x(rows, cols);
  Rng rng(seed);
  std::size_t k = 0;
  for (auto& v : x.data()) {
    ++k;
    if (k % 11 == 0) {
      v = -0.0;
    } else if (k % 13 == 0) {
      v = 0.0;
    } else if (k % 17 == 0) {
      v = std::numeric_limits<double>::denorm_min() * static_cast<double>(k);
    } else {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  return x;
}

/// The trainer's system matrix: beta * J^T J + shift * I.
Matrix damped_system(const Matrix& jac, double beta, double shift) {
  Matrix a = reference::gram(jac);
  for (auto& v : a.data()) v *= beta;
  a.add_diagonal(shift);
  return a;
}

struct Shape {
  std::size_t rows;
  std::size_t cols;
};
// 220 x 163 is the Jacobian of the [6 -> 14 -> 4 -> 1] surrogate on the
// benchmark's 220-sample training set; 60 x 163 is rank-deficient.
const Shape kShapes[] = {{1, 1}, {3, 2}, {5, 9}, {60, 163}, {220, 163}};

TEST(MatrixKernels, GramIsBitIdenticalToTheScalarLoop) {
  for (const auto& shape : kShapes) {
    const auto x = jacobian_like(shape.rows, shape.cols, 31 + shape.cols);
    EXPECT_TRUE(same_bits(x.gram().data(), reference::gram(x).data()))
        << shape.rows << " x " << shape.cols;
  }
}

TEST(MatrixKernels, CholeskyFactorIsBitIdenticalToTheScalarLoop) {
  for (const auto& shape : kShapes) {
    const auto a = damped_system(jacobian_like(shape.rows, shape.cols, 7), 0.75, 0.013);
    Matrix expected;
    ASSERT_EQ(reference::cholesky(a, expected), a.rows());
    const std::size_t n = a.rows();
    std::vector<double> lower(n * n, 0.0);
    std::vector<double> panel;
    ASSERT_EQ(kernels::cholesky(a.data().data(), n, lower.data(), panel), n);
    EXPECT_TRUE(same_bits(lower, expected.data())) << n << " x " << n;
  }
}

TEST(MatrixKernels, SolveAndTraceAreBitIdenticalToTheScalarLoops) {
  for (const auto& shape : kShapes) {
    const auto a = damped_system(jacobian_like(shape.rows, shape.cols, 11), 1.25, 0.4);
    std::vector<double> b(a.rows());
    Rng rng(5);
    for (auto& v : b) v = rng.uniform(-2.0, 2.0);
    const auto x = a.solve_spd(b);
    ASSERT_EQ(x.size(), a.rows());
    EXPECT_TRUE(same_bits(x, reference::solve_spd(a, b))) << a.rows();
    EXPECT_TRUE(same_bits(a.trace_inverse_spd(), reference::trace_inverse_spd(a))) << a.rows();
  }
}

TEST(MatrixKernels, NonSpdInputFailsAtTheSamePivot) {
  // Each case breaks an SPD matrix at row q (in and across lane blocks):
  // a non-positive pivot, or a NaN / infinity reaching the pivot through an
  // off-diagonal entry. The kernel must give up at q exactly as the scalar
  // loop does, and the public calls must report failure.
  const auto spd = damped_system(jacobian_like(40, 29, 3), 1.0, 0.5);
  const std::size_t n = spd.rows();
  for (const std::size_t q : {std::size_t{0}, std::size_t{5}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{16}, std::size_t{28}}) {
    for (int breakage = 0; breakage < 3; ++breakage) {
      Matrix a = spd;
      if (breakage == 0) {
        a(q, q) = -a(q, q);
      } else {
        const std::size_t c = q == 0 ? 0 : q / 2;  // off-diagonal below the pivot
        a(q, c) = breakage == 1 ? std::numeric_limits<double>::quiet_NaN()
                                : std::numeric_limits<double>::infinity();
        a(c, q) = a(q, c);
      }
      Matrix expected;
      const std::size_t pivot = reference::cholesky(a, expected);
      ASSERT_EQ(pivot, q) << "breakage " << breakage;
      std::vector<double> lower(n * n, 0.0);
      std::vector<double> panel;
      EXPECT_EQ(kernels::cholesky(a.data().data(), n, lower.data(), panel), pivot)
          << "q " << q << " breakage " << breakage;
      EXPECT_TRUE(a.solve_spd(std::vector<double>(n, 1.0)).empty());
      EXPECT_TRUE(same_bits(a.trace_inverse_spd(), -1.0));
    }
  }
}

}  // namespace
}  // namespace rafiki::ml
