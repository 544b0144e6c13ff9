#include "ml/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.h"

namespace rafiki::ml {
namespace {

using kernels::Isa;

// Gram register tile: kTileI output rows by kTileJ output columns, held in
// accumulators across one pass over every row of x. Each accumulator is one
// output element's running sum, so the tile only changes which elements are
// computed side by side, never the order of any element's additions.
constexpr std::size_t kTileI = 4;
constexpr std::size_t kTileJ = 8;

__attribute__((always_inline)) inline void gram_tile(const double* x, std::size_t rows,
                                                     std::size_t cols, std::size_t i0,
                                                     std::size_t j0, double* out) {
  double acc[kTileI][kTileJ] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * cols;
    for (std::size_t a = 0; a < kTileI; ++a) {
      const double xi = xr[i0 + a];
      for (std::size_t b = 0; b < kTileJ; ++b) acc[a][b] += xi * xr[j0 + b];
    }
  }
  for (std::size_t a = 0; a < kTileI; ++a) {
    for (std::size_t b = 0; b < kTileJ; ++b) {
      const std::size_t i = i0 + a;
      const std::size_t j = j0 + b;
      if (j < i) continue;  // below the diagonal: written by the mirror
      out[i * cols + j] = acc[a][b];
      out[j * cols + i] = acc[a][b];
    }
  }
}

// Tiles cover the upper triangle; the last row block and the last tile of
// each row are shifted back to end at the matrix edge, so no tile reads
// past it. Elements in the overlap are computed twice, identically.
__attribute__((always_inline)) inline void gram_body(const double* x, std::size_t rows,
                                                     std::size_t cols, double* out) {
  if (cols < kTileJ) {
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = i; j < cols; ++j) {
        double s = 0.0;
        for (std::size_t r = 0; r < rows; ++r) s += x[r * cols + i] * x[r * cols + j];
        out[i * cols + j] = s;
        out[j * cols + i] = s;
      }
    }
    return;
  }
  for (std::size_t i0 = 0; i0 < cols; i0 += kTileI) {
    const std::size_t ti = std::min(i0, cols - kTileI);
    for (std::size_t j0 = std::min(ti, cols - kTileJ);; j0 += kTileJ) {
      const std::size_t tj = std::min(j0, cols - kTileJ);
      gram_tile(x, rows, cols, ti, tj, out);
      if (tj + kTileJ >= cols) break;
    }
  }
}

#if RAFIKI_X86_DISPATCH
__attribute__((target("avx2")))
void gram_avx2(const double* x, std::size_t rows, std::size_t cols, double* out) {
  gram_body(x, rows, cols, out);
}

// The row loop stays a loop: vectorized across rows it read one row past
// the end of x (a fault when x ends at an unmapped page, as a large
// Jacobian's own allocation can) and ran slower than the tile's own vectors.
__attribute__((target("avx512f"), optimize("no-tree-loop-vectorize")))
void gram_avx512(const double* x, std::size_t rows, std::size_t cols, double* out) {
  gram_body(x, rows, cols, out);
}
#endif

// Rows (Cholesky) or columns (trace of the inverse) computed in lockstep:
// kLanes lanes, one row or column each, every lane its own sequential sum.
// A Lanes value is kPairs two-wide vectors, the width every x86-64 and
// AArch64 target holds in one register (a wider generic vector would be
// lowered through memory); lane-wise vector arithmetic is element-wise IEEE
// arithmetic.
constexpr std::size_t kLanes = 8;
constexpr std::size_t kPairs = kLanes / 2;
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

struct Lanes {
  Pair v[kPairs];

  static Lanes load(const double* p) {
    Lanes out;
    for (std::size_t q = 0; q < kPairs; ++q) out.v[q] = Pair{p[2 * q], p[2 * q + 1]};
    return out;
  }
  void store(double* p) const {
    for (std::size_t q = 0; q < kPairs; ++q) {
      p[2 * q] = v[q][0];
      p[2 * q + 1] = v[q][1];
    }
  }
  /// this -= a * b, lane by lane (the product rounded, then the difference).
  void sub_product(const Lanes& a, double b) {
    for (std::size_t q = 0; q < kPairs; ++q) v[q] -= a.v[q] * b;
  }
  void divide(double d) {
    for (std::size_t q = 0; q < kPairs; ++q) v[q] /= d;
  }
};

}  // namespace

namespace kernels {

void gram_isa(Isa isa, const double* x, std::size_t rows, std::size_t cols,
              double* out) noexcept {
#if RAFIKI_X86_DISPATCH
  if (isa == Isa::kAvx512) {
    gram_avx512(x, rows, cols, out);
    return;
  }
  if (isa == Isa::kAvx2) {
    gram_avx2(x, rows, cols, out);
    return;
  }
#endif
  (void)isa;
  gram_body(x, rows, cols, out);
}

void gram(const double* x, std::size_t rows, std::size_t cols, double* out) noexcept {
  static const Isa isa = detect_isa();
  gram_isa(isa, x, rows, cols, out);
}

std::size_t cholesky(const double* a, std::size_t n, double* lower,
                     std::vector<double>& panel) {
  // Rows are factored kLanes at a time. Phase 1 runs the block's rows in
  // lockstep over the columns left of the block: panel holds the block's
  // finished entries column-major (panel[k * kLanes + l] = L(i0 + l, k)), so
  // each step of the k loop is one kLanes-wide multiply and subtract. For
  // the block's own columns the same loop takes every sum as far as column
  // i0 and parks it in `partial`; phase 2 finishes the triangle inside the
  // block in the scalar loop's order, pivot by pivot.
  panel.resize(n * kLanes);
  double partial[kLanes][kLanes] = {};
  for (std::size_t i0 = 0; i0 < n; i0 += kLanes) {
    const std::size_t m = std::min(kLanes, n - i0);
    for (std::size_t j = 0; j < i0 + m; ++j) {
      double column[kLanes] = {};
      for (std::size_t l = 0; l < m; ++l) column[l] = a[(i0 + l) * n + j];
      Lanes s = Lanes::load(column);
      const double* lj = lower + j * n;
      const std::size_t k_end = std::min(j, i0);
      for (std::size_t k = 0; k < k_end; ++k) {
        s.sub_product(Lanes::load(panel.data() + k * kLanes), lj[k]);
      }
      if (j >= i0) {
        s.store(partial[j - i0]);
        continue;
      }
      s.divide(lj[j]);
      double* pj = panel.data() + j * kLanes;
      s.store(pj);
      for (std::size_t l = 0; l < m; ++l) lower[(i0 + l) * n + j] = pj[l];
    }
    for (std::size_t l = 0; l < m; ++l) {
      const std::size_t i = i0 + l;
      double* li = lower + i * n;
      for (std::size_t j = i0; j <= i; ++j) {
        double s = partial[j - i0][l];
        const double* lj = lower + j * n;
        for (std::size_t k = i0; k < j; ++k) s -= li[k] * lj[k];
        if (j == i) {
          if (s <= 0.0 || !std::isfinite(s)) return i;
          li[i] = std::sqrt(s);
        } else {
          li[j] = s / lj[j];
        }
      }
    }
  }
  return n;
}

void cholesky_solve(const double* lower, std::size_t n, const double* b, double* y,
                    double* x) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= lower[i * n + k] * y[k];
    y[i] = s / lower[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= lower[k * n + ii] * x[k];
    x[ii] = s / lower[ii * n + ii];
  }
}

double cholesky_trace_inverse(const double* lower, std::size_t n, std::vector<double>& work) {
  // kLanes columns of L^-1 are solved in lockstep, lane l holding column
  // j = j0 + l (work[(i - j0) * kLanes + l] = row i). Every lane runs k from
  // j0, not from its own j: its entries above row j are exactly +0.0 and L
  // is finite after a successful factorization, so those extra steps
  // subtract +-0.0 from a +0.0 (or the diagonal's 1.0) and leave it
  // unchanged; the terms that follow are the scalar solve's, in its order.
  work.resize(n * kLanes);
  double trace = 0.0;
  for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
    for (std::size_t i = j0; i < n; ++i) {
      double unit[kLanes] = {};
      if (i - j0 < kLanes) unit[i - j0] = 1.0;
      Lanes s = Lanes::load(unit);
      const double* li = lower + i * n;
      for (std::size_t k = j0; k < i; ++k) {
        s.sub_product(Lanes::load(work.data() + (k - j0) * kLanes), li[k]);
      }
      s.divide(li[i]);
      s.store(work.data() + (i - j0) * kLanes);
    }
    const std::size_t m = std::min(kLanes, n - j0);
    for (std::size_t l = 0; l < m; ++l) {
      for (std::size_t i = j0 + l; i < n; ++i) {
        const double c = work[(i - j0) * kLanes + l];
        trace += c * c;
      }
    }
  }
  return trace;
}

}  // namespace kernels

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  if (cols_ != other.rows_) throw std::invalid_argument("Matrix::multiply: shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix out(cols_, cols_);
  kernels::gram(data_.data(), rows_, cols_, out.data_.data());
  return out;
}

std::vector<double> Matrix::transpose_times(std::span<const double> v) const {
  if (v.size() != rows_) throw std::invalid_argument("Matrix::transpose_times: shape");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto x = row(r);
    if (v[r] == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) out[c] += x[c] * v[r];
  }
  return out;
}

std::vector<double> Matrix::times(std::span<const double> v) const {
  if (v.size() != cols_) throw std::invalid_argument("Matrix::times: shape");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto x = row(r);
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += x[c] * v[c];
    out[r] = s;
  }
  return out;
}

Matrix& Matrix::add_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
  return *this;
}

bool Matrix::cholesky(Matrix& lower) const {
  if (rows_ != cols_) return false;
  lower = Matrix(rows_, rows_);
  std::vector<double> panel;
  return kernels::cholesky(data_.data(), rows_, lower.data_.data(), panel) == rows_;
}

std::vector<double> Matrix::solve_spd(std::span<const double> b) const {
  Matrix lower;
  if (b.size() != rows_ || !cholesky(lower)) return {};
  std::vector<double> y(rows_);
  std::vector<double> x(rows_);
  kernels::cholesky_solve(lower.data_.data(), rows_, b.data(), y.data(), x.data());
  return x;
}

double Matrix::trace_inverse_spd() const {
  Matrix lower;
  if (!cholesky(lower)) return -1.0;
  std::vector<double> work;
  return kernels::cholesky_trace_inverse(lower.data_.data(), rows_, work);
}

}  // namespace rafiki::ml
