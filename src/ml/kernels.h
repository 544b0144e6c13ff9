// Internal to src/ml (not a public header): the runtime ISA probe shared by
// the dispatched kernels, the dense kernels behind Matrix and the
// Levenberg-Marquardt trainer on raw row-major buffers, and per-ISA entry
// points that let tests run every compiled variant on any host that has it.
//
// Determinism contract: every kernel here performs, per output element, the
// exact operation sequence of the plain scalar loop described at its
// declaration — same starting value, terms added in the same order, each
// multiply and each add rounded separately. Speed comes only from computing
// independent elements side by side (register tiles, rows or columns in
// lockstep); no sum is reassociated and no multiply-add is fused. The files
// that hold these kernels are compiled with -ffp-contract=off
// (src/ml/CMakeLists.txt).
#pragma once

#include <cstddef>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define RAFIKI_X86_DISPATCH 1
#else
#define RAFIKI_X86_DISPATCH 0
#endif

namespace rafiki::ml::kernels {

enum class Isa { kScalar, kAvx2, kAvx512 };

/// The widest variant this CPU runs. Non-x86 builds always run the portable
/// bodies (kScalar).
inline Isa detect_isa() noexcept {
#if RAFIKI_X86_DISPATCH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

/// True if `isa`'s variants are compiled into this build and this CPU can
/// run them.
inline bool isa_supported(Isa isa) noexcept {
  const Isa best = detect_isa();
  return isa == Isa::kScalar || best == Isa::kAvx512 || best == isa;
}

/// out (cols x cols, every entry written) = x^T x for row-major x
/// (rows x cols). Element (i, j) starts at 0.0 and adds x(r, i) * x(r, j)
/// for r ascending; the lower triangle mirrors the upper one.
void gram(const double* x, std::size_t rows, std::size_t cols, double* out) noexcept;

/// Cholesky factor of the symmetric matrix whose lower triangle is `a`
/// (n x n, row-major): writes the lower triangle of L (a = L L^T) into
/// `lower` and leaves its strict upper triangle untouched. Row by row, each
/// L(i, j) starts from a(i, j) and subtracts L(i, k) * L(j, k) for k
/// ascending. Returns n on success, otherwise the first row whose pivot is
/// not positive and finite. `panel` is scratch, resized as needed.
std::size_t cholesky(const double* a, std::size_t n, double* lower,
                     std::vector<double>& panel);

/// Solves L L^T x = b given the factor from cholesky(); `y` is scratch of
/// n entries.
void cholesky_solve(const double* lower, std::size_t n, const double* b, double* y,
                    double* x) noexcept;

/// trace((L L^T)^-1) = the sum of squared entries of L^-1, from the factor
/// of cholesky(). Column j of L^-1 comes from a forward solve of L c = e_j;
/// the squares are summed column by column, rows ascending. `work` is
/// scratch, resized as needed.
double cholesky_trace_inverse(const double* lower, std::size_t n, std::vector<double>& work);

// One compiled variant each, for the parity tests; `isa` must satisfy
// isa_supported(). Production code calls the dispatching entry points.
void gram_isa(Isa isa, const double* x, std::size_t rows, std::size_t cols,
              double* out) noexcept;
void fast_tanh_block_isa(Isa isa, double* values, std::size_t n) noexcept;
void layer_affine_block_isa(Isa isa, const double* in_t, std::size_t n, std::size_t in_dim,
                            const double* w, const double* bias, double* out_t,
                            std::size_t out_dim) noexcept;

}  // namespace rafiki::ml::kernels
