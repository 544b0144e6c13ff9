// Every compiled ISA variant of every dispatched ml kernel, checked bit for
// bit against the scalar loop it must reproduce. Production code runs only
// the host's best variant, so without these tests an AVX-512 machine would
// never execute the AVX2 paths (and vice versa). A variant the CPU cannot
// run is skipped.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "ml/activation.h"
#include "ml/kernels.h"
#include "util/rng.h"

namespace rafiki::ml {
namespace {

using kernels::Isa;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> uniform(std::size_t n, double lo, double hi, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

class KernelVariant : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!kernels::isa_supported(GetParam())) GTEST_SKIP() << "CPU lacks this ISA";
  }
};

TEST_P(KernelVariant, FastTanhBlockMatchesScalarFastTanh) {
  // Lengths straddle every vector width (tails included); the values cover
  // the clamp at |2x| = 44, infinities, signed zeros and subnormals.
  auto values = uniform(203, -25.0, 25.0, 17);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             22.0,
                             -22.0,
                             1e300,
                             -1e300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < std::size(specials); ++i) values[i * 19] = specials[i];
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{13},
                              values.size()}) {
    std::vector<double> expected(values.begin(), values.begin() + static_cast<long>(n));
    for (auto& x : expected) x = fast_tanh(x);
    std::vector<double> got(values.begin(), values.begin() + static_cast<long>(n));
    kernels::fast_tanh_block_isa(GetParam(), got.data(), n);
    EXPECT_TRUE(same_bits(got, expected)) << "n " << n;
  }
}

TEST_P(KernelVariant, LayerAffineBlockMatchesScalarAccumulation) {
  struct Case {
    std::size_t n, in_dim, out_dim;
  };
  for (const auto& c : {Case{1, 6, 14}, Case{7, 14, 4}, Case{33, 4, 1}, Case{64, 6, 14}}) {
    const auto in_t = uniform(c.in_dim * c.n, -1.0, 1.0, 3 + c.n);
    const auto w = uniform(c.out_dim * c.in_dim, -0.8, 0.8, 5 + c.n);
    const auto bias = uniform(c.out_dim, -0.1, 0.1, 7 + c.n);
    // Bias first, then inputs in ascending index: Mlp::forward's order.
    std::vector<double> expected(c.out_dim * c.n);
    for (std::size_t o = 0; o < c.out_dim; ++o) {
      for (std::size_t r = 0; r < c.n; ++r) {
        double s = bias[o];
        for (std::size_t i = 0; i < c.in_dim; ++i) s += w[o * c.in_dim + i] * in_t[i * c.n + r];
        expected[o * c.n + r] = s;
      }
    }
    std::vector<double> got(expected.size());
    kernels::layer_affine_block_isa(GetParam(), in_t.data(), c.n, c.in_dim, w.data(),
                                    bias.data(), got.data(), c.out_dim);
    EXPECT_TRUE(same_bits(got, expected)) << c.n << " x " << c.in_dim << " -> " << c.out_dim;
  }
}

TEST_P(KernelVariant, GramMatchesScalarRankOneUpdates) {
  struct Case {
    std::size_t rows, cols;
  };
  for (const auto& c : {Case{1, 1}, Case{3, 2}, Case{5, 9}, Case{4, 8}, Case{17, 31},
                        Case{60, 163}, Case{220, 163}}) {
    auto x = uniform(c.rows * c.cols, -1.0, 1.0, c.rows * 1000 + c.cols);
    for (std::size_t k = 0; k < x.size(); k += 7) x[k] = k % 2 ? -0.0 : 0.0;
    // Element (i, j) starts at 0.0 and adds x(r, i) * x(r, j), r ascending.
    std::vector<double> expected(c.cols * c.cols, 0.0);
    for (std::size_t r = 0; r < c.rows; ++r) {
      for (std::size_t i = 0; i < c.cols; ++i) {
        for (std::size_t j = i; j < c.cols; ++j) {
          expected[i * c.cols + j] += x[r * c.cols + i] * x[r * c.cols + j];
        }
      }
    }
    for (std::size_t i = 0; i < c.cols; ++i) {
      for (std::size_t j = 0; j < i; ++j) expected[i * c.cols + j] = expected[j * c.cols + i];
    }
    std::vector<double> got(expected.size(), std::numeric_limits<double>::quiet_NaN());
    kernels::gram_isa(GetParam(), x.data(), c.rows, c.cols, got.data());
    EXPECT_TRUE(same_bits(got, expected)) << c.rows << " x " << c.cols;
  }
}

#if defined(__linux__)
TEST_P(KernelVariant, GramReadsNothingPastTheMatrix) {
  // The matrix ends right before an unreadable page, so any read past its
  // last element faults instead of passing unnoticed.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  for (const std::size_t rows : {std::size_t{1}, std::size_t{64}}) {
    for (const std::size_t cols : {std::size_t{8}, std::size_t{13}, std::size_t{163}}) {
      const std::size_t bytes = rows * cols * sizeof(double);
      const std::size_t span = (bytes + page - 1) / page * page;
      void* region = mmap(nullptr, span + page, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      ASSERT_NE(region, MAP_FAILED);
      char* base = static_cast<char*>(region);
      ASSERT_EQ(mprotect(base + span, page, PROT_NONE), 0);
      auto* x = reinterpret_cast<double*>(base + span - bytes);
      const auto values = uniform(rows * cols, -1.0, 1.0, rows * 1000 + cols);
      std::copy(values.begin(), values.end(), x);
      std::vector<double> got(cols * cols);
      std::vector<double> expected(cols * cols);
      kernels::gram_isa(GetParam(), x, rows, cols, got.data());
      kernels::gram_isa(Isa::kScalar, values.data(), rows, cols, expected.data());
      EXPECT_TRUE(same_bits(got, expected)) << rows << " x " << cols;
      munmap(region, span + page);
    }
  }
}
#endif

TEST_P(KernelVariant, FastTanhBlockKeepsNaNAndClampsInfinityInEveryLane) {
  // The SIMD clamp must not turn NaN into a bound: a NaN in any lane of a
  // full vector, or in the scalar tail, comes out NaN like scalar fast_tanh,
  // and +-inf clamp to exactly the scalar +-1. Every other lane keeps its
  // bits. Length 19 covers two AVX-512 vectors plus a 3-element tail.
  constexpr std::size_t kLen = 19;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(std::isnan(fast_tanh(nan)));
  const auto base = uniform(kLen, -3.0, 3.0, 29);
  for (const double special : {nan, inf, -inf}) {
    for (std::size_t lane = 0; lane < kLen; ++lane) {
      std::vector<double> expected = base;
      expected[lane] = special;
      for (auto& x : expected) x = fast_tanh(x);
      std::vector<double> got = base;
      got[lane] = special;
      kernels::fast_tanh_block_isa(GetParam(), got.data(), kLen);
      for (std::size_t i = 0; i < kLen; ++i) {
        if (std::isnan(expected[i])) {
          EXPECT_TRUE(std::isnan(got[i])) << "lane " << lane << " element " << i;
        } else {
          EXPECT_EQ(std::memcmp(&got[i], &expected[i], sizeof(double)), 0)
              << special << " in lane " << lane << ", element " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, KernelVariant,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2, Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& pinfo) -> std::string {
                           switch (pinfo.param) {
                             case Isa::kAvx2:
                               return "avx2";
                             case Isa::kAvx512:
                               return "avx512";
                             case Isa::kScalar:
                               break;
                           }
                           return "scalar";
                         });

}  // namespace
}  // namespace rafiki::ml
