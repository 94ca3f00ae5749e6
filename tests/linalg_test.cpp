#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/hermitian.hpp"
#include "util/rng.hpp"

namespace cumf::linalg {
namespace {

std::vector<real_t> random_columns(int bin, int f, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<real_t> cols(static_cast<std::size_t>(bin) * f);
  for (auto& v : cols) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  return cols;
}

// ---------------------------------------------------- hermitian kernels ----

// Double-precision reference of hermitian_row over `n` contiguous columns:
// A = seed + Σ wa_k·θθᵀ + diag·I, B = Σ wb_k·θ (weights default to 1 / 0).
void reference_row(const std::vector<real_t>& cols, std::size_t n, int f,
                   const real_t* wa, const real_t* wb, double diag,
                   std::vector<double>& A, std::vector<double>& B) {
  A.assign(static_cast<std::size_t>(f) * f, 0.0);
  B.assign(static_cast<std::size_t>(f), 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const real_t* t = cols.data() + k * static_cast<std::size_t>(f);
    const double a = wa ? wa[k] : 1.0;
    for (int i = 0; i < f; ++i) {
      for (int j = 0; j < f; ++j) {
        A[static_cast<std::size_t>(i) * f + j] +=
            a * static_cast<double>(t[i]) * t[j];
      }
      if (wb) B[static_cast<std::size_t>(i)] += static_cast<double>(wb[k]) * t[i];
    }
  }
  for (int i = 0; i < f; ++i) A[static_cast<std::size_t>(i) * f + i] += diag;
}

class HermitianKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(HermitianKernelTest, MatchesDoubleReference) {
  // Column counts cover empty rows, the scalar tail alone (1, 3), whole
  // 4-column passes (4, 8) and passes plus a tail (5, 30).
  const int f = GetParam();
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 30u}) {
    const auto cols = random_columns(static_cast<int>(n), f, 100 + static_cast<unsigned>(f));
    const auto wb = random_columns(static_cast<int>(n), 1, 200 + n);
    const WeightedColumns c{cols.data(), nullptr, nullptr, wb.data(), n};
    std::vector<real_t> A(static_cast<std::size_t>(f) * f, -7.0f);
    std::vector<real_t> B(static_cast<std::size_t>(f), -7.0f);
    std::vector<real_t> sa(A.size()), sb(B.size());
    hermitian_row(c, nullptr, 0.25f, f, sa.data(), sb.data(), A.data(),
                  B.data(), /*accumulate=*/false);
    std::vector<double> refA, refB;
    reference_row(cols, n, f, nullptr, wb.data(), 0.25, refA, refB);
    for (std::size_t i = 0; i < A.size(); ++i) {
      EXPECT_NEAR(A[i], refA[i], 1e-5 * static_cast<double>(n + 1))
          << "f=" << f << " n=" << n << " idx=" << i;
    }
    for (std::size_t i = 0; i < B.size(); ++i) {
      EXPECT_NEAR(B[i], refB[i], 1e-5 * static_cast<double>(n + 1))
          << "f=" << f << " n=" << n << " idx=" << i;
    }
  }
}

TEST_P(HermitianKernelTest, ResultIsExactlySymmetric) {
  const int f = GetParam();
  const std::size_t n = 21;
  const auto cols = random_columns(static_cast<int>(n), f, 555);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f);
  std::vector<real_t> B(static_cast<std::size_t>(f));
  std::vector<real_t> sa(A.size()), sb(B.size());
  hermitian_row({cols.data(), nullptr, nullptr, nullptr, n}, nullptr, 0.0f, f,
                sa.data(), sb.data(), A.data(), B.data(), false);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      EXPECT_EQ(A[static_cast<std::size_t>(i) * f + j],
                A[static_cast<std::size_t>(j) * f + i]);
    }
  }
}

TEST_P(HermitianKernelTest, DiagonalIsSumOfSquares) {
  const int f = GetParam();
  const std::size_t n = 7;
  const auto cols = random_columns(static_cast<int>(n), f, 777);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  accumulate_upper(A.data(), nullptr,
                   {cols.data(), nullptr, nullptr, nullptr, n}, f);
  for (int i = 0; i < f; ++i) {
    double expect = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const real_t v = cols[k * static_cast<std::size_t>(f) + static_cast<std::size_t>(i)];
      expect += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + i], expect, 1e-4);
  }
}

TEST_P(HermitianKernelTest, LeavesStrictLowerTriangleAlone) {
  const int f = GetParam();
  const std::size_t n = 6;
  const auto cols = random_columns(static_cast<int>(n), f, 888);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < i; ++j) A[static_cast<std::size_t>(i) * f + j] = 42.0f;
  }
  accumulate_upper(A.data(), nullptr,
                   {cols.data(), nullptr, nullptr, nullptr, n}, f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < i; ++j) {
      EXPECT_EQ(A[static_cast<std::size_t>(i) * f + j], 42.0f);
    }
  }
}

TEST_P(HermitianKernelTest, WeightsIndicesSeedAndAccumulate) {
  // Gathered columns (out of order, via indices) with per-column A and B
  // weights, a symmetric seed, and accumulate=true on top of existing output.
  const int f = GetParam();
  const std::size_t n = 11;
  const std::size_t pool = 17;
  const auto theta = random_columns(static_cast<int>(pool), f, 999);
  const std::vector<idx_t> idx = {16, 3, 0, 9, 4, 11, 2, 15, 7, 1, 13};
  const auto wa = random_columns(static_cast<int>(n), 1, 1001);
  const auto wb = random_columns(static_cast<int>(n), 1, 1002);
  std::vector<real_t> gathered(n * static_cast<std::size_t>(f));
  for (std::size_t k = 0; k < n; ++k) {
    std::copy_n(theta.data() + static_cast<std::size_t>(idx[k]) * f, f,
                gathered.data() + k * static_cast<std::size_t>(f));
  }
  // Symmetric seed S and pre-existing output O.
  const auto m = random_columns(f, f, 1003);
  std::vector<real_t> seed(static_cast<std::size_t>(f) * f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      seed[static_cast<std::size_t>(i) * f + j] =
          m[static_cast<std::size_t>(i) * f + j] + m[static_cast<std::size_t>(j) * f + i];
    }
  }
  const auto a0 = random_columns(f, f, 1004);
  const auto b0 = random_columns(1, f, 1005);
  std::vector<real_t> A(a0), B(b0);
  std::vector<real_t> sa(A.size()), sb(B.size());
  hermitian_row({theta.data(), idx.data(), wa.data(), wb.data(), n},
                seed.data(), 0.5f, f, sa.data(), sb.data(), A.data(), B.data(),
                /*accumulate=*/true);

  std::vector<double> refA, refB;
  reference_row(gathered, n, f, wa.data(), wb.data(), 0.5, refA, refB);
  for (std::size_t i = 0; i < A.size(); ++i) {
    EXPECT_NEAR(A[i], a0[i] + seed[i] + refA[i], 1e-4) << "f=" << f << " idx=" << i;
  }
  for (std::size_t i = 0; i < B.size(); ++i) {
    EXPECT_NEAR(B[i], b0[i] + refB[i], 1e-4) << "f=" << f << " idx=" << i;
  }
}

// f values straddle the SIMD width (4): below, at, above, non-multiples,
// and the paper's f=100.
INSTANTIATE_TEST_SUITE_P(FeatureDims, HermitianKernelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 32, 64,
                                           100));

TEST(Hermitian, SingleColumn) {
  const int f = 3;
  const real_t theta[3] = {1.0f, 2.0f, -1.0f};
  const real_t r = 2.0f;
  std::vector<real_t> A(9), B(3), sa(9), sb(3);
  hermitian_row({theta, nullptr, nullptr, &r, 1}, nullptr, 0.0f, f, sa.data(),
                sb.data(), A.data(), B.data(), false);
  const real_t expect[9] = {1, 2, -1, 2, 4, -2, -1, -2, 1};
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(A[static_cast<std::size_t>(i)], expect[i]);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(B[static_cast<std::size_t>(i)], 2.0f * theta[i]);
}

TEST(Hermitian, Dot) {
  const real_t x[4] = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(dot(x, x, 4), 30.0);
}

TEST(Hermitian, AddDiagonal) {
  std::vector<real_t> A(16, 1.0f);
  add_diagonal(A.data(), 0.5f, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(A[static_cast<std::size_t>(i) * 4 + j],
                      i == j ? 1.5f : 1.0f);
    }
  }
}

// ------------------------------------------------------------ cholesky -----

class CholeskyTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyTest, SolvesRandomSpdSystem) {
  const int f = GetParam();
  util::Rng rng(900 + static_cast<unsigned>(f));
  // Build A = M·Mᵀ + f·I (SPD by construction) and b = A·x_true.
  std::vector<real_t> M(static_cast<std::size_t>(f) * f);
  for (auto& v : M) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      double s = 0.0;
      for (int k = 0; k < f; ++k) {
        s += static_cast<double>(M[static_cast<std::size_t>(i) * f + k]) *
             M[static_cast<std::size_t>(j) * f + k];
      }
      A[static_cast<std::size_t>(i) * f + j] = static_cast<real_t>(s);
    }
  }
  add_diagonal(A.data(), static_cast<real_t>(f), f);

  std::vector<real_t> x_true(static_cast<std::size_t>(f));
  for (auto& v : x_true) v = static_cast<real_t>(rng.uniform(-2.0, 2.0));
  std::vector<real_t> b(static_cast<std::size_t>(f), 0.0f);
  for (int i = 0; i < f; ++i) {
    double s = 0.0;
    for (int j = 0; j < f; ++j) {
      s += static_cast<double>(A[static_cast<std::size_t>(i) * f + j]) * x_true[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = static_cast<real_t>(s);
  }

  const CholeskyResult res = solve_spd_inplace(A.data(), b.data(), f);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.clamped_pivots, 0);
  for (int i = 0; i < f; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 5e-3)
        << "f=" << f << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 100));

TEST(Cholesky, IdentityFactorsToIdentity) {
  const int f = 6;
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  add_diagonal(A.data(), 1.0f, f);
  const CholeskyResult res = cholesky_factor(A.data(), f);
  EXPECT_TRUE(res.ok);
  for (int i = 0; i < f; ++i) {
    EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + i], 1.0f, 1e-6f);
    for (int j = 0; j < i; ++j) {
      EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + j], 0.0f, 1e-6f);
    }
  }
}

TEST(Cholesky, SingularMatrixClampsPivots) {
  const int f = 4;
  std::vector<real_t> A(16, 0.0f);  // all-zero matrix: rank 0
  std::vector<real_t> b(4, 1.0f);
  const CholeskyResult res = solve_spd_inplace(A.data(), b.data(), f);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.clamped_pivots, f);
  for (const real_t v : b) EXPECT_TRUE(std::isfinite(v));
}

// ------------------------------------------------------------------ cg -----

class CgTest : public ::testing::TestWithParam<int> {};

TEST_P(CgTest, MatchesCholeskyOnSpdSystems) {
  const int f = GetParam();
  util::Rng rng(1300 + static_cast<unsigned>(f));
  // Well-conditioned SPD: M·Mᵀ + f·I (the shape ALS produces).
  std::vector<real_t> M(static_cast<std::size_t>(f) * f);
  for (auto& v : M) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      double s = (i == j) ? static_cast<double>(f) : 0.0;
      for (int k = 0; k < f; ++k) {
        s += static_cast<double>(M[static_cast<std::size_t>(i) * f + k]) *
             M[static_cast<std::size_t>(j) * f + k];
      }
      A[static_cast<std::size_t>(i) * f + j] = static_cast<real_t>(s);
    }
  }
  std::vector<real_t> b(static_cast<std::size_t>(f));
  for (auto& v : b) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));

  std::vector<real_t> a_chol(A), b_chol(b);
  solve_spd_inplace(a_chol.data(), b_chol.data(), f);

  std::vector<real_t> x(static_cast<std::size_t>(f), 0.0f);
  CgOptions opt;
  opt.max_iters = 4 * f;  // exact in at most f steps in exact arithmetic
  opt.tolerance = 1e-7;
  const CgResult res = cg_solve(A.data(), b.data(), x.data(), f, opt);
  EXPECT_TRUE(res.converged) << "residual " << res.residual;
  for (int i = 0; i < f; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], b_chol[static_cast<std::size_t>(i)], 2e-3)
        << "f=" << f << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgTest, ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(Cg, WarmStartAtSolutionConvergesInstantly) {
  const int f = 4;
  std::vector<real_t> A(16, 0.0f);
  add_diagonal(A.data(), 2.0f, f);
  const real_t b[4] = {2, 4, 6, 8};
  real_t x[4] = {1, 2, 3, 4};  // exactly A⁻¹b
  const CgResult res = cg_solve(A.data(), b, x, f);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_FLOAT_EQ(x[2], 3.0f);
}

TEST(Cg, ZeroRhsGivesZero) {
  const int f = 3;
  std::vector<real_t> A(9, 0.0f);
  add_diagonal(A.data(), 1.0f, f);
  const real_t b[3] = {0, 0, 0};
  real_t x[3] = {5, 5, 5};
  const CgResult res = cg_solve(A.data(), b, x, f);
  EXPECT_TRUE(res.converged);
  for (const real_t v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Cg, IterationCapRespected) {
  const int f = 32;
  util::Rng rng(77);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    // Wildly varying diagonal → poor conditioning → slow convergence.
    A[static_cast<std::size_t>(i) * f + i] = static_cast<real_t>(1 << (i % 12));
  }
  std::vector<real_t> b(static_cast<std::size_t>(f), 1.0f);
  std::vector<real_t> x(static_cast<std::size_t>(f), 0.0f);
  CgOptions opt;
  opt.max_iters = 3;
  opt.tolerance = 1e-12;
  const CgResult res = cg_solve(A.data(), b.data(), x.data(), f, opt);
  EXPECT_LE(res.iterations, 3);
}

// --------------------------------------------------------------- dense -----

TEST(FactorMatrix, ShapeAndInit) {
  util::Rng rng(3);
  FactorMatrix m(10, 8);
  EXPECT_EQ(m.rows(), 10);
  EXPECT_EQ(m.f(), 8);
  m.randomize(rng, 0.5f);
  for (const real_t v : m.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 0.5f);
  }
  EXPECT_EQ(m.footprint_bytes(), 10u * 8u * sizeof(real_t));
}

TEST(FactorMatrix, RowAccess) {
  FactorMatrix m(3, 2);
  m.row(1)[0] = 7.0f;
  m.row(1)[1] = 8.0f;
  EXPECT_FLOAT_EQ(m.data()[2], 7.0f);
  EXPECT_FLOAT_EQ(m.data()[3], 8.0f);
}

TEST(FactorMatrix, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/cumf_factors.bin";
  util::Rng rng(5);
  FactorMatrix m(37, 13);
  m.randomize(rng);
  save_factors(path, m);
  const FactorMatrix back = load_factors(path);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.f(), m.f());
  EXPECT_EQ(back.data(), m.data());
  std::remove(path.c_str());
}

TEST(FactorMatrix, FrobeniusNorm) {
  FactorMatrix m(2, 2);
  m.row(0)[0] = 3.0f;
  m.row(1)[1] = 4.0f;
  EXPECT_NEAR(m.frobenius_norm(), 5.0, 1e-9);
}

}  // namespace
}  // namespace cumf::linalg
