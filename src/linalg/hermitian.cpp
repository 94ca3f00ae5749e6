#include "linalg/hermitian.hpp"

#include <cstring>

namespace cumf::linalg {

namespace {

// row[j] += a0·t0[j] + a1·t1[j] + a2·t2[j] + a3·t3[j] over n elements. The
// restrict qualifiers let the compiler vectorize without alias checks: row
// is the scratch accumulator, never one of the factor columns.
inline void axpy4(real_t* __restrict row, const real_t* __restrict t0,
                  const real_t* __restrict t1, const real_t* __restrict t2,
                  const real_t* __restrict t3, real_t a0, real_t a1, real_t a2,
                  real_t a3, int n) {
  for (int j = 0; j < n; ++j) {
    row[j] += a0 * t0[j] + a1 * t1[j] + a2 * t2[j] + a3 * t3[j];
  }
}

inline void axpy1(real_t* __restrict row, const real_t* __restrict t,
                  real_t a, int n) {
  for (int j = 0; j < n; ++j) row[j] += a * t[j];
}

}  // namespace

void accumulate_upper(real_t* A, real_t* B, const WeightedColumns& c, int f) {
  const auto column = [&](std::size_t k) {
    const std::size_t v = c.cols ? static_cast<std::size_t>(c.cols[k]) : k;
    return c.theta + v * static_cast<std::size_t>(f);
  };
  const auto a_weight = [&](std::size_t k) {
    return c.a_weight ? c.a_weight[k] : real_t{1};
  };

  std::size_t k = 0;
  for (; k + 4 <= c.n; k += 4) {
    const real_t* t0 = column(k);
    const real_t* t1 = column(k + 1);
    const real_t* t2 = column(k + 2);
    const real_t* t3 = column(k + 3);
    const real_t w0 = a_weight(k);
    const real_t w1 = a_weight(k + 1);
    const real_t w2 = a_weight(k + 2);
    const real_t w3 = a_weight(k + 3);
    for (int i = 0; i < f; ++i) {
      // Row i from column i on: the upper triangle.
      axpy4(A + static_cast<std::size_t>(i) * f + i, t0 + i, t1 + i, t2 + i,
            t3 + i, w0 * t0[i], w1 * t1[i], w2 * t2[i], w3 * t3[i], f - i);
    }
    if (c.b_weight) {
      axpy4(B, t0, t1, t2, t3, c.b_weight[k], c.b_weight[k + 1],
            c.b_weight[k + 2], c.b_weight[k + 3], f);
    }
  }
  for (; k < c.n; ++k) {
    const real_t* t = column(k);
    const real_t w = a_weight(k);
    for (int i = 0; i < f; ++i) {
      axpy1(A + static_cast<std::size_t>(i) * f + i, t + i, w * t[i], f - i);
    }
    if (c.b_weight) axpy1(B, t, c.b_weight[k], f);
  }
}

void mirror_upper(real_t* A, int f) {
  for (int i = 1; i < f; ++i) {
    real_t* row = A + static_cast<std::size_t>(i) * f;
    for (int j = 0; j < i; ++j) row[j] = A[static_cast<std::size_t>(j) * f + i];
  }
}

void hermitian_row(const WeightedColumns& c, const real_t* seed, real_t diag,
                   int f, real_t* scratch_a, real_t* scratch_b, real_t* A_out,
                   real_t* B_out, bool accumulate) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  const std::size_t fb = static_cast<std::size_t>(f);
  if (seed) {
    std::memcpy(scratch_a, seed, fsq * sizeof(real_t));
  } else {
    std::memset(scratch_a, 0, fsq * sizeof(real_t));
  }
  std::memset(scratch_b, 0, fb * sizeof(real_t));
  accumulate_upper(scratch_a, scratch_b, c, f);
  mirror_upper(scratch_a, f);
  add_diagonal(scratch_a, diag, f);
  if (accumulate) {
    for (std::size_t e = 0; e < fsq; ++e) A_out[e] += scratch_a[e];
    for (std::size_t e = 0; e < fb; ++e) B_out[e] += scratch_b[e];
  } else {
    std::memcpy(A_out, scratch_a, fsq * sizeof(real_t));
    std::memcpy(B_out, scratch_b, fb * sizeof(real_t));
  }
}

}  // namespace cumf::linalg
