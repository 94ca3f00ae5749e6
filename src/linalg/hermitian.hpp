#pragma once

// Hermitian accumulation: the inner loop of get_hermitian_x.
//
// The paper's single biggest optimization (§3.4, Fig. 7) is where the
// partial sum A_u += θ_v·θ_vᵀ lives on the GPU: global memory or registers.
// The simulator's cost model (core::hermitian_kernel_stats) prices that
// choice from core::KernelOptions, so the options change modeled cost only.
// The host runs one kernel for every option: it accumulates the upper
// triangle of the symmetric A_u four rated columns per pass over each
// contiguous row segment, so each A element is loaded and stored once per
// four columns, and mirrors the triangle once per row.

#include <cstddef>

#include "util/types.hpp"

namespace cumf::linalg {

/// The rated columns of one row and their per-column weights. Column k is
/// the f contiguous floats at theta + cols[k]·f (theta + k·f when cols is
/// null). A null a_weight weighs every column 1 in A; a null b_weight leaves
/// B untouched.
struct WeightedColumns {
  const real_t* theta = nullptr;
  const idx_t* cols = nullptr;
  const real_t* a_weight = nullptr;
  const real_t* b_weight = nullptr;
  std::size_t n = 0;
};

/// For j ≥ i only:  A[i][j] += Σ_k a_weight[k]·θ_k[i]·θ_k[j], and
/// B[i] += Σ_k b_weight[k]·θ_k[i]. A is a dense row-major f×f buffer whose
/// strictly lower triangle is neither read nor written.
void accumulate_upper(real_t* A, real_t* B, const WeightedColumns& c, int f);

/// Copies the upper triangle of a row-major f×f matrix into its lower one.
void mirror_upper(real_t* A, int f);

/// One row of get_hermitian, built in the caller's per-worker scratch
/// (scratch_a: f² floats, scratch_b: f floats):
///   A_out (= or +=) seed + Σ_k a_weight[k]·θ_kθ_kᵀ + diag·I
///   B_out (= or +=) Σ_k b_weight[k]·θ_k
/// A null seed means zero; a non-null seed must be symmetric. The result is
/// exactly symmetric.
void hermitian_row(const WeightedColumns& c, const real_t* seed, real_t diag,
                   int f, real_t* scratch_a, real_t* scratch_b, real_t* A_out,
                   real_t* B_out, bool accumulate);

/// Dot product over f elements (double accumulation).
inline double dot(const real_t* a, const real_t* b, int f) {
  double s = 0.0;
  for (int i = 0; i < f; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

/// Adds lambda to the diagonal of a row-major f×f matrix.
inline void add_diagonal(real_t* A, real_t lambda, int f) {
  for (int i = 0; i < f; ++i) A[static_cast<std::size_t>(i) * f + i] += lambda;
}

}  // namespace cumf::linalg
