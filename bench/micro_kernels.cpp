// Kernel-level microbenchmarks (google-benchmark) of the host arithmetic.
// Wall-clock here is host CPU time. KernelOptions only price the simulated
// kernel (core::hermitian_kernel_stats), so there is one get_hermitian host
// kernel to time, not one per §3 optimization.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/kernels.hpp"
#include "data/synthetic.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/hermitian.hpp"
#include "util/rng.hpp"

namespace {

using namespace cumf;

std::vector<real_t> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<real_t> v(n);
  for (auto& x : v) x = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  return v;
}

// ---- one row of get_hermitian: 4-column upper-triangle accumulate ----

void BM_HermitianRow(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  const std::size_t n = 20;
  const idx_t pool = 400;
  const auto theta = random_vec(static_cast<std::size_t>(pool) * f, 1);
  const auto vals = random_vec(n, 2);
  util::Rng rng(3);
  std::vector<idx_t> cols(n);
  for (auto& c : cols) c = static_cast<idx_t>(rng.next_below(pool));
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  std::vector<real_t> A(fsq), B(static_cast<std::size_t>(f));
  std::vector<real_t> sa(fsq), sb(static_cast<std::size_t>(f));
  for (auto _ : state) {
    linalg::hermitian_row({theta.data(), cols.data(), nullptr, vals.data(), n},
                          nullptr, 0.05f, f, sa.data(), sb.data(), A.data(),
                          B.data(), /*accumulate=*/false);
    benchmark::DoNotOptimize(A.data());
    benchmark::DoNotOptimize(B.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HermitianRow)->Arg(16)->Arg(32)->Arg(64)->Arg(100);

// ---- full get_hermitian over a block ----

sparse::CsrMatrix bench_matrix() {
  data::SyntheticOptions opt;
  opt.m = 2000;
  opt.n = 400;
  opt.nz = 120'000;
  opt.seed = 3;
  return sparse::coo_to_csr(data::generate_ratings(opt));
}

void BM_GetHermitian(benchmark::State& state) {
  const int f = 32;
  static const sparse::CsrMatrix R = bench_matrix();
  const auto theta = random_vec(static_cast<std::size_t>(R.cols) * f, 7);
  std::vector<real_t> A(static_cast<std::size_t>(R.rows) * f * f);
  std::vector<real_t> B(static_cast<std::size_t>(R.rows) * f);
  gpusim::Device dev(0, gpusim::titan_x());
  for (auto _ : state) {
    core::get_hermitian_block(dev, R, 0, R.rows, theta.data(), f, 0.05f, {},
                              A.data(), B.data());
    benchmark::DoNotOptimize(A.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * R.nnz());
}
BENCHMARK(BM_GetHermitian)->Unit(benchmark::kMillisecond);

// ---- batched Cholesky solve ----

void BM_BatchSolve(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  const idx_t count = 256;
  util::Rng rng(9);
  std::vector<real_t> A0(static_cast<std::size_t>(count) * f * f);
  for (idx_t u = 0; u < count; ++u) {
    real_t* a = A0.data() + static_cast<std::size_t>(u) * f * f;
    for (int i = 0; i < f; ++i) {
      for (int j = 0; j <= i; ++j) {
        const auto v = static_cast<real_t>(rng.uniform(-0.1, 0.1));
        a[static_cast<std::size_t>(i) * f + j] = v;
        a[static_cast<std::size_t>(j) * f + i] = v;
      }
      a[static_cast<std::size_t>(i) * f + i] += static_cast<real_t>(f);
    }
  }
  const auto B0 = random_vec(static_cast<std::size_t>(count) * f, 11);
  std::vector<real_t> X(static_cast<std::size_t>(count) * f);
  gpusim::Device dev(0, gpusim::titan_x());
  for (auto _ : state) {
    state.PauseTiming();
    auto A = A0;
    auto B = B0;
    state.ResumeTiming();
    core::batch_solve_block(dev, A.data(), B.data(), count, f, X.data());
    benchmark::DoNotOptimize(X.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BatchSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// ---- Cholesky single system ----

void BM_Cholesky(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  util::Rng rng(13);
  std::vector<real_t> A0(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    A0[static_cast<std::size_t>(i) * f + i] = static_cast<real_t>(f);
    for (int j = 0; j < i; ++j) {
      const auto v = static_cast<real_t>(rng.uniform(-0.1, 0.1));
      A0[static_cast<std::size_t>(i) * f + j] = v;
      A0[static_cast<std::size_t>(j) * f + i] = v;
    }
  }
  for (auto _ : state) {
    auto A = A0;
    linalg::cholesky_factor(A.data(), f);
    benchmark::DoNotOptimize(A.data());
  }
}
BENCHMARK(BM_Cholesky)->Arg(16)->Arg(32)->Arg(64)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
