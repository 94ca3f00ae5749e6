#include "baselines/hogwild.hpp"

#include <atomic>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace cumf::baselines {

namespace {

// Eq. (4) on factor rows that other workers update at the same time. Hogwild
// runs lock-free and tolerates lost updates, so every shared entry is read
// and written through a relaxed atomic_ref: concurrent updates may overwrite
// each other, but no access tears or races. Single-threaded, this computes
// exactly what sgd_update does.
real_t hogwild_update(real_t* xu, real_t* tv, real_t r, real_t lr,
                      real_t lambda, int f) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  double pred = 0.0;
  for (int k = 0; k < f; ++k) {
    pred += static_cast<double>(std::atomic_ref(xu[k]).load(kRelaxed)) *
            std::atomic_ref(tv[k]).load(kRelaxed);
  }
  const real_t e = r - static_cast<real_t>(pred);
  for (int k = 0; k < f; ++k) {
    std::atomic_ref x(xu[k]);
    std::atomic_ref t(tv[k]);
    const real_t xk = x.load(kRelaxed);
    const real_t tk = t.load(kRelaxed);
    x.store(xk + lr * (e * tk - lambda * xk), kRelaxed);
    t.store(tk + lr * (e * xk - lambda * tk), kRelaxed);
  }
  return e;
}

}  // namespace

HogwildSgd::HogwildSgd(const sparse::CooMatrix& train, SgdOptions opt)
    : train_(train), opt_(opt), x_(train.rows, opt.f),
      theta_(train.cols, opt.f), lr_(opt.lr) {
  util::Rng rng(opt_.seed);
  const real_t scale = opt_.effective_init_scale();
  x_.randomize(rng, scale);
  theta_.randomize(rng, scale);
  order_.resize(static_cast<std::size_t>(train.nnz()));
  std::iota(order_.begin(), order_.end(), nnz_t{0});
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng.next_below(i)]);
  }
}

void HogwildSgd::run_epoch() {
  const int f = opt_.f;
  util::parallel_for_chunks(
      util::ThreadPool::global(), 0, train_.nnz(),
      [&](nnz_t lo, nnz_t hi) {
        for (nnz_t i = lo; i < hi; ++i) {
          const auto k = static_cast<std::size_t>(order_[static_cast<std::size_t>(i)]);
          hogwild_update(x_.row(train_.row[k]), theta_.row(train_.col[k]),
                         train_.val[k], lr_, opt_.lambda, f);
        }
      },
      static_cast<std::size_t>(opt_.threads));
  lr_ *= opt_.lr_decay;
  ++epochs_run_;
}

BaselineRun HogwildSgd::train(const sparse::CooMatrix* train_eval,
                              const sparse::CooMatrix* test_eval,
                              const std::string& label) {
  BaselineRun run;
  run.history.label = label;
  auto snapshot = [&](int epoch, double wall) {
    eval::ConvergencePoint pt;
    pt.iteration = epoch;
    pt.wall_seconds = wall;
    pt.train_rmse = train_eval ? eval::rmse(*train_eval, x_, theta_) : 0.0;
    pt.test_rmse = test_eval ? eval::rmse(*test_eval, x_, theta_) : 0.0;
    run.history.add(pt);
  };
  snapshot(0, 0.0);
  double wall = 0.0;
  for (int e = 1; e <= opt_.epochs; ++e) {
    util::Stopwatch sw;
    run_epoch();
    wall += sw.seconds();
    run.samples_processed += static_cast<double>(train_.nnz());
    snapshot(e, wall);
  }
  return run;
}

}  // namespace cumf::baselines
