#pragma once

// HOGWILD!-style lock-free parallel SGD (§6.2): every worker applies eq.-(4)
// updates to the shared factors without locks, through relaxed atomic loads
// and stores, so concurrent updates to one entry may be lost but never race.
// On sparse problems conflicting touches are rare enough that convergence
// survives; this is the conceptual ancestor of libMF and NOMAD and serves as
// the simplest SGD baseline.

#include "baselines/sgd_common.hpp"
#include "util/thread_pool.hpp"

namespace cumf::baselines {

class HogwildSgd {
 public:
  HogwildSgd(const sparse::CooMatrix& train, SgdOptions opt);

  /// One pass over all ratings (workers stripe the shuffled sample order).
  void run_epoch();

  [[nodiscard]] const linalg::FactorMatrix& x() const { return x_; }
  [[nodiscard]] const linalg::FactorMatrix& theta() const { return theta_; }
  [[nodiscard]] int epochs_run() const { return epochs_run_; }

  /// Full training loop with per-epoch RMSE evaluation.
  BaselineRun train(const sparse::CooMatrix* train_eval,
                    const sparse::CooMatrix* test_eval,
                    const std::string& label);

 private:
  const sparse::CooMatrix& train_;
  SgdOptions opt_;
  linalg::FactorMatrix x_;
  linalg::FactorMatrix theta_;
  std::vector<nnz_t> order_;
  real_t lr_;
  int epochs_run_ = 0;
};

}  // namespace cumf::baselines
