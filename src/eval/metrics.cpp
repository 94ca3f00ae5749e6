#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/hermitian.hpp"
#include "sparse/stats.hpp"

namespace cumf::eval {

double rmse(const sparse::CooMatrix& ratings, const linalg::FactorMatrix& X,
            const linalg::FactorMatrix& Theta) {
  if (ratings.nnz() == 0) return 0.0;
  const int f = X.f();
  double sum = 0.0;
  for (std::size_t k = 0; k < ratings.val.size(); ++k) {
    const double pred =
        linalg::dot(X.row(ratings.row[k]), Theta.row(ratings.col[k]), f);
    const double err = static_cast<double>(ratings.val[k]) - pred;
    sum += err * err;
  }
  return std::sqrt(sum / static_cast<double>(ratings.nnz()));
}

double objective(const sparse::CsrMatrix& R, const linalg::FactorMatrix& X,
                 const linalg::FactorMatrix& Theta, double lambda) {
  const int f = X.f();
  double sq = 0.0;
  for (idx_t u = 0; u < R.rows; ++u) {
    const auto cols = R.row_cols(u);
    const auto vals = R.row_vals(u);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const double err =
          static_cast<double>(vals[k]) - linalg::dot(X.row(u), Theta.row(cols[k]), f);
      sq += err * err;
    }
  }
  double reg = 0.0;
  const auto ndeg_x = sparse::row_degrees(R);
  for (idx_t u = 0; u < R.rows; ++u) {
    reg += static_cast<double>(ndeg_x[static_cast<std::size_t>(u)]) *
           linalg::dot(X.row(u), X.row(u), f);
  }
  const auto ndeg_t = sparse::col_degrees(R);
  for (idx_t v = 0; v < R.cols; ++v) {
    reg += static_cast<double>(ndeg_t[static_cast<std::size_t>(v)]) *
           linalg::dot(Theta.row(v), Theta.row(v), f);
  }
  return sq + lambda * reg;
}

namespace {
// Consumes `item` from the sorted pool on first match, so duplicates in a
// recommendation list can never credit the same relevant item twice.
bool take_hit(std::vector<idx_t>& pool, idx_t item) {
  const auto it = std::lower_bound(pool.begin(), pool.end(), item);
  if (it == pool.end() || *it != item) return false;
  pool.erase(it);
  return true;
}
}  // namespace

double recall_at_k(std::span<const idx_t> recommended,
                   std::span<const idx_t> relevant) {
  if (relevant.empty()) return 0.0;
  std::vector<idx_t> pool(relevant.begin(), relevant.end());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  const std::size_t distinct = pool.size();
  std::size_t hits = 0;
  for (const idx_t item : recommended) {
    if (take_hit(pool, item)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(distinct);
}

double ndcg_at_k(std::span<const idx_t> recommended,
                 std::span<const idx_t> relevant) {
  if (relevant.empty()) return 0.0;
  std::vector<idx_t> pool(relevant.begin(), relevant.end());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  const std::size_t distinct = pool.size();
  double dcg = 0.0;
  for (std::size_t i = 0; i < recommended.size(); ++i) {
    if (take_hit(pool, recommended[i])) {
      dcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
    }
  }
  const std::size_t ideal_hits = std::min(recommended.size(), distinct);
  double idcg = 0.0;
  for (std::size_t i = 0; i < ideal_hits; ++i) {
    idcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
  }
  return idcg > 0.0 ? dcg / idcg : 0.0;
}

RankingQuality ranking_quality(const sparse::CooMatrix& holdout,
                               const linalg::FactorMatrix& X,
                               const linalg::FactorMatrix& Theta, int k,
                               const sparse::CsrMatrix* exclude,
                               int max_users) {
  RankingQuality q;
  if (k < 1 || max_users < 1) return q;

  // Held-out items per user; only users with at least one matter.
  std::vector<std::vector<idx_t>> relevant(
      static_cast<std::size_t>(holdout.rows));
  for (std::size_t i = 0; i < holdout.val.size(); ++i) {
    relevant[static_cast<std::size_t>(holdout.row[i])].push_back(
        holdout.col[i]);
  }

  const int f = X.f();
  const idx_t users = std::min<idx_t>(X.rows(), holdout.rows);
  const auto kk = static_cast<std::size_t>(k);
  // Ranking order matches serving: score desc, item id asc on ties.
  using Scored = std::pair<double, idx_t>;
  const auto better = [](const Scored& a, const Scored& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  };
  std::vector<idx_t> rated;
  std::vector<Scored> best;  // heap under `better`: worst kept at the front
  best.reserve(std::min(kk, static_cast<std::size_t>(Theta.rows())));
  std::vector<idx_t> top;
  double recall_sum = 0.0;
  double ndcg_sum = 0.0;
  for (idx_t u = 0; u < users && q.users_evaluated < max_users; ++u) {
    const auto& rel = relevant[static_cast<std::size_t>(u)];
    if (rel.empty()) continue;

    rated.clear();
    if (exclude != nullptr && u < exclude->rows) {
      const auto cols = exclude->row_cols(u);
      rated.assign(cols.begin(), cols.end());
      std::sort(rated.begin(), rated.end());
    }
    // One sweep over Θ: a cursor walks the sorted rated list alongside it,
    // and a k-entry heap keeps the best candidates seen so far.
    best.clear();
    std::size_t next_rated = 0;
    for (idx_t v = 0; v < Theta.rows(); ++v) {
      while (next_rated < rated.size() && rated[next_rated] < v) ++next_rated;
      if (next_rated < rated.size() && rated[next_rated] == v) continue;
      const Scored c{linalg::dot(X.row(u), Theta.row(v), f), v};
      if (best.size() < kk) {
        best.push_back(c);
        std::push_heap(best.begin(), best.end(), better);
      } else if (better(c, best.front())) {
        std::pop_heap(best.begin(), best.end(), better);
        best.back() = c;
        std::push_heap(best.begin(), best.end(), better);
      }
    }
    std::sort_heap(best.begin(), best.end(), better);
    top.clear();
    for (const Scored& c : best) top.push_back(c.second);

    recall_sum += recall_at_k(top, rel);
    ndcg_sum += ndcg_at_k(top, rel);
    ++q.users_evaluated;
  }
  if (q.users_evaluated > 0) {
    q.mean_recall = recall_sum / q.users_evaluated;
    q.mean_ndcg = ndcg_sum / q.users_evaluated;
  }
  return q;
}

namespace {
double time_to_rmse(const std::vector<ConvergencePoint>& points, double target,
                    double ConvergencePoint::*axis) {
  if (points.empty()) return ConvergenceHistory::kNeverReached;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].test_rmse <= target) {
      if (i == 0) return points[i].*axis;
      // Interpolate between the bracketing samples.
      const auto& a = points[i - 1];
      const auto& b = points[i];
      const double span = a.test_rmse - b.test_rmse;
      const double frac = span > 0 ? (a.test_rmse - target) / span : 1.0;
      return a.*axis + frac * (b.*axis - a.*axis);
    }
  }
  return ConvergenceHistory::kNeverReached;
}
}  // namespace

double ConvergenceHistory::modeled_time_to_rmse(double target) const {
  return time_to_rmse(points, target, &ConvergencePoint::modeled_seconds);
}

double ConvergenceHistory::wall_time_to_rmse(double target) const {
  return time_to_rmse(points, target, &ConvergencePoint::wall_seconds);
}

double ConvergenceHistory::best_test_rmse() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : points) best = std::min(best, p.test_rmse);
  return best;
}

}  // namespace cumf::eval
