#include "orchestrate/rating_log.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

namespace cumf::orchestrate {

namespace {

/// One entry bound for a CSR: it joins row `row` in front of the entry at
/// offset `at` of the arrays as they were before the insert pass.
struct Insert {
  idx_t row;
  nnz_t at;
  idx_t col;
  real_t val;
};

/// Writes `adds` (ascending by `at`, equal offsets in their final order)
/// into `m` with one backward pass: every old entry moves at most once, by
/// the number of adds in front of it.
void insert_entries(sparse::CsrMatrix* m, const std::vector<Insert>& adds) {
  if (adds.empty()) return;
  const std::size_t old_nnz = m->col_ind.size();
  const std::size_t new_nnz = old_nnz + adds.size();
  m->col_ind.resize(new_nnz);
  m->vals.resize(new_nnz);
  idx_t* cols = m->col_ind.data();
  real_t* vals = m->vals.data();
  std::size_t src = old_nnz;
  std::size_t dst = new_nnz;
  for (std::size_t k = adds.size(); k-- > 0;) {
    const auto at = static_cast<std::size_t>(adds[k].at);
    std::copy_backward(cols + at, cols + src, cols + dst);
    std::copy_backward(vals + at, vals + src, vals + dst);
    dst -= src - at + 1;
    src = at;
    cols[dst] = adds[k].col;
    vals[dst] = adds[k].val;
  }
  nnz_t shift = 0;
  std::size_t k = 0;
  for (idx_t r = adds.front().row; r < m->rows; ++r) {
    while (k < adds.size() && adds[k].row == r) {
      ++shift;
      ++k;
    }
    m->row_ptr[static_cast<std::size_t>(r) + 1] += shift;
  }
}

/// Offset of `value` in row `r` of a CSR whose rows are sorted.
nnz_t sorted_offset(const sparse::CsrMatrix& m, idx_t r, idx_t value) {
  const auto cols = m.row_cols(r);
  return m.row_ptr[static_cast<std::size_t>(r)] +
         (std::lower_bound(cols.begin(), cols.end(), value) - cols.begin());
}

void dedupe(std::vector<idx_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

RatingLog::RatingLog(sparse::CooMatrix base)
    : rows_(base.rows), cols_(base.cols), base_(std::move(base)) {}

bool RatingLog::append(idx_t user, idx_t item, real_t value) {
  // The AddRating op carries a raw f64 off the network: a NaN/Inf rating
  // would poison every future training snapshot, so non-finite values are
  // rejected like out-of-range ids.
  if (user < 0 || user >= rows_ || item < 0 || item >= cols_ ||
      !std::isfinite(value)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejected_;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back({user, item, value});
  ++accepted_;
  return true;
}

std::uint64_t RatingLog::accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_;
}

std::uint64_t RatingLog::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

std::uint64_t RatingLog::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

RatingLog::Ratings& RatingLog::writable() {
  if (merged_ == nullptr) {
    merged_ = std::make_shared<Shared>();
    Ratings& r = merged_->ratings;
    r.csr = sparse::coo_to_csr(base_);
    r.csr_t = sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(r.csr));
    base_ = sparse::CooMatrix{};
  } else if (merged_->readers.load(std::memory_order_acquire) != 0) {
    auto copy = std::make_shared<Shared>();
    copy->ratings = merged_->ratings;
    merged_ = std::move(copy);
  }
  return merged_->ratings;
}

void RatingLog::merge(const std::vector<RatingDelta>& deltas, Snapshot* s) {
  Ratings& m = writable();
  sparse::CsrMatrix& csr = m.csr;
  sparse::CsrMatrix& csc = m.csr_t;  // item rows, sorted by user

  // Last-writer-wins. A pair the matrix holds is overwritten in place at
  // its first occurrence: a scan of the user's row (in arrival order) and a
  // binary search of the item's row. A pair it lacks waits in `fresh` for
  // the insert pass. The touched-row id sets for the incremental retraining
  // tier fall out of the same loop.
  struct Fresh {
    idx_t user;
    idx_t item;
    real_t value;
    std::size_t seq;  // arrival order within this batch
  };
  std::vector<Fresh> fresh;
  s->touched_users.reserve(deltas.size());
  s->touched_items.reserve(deltas.size());
  for (std::size_t k = 0; k < deltas.size(); ++k) {
    const RatingDelta& d = deltas[k];
    s->touched_users.push_back(d.user);
    s->touched_items.push_back(d.item);
    const auto cols = csr.row_cols(d.user);
    const auto hit = std::find(cols.begin(), cols.end(), d.item);
    if (hit == cols.end()) {
      fresh.push_back({d.user, d.item, d.value, k});
      continue;
    }
    const nnz_t at = csr.row_ptr[static_cast<std::size_t>(d.user)] +
                     (hit - cols.begin());
    csr.vals[static_cast<std::size_t>(at)] = d.value;
    const nnz_t at_t = sorted_offset(csc, d.item, d.user);
    csc.vals[static_cast<std::size_t>(at_t)] = d.value;
  }
  dedupe(&s->touched_users);
  dedupe(&s->touched_items);

  // A new pair may arrive more than once in one batch: it takes the place
  // of its first arrival and the value of its last.
  std::sort(fresh.begin(), fresh.end(), [](const Fresh& a, const Fresh& b) {
    return std::tie(a.user, a.item, a.seq) < std::tie(b.user, b.item, b.seq);
  });
  std::size_t kept = 0;
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    if (kept > 0 && fresh[kept - 1].user == fresh[k].user &&
        fresh[kept - 1].item == fresh[k].item) {
      fresh[kept - 1].value = fresh[k].value;
    } else {
      fresh[kept++] = fresh[k];
    }
  }
  fresh.resize(kept);

  // CSR: each new pair goes to the end of its user's row, in arrival order.
  std::sort(fresh.begin(), fresh.end(), [](const Fresh& a, const Fresh& b) {
    return std::tie(a.user, a.seq) < std::tie(b.user, b.seq);
  });
  std::vector<Insert> adds;
  adds.reserve(fresh.size());
  for (const Fresh& p : fresh) {
    const nnz_t row_end = csr.row_ptr[static_cast<std::size_t>(p.user) + 1];
    adds.push_back({p.user, row_end, p.item, p.value});
  }
  insert_entries(&csr, adds);

  // CSC: each new pair goes to its user-sorted place in the item's row.
  std::sort(fresh.begin(), fresh.end(), [](const Fresh& a, const Fresh& b) {
    return std::tie(a.item, a.user) < std::tie(b.item, b.user);
  });
  adds.clear();
  for (const Fresh& p : fresh) {
    const nnz_t at = sorted_offset(csc, p.item, p.user);
    adds.push_back({p.item, at, p.user, p.value});
  }
  insert_entries(&csc, adds);

  applied_ += deltas.size();
}

RatingLog::Snapshot RatingLog::snapshot() {
  // Take the pending deltas; appends continue unblocked from here on. The
  // merge below touches only snapshot()-side state, and concurrent
  // snapshots are already serialized by the orchestrator's cycle lock, so
  // mu_ protects exactly the shared append state.
  std::vector<RatingDelta> deltas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    deltas.swap(pending_);
  }

  Snapshot s;
  if (!deltas.empty() || merged_ == nullptr) merge(deltas, &s);

  // The view keeps the arrays alive past the log and tells the next merge
  // when it is gone. Counted before the handle exists: a handle that fails
  // to allocate runs its deleter, which undoes the count.
  merged_->readers.fetch_add(1, std::memory_order_relaxed);
  auto release = [keep = merged_](const Ratings*) {
    keep->readers.fetch_sub(1, std::memory_order_release);
  };
  s.ratings = std::shared_ptr<const Ratings>(&merged_->ratings, release);
  s.deltas_applied = applied_;
  return s;
}

}  // namespace cumf::orchestrate
