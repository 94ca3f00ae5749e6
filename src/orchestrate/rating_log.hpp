#pragma once

// Thread-safe rating-delta ingestion for the retrain orchestrator.
//
// The paper's economics argue for *frequent* retraining — which only matters
// if each retrain sees data the last one didn't. A RatingLog owns the base
// rating matrix (the COO the serving model was trained on) and accepts a
// stream of rating deltas from any thread: online feedback arriving over the
// TCP front-end's AddRating op, an offline backfill, a test driver.
//
// snapshot() merges base + every accepted delta into the CSR/CSC pair the
// AlsSolver trains on. Merge semantics are last-writer-wins per (user, item):
// a delta for an already-rated pair overwrites that rating; a delta for a new
// pair appends. Deltas never grow the matrix — the base dimensions fix the
// id range, and out-of-range ids or non-finite values are rejected (counted,
// not thrown), the same contract the serving path applies to unknown user
// ids.
//
// The log keeps the merged matrix compiled across snapshots. The first
// snapshot() compiles the base COO into CSR + CSC (construction stays O(1));
// every later one applies only its batch of deltas, O(deltas · row length)
// for the lookups plus one backward merge pass that makes room for new
// pairs. The arrays are exactly what coo_to_csr / csr_to_csc of the merged
// COO would build: a new pair lands at the end of its CSR row in arrival
// order and at its row-sorted place in the CSC, and an overwrite of a
// duplicated base pair hits its first occurrence.
//
// append() is a mutex push_back — cheap enough to sit on the network io
// thread — and snapshot() holds the same mutex only long enough to take the
// pending vector, so ingestion never stalls behind a retrain.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace cumf::orchestrate {

struct RatingDelta {
  idx_t user = 0;
  idx_t item = 0;
  real_t value = 0;
};

class RatingLog {
 public:
  /// The base matrix the current serving model was trained on. Its
  /// dimensions bound the accepted (user, item) id range.
  explicit RatingLog(sparse::CooMatrix base);

  RatingLog(const RatingLog&) = delete;
  RatingLog& operator=(const RatingLog&) = delete;

  /// Appends one delta. Returns false — and counts a rejection — when the
  /// user or item id falls outside the base matrix or the value is not
  /// finite (the wire feeds raw f64s in here).
  bool append(idx_t user, idx_t item, real_t value);

  [[nodiscard]] idx_t users() const { return rows_; }
  [[nodiscard]] idx_t items() const { return cols_; }

  /// Deltas accepted since construction.
  [[nodiscard]] std::uint64_t accepted() const;
  /// Deltas rejected for out-of-range ids.
  [[nodiscard]] std::uint64_t rejected() const;
  /// Deltas accepted since the last snapshot() — the orchestrator's
  /// retrain-trigger signal.
  [[nodiscard]] std::uint64_t pending() const;

  /// Base + deltas, last-writer-wins, in both orientations.
  struct Ratings {
    sparse::CsrMatrix csr;    // for update-X
    sparse::CsrMatrix csr_t;  // CSR of the transpose, for update-Θ
  };

  struct Snapshot {
    /// Shared and immutable: the log copies before its next merge while any
    /// snapshot still holds these arrays, and updates them in place once
    /// none does.
    std::shared_ptr<const Ratings> ratings;
    std::uint64_t deltas_applied = 0;  // lifetime deltas merged in
    /// Distinct user/item ids the deltas merged by THIS snapshot touched
    /// (sorted ascending, deduplicated; empty when no deltas arrived).
    /// Collected inside the merge loop itself — no extra pass over the base
    /// matrix. The incremental retraining tier trains only these rows and
    /// leaves every other factor row bit-identical to its warm start.
    std::vector<idx_t> touched_users;
    std::vector<idx_t> touched_items;

    [[nodiscard]] const sparse::CsrMatrix& csr() const { return ratings->csr; }
    [[nodiscard]] const sparse::CsrMatrix& csr_t() const {
      return ratings->csr_t;
    }
  };

  /// Merges all accepted deltas into the log's matrix and hands out a view
  /// of it; resets pending() to the deltas that arrive afterwards. Safe to
  /// call concurrently with append(); snapshot() callers must serialize
  /// among themselves (the Orchestrator's cycle lock does). A snapshot may
  /// be kept and released on any thread.
  [[nodiscard]] Snapshot snapshot();

 private:
  /// The merged matrix plus a count of the snapshots viewing it. A snapshot
  /// decrements `readers` (release) when its last copy goes; the log reads
  /// it (acquire) before it writes, so no reader's access races the merge.
  struct Shared {
    Ratings ratings;
    std::atomic<std::uint64_t> readers{0};
  };

  /// The matrix the next merge may write: compiled from base_ on first
  /// use, copied first when a snapshot still views it.
  Ratings& writable();
  void merge(const std::vector<RatingDelta>& deltas, Snapshot* s);

  idx_t rows_;
  idx_t cols_;

  mutable std::mutex mu_;
  std::vector<RatingDelta> pending_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;

  // Touched only by snapshot(), which callers serialize.
  sparse::CooMatrix base_;  // released once compiled into merged_
  std::shared_ptr<Shared> merged_;
  std::uint64_t applied_ = 0;
};

}  // namespace cumf::orchestrate
