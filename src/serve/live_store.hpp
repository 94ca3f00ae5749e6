#pragma once

// Live factor store: hot checkpoint swap without dropping queries.
//
// The paper's pitch is cheap, frequent retraining — but fresher factors only
// pay off if serving can pick them up while queries are in flight. A
// LiveFactorStore owns a sequence of immutable FactorStore *generations*
// behind an atomically-swapped shared_ptr:
//
//  - readers pin(): an atomic shared_ptr load yields the current generation,
//    and holding the returned Pinned keeps that snapshot alive for the whole
//    query batch — no lock on the query path, no torn reads;
//  - writers refresh(): the next snapshot is loaded and sharded *off* the
//    query path (refresh_from_checkpoint reuses core::CheckpointManager via
//    FactorStore::from_checkpoint), then swapped in with a single pointer
//    store. In-flight readers drain naturally: the superseded generation is
//    destroyed when its last pin is released (double-buffered shards, no
//    quiescence barrier).
//
// A refresh that fails — missing directory, corrupt or truncated checkpoint —
// leaves the serving generation untouched and is reported in the outcome and
// the refresh_failures counter; the store keeps answering from the old
// snapshot. Generation numbers are monotonically increasing, starting at 1.
//
// Swap-pause is tracked per refresh: the duration of the pointer-swap
// critical section, which is the only moment a refresh and the stats path
// contend. Queries never wait on it — they hold pins, not locks.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "serve/factor_store.hpp"
#include "serve/serve_stats.hpp"

namespace cumf::serve {

class LiveFactorStore {
 public:
  /// Starts serving `initial` as generation 1. Later refreshes shard their
  /// snapshots into the same number of partitions the initial store uses.
  explicit LiveFactorStore(FactorStore initial);

  LiveFactorStore(const LiveFactorStore&) = delete;
  LiveFactorStore& operator=(const LiveFactorStore&) = delete;

  /// A pinned generation: the snapshot stays alive (and bit-stable) for as
  /// long as the Pinned is held, across any number of concurrent refreshes.
  struct Pinned {
    std::shared_ptr<const FactorStore> store;
    std::uint64_t generation = 0;

    [[nodiscard]] const FactorStore& operator*() const { return *store; }
    [[nodiscard]] const FactorStore* operator->() const { return store.get(); }
  };

  /// Atomically pins the current generation. Wait-free for readers.
  [[nodiscard]] Pinned pin() const;

  /// Number of the generation serving right now — a plain atomic read, no
  /// pin taken (hot-path friendly: the batcher consults it per submit).
  [[nodiscard]] std::uint64_t generation() const {
    return gen_number_.load(std::memory_order_acquire);
  }

  /// Shard count applied to refreshed snapshots.
  [[nodiscard]] int shards() const { return shards_; }

  struct RefreshOutcome {
    bool swapped = false;       // false: old generation kept serving
    std::uint64_t generation = 0;  // generation serving after the call
    double load_ms = 0.0;       // load + shard time, off the query path
    double swap_pause_ms = 0.0;  // pointer-swap critical section
    std::string error;          // why swapped == false
  };

  /// Loads the freshest valid snapshot from a core::CheckpointManager
  /// directory, shards it off the query path, and swaps it in. On any load
  /// failure the current generation keeps serving and the outcome carries the
  /// error. Safe to call from multiple threads concurrently; swaps serialize,
  /// loads do not.
  RefreshOutcome refresh_from_checkpoint(const std::string& dir);

  /// In-memory refresh path (retrain-in-process pipelines): swaps `next` in
  /// as the new generation. Succeeds unless the admission hook vetoes.
  RefreshOutcome refresh(FactorStore next);

  /// Called with each candidate generation inside the swap critical section,
  /// *before* it becomes current. A throwing hook vetoes the swap: the old
  /// generation keeps serving, the outcome carries the error, and the
  /// candidate is destroyed. Capacity-accounting backends register here
  /// (e.g. MultiDeviceScoringBackend::admit) so a snapshot that does not fit
  /// its devices — one or many — is refused up front instead of failing
  /// mid-batch, and a multi-device placement is refused *everywhere* rather
  /// than torn.
  using AdmissionHook =
      std::function<void(const std::shared_ptr<const FactorStore>&)>;
  void set_admission_hook(AdmissionHook hook);

  /// Successful hot swaps since construction.
  [[nodiscard]] std::uint64_t refreshes() const {
    return refreshes_.load(std::memory_order_relaxed);
  }
  /// Refreshes rejected because the snapshot could not be loaded.
  [[nodiscard]] std::uint64_t refresh_failures() const {
    return refresh_failures_.load(std::memory_order_relaxed);
  }
  /// Distribution of pointer-swap critical-section durations.
  [[nodiscard]] LatencySummary swap_pause_summary() const {
    return swap_pause_.summary();
  }

 private:
  struct Generation {
    FactorStore store;
    std::uint64_t number;

    Generation(FactorStore s, std::uint64_t n)
        : store(std::move(s)), number(n) {}
  };

  RefreshOutcome install(FactorStore next, double load_ms);

  int shards_;
  std::atomic<std::shared_ptr<const Generation>> current_;
  // Mirror of current_->number; advanced (before the pointer swap, so it can
  // only ever run ahead — the conservative direction for cache staling) so
  // generation() never has to materialize a shared_ptr.
  std::atomic<std::uint64_t> gen_number_{0};
  std::mutex swap_mu_;  // serializes writers; readers never take it
  AdmissionHook admission_hook_;  // guarded by swap_mu_
  std::atomic<std::uint64_t> refreshes_{0};
  std::atomic<std::uint64_t> refresh_failures_{0};
  LatencyTracker swap_pause_;
};

}  // namespace cumf::serve
