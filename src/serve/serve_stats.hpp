#pragma once

// Counters surfaced by the serving layer.
//
// Each component owns its slice — the TopKEngine counts scored/pruned
// candidates and per-batch wall/modeled latencies, the ScoreCache counts
// hits/misses, the RequestBatcher counts queries and flushed micro-batches —
// and RequestBatcher::stats() merges them into one snapshot for operators and
// the throughput bench.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

namespace cumf::serve {

/// Fixed histogram bucket upper bounds (milliseconds) shared by every
/// LatencyTracker, so the metrics registry (obs/metrics.hpp) can expose
/// cumulative latency histograms straight from per-bucket counters without
/// touching the percentile window.
inline constexpr std::array<double, 14> kLatencyBucketBoundsMs = {
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0};
/// Bucket count including the final overflow (> last bound) bucket.
inline constexpr std::size_t kLatencyBuckets =
    kLatencyBucketBoundsMs.size() + 1;

/// Percentile snapshot of a latency distribution, in milliseconds.
struct LatencySummary {
  /// Samples in the retained window — exactly what the percentiles and max
  /// below cover.
  std::uint64_t samples = 0;
  /// Samples recorded over the tracker's lifetime (>= samples once the ring
  /// window has wrapped). Consumers reading "how many queries produced these
  /// percentiles" want `samples`; throughput math wants this.
  std::uint64_t total_recorded = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Lifetime sum of recorded samples (ms) — pairs with total_recorded for
  /// the histogram's _sum/_count exposition.
  double sum_ms = 0.0;
  /// Lifetime per-bucket counts (non-cumulative), aligned with
  /// kLatencyBucketBoundsMs plus the overflow bucket. Sums to
  /// total_recorded.
  std::array<std::uint64_t, kLatencyBuckets> bucket_counts{};
};

/// Thread-safe latency recorder. Keeps a bounded window of the most recent
/// samples (old ones are overwritten ring-buffer style), so long-lived
/// servers report *current* tail behaviour, not lifetime averages —
/// alongside lifetime histogram buckets (kLatencyBucketBoundsMs) for the
/// metrics exposition.
///
/// record() is wait-free — one fetch_add to claim a ring slot plus relaxed
/// atomic stores — so a stats()/summary() reader can never stall the query
/// path (the old design copied the whole 16K window under a mutex that
/// record() also took, a visible stats-op hiccup at high qps). summary()
/// snapshots the ring with relaxed loads and sorts its private copy; under
/// concurrent writes a slot may read as a slightly newer sample, which only
/// perturbs the reported window by the handful of in-flight records.
class LatencyTracker {
 public:
  /// `window` is rounded up to a power of two (ring indexing by mask).
  explicit LatencyTracker(std::size_t window = 1 << 14)
      : ring_(round_up_pow2(window == 0 ? 1 : window)) {}

  LatencyTracker(const LatencyTracker&) = delete;
  LatencyTracker& operator=(const LatencyTracker&) = delete;

  void record(double ms) {
    const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    ring_[ticket & (ring_.size() - 1)].store(ms, std::memory_order_relaxed);
    buckets_[bucket_index(ms)].fetch_add(1, std::memory_order_relaxed);
    // Nanosecond integer sum: fetch_add is wait-free where a CAS loop on an
    // atomic<double> is not. Latencies are non-negative; sub-ns truncation
    // is far below measurement noise.
    sum_ns_.fetch_add(static_cast<std::uint64_t>(ms * 1e6),
                      std::memory_order_relaxed);
  }

  /// Nearest-rank percentiles over the retained window, plus the lifetime
  /// histogram. Lock-free: never blocks record() callers.
  [[nodiscard]] LatencySummary summary() const {
    LatencySummary out;
    const std::uint64_t total = next_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(
        total, static_cast<std::uint64_t>(ring_.size()));
    out.samples = n;
    out.total_recorded = total;
    out.sum_ms =
        static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e6;
    for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
      out.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    if (n == 0) return out;
    std::vector<double> sorted;
    sorted.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      sorted.push_back(ring_[i].load(std::memory_order_relaxed));
    }
    std::sort(sorted.begin(), sorted.end());
    const auto rank = [&](double q) {
      const auto count = static_cast<double>(sorted.size());
      const auto i = static_cast<std::size_t>(std::ceil(q * count)) - 1;
      return sorted[std::min(i, sorted.size() - 1)];
    };
    out.p50_ms = rank(0.50);
    out.p95_ms = rank(0.95);
    out.p99_ms = rank(0.99);
    out.max_ms = sorted.back();
    return out;
  }

  /// Bucket index into kLatencyBucketBoundsMs for one sample (the last
  /// index is the overflow bucket).
  static std::size_t bucket_index(double ms) {
    const auto it = std::lower_bound(kLatencyBucketBoundsMs.begin(),
                                     kLatencyBucketBoundsMs.end(), ms);
    return static_cast<std::size_t>(
        std::distance(kLatencyBucketBoundsMs.begin(), it));
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<std::atomic<double>> ring_;
  std::atomic<std::uint64_t> next_{0};  // total recorded; ring write cursor
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Counters exported by the retrain orchestrator (src/orchestrate/) when one
/// runs behind the serving stack. All-zero otherwise. Defined here — not in
/// orchestrate/ — so the stats op and its consumers need no dependency on
/// the orchestration layer.
struct OrchestratorStats {
  std::uint64_t retrains = 0;     // retrain cycles that ran a training pass
  std::uint64_t promotions = 0;   // candidates that passed the gate + swapped
  std::uint64_t rejections = 0;   // candidates the quality gate refused
  std::uint64_t rollbacks = 0;    // reverts to the last-good checkpoint
  std::uint64_t deltas_ingested = 0;  // rating deltas accepted by the log
  std::uint64_t deltas_rejected = 0;  // deltas with out-of-range ids
  /// Gate metrics of the most recently evaluated candidate.
  double last_gate_rmse = 0.0;
  double last_gate_recall = 0.0;
  /// Baseline (currently-serving model) metrics candidates are judged
  /// against.
  double baseline_rmse = 0.0;
  double baseline_recall = 0.0;
  /// Cost of the most recent training pass, on both time axes.
  double last_train_wall_ms = 0.0;
  double last_train_modeled_s = 0.0;
  /// Per-tier splits of retrains/promotions/rejections. The aggregate
  /// counters above stay the sums (external submit_candidate promotions
  /// count under the full tier). Tier values: 0 = full ALS, 1 = incremental
  /// SGD — see orchestrate::TrainTier.
  std::uint64_t retrains_full = 0;
  std::uint64_t retrains_incremental = 0;
  std::uint64_t promotions_full = 0;
  std::uint64_t promotions_incremental = 0;
  std::uint64_t rejections_full = 0;
  std::uint64_t rejections_incremental = 0;
  /// Full-ALS passes forced by the gate rejecting an incremental candidate
  /// in the same cycle (the escalation rule: a rejection never stalls the
  /// pipeline).
  std::uint64_t escalations = 0;
  /// Full-ALS cycles scheduled by the auto tier's consolidation cadence.
  std::uint64_t consolidations = 0;
  /// Tier of the most recent training pass (0 full, 1 incremental).
  std::uint64_t last_train_tier = 0;
};

/// Burn-rate view of the serving SLOs, filled from an attached
/// obs::SloMonitor (RequestBatcher::set_slo). All-zero with `attached`
/// false when no monitor is wired in. Defined here — not in obs/ — as plain
/// fields, so stats consumers need no dependency on the SLO engine.
struct SloStats {
  bool attached = false;
  /// Latency SLO threshold (queries slower than this are violations).
  double latency_threshold_ms = 0.0;
  /// Alert states: 0 = ok, 1 = warn, 2 = page (obs::AlertState).
  std::uint64_t latency_state = 0;
  std::uint64_t availability_state = 0;
  /// Fast/slow-window burn rates (error rate ÷ error budget).
  double latency_fast_burn = 0.0;
  double latency_slow_burn = 0.0;
  double availability_fast_burn = 0.0;
  double availability_slow_burn = 0.0;
  /// Lifetime counts: latency-SLO violations and non-kOk replies (sheds
  /// included).
  std::uint64_t latency_violations = 0;
  std::uint64_t availability_errors = 0;
  /// Alert-state transitions so far, per objective.
  std::uint64_t latency_transitions = 0;
  std::uint64_t availability_transitions = 0;
  /// Slow-query exemplars captured over the monitor's lifetime.
  std::uint64_t exemplars_captured = 0;
};

/// Counters exported by the TCP front-end (net/server.hpp) when one runs in
/// front of the serving stack. All-zero otherwise. Defined here — not in
/// net/ — so the metrics exposition and the stats op need no dependency on
/// the network layer.
struct NetMetrics {
  std::uint64_t connections_accepted = 0;
  /// Connections turned away at accept time (ServerOptions::max_connections).
  std::uint64_t connections_rejected = 0;
  /// Connections dropped for malformed frames.
  std::uint64_t protocol_errors = 0;
  /// Connections closed on a hard recv() error (ECONNRESET and friends);
  /// without this count a dead peer would linger until a later epoll error.
  std::uint64_t recv_errors = 0;
  /// Connections closed because the client stopped reading replies and its
  /// buffered output exceeded ServerOptions::max_out_buffer.
  std::uint64_t slow_client_closes = 0;
  /// Queries answered Status::kOverloaded because the shard's completion
  /// lane was at ServerOptions::max_queued_replies.
  std::uint64_t overload_sheds = 0;
  /// Epoll io threads (shards) the server runs; 0 when no server.
  std::uint64_t io_shards = 0;
  /// Connections open at snapshot time.
  std::uint64_t open_connections = 0;
};

struct ServeStats {
  std::uint64_t queries = 0;       // user queries answered (hit or miss)
  std::uint64_t batches = 0;       // micro-batches flushed to the engine
  std::uint64_t cache_hits = 0;    // answered straight from the LRU cache
  std::uint64_t cache_misses = 0;  // had to be scored
  std::uint64_t items_scored = 0;  // user×item dot products actually computed
  std::uint64_t items_pruned = 0;  // candidates skipped via the norm bound

  /// Devices the scoring backend spreads the model across (1 = host or a
  /// single simulated device).
  std::uint64_t serving_devices = 1;

  /// Model generation serving right now (0 = static FactorStore, no live
  /// refresh in the stack).
  std::uint64_t generation = 0;
  /// Successful hot swaps into the LiveFactorStore.
  std::uint64_t refreshes = 0;
  /// Refreshes rejected (missing/corrupt checkpoint); the old generation
  /// kept serving.
  std::uint64_t refresh_failures = 0;
  /// Superseded-generation cache entries evicted lazily since the batcher's
  /// cache was built (the incremental-invalidation cost of swaps).
  std::uint64_t cache_stale_evictions = 0;

  /// Per-query end-to-end latency, submit() → future fulfillment, recorded
  /// by the RequestBatcher for *every* answered query: cache hits contribute
  /// their near-zero samples (that is what the cache buys), misses pay
  /// queueing plus their micro-batch's service time, and rejected ids are
  /// answered (with an error) too. By construction each miss's sample is at
  /// least the wall time of the engine batch that scored it, so on a
  /// hit-free run e2e p99 >= batch_wall p99.
  LatencySummary e2e;
  /// Per-query queueing delay, submit() → micro-batch take by the flusher —
  /// the slice of e2e spent waiting for a batch to fill or the deadline to
  /// fire. Bounded by BatcherOptions::max_delay plus the time any already
  /// in-flight batch needs to clear the flusher.
  LatencySummary queue_delay;
  /// Accept→reply latency measured by the TCP front-end (net/server.hpp):
  /// request frame fully read → response frame handed to the socket. All
  /// zero when no server is attached; filled by TcpServer::stats().
  LatencySummary net_e2e;

  /// Wall-clock time per engine batch (TopKEngine::recommend call). Engine
  /// recent-window summaries: they cover every caller of the engine, not
  /// just the component whose counters ride alongside.
  LatencySummary batch_wall;
  /// Backend modeled time per batch; all-zero for wall-clock-only backends,
  /// the simulated-GPU kernel (+ gather) time for MultiDeviceScoringBackend.
  LatencySummary batch_modeled;
  /// Modeled cross-device candidate-gather time per batch; nonzero only when
  /// a multi-device backend is serving (the interconnect slice of
  /// batch_modeled).
  LatencySummary batch_interconnect;
  /// Duration of each refresh's pointer-swap critical section (queries never
  /// block on it — they hold generation pins, not locks).
  LatencySummary swap_pause;

  /// Retrain-orchestrator counters; all-zero when no orchestrator is
  /// attached. Filled by Orchestrator::merge_into (the TcpServer's
  /// augment_stats hook routes it into the stats op).
  OrchestratorStats orchestrator;

  /// SLO burn-rate slice; all-zero (attached=false) when no SloMonitor is
  /// wired into the batcher.
  SloStats slo;

  /// TCP front-end counters; all-zero when no server is attached. Filled by
  /// TcpServer::stats().
  NetMetrics net;
};

}  // namespace cumf::serve
