#pragma once

// The stages of one benchmark run. Every workload runs the same stages with
// its own parameters: set-up (repeated; the medians are reported), serving
// phases at fixed open-loop rates, the capacity search, and the retraining
// stage. With --trace 1 the same run also times, from this benchmark's own
// code, direct calls into each layer's public functions.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "measure.hpp"
#include "serve/factor_store.hpp"
#include "world.hpp"

namespace perfbench {

struct RunContext {
  explicit RunContext(const Params& params) : p(params) {}

  const Params& p;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  World* world = nullptr;

  Report e2e;    // end-to-end metrics (printed as JSON with --trace 0)
  Report layer;  // per-layer metrics (printed as JSON with --trace 1)

  /// Requests of the fixed-rate phases and the delta pushes: the run's
  /// attempted / failed totals.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Front-end failure counts over every phase, capacity probes included.
  std::uint64_t sheds = 0;
  std::uint64_t stalled = 0;
  std::uint64_t errors = 0;
  Samples late_ms;
  /// Set-up timings, one sample per set-up (per iteration for setup_iter).
  Samples setup_total, setup_data, setup_model, setup_train, setup_iter;
  /// Window medians of every idle segment, the requests behind them, and
  /// each segment's batcher queue-wait median.
  Samples idle_window_p50;
  std::size_t idle_requests = 0;
  Samples idle_queue_ms;

  /// Every generation that served during the run, pinned so sampled
  /// answers can be recomputed against exactly the factors that produced
  /// them.
  std::map<std::uint64_t, std::shared_ptr<const cumf::serve::FactorStore>>
      generations;
  std::size_t answers_checked = 0;
  std::vector<std::string> check_failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  /// Folds a phase's counts into the run totals. Capacity probes count
  /// toward the net.* diagnostics only: their failures are what ends the
  /// search, not failures of the workload.
  void account(const PhaseResult& r, bool fixed_rate);
  /// Brute-force check of every sampled answer of a phase.
  void verify_answers(const PhaseResult& r, const std::string& phase);
  void pin_current();

  /// An open-loop phase with the workload's connections, k, user mix and
  /// check stride, seeded by the run seed and `index`.
  [[nodiscard]] PhaseSpec phase(double rate_qps, double seconds,
                                int index) const;
};

/// Five set-ups from scratch, one world alive at a time; the last
/// one built is kept as the world every later stage runs on. They all run
/// first: set-ups after the load phases ran up to 40% slower in some runs,
/// so mixing the two would make the median flip between regimes.
void run_setup(RunContext& ctx, const std::string& work_dir,
               std::unique_ptr<World>* out);
/// One of three idle-rate segments, spread over the run (after set-up,
/// after the loaded phase, after the retraining stage) so a disturbance of
/// the host in one part of the run moves idle_p50_ms less. The last
/// segment reports the pooled median.
void run_idle_segment(RunContext& ctx, int segment);
/// The loaded phase (and, with --trace 1, its in-process and traced
/// repeats).
void run_serving(RunContext& ctx);
void run_refresh(RunContext& ctx);
/// --trace 1 only. The highest offered rate that meets the latency limit:
/// on a shared host it moves too much from run to run to carry a bound, so
/// it is a diagnostic of the traced run.
void run_capacity_search(RunContext& ctx);
/// --trace 1 only: direct, timed calls into the layers.
void run_layer_probes(RunContext& ctx);

}  // namespace perfbench
