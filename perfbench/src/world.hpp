#pragma once

// The system under test, built from a workload's parameters and seed:
// synthetic ratings split three ways (training, gate holdout, future
// deltas), a model trained from scratch to a fixed holdout-RMSE target on
// four simulated devices (SU-ALS: data-parallel update-Θ with two-phase
// reduction on a two-socket topology), and the daemon's serving stack on
// top of it — live store, scoring backend, top-k engine, rating log and
// retrain orchestrator. Batchers and TCP servers are opened per load phase,
// so every counter and latency window they hold belongs to one phase.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "gpusim/device_group.hpp"
#include "linalg/dense.hpp"
#include "measure.hpp"
#include "orchestrate/orchestrator.hpp"
#include "serve/batcher.hpp"
#include "serve/live_store.hpp"
#include "serve/net/server.hpp"
#include "serve/scoring_backend.hpp"
#include "serve/topk.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using cumf::idx_t;

// Settings shared by every workload. The serving stack otherwise runs on the
// library's default option structs (BatcherOptions, ServerOptions,
// OrchestratorOptions, GateOptions), so a changed library default changes
// what is measured; only the values the serve_recommendations daemon sets
// explicitly are repeated here.
inline constexpr int kRank = 16;
inline constexpr double kLambda = 0.1;
inline constexpr int kTrueRank = 16;       // planted taste structure
inline constexpr double kNoiseStd = 0.5;
inline constexpr double kItemZipfS = 1.05;  // item popularity of the ratings
inline constexpr double kHoldoutFrac = 0.05;
inline constexpr int kTrainDevices = 4;
inline constexpr int kMaxTrainIters = 10;
inline constexpr int kMultiDevices = 4;     // the "multi" serving backend
inline constexpr int kShards = 4;           // daemon: serve_recommendations
inline constexpr std::size_t kCache = 128;  // daemon: score-cache entries
inline constexpr int kCycleAlsIters = 2;    // daemon: ALS iterations a cycle

/// The daemon's batcher settings: the library defaults plus its cache.
cumf::serve::BatcherOptions batcher_options();

/// Workload parameters, passed as key=value pairs: the settings that differ
/// between workloads. Every key a stage reads must be present: the workload
/// file is the one place they are set.
class Params {
 public:
  void set(const std::string& key, const std::string& value) {
    kv_[key] = value;
  }
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] int integer(const std::string& key) const;
  [[nodiscard]] const std::string& str(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

struct Dataset {
  cumf::sparse::CooMatrix train;
  cumf::sparse::CooMatrix holdout;  // gate + test RMSE; never trained on
  std::vector<cumf::orchestrate::RatingDelta> future;  // pushed as deltas
  cumf::sparse::CsrMatrix R;   // train, users × items
  cumf::sparse::CsrMatrix Rt;  // its transpose
};

Dataset make_dataset(const Params& p, std::uint64_t seed);

/// Training from scratch until holdout RMSE <= target_rmse.
struct TrainOutcome {
  bool reached = false;
  double seconds = 0.0;  // run_iteration wall summed to the target
  double rmse = 0.0;     // holdout RMSE at the end of training
  int iterations = 0;
  Samples iter_s;                    // wall of each run_iteration
  double modeled_s = 0.0;            // simulated-device clock at the target
  cumf::core::PhaseProfile profile;  // modeled seconds per phase
  cumf::linalg::FactorMatrix x;
  cumf::linalg::FactorMatrix theta;
};

TrainOutcome train_to_target(const Dataset& d, const Params& p,
                             std::uint64_t seed);

/// One load phase's batcher and TCP server, built fresh for that phase.
struct Frontend {
  std::unique_ptr<cumf::serve::RequestBatcher> batcher;
  std::unique_ptr<cumf::serve::net::TcpServer> server;
};

class World {
 public:
  /// Builds everything up to "ready to take load"; the stage timings are
  /// recorded in data_s / model_s / total_s.
  World(const Params& p, std::uint64_t seed, const std::string& work_dir);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] Frontend open_frontend() const;

  const std::uint64_t seed;
  Dataset data;
  TrainOutcome trained;
  double data_s = 0.0;
  double model_s = 0.0;
  double total_s = 0.0;

  std::unique_ptr<cumf::gpusim::PcieTopology> serve_topo;
  std::unique_ptr<cumf::gpusim::DeviceGroup> serve_devices;
  std::unique_ptr<cumf::serve::ScoringBackend> backend;  // null: CPU default
  std::unique_ptr<cumf::serve::LiveFactorStore> live;
  std::unique_ptr<cumf::serve::TopKEngine> engine;
  std::unique_ptr<cumf::orchestrate::RatingLog> log;
  std::unique_ptr<cumf::orchestrate::Orchestrator> orch;
};

/// Serial brute-force top-k over one pinned generation: every item scored
/// with linalg::dot, rated items excluded, ranked by (score desc, item asc).
std::vector<cumf::serve::Recommendation> brute_force_topk(
    const cumf::serve::FactorStore& store, idx_t user, int k,
    const cumf::sparse::CsrMatrix& exclude);

}  // namespace perfbench
