#include "world.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "linalg/hermitian.hpp"
#include "serve/multi_device_backend.hpp"
#include "sparse/split.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = cumf::core;
namespace gpusim = cumf::gpusim;
namespace orch = cumf::orchestrate;
namespace serve = cumf::serve;
namespace sparse = cumf::sparse;

double Params::num(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing parameter: " + key);
  return std::stod(it->second);
}

int Params::integer(const std::string& key) const {
  return static_cast<int>(num(key));
}

const std::string& Params::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing parameter: " + key);
  return it->second;
}

serve::BatcherOptions batcher_options() {
  serve::BatcherOptions bopt;
  bopt.cache_capacity = kCache;
  return bopt;
}

Dataset make_dataset(const Params& p, std::uint64_t seed) {
  cumf::data::SyntheticOptions gen;
  gen.m = static_cast<idx_t>(p.integer("users"));
  gen.n = static_cast<idx_t>(p.integer("items"));
  gen.nz = static_cast<cumf::nnz_t>(p.num("ratings"));
  gen.f_true = kTrueRank;
  gen.noise_std = kNoiseStd;
  gen.col_zipf_s = kItemZipfS;
  gen.seed = seed;
  const sparse::CooMatrix all = cumf::data::generate_ratings(gen);

  // Three disjoint splits: future deltas, then the holdout, then training.
  // Replaying holdout ratings as deltas would leak them into the gate.
  cumf::util::Rng rng(seed ^ 0x5eed51177ull);
  auto first = sparse::split_ratings(all, p.num("future_frac"), rng);
  auto second = sparse::split_ratings(first.train, kHoldoutFrac, rng);

  Dataset d;
  d.train = std::move(second.train);
  d.holdout = std::move(second.test);
  const sparse::CooMatrix& fut = first.test;
  d.future.reserve(static_cast<std::size_t>(fut.nnz()));
  for (std::size_t i = 0; i < fut.val.size(); ++i) {
    d.future.push_back({fut.row[i], fut.col[i], fut.val[i]});
  }
  // Arrival order: a seeded shuffle, so each cycle's batch spans the users.
  for (std::size_t i = d.future.size(); i > 1; --i) {
    std::swap(d.future[i - 1], d.future[rng.next_below(i)]);
  }
  d.R = sparse::coo_to_csr(d.train);
  d.Rt = sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(d.R));
  return d;
}

namespace {

/// The solver configuration of the from-scratch training stage.
core::SolverConfig training_config(idx_t items, std::uint64_t seed) {
  core::SolverConfig cfg;
  cfg.als.f = kRank;
  cfg.als.lambda = static_cast<cumf::real_t>(kLambda);
  cfg.als.seed = seed;
  cfg.reduce = core::ReduceScheme::TwoPhase;
  // SU-ALS: update-Θ partitions the fixed X across the devices and reduces
  // the partial Hermitians; row batches keep each device's accumulators at
  // the solver's usual wave size.
  core::Plan plan_t;
  plan_t.mode = core::ParallelMode::DataParallel;
  plan_t.p = kTrainDevices;
  plan_t.q = std::max<int>(1, static_cast<int>((items + 4095) / 4096));
  cfg.plan_t = plan_t;
  return cfg;
}

}  // namespace

TrainOutcome train_to_target(const Dataset& d, const Params& p,
                             std::uint64_t seed) {
  const auto topo = gpusim::PcieTopology::two_socket(kTrainDevices);
  gpusim::DeviceGroup gpus(kTrainDevices, gpusim::titan_x(), topo);
  core::AlsSolver solver(gpus.pointers(), topo, d.R, d.Rt,
                         training_config(d.R.cols, seed));
  const double target = p.num("target_rmse");

  TrainOutcome out;
  for (int it = 1; it <= kMaxTrainIters; ++it) {
    const Clock::time_point t0 = Clock::now();
    solver.run_iteration();
    const double wall = seconds_since(t0);
    out.iter_s.add(wall);
    out.seconds += wall;
    out.iterations = it;
    out.rmse = cumf::eval::rmse(d.holdout, solver.x(), solver.theta());
    if (out.rmse <= target) {
      out.reached = true;
      break;
    }
  }
  out.modeled_s = solver.modeled_seconds();
  out.profile = solver.profile();
  out.x = solver.x();
  out.theta = solver.theta();
  return out;
}

World::World(const Params& p, std::uint64_t s, const std::string& work_dir)
    : seed(s) {
  const Clock::time_point t0 = Clock::now();
  data = make_dataset(p, seed);
  data_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  trained = train_to_target(data, p, seed);
  model_s = seconds_since(t1);

  live = std::make_unique<serve::LiveFactorStore>(
      serve::FactorStore(trained.x, trained.theta, kShards));
  serve::TopKOptions eopt;
  eopt.exclude_rated = &data.R;
  const std::string& kind = p.str("backend");
  if (kind == "gpusim") {
    serve_devices = std::make_unique<gpusim::DeviceGroup>(
        1, gpusim::titan_x(), gpusim::PcieTopology::flat(1));
    backend =
        std::make_unique<serve::GpuSimScoringBackend>((*serve_devices)[0]);
  } else if (kind == "multi") {
    serve_topo = std::make_unique<gpusim::PcieTopology>(
        gpusim::PcieTopology::flat(kMultiDevices));
    serve_devices = std::make_unique<gpusim::DeviceGroup>(
        kMultiDevices, gpusim::titan_x(), *serve_topo);
    auto multi = std::make_unique<serve::MultiDeviceScoringBackend>(
        *serve_devices, *serve_topo);
    serve::MultiDeviceScoringBackend* raw = multi.get();
    live->set_admission_hook(
        [raw](const std::shared_ptr<const serve::FactorStore>& store) {
          raw->admit(store);
        });
    backend = std::move(multi);
  } else if (kind != "cpu") {
    throw std::invalid_argument("unknown backend: " + kind);
  }
  eopt.backend = backend.get();
  engine = std::make_unique<serve::TopKEngine>(*live, eopt);

  log = std::make_unique<orch::RatingLog>(data.train);
  orch::OrchestratorOptions oopt;
  // The daemon's retrain settings: library defaults (tier auto,
  // consolidate_every, gate) plus its model shape and iteration budget.
  oopt.trainer.solver.als.f = kRank;
  oopt.trainer.solver.als.lambda = static_cast<cumf::real_t>(kLambda);
  oopt.trainer.iterations = kCycleAlsIters;
  oopt.work_dir = work_dir;
  std::filesystem::create_directories(work_dir);
  orch = std::make_unique<orch::Orchestrator>(*log, *live, data.holdout, oopt,
                                              &data.R);
  // Ready to take load: a front end accepts connections.
  (void)open_frontend();
  total_s = seconds_since(t0);
}

World::~World() = default;

Frontend World::open_frontend() const {
  Frontend fe;
  fe.batcher = std::make_unique<serve::RequestBatcher>(*engine,
                                                       batcher_options());
  serve::net::ServerOptions sopt;
  orch::RatingLog* rating_log = log.get();
  sopt.ingest = [rating_log](idx_t user, idx_t item, double value) {
    return rating_log->append(user, item, static_cast<cumf::real_t>(value));
  };
  fe.server = std::make_unique<serve::net::TcpServer>(*fe.batcher, sopt);
  return fe;
}

std::vector<serve::Recommendation> brute_force_topk(
    const serve::FactorStore& store, idx_t user, int k,
    const sparse::CsrMatrix& exclude) {
  std::vector<idx_t> rated;
  if (user < exclude.rows) {
    const auto cols = exclude.row_cols(user);
    rated.assign(cols.begin(), cols.end());
    std::sort(rated.begin(), rated.end());
  }
  std::vector<serve::Recommendation> all;
  for (int s = 0; s < store.num_shards(); ++s) {
    const serve::FactorShard& shard = store.shard(s);
    for (std::size_t slot = 0; slot < shard.item_ids.size(); ++slot) {
      const idx_t item = shard.item_ids[slot];
      if (std::binary_search(rated.begin(), rated.end(), item)) continue;
      const cumf::real_t* row = shard.theta.row(static_cast<idx_t>(slot));
      all.push_back(
          {item, cumf::linalg::dot(store.user(user), row, store.f())});
    }
  }
  std::sort(all.begin(), all.end(), serve::ranks_before);
  if (all.size() > static_cast<std::size_t>(k)) {
    all.resize(static_cast<std::size_t>(k));
  }
  return all;
}

}  // namespace perfbench
