#include "orchestrate/trainer.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/sgd_common.hpp"
#include "core/checkpoint.hpp"
#include "gpusim/device_group.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace cumf::orchestrate {

const char* tier_name(TrainTier tier) {
  switch (tier) {
    case TrainTier::kFullAls:
      return "full";
    case TrainTier::kIncrementalSgd:
      return "incremental";
  }
  return "unknown";
}

TrainerBackend::TrainerBackend(std::string candidate_dir,
                               CheckpointStampSource* stamps)
    : candidate_dir_(std::move(candidate_dir)), stamps_(stamps) {}

TrainResult TrainerBackend::train(const RatingLog::Snapshot& snap,
                                  const linalg::FactorMatrix* warm_x,
                                  const linalg::FactorMatrix* warm_theta) {
  util::Stopwatch wall;
  TrainResult result = train_impl(snap, warm_x, warm_theta);
  result.tier = tier();

  // One stamp for both factor files, drawn from the shared source *after*
  // training: whichever backend publishes later carries the higher stamp,
  // so restore() ordering matches publication order across tiers.
  const int stamp = stamps_->next();
  core::CheckpointManager manager(candidate_dir_);
  manager.save_x(result.x, stamp);
  manager.save_theta(result.theta, stamp);

  result.wall_ms = wall.milliseconds();
  return result;
}

FullAlsTrainer::FullAlsTrainer(TrainerOptions opt, std::string candidate_dir,
                               CheckpointStampSource* stamps)
    : TrainerBackend(std::move(candidate_dir), stamps), opt_(std::move(opt)) {}

TrainResult FullAlsTrainer::train_impl(const RatingLog::Snapshot& snap,
                                       const linalg::FactorMatrix* warm_x,
                                       const linalg::FactorMatrix* warm_theta) {
  const auto topo = gpusim::PcieTopology::flat(opt_.devices);
  gpusim::DeviceGroup gpus(opt_.devices, opt_.device_spec, topo);
  core::SolverConfig cfg = opt_.solver;
  cfg.als.iterations = opt_.iterations;
  core::AlsSolver solver(gpus.pointers(), topo, snap.csr(), snap.csr_t(),
                         cfg);

  const bool warm = opt_.warm_start && warm_x != nullptr &&
                    warm_theta != nullptr &&
                    warm_x->rows() == solver.x().rows() &&
                    warm_theta->rows() == solver.theta().rows() &&
                    warm_x->f() == solver.x().f() &&
                    warm_theta->f() == solver.theta().f();
  if (warm) solver.set_factors(*warm_x, *warm_theta);

  for (int it = 0; it < opt_.iterations; ++it) solver.run_iteration();

  TrainResult result;
  result.iterations = opt_.iterations;
  result.modeled_seconds = solver.modeled_seconds();
  result.x = solver.x();
  result.theta = solver.theta();
  return result;
}

IncrementalSgdTrainer::IncrementalSgdTrainer(IncrementalSgdOptions opt,
                                             std::string candidate_dir,
                                             CheckpointStampSource* stamps)
    : TrainerBackend(std::move(candidate_dir), stamps), opt_(opt) {}

TrainResult IncrementalSgdTrainer::train_impl(
    const RatingLog::Snapshot& snap, const linalg::FactorMatrix* warm_x,
    const linalg::FactorMatrix* warm_theta) {
  const sparse::CsrMatrix& csr = snap.csr();
  const sparse::CsrMatrix& csr_t = snap.csr_t();
  if (warm_x == nullptr || warm_theta == nullptr ||
      warm_x->rows() != csr.rows || warm_theta->rows() != csr.cols ||
      warm_x->f() != warm_theta->f()) {
    throw std::runtime_error(
        "incremental tier requires warm factors shaped like the snapshot");
  }

  TrainResult result;
  result.x = *warm_x;
  result.theta = *warm_theta;
  const int f = result.x.f();

  // Touched-row masks. RatingLog guarantees ids within the base dimensions.
  std::vector<char> user_touched(static_cast<std::size_t>(csr.rows), 0);
  std::vector<char> item_touched(static_cast<std::size_t>(csr.cols), 0);
  for (const idx_t u : snap.touched_users) {
    user_touched[static_cast<std::size_t>(u)] = 1;
  }
  for (const idx_t v : snap.touched_items) {
    item_touched[static_cast<std::size_t>(v)] = 1;
  }

  // The epoch's sample set: every rating incident to a touched row, on
  // either side. Ratings between two untouched rows cannot move any factor
  // the mask lets us write, so they are skipped entirely — that asymmetry
  // against full ALS is where the tier's speed comes from.
  struct Sample {
    idx_t user;
    idx_t item;
    real_t value;
  };
  std::vector<Sample> samples;
  for (const idx_t u : snap.touched_users) {
    const auto cols = csr.row_cols(u);
    const auto vals = csr.row_vals(u);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      samples.push_back({u, cols[i], vals[i]});
    }
  }
  for (const idx_t v : snap.touched_items) {
    const auto users = csr_t.row_cols(v);
    const auto vals = csr_t.row_vals(v);
    for (std::size_t i = 0; i < users.size(); ++i) {
      if (user_touched[static_cast<std::size_t>(users[i])]) continue;  // dup
      samples.push_back({users[i], v, vals[i]});
    }
  }

  // Deterministic shuffle + single-threaded epochs: same snapshot, same
  // seed ⇒ bit-identical candidate. The sample count is the delta working
  // set, typically orders of magnitude below Nz.
  util::Rng rng(opt_.seed ^ snap.deltas_applied);
  for (std::size_t i = samples.size(); i > 1; --i) {
    std::swap(samples[i - 1], samples[rng.next_below(i)]);
  }
  real_t lr = opt_.lr;
  for (int epoch = 0; epoch < opt_.epochs; ++epoch) {
    for (const Sample& s : samples) {
      baselines::sgd_update_masked(
          result.x.row(s.user), result.theta.row(s.item), s.value, lr,
          opt_.lambda, f, user_touched[static_cast<std::size_t>(s.user)] != 0,
          item_touched[static_cast<std::size_t>(s.item)] != 0);
    }
    lr *= opt_.lr_decay;
  }

  result.iterations = opt_.epochs;
  result.users_touched = static_cast<idx_t>(snap.touched_users.size());
  result.items_touched = static_cast<idx_t>(snap.touched_items.size());
  result.samples_per_epoch = samples.size();
  result.modeled_seconds =
      costmodel::sgd_epoch_seconds(
          opt_.model_cpu, opt_.model_threads,
          costmodel::libmf_efficiency(opt_.model_threads),
          static_cast<double>(samples.size()), f) *
      opt_.epochs;
  return result;
}

}  // namespace cumf::orchestrate
