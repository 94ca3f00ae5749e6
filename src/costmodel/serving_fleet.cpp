#include "costmodel/serving_fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gpusim/device.hpp"

namespace cumf::costmodel {

std::vector<PricedDevice> priced_serving_devices() {
  return {{gpusim::titan_x(), titan_x_pricing()},
          {gpusim::gk210(), gk210_pricing()}};
}

ServingProfile model_serving_profile(const gpusim::DeviceSpec& spec,
                                     const gpusim::KernelStats& batch_traffic,
                                     std::uint64_t launches, int batch_users) {
  ServingProfile profile;
  profile.batch_users = batch_users;
  if (batch_users <= 0) return profile;
  // model_kernel_seconds prices the aggregate traffic plus one launch
  // overhead; the remaining launches add theirs on top (the simulated stream
  // runs them back to back).
  const gpusim::Device pricer(0, spec);
  const double extra_launches =
      launches > 0 ? static_cast<double>(launches - 1) : 0.0;
  profile.batch_seconds = pricer.model_kernel_seconds(batch_traffic) +
                          extra_launches * spec.kernel_launch_overhead_us * 1e-6;
  return profile;
}

ServingProfile measured_serving_profile(const serve::ServeStats& stats,
                                        int batch_users, bool use_modeled) {
  ServingProfile profile;
  profile.batch_users = batch_users;
  const double p50_ms = use_modeled && stats.batch_modeled.total_recorded > 0
                            ? stats.batch_modeled.p50_ms
                            : stats.batch_wall.p50_ms;
  profile.batch_seconds = p50_ms * 1e-3;
  // The batcher's own queueing-delay tail, widened by the front-end when the
  // snapshot came from a TCP server: accept→reply p99 minus one median batch
  // of service time is everything a wire query waited for — io-shard
  // scheduling, completion-lane hand-off, and batcher queueing together —
  // which the in-process queue_delay tracker alone cannot see.
  double floor_ms = stats.queue_delay.p99_ms;
  if (stats.net_e2e.total_recorded > 0) {
    floor_ms =
        std::max(floor_ms, stats.net_e2e.p99_ms - stats.batch_wall.p50_ms);
  }
  profile.queue_floor_s = std::max(0.0, floor_ms) * 1e-3;
  return profile;
}

namespace {

/// Modeled p99 for `devices` devices sharing the target load (see the header
/// for the fill/queue/service decomposition). Returns +inf at ρ ≥ 1.
double modeled_p99_ms(const FleetRequirement& req,
                      const ServingProfile& profile, int devices) {
  const double lambda = req.target_qps / devices;  // qps per device
  const double rho = lambda / profile.device_qps();
  if (rho >= 1.0) return std::numeric_limits<double>::infinity();
  const double fill_s =
      std::min(profile.batch_users / lambda, req.max_fill_ms * 1e-3);
  const double queue_s =
      profile.batch_seconds * rho / (2.0 * (1.0 - rho));
  // The analytic wait can never undercut queueing a live batcher actually
  // measured (deadline waits, scheduling) — a measured profile's floor.
  const double wait_s = std::max(fill_s + queue_s, profile.queue_floor_s);
  return (wait_s + profile.batch_seconds) * 1e3;
}

}  // namespace

FleetPlan plan_serving_fleet(const FleetRequirement& req,
                             const gpusim::DeviceSpec& spec,
                             double price_per_device_hr,
                             const ServingProfile& profile) {
  FleetPlan plan;
  plan.device = spec.name;
  plan.device_qps = profile.device_qps();
  if (req.target_qps <= 0.0 || plan.device_qps <= 0.0) return plan;

  // Smallest fleet that can absorb the load at all (ρ < 1)...
  const int n_min = std::max(
      1, static_cast<int>(std::floor(req.target_qps / plan.device_qps)) + 1);
  // ...scanned upward: more devices trade queueing for batch-fill latency,
  // so p99 is not monotone and the first SLO-meeting size is the answer.
  // Past ~32× the capacity floor fill time dominates and nothing improves.
  const int n_max = std::max(n_min + 16, n_min * 32);

  int best_n = n_min;
  double best_p99 = std::numeric_limits<double>::infinity();
  for (int n = n_min; n <= n_max; ++n) {
    const double p99 = modeled_p99_ms(req, profile, n);
    if (p99 < best_p99) {
      best_p99 = p99;
      best_n = n;
    }
    if (p99 <= req.p99_ms) {
      plan.feasible = true;
      best_n = n;
      best_p99 = p99;
      break;
    }
  }

  plan.devices = best_n;
  plan.nodes = best_n;  // one device per node unless a caller re-derives
  plan.modeled_p99_ms = best_p99;
  plan.fleet_qps = best_n * plan.device_qps;
  plan.dollars_per_hr = best_n * price_per_device_hr;
  plan.qps_per_dollar_hr =
      plan.dollars_per_hr > 0.0 ? req.target_qps / plan.dollars_per_hr : 0.0;
  return plan;
}

ServingProfile node_serving_profile(const ServingProfile& single,
                                    const MultiDeviceNode& node, int k,
                                    double shard_imbalance) {
  ServingProfile profile = single;
  const int p = std::max(1, node.devices);
  if (p == 1) return profile;
  // Kernel time: the sweep splits across devices; the batch finishes when the
  // most loaded device does, i.e. the even share scaled by the placement's
  // imbalance (1 = perfect split; capped at full single-device time).
  const double imbalance = std::max(1.0, shard_imbalance);
  const double kernel_s =
      std::min(single.batch_seconds, single.batch_seconds * imbalance / p);
  // Gather: every device ships batch_users × k (item, score) pairs — 8 bytes
  // each — over the shared host link, which serializes the p transfers.
  const double gather_bytes = static_cast<double>(p) *
                              static_cast<double>(single.batch_users) *
                              static_cast<double>(k) * 8.0;
  const double gather_s = node.interconnect_gbps > 0.0
                              ? gather_bytes / (node.interconnect_gbps * 1e9)
                              : 0.0;
  profile.batch_seconds = kernel_s + gather_s;
  return profile;
}

FleetPlan plan_multi_device_fleet(const FleetRequirement& req,
                                  const MultiDeviceNode& node,
                                  const ServingProfile& single_device, int k,
                                  double shard_imbalance) {
  const int p = std::max(1, node.devices);
  const ServingProfile profile =
      node_serving_profile(single_device, node, k, shard_imbalance);
  FleetPlan plan = plan_serving_fleet(req, node.spec,
                                      node.price_per_device_hr * p, profile);
  plan.nodes = plan.devices;  // the scan counted nodes
  plan.devices_per_node = p;
  plan.devices = plan.nodes * p;
  if (p > 1) {
    plan.device += 'x';
    plan.device += std::to_string(p);
    const double gather_bytes = static_cast<double>(p) *
                                static_cast<double>(single_device.batch_users) *
                                static_cast<double>(k) * 8.0;
    plan.interconnect_ms = node.interconnect_gbps > 0.0
                               ? gather_bytes / (node.interconnect_gbps * 1e9) *
                                     1e3
                               : 0.0;
  }
  return plan;
}

}  // namespace cumf::costmodel
