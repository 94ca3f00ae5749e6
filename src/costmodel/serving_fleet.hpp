#pragma once

// Serving-fleet projection — the Table 3 cost treatment applied to serving.
//
// Training already answers "seconds and dollars per ALS iteration"
// (projection.hpp, Table 1). This module answers the serving twin: *how many
// GPUs, at what $/hour, to serve N qps at p99 ≤ L ms*. It combines
//
//  - a ServingProfile: per-micro-batch modeled kernel time on one device,
//    taken from MultiDeviceScoringBackend's accounted launches (measured
//    sweep counters priced on the device roofline) or built analytically
//    from aggregate KernelStats;
//  - machines.hpp pricing at device granularity (GpuPricing).
//
// The latency model, per device at arrival rate λ = target_qps / devices
// (documented so the projection stays inspectable):
//
//   fill    = min(batch_users / λ, max_fill)   — a p99 query waits for its
//             micro-batch to fill or for the batcher deadline;
//   queue   = t_batch · ρ / (2(1−ρ))           — M/D/1 waiting time at
//             utilization ρ = λ / device_qps;
//   service = t_batch                          — its own batch's kernel time;
//   p99 ≈ (max(fill + queue, measured queue-delay floor) + service) · 1000 ms
//
// where the floor is ServingProfile::queue_floor_s — the queueing delay a
// live batcher actually measured (ServeStats::queue_delay p99), so profiles
// built from real serving runs price observed queueing, not just the ideal
// fill/queue terms.
//
// Note the tension the plan search has to resolve: adding devices lowers ρ
// (less queueing) but *raises* fill time (each device sees less traffic, so
// micro-batches take longer to fill). plan_serving_fleet scans fleet sizes
// and returns the smallest one meeting the SLO.

#include <string>
#include <vector>

#include "costmodel/machines.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device_spec.hpp"
#include "serve/serve_stats.hpp"

namespace cumf::costmodel {

/// A device spec paired with its hourly price — the unit the fleet planner
/// shops across.
struct PricedDevice {
  gpusim::DeviceSpec spec;
  GpuPricing pricing;
};

/// The priced presets benches and examples size fleets over (Titan X, GK210).
std::vector<PricedDevice> priced_serving_devices();

/// Per-device serving capability: modeled kernel seconds to answer one
/// micro-batch of `batch_users` queries.
struct ServingProfile {
  double batch_seconds = 0.0;
  int batch_users = 0;
  /// Measured per-query queueing-delay floor (seconds), typically
  /// ServeStats::queue_delay p99 from a live run. The analytic fill + M/D/1
  /// terms below model ideal queueing; this floor carries what they cannot
  /// see — batcher deadline waits and scheduling overhead actually observed
  /// at the serving edge — so a fleet plan fed a measured profile includes
  /// queueing, not just service time. 0 = no measurement, analytic only.
  double queue_floor_s = 0.0;

  /// Throughput of one device running batches back to back.
  [[nodiscard]] double device_qps() const {
    return batch_seconds > 0.0 ? batch_users / batch_seconds : 0.0;
  }
};

/// Analytic profile: price one micro-batch's aggregate kernel traffic on
/// `spec`'s roofline. `launches` is the number of kernel launches the batch
/// issued (one per shard × user-block sweep); each pays the launch overhead.
ServingProfile model_serving_profile(const gpusim::DeviceSpec& spec,
                                     const gpusim::KernelStats& batch_traffic,
                                     std::uint64_t launches, int batch_users);

/// Measured profile from a live ServeStats snapshot: batch_seconds from the
/// per-batch p50 (modeled when `use_modeled` and the backend populated it,
/// wall clock otherwise) and queue_floor_s from the measured queueing-delay
/// p99 — widened to the front-end's accept→reply p99 minus one median batch
/// of service time when the snapshot carries net_e2e samples, so a profile
/// fed from the sharded TCP front-end floors the planner on the whole wire
/// tail, not just the batcher's in-process queueing. The profile the TCP
/// front-end's stats feed straight into plan_serving_fleet.
ServingProfile measured_serving_profile(const serve::ServeStats& stats,
                                        int batch_users,
                                        bool use_modeled = false);

struct FleetRequirement {
  double target_qps = 0.0;
  double p99_ms = 0.0;        // latency SLO
  double max_fill_ms = 2.0;   // batcher deadline (BatcherOptions::max_delay)
};

struct FleetPlan {
  std::string device;          // DeviceSpec preset name (node name for
                               // multi-device plans, e.g. "gk210x2")
  bool feasible = false;       // SLO met at `devices`
  int devices = 0;             // smallest fleet meeting the SLO; with
                               // feasible=false, the fleet with the best p99
  double device_qps = 0.0;     // modeled per-device throughput (per-node for
                               // multi-device plans)
  double fleet_qps = 0.0;      // devices × device_qps (capacity headroom)
  double modeled_p99_ms = 0.0;
  double dollars_per_hr = 0.0;      // devices × price/device/hr
  double qps_per_dollar_hr = 0.0;   // target_qps / dollars_per_hr
  // Multi-device plans (plan_multi_device_fleet); single-device defaults
  // otherwise.
  int devices_per_node = 1;
  int nodes = 0;                   // == devices / devices_per_node
  double interconnect_ms = 0.0;    // candidate-gather slice of a node batch
};

/// Sizes a fleet of `spec` devices for `req`. Returns feasible=false when no
/// fleet size meets the SLO (e.g. p99 below one batch's kernel time); the
/// returned plan then carries the best-achievable p99 and its fleet size.
FleetPlan plan_serving_fleet(const FleetRequirement& req,
                             const gpusim::DeviceSpec& spec,
                             double price_per_device_hr,
                             const ServingProfile& profile);

/// A serving node built from several identical devices sharing one PCIe
/// interconnect — the unit plan_multi_device_fleet shops in, so the planner
/// can answer "2×cheap vs 1×big" with the gather cost priced in.
struct MultiDeviceNode {
  gpusim::DeviceSpec spec;
  double price_per_device_hr = 0.0;
  int devices = 1;
  /// Host-link bandwidth each device's candidate gather rides (GB/s).
  double interconnect_gbps = 12.0;
};

/// Derives a per-*node* serving profile from a single-device profile: the
/// item sweep splits across the node's devices (ideal 1/p kernel time,
/// degraded by `shard_imbalance` — max per-device share over the even share,
/// as MultiDeviceScoringBackend::placement_imbalance reports), then every
/// device ships its k-candidate partials over the shared host link, which
/// serializes the gather. `k` is the per-user top-k the gather carries.
ServingProfile node_serving_profile(const ServingProfile& single,
                                    const MultiDeviceNode& node, int k,
                                    double shard_imbalance = 1.0);

/// plan_serving_fleet over multi-device nodes: composes node_serving_profile,
/// prices nodes at devices × price/device/hr, and reports node/device counts
/// plus the per-batch interconnect slice.
FleetPlan plan_multi_device_fleet(const FleetRequirement& req,
                                  const MultiDeviceNode& node,
                                  const ServingProfile& single_device, int k,
                                  double shard_imbalance = 1.0);

}  // namespace cumf::costmodel
