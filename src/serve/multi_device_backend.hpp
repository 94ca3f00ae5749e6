#pragma once

// Simulated-GPU scoring backend: serving on p simulated devices, p >= 1.
//
// Arithmetic is delegated to reference_sweep, so top-k lists are
// bit-identical to the CPU backend; only the cost axis changes, never the
// ranking. Each shard × user-block sweep is accounted as one kernel launch,
// on the device that owns the shard, with analytic traffic:
//
//   flops         2·f per scored dot
//   global_read   rows_swept · f floats — θ rows streamed contiguously
//                 (shards are slot-contiguous in descending-norm order)
//   gathered_read block_users · f floats — x_u rows fetched once into
//                 on-chip storage, discontiguous by user id, via the
//                 read-only texture path (block reuse is high, quality 1)
//   shared_read   scored · f floats — each dot replays the cached user row
//   global_write  block_users · k · 8 B — (item, score) heap write-back
//
// The resident model is charged against device capacity, so a model that
// does not fit raises DeviceOomError — the same eq.-8 pressure that forces
// SU-ALS to partition training. This backend applies the paper's multi-GPU
// split (figure 9) to serving: item shards are partitioned across the
// devices (X is replicated on every device that holds shards, Θ is
// scattered), and per-device partial top-k candidates are gathered over the
// gpusim::PcieTopology interconnect for the final scatter-gather merge in
// the engine. One device is just the p = 1 case: it holds X + Θ + norms,
// its launches serialize on one simulated stream (batch modeled time = sum
// of launches), and its partials are final, so there is no gather and no
// topology.
//
// Placement is capacity-aware: shards are assigned largest-first to the
// device with the most free memory (LPT), so a catalog no single device can
// hold spreads across the group, and a device already carrying ballast
// (another tenant, an undrained generation) receives less of the new model.
//
// Residency comes in two flavours:
//  - static store (store constructors): the model is placed and charged at
//    construction and released at destruction;
//  - live store (store-less constructors): each generation is charged when
//    admit() or begin_batch() first sees it and released only after it has
//    *drained* — its last shared_ptr (live-store current pointer, engine
//    pins) is gone. During a hot swap old and new generations are both
//    resident, surfacing the transient both-resident capacity peak a real
//    serving GPU pays; peak_model_bytes() reports its high-water mark.
//
// Hot swaps land shard-by-shard across devices, which makes partial failure
// the dangerous case: generation charging is all-or-nothing. admit() places
// and charges a candidate generation on every device — the both-resident
// peak, old generation still pinned — and on *any* device's DeviceOomError
// rolls back every charge already made and rethrows, so the old generation
// keeps serving everywhere and no device is left holding a torn placement.
// Wired as a LiveFactorStore admission hook, a vetoed swap is refused before
// the generation ever becomes current; without the hook, begin_batch()
// charges lazily on first sight, and a device too small to host both
// generations raises DeviceOomError at the swap, not silently.

#include <memory>
#include <mutex>
#include <vector>

#include "gpusim/device_group.hpp"
#include "gpusim/topology.hpp"
#include "serve/scoring_backend.hpp"

namespace cumf::serve {

class MultiDeviceScoringBackend final : public ScoringBackend {
 public:
  /// Static-store residency: `store`'s shards are placed and charged across
  /// the group at construction (raises DeviceOomError when the catalog does
  /// not fit the fleet) and released at destruction. The group, topology,
  /// and store must outlive the backend, and the store must be the one the
  /// owning TopKEngine serves.
  MultiDeviceScoringBackend(gpusim::DeviceGroup& group,
                            const gpusim::PcieTopology& topo,
                            const FactorStore& store);
  /// Live-store residency: generations attach via admit() (the
  /// LiveFactorStore admission hook) or lazily via begin_batch(). The group
  /// and topology must outlive the backend.
  MultiDeviceScoringBackend(gpusim::DeviceGroup& group,
                            const gpusim::PcieTopology& topo);
  /// One device, static store: the whole model is charged on `device`.
  /// A single device never gathers, so it needs no topology.
  MultiDeviceScoringBackend(gpusim::Device& device, const FactorStore& store);
  /// One device, live store.
  explicit MultiDeviceScoringBackend(gpusim::Device& device);
  ~MultiDeviceScoringBackend() override;

  MultiDeviceScoringBackend(const MultiDeviceScoringBackend&) = delete;
  MultiDeviceScoringBackend& operator=(const MultiDeviceScoringBackend&) =
      delete;

  [[nodiscard]] int device_count() const override {
    return static_cast<int>(devs_.size());
  }
  void begin_batch(const std::shared_ptr<const FactorStore>& store) override;
  SweepCounters sweep(const SweepTask& task,
                      std::vector<std::vector<Recommendation>>& out) override;
  BatchCost finish_batch() override;
  [[nodiscard]] std::vector<int> shard_devices(
      const FactorStore& store) const override;

  /// All-or-nothing generation charging, for LiveFactorStore's admission
  /// hook: places `store`'s shards and charges every device (the
  /// both-resident peak while the old generation is still pinned). On any
  /// device's DeviceOomError every charge already made is released and the
  /// error rethrown — the swap is refused everywhere, never torn. Idempotent
  /// for an already-admitted snapshot.
  void admit(const std::shared_ptr<const FactorStore>& store);

  /// Bytes currently charged across all devices (one placement per
  /// undrained generation).
  [[nodiscard]] bytes_t model_bytes() const;
  /// Per-device high-water mark of charged bytes — the both-resident swap
  /// peak each device actually paid.
  [[nodiscard]] bytes_t peak_model_bytes(int device) const;
  /// Snapshots currently charged.
  [[nodiscard]] int resident_models() const;
  /// Shard-size imbalance of `store`'s placement: max per-device Θ bytes
  /// over the even share (1 = perfectly balanced). 0 when not admitted.
  [[nodiscard]] double placement_imbalance(const FactorStore& store) const;

  /// Capacity charge for one Θ shard (rows + per-row norms).
  [[nodiscard]] static bytes_t shard_bytes(const FactorShard& shard, int f);
  /// Capacity charge for the per-device X replica (rows + user norms);
  /// queries index X by user id, so every device holding shards carries it.
  [[nodiscard]] static bytes_t replica_bytes(const FactorStore& store);

 private:
  /// `topo` may be null only for a single device (no gather to price).
  MultiDeviceScoringBackend(std::vector<gpusim::Device*> devs,
                            const gpusim::PcieTopology* topo);

  /// One charged snapshot: its shard→device placement and the bytes charged
  /// per device. `alive` is empty for the static-store entry.
  struct Resident {
    const FactorStore* key = nullptr;
    std::weak_ptr<const FactorStore> alive;
    bool pinned_for_life = false;
    std::vector<int> device_of_shard;
    std::vector<bytes_t> device_bytes;  // parallel to devs_
    double imbalance = 1.0;
  };

  /// Places and charges `store` across the group; rolls back and rethrows
  /// on any device's OOM. Appends the Resident on success.
  void charge_locked(const FactorStore& store,
                     std::weak_ptr<const FactorStore> alive, bool pinned);
  void release_locked(const Resident& r);
  void gc_locked();
  [[nodiscard]] const Resident* find_locked(const FactorStore* key) const;
  [[nodiscard]] int device_of_locked(const FactorStore* store,
                                     const FactorShard* shard) const;

  std::vector<gpusim::Device*> devs_;
  const gpusim::PcieTopology* topo_;
  mutable std::mutex mu_;  // residency + device accounting + batch state
  std::vector<Resident> resident_;
  std::vector<bytes_t> used_bytes_;  // our charge per device
  std::vector<bytes_t> peak_bytes_;  // high-water mark per device
  // Per-batch accumulators, reset by finish_batch().
  std::vector<double> batch_kernel_s_;  // modeled kernel seconds per device
  int batch_users_ = 0;                 // widest user index swept this batch
  int batch_k_ = 0;
};

/// Former name of the one-device case, kept only because the benchmark
/// driver (perfbench/src/world.cpp) still names it.
using GpuSimScoringBackend = MultiDeviceScoringBackend;

}  // namespace cumf::serve
