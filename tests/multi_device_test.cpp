// The simulated-GPU scoring backend on one device and on several:
// scatter-gather parity with the CPU reference, kernel and gather
// accounting, capacity charging and capacity-aware placement, all-or-nothing
// generation admission, lazy charging across hot swaps, and
// refresh-under-query consistency (the TSan job in CI runs this suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/topology.hpp"
#include "obs/trace.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/multi_device_backend.hpp"
#include "serve/scoring_backend.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"

namespace cumf {
namespace {

using serve_test::brute_force_topk;
using serve_test::random_factors;
using serve_test::random_ratings;

// Capacity fixture: 100 users × 2000 items at f=16. Per-device X replica =
// 100·16·4 + 100·8 = 7200 B; Θ total = 2000·16·4 + 2000·8 = 144000 B; whole
// model on one device = 151200 B. A 100 KB device cannot hold it alone, two
// can (each pays the replica plus about half of Θ).
constexpr idx_t kCapUsers = 100;
constexpr idx_t kCapItems = 2000;
constexpr int kCapF = 16;
constexpr bytes_t kCapDevice = 100'000;

serve::FactorStore capacity_store(int shards, std::uint64_t seed = 1) {
  return serve::FactorStore(random_factors(kCapUsers, kCapF, seed),
                            random_factors(kCapItems, kCapF, seed + 1),
                            shards);
}

/// The backend over group's p devices. p = 1 uses the one-device
/// constructors (no topology), which is how single-device callers build it.
std::unique_ptr<serve::MultiDeviceScoringBackend> make_backend(
    gpusim::DeviceGroup& group, const gpusim::PcieTopology& topo,
    const serve::FactorStore* store = nullptr) {
  if (group.size() == 1) {
    return store == nullptr
               ? std::make_unique<serve::MultiDeviceScoringBackend>(group[0])
               : std::make_unique<serve::MultiDeviceScoringBackend>(group[0],
                                                                    *store);
  }
  return store == nullptr
             ? std::make_unique<serve::MultiDeviceScoringBackend>(group, topo)
             : std::make_unique<serve::MultiDeviceScoringBackend>(group, topo,
                                                                  *store);
}

bytes_t used_bytes(gpusim::DeviceGroup& group) {
  bytes_t sum = 0;
  for (int d = 0; d < group.size(); ++d) sum += group[d].used_bytes();
  return sum;
}

bytes_t peak_bytes(const serve::MultiDeviceScoringBackend& backend) {
  bytes_t sum = 0;
  for (int d = 0; d < backend.device_count(); ++d) {
    sum += backend.peak_model_bytes(d);
  }
  return sum;
}

TEST(MultiDeviceBackend, BitIdenticalToCpuAcrossDeviceAndShardCounts) {
  const auto x = random_factors(60, 12, 11);
  const auto theta = random_factors(301, 12, 12);

  for (const int shards : {1, 3, 4, 7}) {
    const serve::FactorStore store(x, theta, shards);
    const serve::TopKEngine cpu(store);
    for (const int devices : {1, 2, 4}) {
      const auto topo = gpusim::PcieTopology::flat(devices);
      gpusim::DeviceGroup group(devices, gpusim::titan_x(), topo);
      serve::MultiDeviceScoringBackend backend(group, topo, store);
      serve::TopKOptions opt;
      opt.backend = &backend;
      opt.user_block = 16;
      const serve::TopKEngine engine(store, opt);

      const std::vector<idx_t> users = {0, 7, 13, 31, 59, 7};
      const auto got = engine.recommend(users, 10);
      const auto want = cpu.recommend(users, 10);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < users.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "user " << users[i] << " shards=" << shards
            << " devices=" << devices;
        EXPECT_EQ(got[i], brute_force_topk(x, theta, users[i], 10));
      }
    }
  }
}

TEST(MultiDeviceBackend, ParityAcrossPruneExcludeAndBlockConfigs) {
  const idx_t m = 30, n = 113;
  const int f = 12;
  const auto x = random_factors(m, f, 201);
  auto theta = random_factors(n, f, 202);
  // Spread the item norms so the prune configurations actually prune.
  for (idx_t v = 0; v < theta.rows(); ++v) {
    const real_t scale = real_t{1} / static_cast<real_t>(1 + v);
    for (int j = 0; j < theta.f(); ++j) theta.row(v)[j] *= scale;
  }
  const auto R = random_ratings(m, n, 300, 203);

  std::vector<idx_t> users(static_cast<std::size_t>(m));
  for (idx_t u = 0; u < m; ++u) users[static_cast<std::size_t>(u)] = u;

  for (const int devices : {1, 2}) {
    for (const int shards : {1, 3, 5}) {
      const serve::FactorStore store(x, theta, shards);
      for (const bool prune : {true, false}) {
        for (const bool exclude : {true, false}) {
          for (const int block : {1, 7}) {
            SCOPED_TRACE(testing::Message()
                         << "devices=" << devices << " shards=" << shards
                         << " prune=" << prune << " exclude=" << exclude
                         << " block=" << block);
            serve::TopKOptions base;
            base.user_block = block;
            base.prune = prune;
            base.exclude_rated = exclude ? &R : nullptr;
            const serve::TopKEngine cpu_engine(store, base);

            const auto topo = gpusim::PcieTopology::flat(devices);
            gpusim::DeviceGroup group(devices, gpusim::gk210(), topo);
            const auto backend = make_backend(group, topo, &store);
            serve::TopKOptions opt = base;
            opt.backend = backend.get();
            const serve::TopKEngine engine(store, opt);

            const auto want = cpu_engine.recommend(users, 9);
            const auto got = engine.recommend(users, 9);
            for (std::size_t i = 0; i < users.size(); ++i) {
              ASSERT_EQ(got[i], want[i]) << "user=" << users[i];
              ASSERT_EQ(got[i], brute_force_topk(x, theta, users[i], 9,
                                                 exclude ? &R : nullptr))
                  << "vs brute force, user=" << users[i];
            }
            // Both engines did identical logical work.
            EXPECT_EQ(engine.items_scored(), cpu_engine.items_scored());
            EXPECT_EQ(engine.items_pruned(), cpu_engine.items_pruned());
          }
        }
      }
    }
  }
}

TEST(MultiDeviceBackend, KLargerThanPerDeviceCandidates) {
  // 4 devices × 4 shards of ~13 items each: k=25 exceeds any single device's
  // candidate pool, so the final list must interleave devices.
  const auto x = random_factors(10, 8, 31);
  const auto theta = random_factors(52, 8, 32);
  const serve::FactorStore store(x, theta, 4);
  const auto topo = gpusim::PcieTopology::flat(4);
  gpusim::DeviceGroup group(4, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo, store);
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(store, opt);

  for (const idx_t u : {0, 5, 9}) {
    const auto got = engine.recommend_one(u, 25);
    EXPECT_EQ(got, brute_force_topk(x, theta, u, 25));
    EXPECT_EQ(got.size(), 25u);
  }
  // Asking for more than the catalog returns the whole ranked catalog.
  EXPECT_EQ(engine.recommend_one(0, 99).size(), 52u);
}

TEST(MultiDeviceBackend, CatalogTooBigForOneDeviceServesOnTwo) {
  const auto store = capacity_store(4);

  // Single simulated device: the whole model exceeds capacity.
  {
    gpusim::Device dev(0, gpusim::tiny_device(kCapDevice));
    EXPECT_THROW(serve::MultiDeviceScoringBackend(dev, store),
                 gpusim::DeviceOomError);
    EXPECT_EQ(dev.used_bytes(), 0u);
  }
  // A one-device group of the same size: still OOM.
  {
    const auto topo = gpusim::PcieTopology::flat(1);
    gpusim::DeviceGroup group(1, gpusim::tiny_device(kCapDevice), topo);
    EXPECT_THROW(serve::MultiDeviceScoringBackend(group, topo, store),
                 gpusim::DeviceOomError);
    EXPECT_EQ(group[0].used_bytes(), 0u);  // rollback left no torn charge
  }
  // Two devices: the shards spread and serving matches brute force.
  {
    const auto topo = gpusim::PcieTopology::flat(2);
    gpusim::DeviceGroup group(2, gpusim::tiny_device(kCapDevice), topo);
    serve::MultiDeviceScoringBackend backend(group, topo, store);
    EXPECT_GT(group[0].used_bytes(), 0u);
    EXPECT_GT(group[1].used_bytes(), 0u);
    EXPECT_EQ(backend.model_bytes(),
              group[0].used_bytes() + group[1].used_bytes());
    EXPECT_EQ(backend.device_count(), 2);

    serve::TopKOptions opt;
    opt.backend = &backend;
    const serve::TopKEngine engine(store, opt);
    const auto x2 = random_factors(kCapUsers, kCapF, 1);
    const auto t2 = random_factors(kCapItems, kCapF, 2);
    for (const idx_t u : {0, 50, 99}) {
      EXPECT_EQ(engine.recommend_one(u, 10), brute_force_topk(x2, t2, u, 10));
    }
  }
}

TEST(MultiDeviceBackend, PlacementFollowsFreeCapacity) {
  const auto store = capacity_store(4);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::tiny_device(200'000), topo);
  // Ballast on device 0 (another tenant): 5 KB left cannot hold the replica
  // plus any shard, so every shard must land on device 1.
  group[0].charge(195'000);
  serve::MultiDeviceScoringBackend backend(group, topo, store);

  const auto placement = backend.shard_devices(store);
  ASSERT_EQ(placement.size(), 4u);
  for (const int d : placement) EXPECT_EQ(d, 1);
  EXPECT_EQ(group[0].used_bytes(), 195'000u);  // ballast only, no replica
  EXPECT_EQ(backend.placement_imbalance(store), 1.0);  // one active device
}

TEST(MultiDeviceBackend, UnevenPlacementReportsImbalance) {
  // 3 shards on 2 devices: one device carries two shards — imbalance ≈ 4/3.
  const auto store = capacity_store(3);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo, store);
  const double imbalance = backend.placement_imbalance(store);
  EXPECT_GT(imbalance, 1.2);
  EXPECT_LT(imbalance, 1.5);
}

TEST(MultiDeviceBackend, OneDeviceChargesTheWholeModelUntilDestroyed) {
  const auto store = capacity_store(4);
  gpusim::Device dev(0, gpusim::titan_x());
  {
    serve::MultiDeviceScoringBackend backend(dev, store);
    EXPECT_EQ(backend.device_count(), 1);
    EXPECT_EQ(dev.used_bytes(), backend.model_bytes());
    // X + Θ factors plus the per-row norm arrays: the X replica and every
    // shard land on the one device.
    EXPECT_EQ(backend.model_bytes(),
              (kCapUsers + kCapItems) * kCapF * sizeof(real_t) +
                  (kCapUsers + kCapItems) * sizeof(double));
    EXPECT_EQ(backend.peak_model_bytes(0), backend.model_bytes());
    EXPECT_EQ(backend.resident_models(), 1);
  }
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST(MultiDeviceBackend, AccountsKernelsAndGatherTransfersPerDevice) {
  const int f = 16;
  const auto x = random_factors(64, f, 41);
  const auto theta = random_factors(400, f, 42);
  const serve::FactorStore store(x, theta, 4);
  auto& trace = obs::TraceCollector::global();

  for (const int p : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "devices=" << p);
    const auto topo = gpusim::PcieTopology::flat(p);
    gpusim::DeviceGroup group(p, gpusim::titan_x(), topo);
    const auto backend = make_backend(group, topo, &store);
    serve::TopKOptions opt;
    opt.backend = backend.get();
    opt.user_block = 32;
    const serve::TopKEngine engine(store, opt);

    std::vector<idx_t> users(32);
    for (idx_t u = 0; u < 32; ++u) users[static_cast<std::size_t>(u)] = u;
    trace.clear();
    trace.enable();
    (void)engine.recommend(users, 10);
    trace.disable();
    const std::string json = trace.export_chrome_json();
    trace.clear();

    double flops = 0.0;
    double clock_s = 0.0;
    for (int d = 0; d < p; ++d) {
      const auto& c = group[d].counters();
      // 4 shards × 1 block, spread evenly over the devices.
      EXPECT_EQ(c.kernels_launched, static_cast<std::uint64_t>(4 / p))
          << "device " << d;
      EXPECT_GT(c.flops, 0.0) << "device " << d;
      EXPECT_GT(c.global_read, 0u) << "device " << d;    // θ rows streamed
      EXPECT_GT(c.gathered_read, 0u) << "device " << d;  // x_u gathers
      EXPECT_EQ(c.texture_read, c.gathered_read)         // via texture
          << "device " << d;
      EXPECT_GT(c.shared_read, 0u) << "device " << d;  // cached-row replays
      EXPECT_GT(c.global_write, 0u) << "device " << d;  // heap write-back
      EXPECT_GT(group[d].clock_seconds(), 0.0) << "device " << d;
      flops += c.flops;
      clock_s = std::max(clock_s, group[d].clock_seconds());
      if (p == 1) {
        // One device: its partials are final, so nothing is gathered.
        EXPECT_EQ(c.transfers, 0u);
        EXPECT_EQ(c.d2h_bytes, 0u);
      } else {
        // Each device shipped its 32-user × 10-candidate partials.
        EXPECT_EQ(c.transfers, 1u) << "device " << d;
        EXPECT_EQ(c.d2h_bytes, 32u * 10u * 8u) << "device " << d;
      }
    }
    // flops are exactly 2·f per scored dot.
    EXPECT_DOUBLE_EQ(flops,
                     2.0 * f * static_cast<double>(engine.items_scored()));

    // Every kernel span carries one schema: device, scored, modeled_us.
    EXPECT_NE(json.find("gpusim.kernel"), std::string::npos);
    EXPECT_NE(json.find("\"device\""), std::string::npos);
    EXPECT_EQ(json.find("rows_swept"), std::string::npos);

    const auto modeled = engine.batch_modeled_summary();
    EXPECT_EQ(modeled.samples, 1u);
    if (p == 1) {
      // Launches serialize on the one device's stream: the batch costs the
      // sum of its launches — the device clock — with no interconnect slice.
      EXPECT_DOUBLE_EQ(modeled.p50_ms, clock_s * 1e3);
      EXPECT_EQ(engine.batch_interconnect_summary().total_recorded, 0u);
      EXPECT_EQ(json.find("gpusim.transfer"), std::string::npos);
    } else {
      // The engine recorded the modeled batch with a nonzero interconnect
      // slice on top of the slowest device's kernels.
      EXPECT_GT(engine.batch_interconnect_summary().total_recorded, 0u);
      EXPECT_GE(modeled.p50_ms, engine.batch_interconnect_summary().p50_ms);
      EXPECT_NE(json.find("gpusim.transfer"), std::string::npos);
    }

    // The modeled axis is recorded per batch and the clocks keep advancing.
    const double clock_after_first = group[0].clock_seconds();
    (void)engine.recommend(users, 10);
    EXPECT_GT(group[0].clock_seconds(), clock_after_first);
    EXPECT_EQ(engine.batch_modeled_summary().samples, 2u);
  }
}

TEST(MultiDeviceBackend, EmitsMergeKernelAndTransferSpans) {
  const auto store = capacity_store(4, 51);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo, store);
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(store, opt);

  auto& trace = obs::TraceCollector::global();
  trace.enable();
  (void)engine.recommend_one(3, 10);
  trace.disable();

  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "md_trace.json").string();
  ASSERT_TRUE(trace.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("engine.merge"), std::string::npos);
  EXPECT_NE(json.find("gpusim.kernel"), std::string::npos);
  EXPECT_NE(json.find("gpusim.transfer"), std::string::npos);
  EXPECT_NE(json.find("\"device\""), std::string::npos);
}

TEST(MultiDeviceBackend, OomOnAnyDeviceVetoesTheSwapEverywhere) {
  // Two devices sized to hold exactly one generation each (replica + half of
  // Θ ≈ 79.2 KB < 100 KB < 2 × 79.2 KB): admitting a second generation while
  // the first is still serving must fail on every device and leave the old
  // generation untouched.
  serve::LiveFactorStore live(capacity_store(4, 61));
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::tiny_device(kCapDevice), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  live.set_admission_hook(
      [&backend](const std::shared_ptr<const serve::FactorStore>& s) {
        backend.admit(s);
      });
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(live, opt);

  const auto before = engine.recommend_one(42, 10);
  EXPECT_EQ(backend.resident_models(), 1);
  const bytes_t used0 = group[0].used_bytes();
  const bytes_t used1 = group[1].used_bytes();

  const auto outcome = live.refresh(capacity_store(4, 71));
  EXPECT_FALSE(outcome.swapped);
  EXPECT_NE(outcome.error.find("out of memory"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(outcome.generation, 1u);
  EXPECT_EQ(live.generation(), 1u);
  EXPECT_EQ(live.refresh_failures(), 1u);
  // No torn charges: both devices hold exactly what they held before.
  EXPECT_EQ(group[0].used_bytes(), used0);
  EXPECT_EQ(group[1].used_bytes(), used1);
  EXPECT_EQ(backend.resident_models(), 1);
  // The old generation still answers, bit-identically.
  EXPECT_EQ(engine.recommend_one(42, 10), before);
}

TEST(MultiDeviceBackend, HotSwapChargesBothGenerationsThenDrains) {
  // Generations are charged either up front by the admission hook or lazily
  // by the first batch that pins them; either way, while a reader still pins
  // the old generation both are resident, and the old one is released at
  // the first batch boundary after it drains.
  const auto x2 = random_factors(kCapUsers, kCapF, 91);
  const auto t2 = random_factors(kCapItems, kCapF, 92);
  const std::vector<idx_t> users = {0, 7, 42, 99};
  for (const int p : {1, 2}) {
    for (const bool hook : {false, true}) {
      SCOPED_TRACE(testing::Message() << "devices=" << p << " hook=" << hook);
      serve::LiveFactorStore live(capacity_store(4, 81));
      const auto topo = gpusim::PcieTopology::flat(p);
      gpusim::DeviceGroup group(p, gpusim::titan_x(), topo);  // plenty of room
      const auto backend = make_backend(group, topo);
      EXPECT_EQ(used_bytes(group), 0u);
      EXPECT_EQ(backend->resident_models(), 0);
      if (hook) {
        live.set_admission_hook(
            [&backend](const std::shared_ptr<const serve::FactorStore>& s) {
              backend->admit(s);
            });
      }
      serve::TopKOptions opt;
      opt.backend = backend.get();
      opt.user_block = 8;
      const serve::TopKEngine engine(live, opt);

      (void)engine.recommend(users, 5);
      ASSERT_EQ(backend->resident_models(), 1);
      const bytes_t per_gen = backend->model_bytes();
      // One generation: X + Θ + norms, plus one more X replica per extra
      // device that holds shards.
      EXPECT_EQ(per_gen, static_cast<bytes_t>(p) *
                                 serve::MultiDeviceScoringBackend::
                                     replica_bytes(*live.pin().store) +
                             kCapItems * kCapF * sizeof(real_t) +
                             kCapItems * sizeof(double));
      EXPECT_EQ(used_bytes(group), per_gen);

      // An in-flight reader pins generation 1 across the swap.
      auto pin = live.pin();
      const auto outcome = live.refresh(capacity_store(4, 91));
      EXPECT_TRUE(outcome.swapped);
      EXPECT_EQ(outcome.generation, 2u);
      // The hook charges the candidate inside the swap; without it the next
      // batch does.
      EXPECT_EQ(backend->resident_models(), hook ? 2 : 1);
      const auto batch = engine.recommend_batch(users, 10);
      EXPECT_EQ(batch.generation, 2u);
      for (std::size_t i = 0; i < users.size(); ++i) {
        EXPECT_EQ(batch.lists[i], brute_force_topk(x2, t2, users[i], 10));
      }
      EXPECT_EQ(backend->resident_models(), 2);
      EXPECT_EQ(backend->model_bytes(), 2 * per_gen);
      EXPECT_EQ(used_bytes(group), 2 * per_gen);
      EXPECT_EQ(peak_bytes(*backend), 2 * per_gen);

      // Release the pin: generation 1 has drained, and the next batch
      // boundary returns its capacity. The high-water marks keep the swap
      // peak visible.
      pin.store.reset();
      (void)engine.recommend(users, 5);
      EXPECT_EQ(backend->resident_models(), 1);
      EXPECT_EQ(used_bytes(group), per_gen);
      EXPECT_EQ(peak_bytes(*backend), 2 * per_gen);
    }
  }
}

TEST(MultiDeviceBackend, LazyChargeOomsOnSwapOnlyWhileOldGenerationPinned) {
  // One device, no admission hook: generations are charged by the first
  // batch that pins them, so a swap onto a device that cannot hold both
  // generations fails at that batch — and only while the old one is pinned.
  const auto x1 = random_factors(16, 8, 411);
  const auto t1 = random_factors(40, 8, 412);
  const auto x2 = random_factors(16, 8, 413);
  const auto t2 = random_factors(40, 8, 414);
  const bytes_t per_model = (16u + 40u) * 8u * sizeof(real_t) +
                            (16u + 40u) * sizeof(double);

  // Fits one generation with headroom, never two.
  gpusim::Device dev(0, gpusim::tiny_device(per_model + per_model / 2));
  serve::MultiDeviceScoringBackend backend(dev);

  serve::LiveFactorStore live(serve::FactorStore(x1, t1, 2));
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(live, opt);

  const std::vector<idx_t> users = {0, 1, 2, 3};
  (void)engine.recommend(users, 5);
  EXPECT_EQ(dev.used_bytes(), per_model);

  // While generation 1 is pinned by a reader, charging generation 2 exceeds
  // capacity: the both-resident peak surfaces as the same eq.-8 OOM pressure
  // training feels, instead of silently under-accounting the swap.
  auto pin = live.pin();
  live.refresh(serve::FactorStore(x2, t2, 2));
  EXPECT_THROW((void)engine.recommend(users, 5), gpusim::DeviceOomError);
  EXPECT_EQ(dev.used_bytes(), per_model);  // the failed charge rolled back

  // Once the reader drains, the swap completes within capacity.
  pin.store.reset();
  const auto batch = engine.recommend_batch(users, 5);
  EXPECT_EQ(batch.generation, 2u);
  EXPECT_EQ(batch.lists[0], brute_force_topk(x2, t2, 0, 5));
  EXPECT_EQ(backend.resident_models(), 1);
  EXPECT_EQ(dev.used_bytes(), per_model);
}

TEST(MultiDeviceBackend, RefreshUnderQueryKeepsAnswersGenerationConsistent) {
  // TSan stress: queries race hot swaps. Every answer must be bit-identical
  // to the brute-force reference of the generation the engine reports it was
  // answered under — never a mix of two generations' shards.
  constexpr idx_t kUsers = 48;
  constexpr idx_t kItems = 160;
  constexpr int kF = 8;
  constexpr int kGens = 4;
  constexpr int kThreads = 3;

  std::vector<linalg::FactorMatrix> xs;
  std::vector<linalg::FactorMatrix> thetas;
  for (int g = 0; g < kGens; ++g) {
    xs.push_back(random_factors(kUsers, kF, 100 + 2 * g));
    thetas.push_back(random_factors(kItems, kF, 101 + 2 * g));
  }
  // expected[g][u] = brute-force top-5 for generation g+1.
  std::vector<std::vector<std::vector<serve::Recommendation>>> expected(kGens);
  for (int g = 0; g < kGens; ++g) {
    for (idx_t u = 0; u < kUsers; ++u) {
      expected[static_cast<std::size_t>(g)].push_back(
          brute_force_topk(xs[static_cast<std::size_t>(g)],
                           thetas[static_cast<std::size_t>(g)], u, 5));
    }
  }

  serve::LiveFactorStore live(serve::FactorStore(xs[0], thetas[0], 3));
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  live.set_admission_hook(
      [&backend](const std::shared_ptr<const serve::FactorStore>& s) {
        backend.admit(s);
      });
  serve::TopKOptions opt;
  opt.backend = &backend;
  opt.user_block = 8;
  const serve::TopKEngine engine(live, opt);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<idx_t> users(8);
      std::uint64_t seed = static_cast<std::uint64_t>(t) + 7;
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& u : users) {
          seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
          u = static_cast<idx_t>((seed >> 33) %
                                 static_cast<std::uint64_t>(kUsers));
        }
        const auto batch = engine.recommend_batch(users, 5);
        const auto g = static_cast<std::size_t>(batch.generation - 1);
        for (std::size_t i = 0; i < users.size(); ++i) {
          if (batch.lists[i] !=
              expected[g][static_cast<std::size_t>(users[i])]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (int g = 1; g < kGens; ++g) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto outcome = live.refresh(
        serve::FactorStore(xs[static_cast<std::size_t>(g)],
                           thetas[static_cast<std::size_t>(g)], 3));
    ASSERT_TRUE(outcome.swapped);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& w : workers) w.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(live.generation(), static_cast<std::uint64_t>(kGens));
  // Drained generations are garbage-collected down to the serving one.
  (void)engine.recommend_one(0, 5);
  EXPECT_EQ(backend.resident_models(), 1);
}

}  // namespace
}  // namespace cumf
