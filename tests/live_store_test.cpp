#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/live_store.hpp"
#include "serve/scoring_backend.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"

namespace cumf {
namespace {

using serve_test::brute_force_topk;
using serve_test::random_factors;

/// One model snapshot plus its serial brute-force top-k answers — the
/// bit-exact oracle a served response is checked against per generation.
struct ModelSnapshot {
  linalg::FactorMatrix x;
  linalg::FactorMatrix theta;
  std::vector<std::vector<serve::Recommendation>> expected;  // per user
};

ModelSnapshot make_snapshot(idx_t m, idx_t n, int f, int k,
                            std::uint64_t seed) {
  ModelSnapshot s{random_factors(m, f, seed), random_factors(n, f, seed + 1), {}};
  s.expected.reserve(static_cast<std::size_t>(m));
  for (idx_t u = 0; u < m; ++u) {
    s.expected.push_back(brute_force_topk(s.x, s.theta, u, k));
  }
  return s;
}

// ------------------------------------------------------- LiveFactorStore ----

TEST(LiveFactorStore, ServesInitialGenerationAndTagsBatches) {
  const auto snap = make_snapshot(10, 40, 6, 4, 301);
  serve::LiveFactorStore live(serve::FactorStore(snap.x, snap.theta, 3));
  EXPECT_EQ(live.generation(), 1u);
  EXPECT_EQ(live.shards(), 3);

  const serve::TopKEngine engine(live);
  EXPECT_EQ(engine.num_users(), 10);
  EXPECT_EQ(engine.live_store(), &live);
  EXPECT_THROW((void)engine.store(), std::logic_error);

  std::vector<idx_t> users = {0, 3, 7};
  const auto batch = engine.recommend_batch(users, 4);
  EXPECT_EQ(batch.generation, 1u);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(batch.lists[i],
              snap.expected[static_cast<std::size_t>(users[i])]);
  }

  // Static engines report generation 0: "no live refresh in the stack".
  const serve::FactorStore fixed(snap.x, snap.theta, 2);
  const serve::TopKEngine static_engine(fixed);
  EXPECT_EQ(static_engine.live_store(), nullptr);
  EXPECT_EQ(static_engine.recommend_batch(users, 4).generation, 0u);
}

TEST(LiveFactorStore, RefreshSwapsGenerationAndPinKeepsOldOneAlive) {
  const int kTop = 5;
  const auto gen1 = make_snapshot(12, 50, 8, kTop, 311);
  const auto gen2 = make_snapshot(12, 50, 8, kTop, 313);

  serve::LiveFactorStore live(serve::FactorStore(gen1.x, gen1.theta, 2));
  const serve::TopKEngine engine(live);

  // Pin generation 1, as an in-flight query batch would.
  const auto pin = live.pin();
  EXPECT_EQ(pin.generation, 1u);

  const auto outcome = live.refresh(serve::FactorStore(gen2.x, gen2.theta, 2));
  EXPECT_TRUE(outcome.swapped);
  EXPECT_EQ(outcome.generation, 2u);
  EXPECT_GE(outcome.swap_pause_ms, 0.0);
  EXPECT_EQ(live.generation(), 2u);
  EXPECT_EQ(live.refreshes(), 1u);
  EXPECT_EQ(live.swap_pause_summary().samples, 1u);

  // New queries are answered from generation 2...
  const auto batch = engine.recommend_batch(std::vector<idx_t>{2, 9}, kTop);
  EXPECT_EQ(batch.generation, 2u);
  EXPECT_EQ(batch.lists[0], gen2.expected[2]);
  EXPECT_EQ(batch.lists[1], gen2.expected[9]);

  // ...while the pinned snapshot stays alive and bit-stable until released.
  const serve::TopKEngine pinned_engine(*pin.store);
  for (idx_t u = 0; u < 12; ++u) {
    EXPECT_EQ(pinned_engine.recommend_one(u, kTop),
              gen1.expected[static_cast<std::size_t>(u)]);
  }
}

TEST(LiveFactorStore, MissingOrCorruptCheckpointKeepsOldGenerationServing) {
  const int kTop = 4;
  const auto gen1 = make_snapshot(9, 30, 6, kTop, 321);
  const auto gen2 = make_snapshot(9, 30, 6, kTop, 323);
  const serve_test::TempCheckpointDir dir("cumf_live_corrupt_ckpt");

  serve::LiveFactorStore live(serve::FactorStore(gen1.x, gen1.theta, 2));
  const serve::TopKEngine engine(live);

  // Empty directory: nothing to restore.
  const auto missing = live.refresh_from_checkpoint(dir.path());
  EXPECT_FALSE(missing.swapped);
  EXPECT_EQ(missing.generation, 1u);
  EXPECT_FALSE(missing.error.empty());
  EXPECT_EQ(live.refresh_failures(), 1u);

  // Corrupt/partial checkpoint (crash mid-write, no valid fallback): the
  // refresh is rejected and the old generation keeps serving bit-exactly.
  dir.write(gen2.x, gen2.theta, 3);
  dir.corrupt_current();
  const auto corrupt = live.refresh_from_checkpoint(dir.path());
  EXPECT_FALSE(corrupt.swapped);
  EXPECT_FALSE(corrupt.error.empty());
  EXPECT_EQ(live.generation(), 1u);
  EXPECT_EQ(live.refreshes(), 0u);
  EXPECT_EQ(live.refresh_failures(), 2u);
  for (idx_t u = 0; u < 9; ++u) {
    EXPECT_EQ(engine.recommend_one(u, kTop),
              gen1.expected[static_cast<std::size_t>(u)]);
  }

  // A subsequent valid checkpoint swaps in normally.
  dir.write(gen2.x, gen2.theta, 4);
  const auto ok = live.refresh_from_checkpoint(dir.path());
  EXPECT_TRUE(ok.swapped);
  EXPECT_GT(ok.load_ms, 0.0);
  EXPECT_EQ(live.generation(), 2u);
  EXPECT_EQ(live.pin()->restored_iteration(), 4);
  for (idx_t u = 0; u < 9; ++u) {
    EXPECT_EQ(engine.recommend_one(u, kTop),
              gen2.expected[static_cast<std::size_t>(u)]);
  }
}

// The acceptance-criteria stress test: N query threads hammer a live engine
// while M refresher threads hot-swap checkpoints in concurrently. Every
// response must be bit-exact against the brute-force oracle of *some single*
// generation (old or new — never a torn mix), generation tags must map to
// one snapshot consistently, and no query may be dropped.
TEST(LiveFactorStore, StressConcurrentSwapsServeTornFreeBitExactAnswers) {
  constexpr idx_t kUsers = 24;
  constexpr idx_t kItems = 72;
  constexpr int kF = 8;
  constexpr int kTop = 5;
  constexpr int kShards = 3;
  constexpr int kQueryThreads = 5;     // >= 4 per the acceptance criteria
  constexpr int kRefreshers = 2;       // concurrent refresh_from_checkpoint
  constexpr int kSwapsEach = 2;        // >= 3 swaps total (here: 4)
  constexpr int kSnapshots = 1 + kRefreshers * kSwapsEach;
  constexpr std::size_t kBatchUsers = 6;

  std::vector<ModelSnapshot> snaps;
  std::vector<std::unique_ptr<serve_test::TempCheckpointDir>> dirs;
  for (int d = 0; d < kSnapshots; ++d) {
    snaps.push_back(make_snapshot(kUsers, kItems, kF, kTop,
                                  1000 + 10 * static_cast<std::uint64_t>(d)));
    dirs.push_back(std::make_unique<serve_test::TempCheckpointDir>(
        "cumf_live_stress_" + std::to_string(d)));
    if (d > 0) dirs.back()->write(snaps[d].x, snaps[d].theta, d);
  }

  serve::LiveFactorStore live(
      serve::FactorStore(snaps[0].x, snaps[0].theta, kShards));
  serve::TopKOptions opt;
  opt.user_block = 4;  // several shard × block tasks per batch
  const serve::TopKEngine engine(live, opt);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches_done{0};
  // generation number -> snapshot index, fixed by whichever thread sees the
  // pair first; a second sighting with a different snapshot is a torn read.
  std::array<std::atomic<int>, kSnapshots + 2> gen_snapshot;
  for (auto& g : gen_snapshot) g.store(-1);
  std::mutex failures_mu;
  std::vector<std::string> failures;
  const auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 16) failures.push_back(std::move(what));
  };

  const auto matches_snapshot = [&](const serve::RecommendBatch& batch,
                                    const std::vector<idx_t>& users, int d) {
    for (std::size_t i = 0; i < users.size(); ++i) {
      if (batch.lists[i] !=
          snaps[static_cast<std::size_t>(d)]
              .expected[static_cast<std::size_t>(users[i])]) {
        return false;
      }
    }
    return true;
  };

  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      util::Rng rng(9000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<idx_t> users(kBatchUsers);
        for (auto& u : users) {
          u = static_cast<idx_t>(
              rng.next_below(static_cast<std::uint64_t>(kUsers)));
        }
        serve::RecommendBatch batch;
        try {
          batch = engine.recommend_batch(users, kTop);
        } catch (const std::exception& e) {
          fail(std::string("query dropped: ") + e.what());
          break;
        }
        if (batch.generation < 1 ||
            batch.generation > static_cast<std::uint64_t>(kSnapshots)) {
          fail("generation tag out of range: " +
               std::to_string(batch.generation));
          break;
        }
        // The whole batch must be bit-exact against exactly one snapshot —
        // a response mixing two generations matches none of them.
        int match = -1;
        for (int d = 0; d < kSnapshots; ++d) {
          if (matches_snapshot(batch, users, d)) {
            match = d;
            break;
          }
        }
        if (match < 0) {
          fail("torn response: batch matches no single generation");
          break;
        }
        auto& slot = gen_snapshot[static_cast<std::size_t>(batch.generation)];
        int want = -1;
        if (!slot.compare_exchange_strong(want, match) && want != match) {
          fail("generation " + std::to_string(batch.generation) +
               " served two different snapshots");
          break;
        }
        batches_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Refreshers interleave with live traffic: each waits for query progress
  // (bounded, so a loaded machine cannot hang the test), then swaps.
  std::vector<std::thread> refreshers;
  for (int r = 0; r < kRefreshers; ++r) {
    refreshers.emplace_back([&, r] {
      for (int s = 0; s < kSwapsEach; ++s) {
        const int d = 1 + r * kSwapsEach + s;
        const std::uint64_t seen = batches_done.load();
        for (int spin = 0;
             spin < 2000 && batches_done.load() < seen + kQueryThreads;
             ++spin) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const auto outcome =
            live.refresh_from_checkpoint(dirs[static_cast<std::size_t>(d)]->path());
        if (!outcome.swapped) fail("refresh failed: " + outcome.error);
      }
    });
  }

  for (auto& t : refreshers) t.join();
  // Let queries observe the final generation before stopping.
  const std::uint64_t after_swaps = batches_done.load();
  for (int spin = 0;
       spin < 2000 && batches_done.load() < after_swaps + kQueryThreads;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : queriers) t.join();

  for (const auto& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(live.refreshes(),
            static_cast<std::uint64_t>(kRefreshers * kSwapsEach));
  EXPECT_EQ(live.refresh_failures(), 0u);
  EXPECT_EQ(live.generation(),
            static_cast<std::uint64_t>(1 + kRefreshers * kSwapsEach));
  EXPECT_EQ(live.swap_pause_summary().samples,
            static_cast<std::uint64_t>(kRefreshers * kSwapsEach));
  EXPECT_GE(batches_done.load(),
            static_cast<std::uint64_t>(kQueryThreads * (kRefreshers * kSwapsEach + 1)));
  // The generation serving at the end answers bit-exactly for its snapshot.
  const int final_snap =
      gen_snapshot[static_cast<std::size_t>(live.generation())].load();
  ASSERT_GE(final_snap, 1);
  std::vector<idx_t> probe = {0, 5, 11, 17, 23};
  const auto batch = engine.recommend_batch(probe, kTop);
  EXPECT_TRUE(matches_snapshot(batch, probe, final_snap));
}

// ------------------------------------------- RequestBatcher over a swap ----

TEST(RequestBatcher, SwapInvalidatesCacheIncrementallyAndServesFreshAnswers) {
  const int kTop = 4;
  const auto gen1 = make_snapshot(10, 40, 6, kTop, 421);
  const auto gen2 = make_snapshot(10, 40, 6, kTop, 423);

  serve::LiveFactorStore live(serve::FactorStore(gen1.x, gen1.theta, 2));
  const serve::TopKEngine engine(live);

  serve::BatcherOptions opt;
  opt.k = kTop;
  opt.max_batch = 1;  // flush immediately so the second query sees the cache
  opt.cache_capacity = 8;
  serve::RequestBatcher batcher(engine, opt);

  EXPECT_EQ(batcher.query(3), gen1.expected[3]);
  EXPECT_EQ(batcher.query(3), gen1.expected[3]);  // cache hit
  auto stats = batcher.stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_stale_evictions, 0u);

  ASSERT_TRUE(live.refresh(serve::FactorStore(gen2.x, gen2.theta, 2)).swapped);

  // The cached generation-1 list must not be served: it is evicted on access
  // and the query is rescored against generation 2.
  EXPECT_EQ(batcher.query(3), gen2.expected[3]);
  EXPECT_EQ(batcher.query(3), gen2.expected[3]);  // fresh entry hits again
  stats = batcher.stats();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.refresh_failures, 0u);
  EXPECT_EQ(stats.cache_stale_evictions, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.swap_pause.samples, 1u);
}

TEST(RequestBatcher, ShrinkingSwapFailsAdmittedBatchFuturesNotTheServer) {
  const int kTop = 3;
  const auto big = make_snapshot(10, 30, 6, kTop, 431);
  const auto small = make_snapshot(4, 30, 6, kTop, 433);

  serve::LiveFactorStore live(serve::FactorStore(big.x, big.theta, 2));
  const serve::TopKEngine engine(live);

  serve::BatcherOptions opt;
  opt.k = kTop;
  opt.max_batch = 100;  // never fills; only flush() can trigger
  opt.max_delay = std::chrono::seconds(30);
  serve::RequestBatcher batcher(engine, opt);

  // Both admitted while in range; the swap shrinks the model to 4 users
  // before the batch runs. Only the now-out-of-range future may fail — the
  // valid query sharing the micro-batch must still be answered (against the
  // new generation), and nothing may unwind through the flusher thread and
  // take the server down.
  auto doomed = batcher.submit(8);
  auto survivor = batcher.submit(1);
  ASSERT_TRUE(live.refresh(serve::FactorStore(small.x, small.theta, 2)).swapped);
  batcher.flush();
  EXPECT_THROW((void)doomed.get(), std::out_of_range);
  EXPECT_EQ(survivor.get().items, small.expected[1]);

  // The batcher keeps serving: in-range queries succeed against the new
  // generation, and the now-out-of-range id fails fast at submit.
  auto ok = batcher.submit(2);
  batcher.flush();
  EXPECT_EQ(ok.get().items, small.expected[2]);
  EXPECT_THROW((void)batcher.submit(8).get(), std::out_of_range);
}

}  // namespace
}  // namespace cumf
