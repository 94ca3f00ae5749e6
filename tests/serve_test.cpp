#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/scoring_backend.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"

namespace cumf {
namespace {

using serve_test::brute_force_topk;
using serve_test::random_factors;
using serve_test::random_ratings;

// ---------------------------------------------------------- FactorStore ----

TEST(FactorStore, ShardsTileTheItemsWithDescendingNorms) {
  const auto x = random_factors(20, 8, 1);
  const auto theta = random_factors(103, 8, 2);
  const serve::FactorStore store(x, theta, 4);

  EXPECT_EQ(store.num_users(), 20);
  EXPECT_EQ(store.num_items(), 103);
  EXPECT_EQ(store.num_shards(), 4);

  std::vector<bool> seen(103, false);
  for (int s = 0; s < store.num_shards(); ++s) {
    const auto& shard = store.shard(s);
    ASSERT_EQ(shard.item_ids.size(), static_cast<std::size_t>(shard.items.size()));
    for (std::size_t slot = 0; slot < shard.item_ids.size(); ++slot) {
      const idx_t gid = shard.item_ids[slot];
      EXPECT_TRUE(shard.items.contains(gid));
      EXPECT_FALSE(seen[static_cast<std::size_t>(gid)]);
      seen[static_cast<std::size_t>(gid)] = true;
      // Shard rows hold the original factors, re-ordered.
      for (int j = 0; j < store.f(); ++j) {
        EXPECT_EQ(shard.theta.row(static_cast<idx_t>(slot))[j], theta.row(gid)[j]);
      }
      if (slot > 0) {
        EXPECT_GE(shard.norms[slot - 1], shard.norms[slot]);
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(FactorStore, MoreShardsThanItemsClamps) {
  const auto x = random_factors(4, 4, 3);
  const auto theta = random_factors(3, 4, 4);
  const serve::FactorStore store(x, theta, 16);
  EXPECT_EQ(store.num_shards(), 3);
  EXPECT_EQ(store.num_items(), 3);
}

TEST(FactorStore, CheckpointRoundTrip) {
  const serve_test::TempCheckpointDir dir("cumf_serve_ckpt");

  const auto x = random_factors(12, 6, 5);
  const auto theta = random_factors(31, 6, 6);
  dir.write(x, theta, 7);

  const auto store = serve::FactorStore::from_checkpoint(dir.path(), 3);
  EXPECT_EQ(store.restored_iteration(), 7);
  EXPECT_EQ(store.num_users(), 12);
  EXPECT_EQ(store.num_items(), 31);

  // Served recommendations from the restored store match the in-memory model.
  const serve::FactorStore direct(x, theta, 3);
  const serve::TopKEngine from_ckpt(store);
  const serve::TopKEngine from_mem(direct);
  for (idx_t u = 0; u < 12; ++u) {
    EXPECT_EQ(from_ckpt.recommend_one(u, 5), from_mem.recommend_one(u, 5));
  }
}

TEST(FactorStore, MissingCheckpointThrows) {
  const serve_test::TempCheckpointDir dir("cumf_serve_empty");
  EXPECT_THROW(serve::FactorStore::from_checkpoint(dir.path(), 2),
               std::runtime_error);
}

// ----------------------------------------------------------- TopKEngine ----

TEST(TopKEngine, MatchesBruteForceAcrossShardAndBlockShapes) {
  const idx_t m = 40, n = 157;
  const int f = 12;
  const auto x = random_factors(m, f, 11);
  const auto theta = random_factors(n, f, 12);

  std::vector<idx_t> users(static_cast<std::size_t>(m));
  for (idx_t u = 0; u < m; ++u) users[static_cast<std::size_t>(u)] = u;

  for (const int shards : {1, 3, 5}) {
    const serve::FactorStore store(x, theta, shards);
    for (const int block : {1, 7, 64}) {
      serve::TopKOptions opt;
      opt.user_block = block;
      const serve::TopKEngine engine(store, opt);
      for (const int k : {1, 10, 200 /* > n: returns all items ranked */}) {
        const auto got = engine.recommend(users, k);
        ASSERT_EQ(got.size(), users.size());
        for (std::size_t i = 0; i < users.size(); ++i) {
          const auto want = brute_force_topk(x, theta, users[i], k);
          ASSERT_EQ(got[i], want) << "shards=" << shards << " block=" << block
                                  << " k=" << k << " user=" << users[i];
        }
      }
    }
  }
}

TEST(TopKEngine, PruningDisabledGivesSameAnswer) {
  const auto x = random_factors(16, 8, 21);
  auto theta = random_factors(99, 8, 22);
  // Spread the item norms (popularity-skewed catalogs look like this) so the
  // Cauchy–Schwarz bound actually cuts off the long low-norm tail.
  for (idx_t v = 0; v < theta.rows(); ++v) {
    const real_t scale = real_t{1} / static_cast<real_t>(1 + v);
    for (int j = 0; j < theta.f(); ++j) theta.row(v)[j] *= scale;
  }
  const serve::FactorStore store(x, theta, 4);

  serve::TopKOptions no_prune;
  no_prune.prune = false;
  const serve::TopKEngine pruned(store);
  const serve::TopKEngine exhaustive(store, no_prune);
  for (idx_t u = 0; u < 16; ++u) {
    EXPECT_EQ(pruned.recommend_one(u, 7), exhaustive.recommend_one(u, 7));
  }
  // The pruned engine must have skipped work the exhaustive one did.
  EXPECT_GT(pruned.items_pruned(), 0u);
  EXPECT_LT(pruned.items_scored(), exhaustive.items_scored());
  EXPECT_EQ(exhaustive.items_pruned(), 0u);
}

TEST(TopKEngine, ExcludesRatedItems) {
  const idx_t m = 25, n = 80;
  const auto x = random_factors(m, 10, 31);
  const auto theta = random_factors(n, 10, 32);
  const auto R = random_ratings(m, n, 400, 33);

  const serve::FactorStore store(x, theta, 3);
  serve::TopKOptions opt;
  opt.exclude_rated = &R;
  opt.user_block = 8;
  const serve::TopKEngine engine(store, opt);

  std::vector<idx_t> users(static_cast<std::size_t>(m));
  for (idx_t u = 0; u < m; ++u) users[static_cast<std::size_t>(u)] = u;
  const auto got = engine.recommend(users, 12);
  for (idx_t u = 0; u < m; ++u) {
    const auto want = brute_force_topk(x, theta, u, 12, &R);
    ASSERT_EQ(got[static_cast<std::size_t>(u)], want) << "user=" << u;
    const auto rated = R.row_cols(u);
    for (const auto& rec : got[static_cast<std::size_t>(u)]) {
      EXPECT_EQ(std::count(rated.begin(), rated.end(), rec.item), 0)
          << "user " << u << " was recommended already-rated item " << rec.item;
    }
  }
}

TEST(TopKEngine, OutOfRangeUserThrows) {
  const auto x = random_factors(5, 4, 45);
  const auto theta = random_factors(20, 4, 46);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  EXPECT_THROW((void)engine.recommend_one(5, 3), std::out_of_range);
  EXPECT_THROW((void)engine.recommend_one(-1, 3), std::out_of_range);
  EXPECT_EQ(engine.recommend_one(4, 3).size(), 3u);
}

TEST(TopKEngine, EmptyQueryAndZeroK) {
  const auto x = random_factors(4, 4, 41);
  const auto theta = random_factors(9, 4, 42);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  EXPECT_TRUE(engine.recommend({}, 5).empty());
  EXPECT_TRUE(engine.recommend_one(0, 0).empty());
}

TEST(TopKEngine, WallLatencyPercentilesPopulated) {
  const auto x = random_factors(12, 6, 231);
  const auto theta = random_factors(60, 6, 232);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  for (idx_t u = 0; u < 12; ++u) (void)engine.recommend_one(u, 4);
  const auto wall = engine.batch_wall_summary();
  EXPECT_EQ(wall.samples, 12u);
  EXPECT_GT(wall.max_ms, 0.0);
  EXPECT_LE(wall.p50_ms, wall.p95_ms);
  EXPECT_LE(wall.p95_ms, wall.p99_ms);
  EXPECT_LE(wall.p99_ms, wall.max_ms);
  // CPU backend has no modeled-time axis.
  EXPECT_EQ(engine.batch_modeled_summary().samples, 0u);
}

// ------------------------------------------------------------ ScoreCache ----

TEST(ScoreCache, LruEvictionAndCounters) {
  serve::ScoreCache cache(2);
  std::vector<serve::Recommendation> out;

  EXPECT_FALSE(cache.get(1, 5, &out));  // miss
  cache.put(1, 5, {{10, 1.0}});
  cache.put(2, 5, {{20, 2.0}});
  EXPECT_TRUE(cache.get(1, 5, &out));  // hit; 1 becomes most recent
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].item, 10);

  cache.put(3, 5, {{30, 3.0}});        // evicts 2 (LRU)
  EXPECT_FALSE(cache.get(2, 5, &out));
  EXPECT_TRUE(cache.get(1, 5, &out));
  EXPECT_TRUE(cache.get(3, 5, &out));

  // Same user, different k is a distinct entry.
  EXPECT_FALSE(cache.get(1, 9, &out));

  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScoreCache, ZeroCapacityIsDisabled) {
  serve::ScoreCache cache(0);
  std::vector<serve::Recommendation> out;
  cache.put(1, 5, {{10, 1.0}});
  EXPECT_FALSE(cache.get(1, 5, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ScoreCache, GenerationBumpEvictsStaleEntriesLazily) {
  serve::ScoreCache cache(8);
  std::vector<serve::Recommendation> out;

  cache.put(1, 5, {{10, 1.0}});  // untagged = generation 0
  cache.put(2, 5, {{20, 2.0}});
  EXPECT_TRUE(cache.get(1, 5, &out));
  EXPECT_EQ(cache.generation(), 0u);

  // A swap happened: entries from generation 0 are stale but stay resident
  // until touched — invalidation is incremental, not a global clear().
  cache.set_generation(1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.get(1, 5, &out));  // stale: evicted on access
  EXPECT_EQ(cache.stale_evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // entry 2 still resident (untouched)

  // Fresh puts under the new generation hit.
  cache.put(1, 5, {{11, 1.5}}, 1);
  EXPECT_TRUE(cache.get(1, 5, &out));
  EXPECT_EQ(out[0].item, 11);

  // A put tagged with a *newer* generation advances the cache implicitly...
  cache.put(3, 5, {{30, 3.0}}, 2);
  EXPECT_EQ(cache.generation(), 2u);
  EXPECT_FALSE(cache.get(1, 5, &out));  // gen-1 entry now stale too
  EXPECT_EQ(cache.stale_evictions(), 2u);
  // ...and a put from a superseded batch is dropped, never poisoning it.
  cache.put(4, 5, {{40, 4.0}}, 1);
  EXPECT_FALSE(cache.get(4, 5, &out));
  EXPECT_TRUE(cache.get(3, 5, &out));

  // set_generation is monotonic: an older value cannot roll it back.
  cache.set_generation(1);
  EXPECT_EQ(cache.generation(), 2u);
}

TEST(ScoreCache, SameUserAtTwoKValuesAreIndependentEntries) {
  serve::ScoreCache cache(4);
  std::vector<serve::Recommendation> out;

  cache.put(7, 5, {{10, 1.0}});
  cache.put(7, 9, {{10, 1.0}, {11, 0.5}});
  EXPECT_EQ(cache.size(), 2u);

  ASSERT_TRUE(cache.get(7, 5, &out));
  EXPECT_EQ(out.size(), 1u);
  ASSERT_TRUE(cache.get(7, 9, &out));
  EXPECT_EQ(out.size(), 2u);

  // Invalidating one k leaves the other k's entry alone.
  cache.invalidate(7, 5);
  EXPECT_FALSE(cache.get(7, 5, &out));
  EXPECT_TRUE(cache.get(7, 9, &out));
}

TEST(ScoreCache, CapacityOneEvictionOrder) {
  serve::ScoreCache cache(1);
  std::vector<serve::Recommendation> out;

  cache.put(1, 5, {{10, 1.0}});
  EXPECT_TRUE(cache.get(1, 5, &out));

  cache.put(2, 5, {{20, 2.0}});  // displaces 1: capacity is a hard cap
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.get(1, 5, &out));
  EXPECT_TRUE(cache.get(2, 5, &out));

  // Re-putting the resident key is an update, not an insert+evict.
  cache.put(2, 5, {{21, 2.5}});
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.get(2, 5, &out));
  EXPECT_EQ(out[0].item, 21);
}

TEST(ScoreCache, BoundaryUserIdsNeverCollide) {
  // Regression: the key was once packed as (user << 32) | k in a uint64 via
  // int arithmetic, which sign-extended large user ids and truncated wide
  // idx_t builds. Entries at the idx_t boundary must stay distinct.
  serve::ScoreCache cache(8);
  std::vector<serve::Recommendation> out;

  constexpr idx_t hi = std::numeric_limits<idx_t>::max();
  cache.put(hi, 5, {{1, 1.0}});
  cache.put(hi - 1, 5, {{2, 2.0}});
  cache.put(hi, 7, {{3, 3.0}});
  EXPECT_EQ(cache.size(), 3u);

  ASSERT_TRUE(cache.get(hi, 5, &out));
  EXPECT_EQ(out[0].item, 1);
  ASSERT_TRUE(cache.get(hi - 1, 5, &out));
  EXPECT_EQ(out[0].item, 2);
  ASSERT_TRUE(cache.get(hi, 7, &out));
  EXPECT_EQ(out[0].item, 3);

  // Invalidation targets exactly one (user, k), even at the boundary.
  cache.invalidate(hi, 5);
  EXPECT_FALSE(cache.get(hi, 5, &out));
  EXPECT_TRUE(cache.get(hi - 1, 5, &out));
  EXPECT_TRUE(cache.get(hi, 7, &out));

  if constexpr (sizeof(idx_t) > 4) {
    // On wide-index builds, ids 2^32 apart truncated to the same packed key.
    const auto lo = static_cast<idx_t>(1);
    const auto far = static_cast<idx_t>(std::uint64_t{1} << 32 | 1u);
    cache.put(lo, 5, {{4, 4.0}});
    cache.put(far, 5, {{5, 5.0}});
    ASSERT_TRUE(cache.get(lo, 5, &out));
    EXPECT_EQ(out[0].item, 4);
    ASSERT_TRUE(cache.get(far, 5, &out));
    EXPECT_EQ(out[0].item, 5);
  }
}

TEST(ScoreCache, InvalidateAbsentKeyIsANoop) {
  serve::ScoreCache cache(2);
  std::vector<serve::Recommendation> out;
  cache.put(1, 5, {{10, 1.0}});

  cache.invalidate(99, 5);  // absent user
  cache.invalidate(1, 9);   // present user, different k
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.get(1, 5, &out));

  cache.invalidate(1, 5);
  cache.invalidate(1, 5);  // second invalidate of the same key: still a no-op
  EXPECT_EQ(cache.size(), 0u);
}

// -------------------------------------------------------- RequestBatcher ----

TEST(RequestBatcher, AnswersMatchDirectEngine) {
  const idx_t m = 30, n = 120;
  const auto x = random_factors(m, 8, 51);
  const auto theta = random_factors(n, 8, 52);
  const serve::FactorStore store(x, theta, 3);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 6;
  opt.max_batch = 8;
  serve::RequestBatcher batcher(engine, opt);

  std::vector<std::future<serve::BatchedAnswer>> futures;
  futures.reserve(static_cast<std::size_t>(m));
  for (idx_t u = 0; u < m; ++u) futures.push_back(batcher.submit(u));
  for (idx_t u = 0; u < m; ++u) {
    EXPECT_EQ(futures[static_cast<std::size_t>(u)].get().items,
              engine.recommend_one(u, 6))
        << "user=" << u;
  }

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(m));
  EXPECT_GE(stats.batches, (static_cast<std::uint64_t>(m) + 7) / 8);
  EXPECT_GT(stats.items_scored, 0u);
  // Engine batch latency percentiles ride along in the merged snapshot.
  EXPECT_GT(stats.batch_wall.samples, 0u);
  EXPECT_GT(stats.batch_wall.max_ms, 0.0);
}

TEST(RequestBatcher, HotUserCacheHits) {
  const auto x = random_factors(10, 6, 61);
  const auto theta = random_factors(50, 6, 62);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 4;
  opt.max_batch = 1;  // flush immediately so the second query sees the cache
  opt.cache_capacity = 8;
  serve::RequestBatcher batcher(engine, opt);

  const auto first = batcher.query(3);
  const auto second = batcher.query(3);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, engine.recommend_one(3, 4));

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the hit never reached the engine
}

TEST(RequestBatcher, DeadlineFlushesPartialBatch) {
  const auto x = random_factors(8, 4, 71);
  const auto theta = random_factors(30, 4, 72);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 3;
  opt.max_batch = 1000;  // never fills; only the deadline can flush
  opt.max_delay = std::chrono::microseconds(500);
  serve::RequestBatcher batcher(engine, opt);

  auto fut = batcher.submit(2);
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(fut.get().items, engine.recommend_one(2, 3));
}

TEST(RequestBatcher, BadUserFailsItsOwnFutureOnly) {
  const auto x = random_factors(5, 4, 91);
  const auto theta = random_factors(20, 4, 92);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 3;
  opt.max_batch = 2;
  serve::RequestBatcher batcher(engine, opt);

  auto bad = batcher.submit(99);
  auto good = batcher.submit(1);
  batcher.flush();
  EXPECT_THROW((void)bad.get(), std::out_of_range);
  EXPECT_EQ(good.get().items, engine.recommend_one(1, 3));
}

TEST(RequestBatcher, DuplicateUsersInOneBatchScoredOnce) {
  const auto x = random_factors(6, 4, 81);
  const auto theta = random_factors(40, 4, 82);
  const serve::FactorStore store(x, theta, 1);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 5;
  opt.max_batch = 4;
  // Deterministic: only the 4th submit (max_batch) can trigger the flush;
  // the deadline is far beyond any scheduler jitter between submits.
  opt.max_delay = std::chrono::seconds(30);
  serve::RequestBatcher batcher(engine, opt);

  const std::uint64_t scored_before = engine.items_scored();
  auto a = batcher.submit(1);
  auto b = batcher.submit(1);
  auto c = batcher.submit(1);
  auto d = batcher.submit(1);
  const auto ra = a.get().items;
  EXPECT_EQ(ra, b.get().items);
  EXPECT_EQ(ra, c.get().items);
  EXPECT_EQ(ra, d.get().items);
  // One user scored once: at most one sweep of the 40 items.
  EXPECT_LE(engine.items_scored() - scored_before, 40u);
}

// ------------------------------------- latency accounting & flush drain ----

TEST(LatencyTracker, ReportsWindowSamplesAndLifetimeTotalSeparately) {
  serve::LatencyTracker tracker(4);
  EXPECT_EQ(tracker.summary().samples, 0u);
  EXPECT_EQ(tracker.summary().total_recorded, 0u);

  for (int i = 1; i <= 10; ++i) tracker.record(static_cast<double>(i));
  const auto s = tracker.summary();
  // The percentiles cover the 4 retained samples {7,8,9,10}; `samples` must
  // say 4 — reporting the lifetime count there claimed percentiles over
  // samples long since overwritten.
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.total_recorded, 10u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 8.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 10.0);
}

TEST(RequestBatcher, CacheHitsContributeEndToEndSamples) {
  const auto x = random_factors(10, 6, 63);
  const auto theta = random_factors(50, 6, 64);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 4;
  opt.max_batch = 1;  // flush immediately so the second query hits the cache
  opt.cache_capacity = 8;
  serve::RequestBatcher batcher(engine, opt);

  (void)batcher.query(3);
  (void)batcher.query(3);

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  // Both queries — the scored miss *and* the near-zero hit — must appear in
  // the end-to-end distribution; only the miss was ever queued.
  EXPECT_EQ(stats.e2e.total_recorded, 2u);
  EXPECT_EQ(stats.e2e.samples, 2u);
  EXPECT_EQ(stats.queue_delay.total_recorded, 1u);
}

TEST(RequestBatcher, DeadlineBoundsQueueDelayForPartialBatch) {
  const auto x = random_factors(8, 4, 73);
  const auto theta = random_factors(30, 4, 74);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 3;
  opt.max_batch = 1000;  // never fills; only the deadline can flush
  opt.max_delay = std::chrono::milliseconds(50);
  serve::RequestBatcher batcher(engine, opt);

  auto fut = batcher.submit(2);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(fut.get().items, engine.recommend_one(2, 3));

  const auto stats = batcher.stats();
  ASSERT_EQ(stats.queue_delay.total_recorded, 1u);
  // A lone sub-max_batch query waits out the deadline and no longer: its
  // queueing delay is ~max_delay (loose bounds absorb scheduler jitter on
  // shared runners), and its end-to-end time contains it.
  EXPECT_GE(stats.queue_delay.p99_ms, 20.0);
  EXPECT_LE(stats.queue_delay.p99_ms, 5000.0);
  EXPECT_GE(stats.e2e.p99_ms, stats.queue_delay.p99_ms);
}

TEST(RequestBatcher, AnswersCarryTheServingGeneration) {
  const auto x = random_factors(12, 6, 65);
  const auto theta = random_factors(40, 6, 66);
  {
    const serve::FactorStore store(x, theta, 2);
    const serve::TopKEngine engine(store);
    serve::RequestBatcher batcher(engine);
    EXPECT_EQ(batcher.submit(1).get().generation, 0u);  // static store
  }

  serve::LiveFactorStore live(serve::FactorStore(x, theta, 2));
  const serve::TopKEngine engine(live);
  serve::BatcherOptions opt;
  opt.k = 4;
  opt.max_batch = 1;
  opt.cache_capacity = 8;
  serve::RequestBatcher batcher(engine, opt);

  EXPECT_EQ(batcher.submit(1).get().generation, 1u);  // scored
  EXPECT_EQ(batcher.submit(1).get().generation, 1u);  // cache hit, tagged
  ASSERT_TRUE(live.refresh(serve::FactorStore(x, theta, 2)).swapped);
  EXPECT_EQ(batcher.submit(1).get().generation, 2u);  // stale entry retired
}

/// A backend whose sweeps take real wall time: holds the flusher inside
/// run_batch long enough for a backlog to pile up deterministically.
class SlowBackend final : public serve::ScoringBackend {
 public:
  explicit SlowBackend(std::chrono::milliseconds delay) : delay_(delay) {}
  serve::SweepCounters sweep(
      const serve::SweepTask& task,
      std::vector<std::vector<serve::Recommendation>>& out) override {
    std::this_thread::sleep_for(delay_);
    return cpu_.sweep(task, out);
  }

 private:
  serve::CpuScoringBackend cpu_;
  std::chrono::milliseconds delay_;
};

TEST(RequestBatcher, ExplicitFlushDrainsEveryPendingQuery) {
  const auto x = random_factors(40, 4, 75);
  const auto theta = random_factors(60, 4, 76);
  const serve::FactorStore store(x, theta, 1);
  SlowBackend slow(std::chrono::milliseconds(60));
  serve::TopKOptions topt;
  topt.backend = &slow;
  const serve::TopKEngine engine(store, topt);

  serve::BatcherOptions opt;
  opt.k = 5;
  opt.max_batch = 8;
  opt.max_delay = std::chrono::seconds(30);  // only size or flush() can flush
  serve::RequestBatcher batcher(engine, opt);

  // A full micro-batch puts the flusher inside the slow engine call...
  std::vector<std::future<serve::BatchedAnswer>> futures;
  for (idx_t u = 0; u < 8; ++u) futures.push_back(batcher.submit(u));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...while 3 × max_batch + 1 more queries pile up behind it. The +1 is the
  // regression: clearing flush_now_ after one take left the sub-max_batch
  // remainder stranded until max_delay.
  for (idx_t u = 8; u < 33; ++u) {
    futures.push_back(batcher.submit(u % 40));
  }
  batcher.flush();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "future " << i << " stranded past the explicit flush";
  }
  EXPECT_EQ(futures[9].get().items,
            engine.recommend_one(9, 5));  // drained batches still score right
}

TEST(RequestBatcher, DrainBlocksUntilEveryFutureIsResolved) {
  const auto x = random_factors(20, 4, 77);
  const auto theta = random_factors(30, 4, 78);
  const serve::FactorStore store(x, theta, 1);
  SlowBackend slow(std::chrono::milliseconds(40));
  serve::TopKOptions topt;
  topt.backend = &slow;
  const serve::TopKEngine engine(store, topt);

  serve::BatcherOptions opt;
  opt.k = 3;
  opt.max_batch = 4;
  opt.max_delay = std::chrono::seconds(30);
  serve::RequestBatcher batcher(engine, opt);

  std::vector<std::future<serve::BatchedAnswer>> futures;
  for (idx_t u = 0; u < 4; ++u) futures.push_back(batcher.submit(u));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (idx_t u = 4; u < 11; ++u) futures.push_back(batcher.submit(u));

  batcher.drain();
  for (auto& fut : futures) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  // An idle drain is a no-op, not a hang.
  batcher.drain();
}

TEST(RequestBatcher, FlushRacingSubmitNeverStrandsAQuery) {
  const auto x = random_factors(10, 4, 79);
  const auto theta = random_factors(20, 4, 80);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);

  serve::BatcherOptions opt;
  opt.k = 3;
  opt.max_batch = 1000;
  opt.max_delay = std::chrono::seconds(30);  // a stranded query hangs visibly
  serve::RequestBatcher batcher(engine, opt);

  // The hazard: the flusher wakes for the submit, and flush() lands while it
  // is between "saw the queue" and "consumed flush_now_". Whatever the
  // interleaving, a flush issued after submit() returned must cover it.
  for (int i = 0; i < 100; ++i) {
    auto fut = batcher.submit(static_cast<idx_t>(i % 10));
    std::thread racer([&batcher] { batcher.flush(); });
    racer.join();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "query stranded on iteration " << i;
  }
}

}  // namespace
}  // namespace cumf
