#include "stages.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/kernels.hpp"
#include "core/reduction.hpp"
#include "eval/metrics.hpp"
#include "gpusim/device_group.hpp"
#include "obs/trace.hpp"
#include "orchestrate/quality_gate.hpp"
#include "serve/net/client.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = cumf::core;
namespace gpusim = cumf::gpusim;
namespace orch = cumf::orchestrate;
namespace serve = cumf::serve;

namespace {

constexpr int kSetupReps = 5;     // set-ups per run; their medians are kept
constexpr int kConnections = 2;   // per load phase, one generator thread each
constexpr double kIdleShare = 0.1;  // of --seconds, over the three segments
constexpr double kProbeShare = 0.05;  // of --seconds, per capacity probe
constexpr int kSearchProbes = 10;
constexpr double kSearchStep = 0.04;  // capacity resolved to within 4%
constexpr int kProbeReps = 3;         // repeats of each direct layer call

std::string describe(const PhaseResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "attempted %llu ok %llu sheds %llu errors %llu stalled %llu "
                "p50 %.3f p90 %.3f ms (n=%zu) late_p99 %.3f ms",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.sheds),
                static_cast<unsigned long long>(r.errors),
                static_cast<unsigned long long>(r.stalled),
                r.latency_ms.pct(0.5), r.latency_ms.pct(0.9),
                r.latency_ms.size(), r.late_ms.pct(0.99));
  return buf;
}

/// (X, Θ) of a serving generation, re-assembled from its sharded layout.
std::pair<cumf::linalg::FactorMatrix, cumf::linalg::FactorMatrix> factors_of(
    const serve::FactorStore& store) {
  const int f = store.f();
  cumf::linalg::FactorMatrix x(store.num_users(), f);
  for (idx_t u = 0; u < store.num_users(); ++u) {
    std::copy(store.user(u), store.user(u) + f, x.row(u));
  }
  cumf::linalg::FactorMatrix theta(store.num_items(), f);
  for (int s = 0; s < store.num_shards(); ++s) {
    const serve::FactorShard& shard = store.shard(s);
    for (std::size_t slot = 0; slot < shard.item_ids.size(); ++slot) {
      const cumf::real_t* row = shard.theta.row(static_cast<idx_t>(slot));
      std::copy(row, row + f, theta.row(shard.item_ids[slot]));
    }
  }
  return {std::move(x), std::move(theta)};
}

/// Users of one full micro-batch, drawn from the workload's query mix.
std::vector<idx_t> micro_batch(const Params& p, cumf::util::Rng& rng) {
  const auto n = static_cast<std::uint64_t>(p.integer("users"));
  const double s = p.num("query_zipf_s");
  std::vector<idx_t> users(batcher_options().max_batch);
  for (auto& u : users) {
    u = static_cast<idx_t>(s > 0.0 ? rng.zipf(n, s) : rng.next_below(n));
  }
  return users;
}

}  // namespace

PhaseSpec RunContext::phase(double rate_qps, double secs, int index) const {
  PhaseSpec s;
  s.rate_qps = rate_qps;
  s.seconds = secs;
  s.deadline_s = p.num("deadline_s");
  s.connections = kConnections;
  s.k = batcher_options().k;
  s.mix.users = static_cast<idx_t>(p.integer("users"));
  s.mix.zipf_s = p.num("query_zipf_s");
  s.seed = seed * 1000 + static_cast<std::uint64_t>(index);
  s.sample_every = p.integer("check_every");
  return s;
}

void RunContext::account(const PhaseResult& r, bool fixed_rate) {
  sheds += r.sheds;
  stalled += r.stalled;
  errors += r.errors;
  if (!fixed_rate) return;
  attempted += r.attempted;
  failed += r.failed();
  late_ms.append(r.late_ms);
}

void RunContext::pin_current() {
  const auto pinned = world->live->pin();
  generations[pinned.generation] = pinned.store;
}

void RunContext::verify_answers(const PhaseResult& r,
                                const std::string& phase_name) {
  const int k = batcher_options().k;
  std::size_t mismatches = 0;
  for (const SampledAnswer& a : r.sample) {
    const auto it = generations.find(a.generation);
    if (it == generations.end()) {
      ++mismatches;
      continue;
    }
    ++answers_checked;
    if (brute_force_topk(*it->second, a.user, k, world->data.R) != a.items) {
      ++mismatches;
    }
  }
  expect(mismatches == 0,
         phase_name + ": " + std::to_string(mismatches) +
             " sampled answers differ from the brute-force top-k of their "
             "generation");
}

namespace {

/// One set-up from scratch; its timings join the run's set-up samples.
std::unique_ptr<World> build_world(RunContext& ctx, const std::string& work_dir,
                                   int index) {
  auto w = std::make_unique<World>(ctx.p, ctx.seed,
                                   work_dir + "/setup" + std::to_string(index));
  ctx.setup_total.add(w->total_s);
  ctx.setup_data.add(w->data_s);
  ctx.setup_model.add(w->model_s);
  ctx.setup_train.add(w->trained.seconds);
  ctx.setup_iter.append(w->trained.iter_s);
  ctx.expect(w->trained.reached,
             "training did not reach the target RMSE (holdout RMSE " +
                 std::to_string(w->trained.rmse) + ")");
  std::printf("# setup %d: %.3f s (data %.3f, model %.3f: %d iterations to "
              "holdout RMSE %.4f in %.3f s)\n",
              index + 1, w->total_s, w->data_s, w->model_s,
              w->trained.iterations, w->trained.rmse, w->trained.seconds);
  return w;
}

}  // namespace

void run_setup(RunContext& ctx, const std::string& work_dir,
               std::unique_ptr<World>* out) {
  for (int i = 0; i < kSetupReps; ++i) {
    out->reset();  // one world alive at a time
    *out = build_world(ctx, work_dir, i);
  }
  ctx.world = out->get();
  ctx.pin_current();
  const World& w = **out;
  const std::string none = "no training reached the target";
  ctx.e2e.set_median("setup_s", ctx.setup_total, "s", "");
  ctx.e2e.set_median("als_time_to_rmse_s", ctx.setup_train, "s", none);
  ctx.e2e.set("als_test_rmse", w.trained.rmse, "rmse", 1);

  ctx.layer.set_median("setup.data_s", ctx.setup_data, "s", "");
  ctx.layer.set_median("setup.model_s", ctx.setup_model, "s", "");
  ctx.layer.set_median("core.iter_s", ctx.setup_iter, "s", none);
  ctx.layer.set("core.iters_to_target", w.trained.iterations, "count", 1);
  // Modeled (simulated-device) seconds of the kept training run: host-only
  // kernel changes must leave these unchanged.
  ctx.layer.set("core.modeled_s", w.trained.modeled_s, "s", 1);
  ctx.layer.set("core.hermitian_modeled_s", w.trained.profile.get_hermitian,
                "s", 1);
  ctx.layer.set("core.solve_modeled_s", w.trained.profile.batch_solve, "s", 1);
  ctx.layer.set("core.reduce_modeled_s", w.trained.profile.reduce, "s", 1);
  ctx.layer.set("core.transfer_modeled_s", w.trained.profile.transfer, "s", 1);
}

void run_idle_segment(RunContext& ctx, int segment) {
  constexpr int kSegments = 3;
  const double rate = ctx.p.num("idle_qps");
  Frontend fe = ctx.world->open_frontend();
  const PhaseResult r = run_tcp_phase(
      fe.server->port(),
      ctx.phase(rate, kIdleShare * ctx.seconds / kSegments,
                10 + segment));
  std::printf("# idle %d/%d @ %.0f qps: %s\n", segment + 1, kSegments, rate,
              describe(r).c_str());
  ctx.account(r, true);
  ctx.verify_answers(r, "idle");
  ctx.idle_window_p50.append(r.latency_ms.window_pcts(0.5));
  ctx.idle_requests += r.latency_ms.size();
  const serve::ServeStats st = fe.batcher->stats();
  ctx.idle_queue_ms.add(st.queue_delay.p50_ms);
  if (segment + 1 < kSegments) return;
  ctx.e2e.set("idle_p50_ms", ctx.idle_window_p50.median(), "ms",
              ctx.idle_requests);
  ctx.layer.set_median("batcher.queue_p50_ms", ctx.idle_queue_ms, "ms", "");
}

void run_serving(RunContext& ctx) {
  World& w = *ctx.world;
  const double secs = ctx.seconds;
  // With load during the cycles, query latency is measured there; this
  // quiet loaded phase then runs only for the traced run's layer numbers.
  // Latency at a loaded rate follows the host's scheduling noise more than
  // the code on a shared host, so it is reported with the diagnostics.
  const bool quiet_is_e2e = ctx.p.integer("load_during_cycles") == 0;
  if (!quiet_is_e2e && !ctx.trace) return;

  const double rate = ctx.p.num("load_qps");
  const PhaseSpec spec =
      ctx.phase(rate, ctx.p.num("load_share") * secs, 2);
  Frontend fe = w.open_frontend();
  const PhaseResult r = run_tcp_phase(fe.server->port(), spec);
  std::printf("# loaded @ %.0f qps: %s\n", rate, describe(r).c_str());
  ctx.account(r, true);
  ctx.verify_answers(r, "loaded");
  if (quiet_is_e2e) {
    const std::size_t n = r.latency_ms.size();
    ctx.layer.set("query.p50_ms", r.latency_ms.pct(0.5), "ms", n);
    ctx.layer.set("query.p90_ms", r.latency_ms.pct(0.9), "ms", n);
  }

  const serve::ServeStats st = fe.server->stats();
  ctx.layer.set("net.e2e_p50_ms", st.net_e2e.p50_ms, "ms", st.net_e2e.samples);
  const double batched = static_cast<double>(st.cache_misses);
  ctx.layer.set("batcher.batch_fill",
                st.batches == 0 ? 0.0
                                : batched / static_cast<double>(st.batches) /
                                      static_cast<double>(
                                          batcher_options().max_batch),
                "ratio", st.batches);
  ctx.layer.set("batcher.cache_hit_ratio",
                st.queries == 0 ? 0.0
                                : static_cast<double>(st.cache_hits) /
                                      static_cast<double>(st.queries),
                "ratio", st.queries);
  if (!ctx.trace) return;

  // The same schedule straight into RequestBatcher::submit: what the TCP
  // front end adds on top of the batcher at this rate.
  {
    Frontend in = w.open_frontend();
    const PhaseResult ip = run_inprocess_phase(*in.batcher, spec);
    std::printf("# loaded in-process @ %.0f qps: %s\n", rate,
                describe(ip).c_str());
    ctx.account(ip, true);
    ctx.layer.set("net.overhead_p50_ms",
                  r.latency_ms.median() - ip.latency_ms.median(), "ms",
                  ip.latency_ms.size());
  }
  // The loaded phase again with request tracing on.
  {
    auto& tracer = cumf::obs::TraceCollector::global();
    tracer.enable();
    Frontend traced = w.open_frontend();
    const PhaseResult tr = run_tcp_phase(traced.server->port(), spec);
    tracer.disable();
    std::printf("# loaded traced @ %.0f qps: %s\n", rate, describe(tr).c_str());
    ctx.account(tr, true);
    const double base = r.latency_ms.median();
    ctx.layer.set("obs.trace_overhead_pct",
                  base > 0.0 ? 100.0 * (tr.latency_ms.median() - base) / base
                             : 0.0,
                  "%", tr.latency_ms.size());
  }
}

void run_capacity_search(RunContext& ctx) {
  World& w = *ctx.world;
  const double limit = ctx.p.num("p90_limit_ms");
  const double grow = ctx.p.num("search_grow");
  const double probe_s = kProbeShare * ctx.seconds;

  double rate = ctx.p.num("search_start_qps");
  double lo = 0.0, hi = 0.0;  // highest passing / lowest failing offered rate
  double best_qps = 0.0;
  std::size_t best_n = 0;
  for (int probe = 0; probe < kSearchProbes; ++probe) {
    Frontend fe = w.open_frontend();
    PhaseSpec spec = ctx.phase(rate, probe_s, 100 + probe);
    spec.sample_every = 0;
    const PhaseResult r = run_tcp_phase(fe.server->port(), spec);
    ctx.account(r, false);
    const double p90 = r.latency_ms.pct(0.9);
    // A backlog beyond what the latency limit allows at this rate means the
    // queue was still growing when the send window closed.
    const double allowed_backlog = std::max(16.0, rate * 2.0 * limit / 1e3);
    const bool pass = r.failed() == 0 && p90 <= limit &&
                      static_cast<double>(r.backlog_at_end) <= allowed_backlog;
    std::printf("# probe %d @ %.0f qps: %s backlog %llu -> %s\n", probe + 1,
                rate, describe(r).c_str(),
                static_cast<unsigned long long>(r.backlog_at_end),
                pass ? "pass" : "fail");
    if (pass) {
      lo = rate;
      best_qps = static_cast<double>(r.ok) / r.wall_s;
      best_n = r.ok;
    } else {
      hi = rate;
    }
    if (lo > 0.0 && hi > 0.0 && hi / lo <= 1.0 + kSearchStep) break;
    if (hi == 0.0) {
      rate = lo * grow;
    } else if (lo == 0.0) {
      rate = hi / grow;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  if (best_n == 0) {
    ctx.layer.set_absent("capacity.max_qps", "1/s",
                         "no probe met the latency limit");
  } else {
    ctx.layer.set("capacity.max_qps", best_qps, "1/s", best_n);
    std::printf("# max_qps: offered %.0f qps passed (next fail at %.0f)\n", lo,
                hi);
  }
}

void run_refresh(RunContext& ctx) {
  World& w = *ctx.world;
  const int cycles = ctx.p.integer("cycles");
  const auto per_cycle =
      static_cast<std::size_t>(ctx.p.integer("cycle_deltas"));
  const double period_s = ctx.p.num("refresh_share") * ctx.seconds / cycles;
  const bool enough =
      w.data.future.size() >= per_cycle * static_cast<std::size_t>(cycles);
  ctx.expect(enough, "not enough future ratings for the cycle schedule");
  if (!enough) return;
  const bool with_load = ctx.p.integer("load_during_cycles") != 0;

  Frontend fe = w.open_frontend();
  const std::uint16_t port = fe.server->port();
  std::atomic<bool> cycle_running{false};
  std::atomic<bool> stop_probe{false};
  PhaseResult load;
  std::thread load_thread;
  std::thread probe_thread;
  // Joins both helper threads on every exit path, exceptions included.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& a;
    std::thread& b;
    ~Joiner() {
      stop.store(true);
      if (a.joinable()) a.join();
      if (b.joinable()) b.join();
    }
  } joiner{stop_probe, probe_thread, load_thread};
  PhaseSpec load_spec;
  if (with_load) {
    load_spec =
        ctx.phase(ctx.p.num("load_qps"), cycles * period_s, 3);
    load_thread = std::thread([&] { load = run_tcp_phase(port, load_spec); });
  }

  // --trace 1: the engine's own batch wall, timed by direct calls while a
  // cycle runs.
  Samples retrain_batch_ms;
  if (ctx.trace) {
    probe_thread = std::thread([&] {
      cumf::util::Rng rng(ctx.seed ^ 0xbadc0ffeull);
      const int k = batcher_options().k;
      while (!stop_probe.load()) {
        if (!cycle_running.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          continue;
        }
        const std::vector<idx_t> users = micro_batch(ctx.p, rng);
        const Clock::time_point t0 = Clock::now();
        (void)w.engine->recommend_batch(users, k);
        retrain_batch_ms.add(ms_between(t0, Clock::now()));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  Samples incr_ms, full_ms, ingest_rps, swap_ms, train_incr, train_full;
  std::uint64_t acked = 0;
  std::uint64_t last_generation = w.live->generation();
  serve::net::Client checker("127.0.0.1", port);
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(c * period_s)));
    const auto first =
        w.data.future.begin() +
        static_cast<std::ptrdiff_t>(per_cycle * static_cast<std::size_t>(c));
    const std::vector<orch::RatingDelta> batch(
        first, first + static_cast<std::ptrdiff_t>(per_cycle));
    const IngestResult ing = push_ratings(port, batch, ctx.p.num("deadline_s"));
    ctx.attempted += ing.sent;
    ctx.failed += ing.failed;
    acked += ing.acked_ok;
    const double rps = ing.seconds > 0.0
                           ? static_cast<double>(ing.acked_ok) / ing.seconds
                           : 0.0;
    if (rps > 0.0 && ing.failed == 0) ingest_rps.add(rps);

    cycle_running.store(true);
    const Clock::time_point t0 = Clock::now();
    const orch::CycleRecord rec = w.orch->run_cycle();
    const double wall_ms = ms_between(t0, Clock::now());
    cycle_running.store(false);

    const bool incremental = rec.tier == orch::TrainTier::kIncrementalSgd;
    (incremental ? incr_ms : full_ms).add(wall_ms);
    (incremental ? train_incr : train_full).add(rec.train_wall_ms);
    ctx.expect(rec.outcome == orch::CycleOutcome::kPromoted ||
                   rec.outcome == orch::CycleOutcome::kRejected,
               "cycle " + std::to_string(c + 1) + " failed: " + rec.error);
    std::printf("# cycle %2d: %-11s %-8s%s %8.2f ms (train %.2f ms) gate rmse "
                "%.4f, ingest %.0f acks/s, generation %llu\n",
                c + 1, incremental ? "incremental" : "full",
                rec.outcome == orch::CycleOutcome::kPromoted ? "promoted"
                                                             : "rejected",
                rec.escalated ? " (escalated)" : "", wall_ms,
                rec.train_wall_ms, rec.gate.rmse, rps,
                static_cast<unsigned long long>(rec.generation));
    if (rec.outcome == orch::CycleOutcome::kPromoted) {
      swap_ms.add(rec.swap_pause_ms);
      ctx.expect(rec.generation > last_generation,
                 "a promotion did not advance the generation");
      last_generation = rec.generation;
      ctx.pin_current();
      const auto resp = checker.query(0, batcher_options().k);
      ctx.expect(resp.status == serve::net::Status::kOk &&
                     resp.generation == rec.generation,
                 "a query after promotion " + std::to_string(rec.generation) +
                     " was answered by generation " +
                     std::to_string(resp.generation));
    }
  }
  stop_probe.store(true);
  if (probe_thread.joinable()) probe_thread.join();
  if (load_thread.joinable()) load_thread.join();

  ctx.expect(acked == w.log->accepted(),
             "acked deltas (" + std::to_string(acked) +
                 ") differ from RatingLog::accepted() (" +
                 std::to_string(w.log->accepted()) + ")");
  if (with_load) {
    std::printf("# refresh load @ %.0f qps: %s\n", load_spec.rate_qps,
                describe(load).c_str());
    ctx.account(load, true);
    ctx.verify_answers(load, "refresh");
    ctx.expect(load.errors == 0, "queries failed across a swap");
    const std::size_t n = load.latency_ms.size();
    ctx.layer.set("query.p50_ms", load.latency_ms.pct(0.5), "ms", n);
    ctx.layer.set("query.p90_ms", load.latency_ms.pct(0.9), "ms", n);
  }

  ctx.e2e.set_median("fresh_incr_ms", incr_ms, "ms",
                     "no cycle ended on the incremental tier");
  ctx.e2e.set_median("fresh_full_ms", full_ms, "ms",
                     "no cycle ended in full ALS");
  // Acks per second over one short push swing with where the io and client
  // threads land, so ingest is a diagnostic rather than a bounded metric.
  ctx.layer.set_median("ingest.rps", ingest_rps, "1/s", "no delta batch acked");
  {
    const auto [x, theta] = factors_of(*w.live->pin().store);
    ctx.e2e.set("served_rmse", cumf::eval::rmse(w.data.holdout, x, theta),
                "rmse", static_cast<std::size_t>(w.data.holdout.nnz()));
  }

  const serve::OrchestratorStats os = w.orch->counters();
  ctx.layer.set_median("store.swap_pause_ms", swap_ms, "ms", "no promotion");
  ctx.layer.set_median("orchestrate.train_incr_ms", train_incr, "ms",
                       "no incremental cycle");
  ctx.layer.set_median("orchestrate.train_full_ms", train_full, "ms",
                       "no full cycle");
  ctx.layer.set("orchestrate.incr_promote_ratio",
                os.retrains_incremental == 0
                    ? 0.0
                    : static_cast<double>(os.promotions_incremental) /
                          static_cast<double>(os.retrains_incremental),
                "ratio", os.retrains_incremental);
  ctx.layer.set("orchestrate.escalations", static_cast<double>(os.escalations),
                "count");
  if (ctx.trace) {
    ctx.layer.set_pct("topk.batch_retrain_p90_ms", retrain_batch_ms, 0.9, "ms",
                      "no engine batch overlapped a cycle");
  }
}

void run_layer_probes(RunContext& ctx) {
  World& w = *ctx.world;
  const int k = batcher_options().k;
  const int f = kRank;
  const int reps = kProbeReps;

  // topk: full micro-batches straight into recommend_batch, on an engine
  // built for this probe so its counters and windows hold nothing else.
  {
    serve::TopKOptions eopt = w.engine->options();
    const serve::TopKEngine engine(*w.live, eopt);
    cumf::util::Rng rng(ctx.seed ^ 0x70b4ull);
    Samples batch_ms;
    double wall_s = 0.0;
    for (int i = 0; i < reps * 10; ++i) {
      const std::vector<idx_t> users = micro_batch(ctx.p, rng);
      const Clock::time_point t0 = Clock::now();
      (void)engine.recommend_batch(users, k);
      const double ms = ms_between(t0, Clock::now());
      batch_ms.add(ms);
      wall_s += ms / 1e3;
    }
    const auto scored = static_cast<double>(engine.items_scored());
    const auto pruned = static_cast<double>(engine.items_pruned());
    ctx.layer.set_median("topk.batch_p50_ms", batch_ms, "ms", "");
    ctx.layer.set("topk.pairs_per_s", scored / wall_s, "1/s", batch_ms.size());
    ctx.layer.set("topk.prune_ratio",
                  scored + pruned > 0.0 ? pruned / (scored + pruned) : 0.0,
                  "ratio", batch_ms.size());
    const auto modeled = engine.batch_modeled_summary();
    const auto inter = engine.batch_interconnect_summary();
    ctx.layer.set("topk.modeled_batch_ms", modeled.p50_ms, "ms",
                  modeled.samples);
    ctx.layer.set("topk.interconnect_modeled_ms", inter.p50_ms, "ms",
                  inter.samples);
  }

  // core: one iteration's rows through each kernel, timed directly.
  {
    const auto topo = gpusim::PcieTopology::two_socket(kTrainDevices);
    gpusim::DeviceGroup gpus(kTrainDevices, gpusim::titan_x(), topo);
    const auto& x = w.trained.x;
    const auto& theta = w.trained.theta;
    const auto lambda = static_cast<cumf::real_t>(kLambda);
    const core::KernelOptions kopt;
    const auto fsq = static_cast<std::size_t>(f) * static_cast<std::size_t>(f);
    Samples herm_s, solve_s, reduce_s;
    for (int i = 0; i < reps; ++i) {
      double herm = 0.0, solve = 0.0;
      for (const auto* side : {&w.data.R, &w.data.Rt}) {
        const auto& fixed = side == &w.data.R ? theta : x;
        std::vector<cumf::real_t> A(static_cast<std::size_t>(side->rows) * fsq);
        std::vector<cumf::real_t> B(static_cast<std::size_t>(side->rows) *
                                    static_cast<std::size_t>(f));
        std::vector<cumf::real_t> out(B.size());
        Clock::time_point t0 = Clock::now();
        core::get_hermitian_block(gpus[0], *side, 0, side->rows,
                                  fixed.data().data(), f, lambda, kopt,
                                  A.data(), B.data());
        herm += seconds_since(t0);
        t0 = Clock::now();
        (void)core::batch_solve_block(gpus[0], A.data(), B.data(), side->rows,
                                      f, out.data());
        solve += seconds_since(t0);
      }
      herm_s.add(herm);
      solve_s.add(solve);
      // SU-ALS reduction of the item-side partial Hermitians across the
      // training devices.
      const idx_t items = w.data.Rt.rows;
      std::vector<std::vector<cumf::real_t>> bufs(
          kTrainDevices, std::vector<cumf::real_t>(static_cast<std::size_t>(items) * fsq,
                                       1.0f));
      std::vector<cumf::real_t*> ptrs;
      for (auto& b : bufs) ptrs.push_back(b.data());
      const Clock::time_point t0 = Clock::now();
      (void)core::reduce_across_devices(gpus.pointers(), topo, ptrs, items,
                                        f * f, core::ReduceScheme::TwoPhase);
      reduce_s.add(seconds_since(t0));
    }
    ctx.layer.set_median("core.hermitian_s", herm_s, "s", "");
    ctx.layer.set_median("core.solve_s", solve_s, "s", "");
    ctx.layer.set_median("core.reduce_s", reduce_s, "s", "");
  }

  // serve/live_store: a checkpoint load into a store nobody queries.
  {
    const auto pinned = w.live->pin();
    serve::LiveFactorStore scratch(serve::FactorStore(*pinned.store));
    Samples load_ms;
    for (int i = 0; i < reps; ++i) {
      const auto outcome =
          scratch.refresh_from_checkpoint(w.orch->last_good_dir());
      if (outcome.swapped) load_ms.add(outcome.load_ms);
    }
    ctx.layer.set_median("store.load_ms", load_ms, "ms",
                         "no checkpoint loaded");
  }

  // orchestrate: snapshot, gate and append on instances of their own.
  {
    const std::size_t n =
        std::min(static_cast<std::size_t>(ctx.p.integer("cycle_deltas")),
                 w.data.future.size());
    Samples snap_ms, gate_ms, append_us;
    for (int i = 0; i < reps; ++i) {
      orch::RatingLog log(w.data.train);
      for (std::size_t j = 0; j < n; ++j) {
        const auto& d = w.data.future[j];
        const Clock::time_point t0 = Clock::now();
        (void)log.append(d.user, d.item, d.value);
        append_us.add(ms_between(t0, Clock::now()) * 1e3);
      }
      const Clock::time_point t0 = Clock::now();
      (void)log.snapshot();
      snap_ms.add(ms_between(t0, Clock::now()));
    }
    const orch::QualityGate gate(w.data.holdout, orch::GateOptions{},
                                 &w.data.R);
    const auto [x, theta] = factors_of(*w.live->pin().store);
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)gate.evaluate(x, theta);
      gate_ms.add(ms_between(t0, Clock::now()));
    }
    ctx.layer.set_median("orchestrate.snapshot_ms", snap_ms, "ms", "");
    ctx.layer.set_median("orchestrate.gate_ms", gate_ms, "ms", "");
    ctx.layer.set_median("orchestrate.append_us", append_us, "us", "");
  }
}

}  // namespace perfbench
