// End-to-end serving demo: train a model with ALS, checkpoint it, restore it
// into a live sharded FactorStore, and serve batched top-k recommendations
// through the RequestBatcher — then *retrain* and hot-swap the fresher
// checkpoint into the running server without dropping a query: the full
// train → serve → retrain → hot-swap loop the paper's cheap-retraining
// pitch implies.
//
// With a target load, it also sizes a serving fleet: the trained model is
// replayed through the simulated-GPU backend on each priced device spec, and
// the cost model answers "how many GPUs, at what $/hour, to serve target_qps
// at p99 <= p99_ms".
//
// With --port the server stays up after the demo: the trained model keeps
// serving over TCP (protocol: src/serve/net/protocol.hpp) until SIGINT, so a
// second terminal can drive it with the network load generator.
//
// With --daemon (implies --port) the retrain orchestrator runs behind the
// server: rating deltas arriving over the wire (AddRating op) land in a
// RatingLog, the orchestrator retrains on a cadence or a delta-count
// trigger, gates each candidate on held-out RMSE + recall@k, and hot-swaps
// passing models under the live traffic — watch the generation column
// advance from the other terminal. --train-tier picks the retraining tier
// (full ALS, incremental SGD, or auto) and --consolidate-every N sets how
// often the auto tier schedules a full-ALS consolidation cycle; the
// shutdown audit prints per-tier cycle counts.
//
// With --trace-out FILE request tracing is on for the whole run and the
// Chrome trace-event JSON is written to FILE on the way out — including after
// Ctrl-C in --port mode, so a traced serving session ends with a loadable
// timeline. In --daemon mode shutdown also prints the Prometheus-style
// metrics exposition (the same text a GetMetrics frame returns).
//
// In --port mode an SLO monitor always watches the served traffic:
// --slo-p99-ms sets the latency SLO threshold (e2e above it burns latency
// budget) and --slo-availability the availability objective (non-kOk replies
// and edge sheds burn it). A GetHealth frame (op 5) returns the alert
// states, burn rates, slow-query exemplars, and recent structured events at
// any time; the Ctrl-C shutdown audit prints the same health view plus the
// event tail, so an incident that ended the run is visible on the way out.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/serve_recommendations [shards] [top_k] [target_qps] [p99_ms] [--port N] [--daemon] [--train-tier full|incremental|auto] [--consolidate-every N] [--trace-out FILE] [--slo-p99-ms X] [--slo-availability F]
//   ./build/examples/serve_recommendations 4 10 1000000 5   # fleet-sizing mode
//   ./build/examples/serve_recommendations --port 7070 --daemon   # then, elsewhere:
//   ./build/bench/serve_netload --connect 127.0.0.1 7070 3000 10

#include <csignal>
#include <cstring>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <span>
#include <vector>

#include <memory>

#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "costmodel/machines.hpp"
#include "costmodel/serving_fleet.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "gpusim/device_group.hpp"
#include "obs/events.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "orchestrate/orchestrator.hpp"
#include "serve/batcher.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/metrics_export.hpp"
#include "serve/multi_device_backend.hpp"
#include "serve/net/server.hpp"
#include "serve/topk.hpp"
#include "sparse/split.hpp"

int main(int argc, char** argv) {
  using namespace cumf;

  bool serve_over_tcp = false;
  bool daemon_mode = false;
  std::uint16_t port = 0;
  std::string trace_out;
  auto tier_mode = orchestrate::TrainTierMode::kAuto;
  int consolidate_every = 8;
  double slo_p99_ms = 50.0;
  double slo_availability = 0.999;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      serve_over_tcp = true;
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--daemon") == 0) {
      daemon_mode = true;
      serve_over_tcp = true;  // the orchestrator serves behind the socket
    } else if (std::strcmp(argv[i], "--train-tier") == 0 && i + 1 < argc) {
      const char* tier = argv[++i];
      if (std::strcmp(tier, "full") == 0) {
        tier_mode = orchestrate::TrainTierMode::kFull;
      } else if (std::strcmp(tier, "incremental") == 0) {
        tier_mode = orchestrate::TrainTierMode::kIncremental;
      } else if (std::strcmp(tier, "auto") == 0) {
        tier_mode = orchestrate::TrainTierMode::kAuto;
      } else {
        std::fprintf(stderr,
                     "--train-tier must be full, incremental, or auto\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--consolidate-every") == 0 &&
               i + 1 < argc) {
      consolidate_every = std::atoi(argv[++i]);
      if (consolidate_every < 1) {
        std::fprintf(stderr, "--consolidate-every must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--slo-p99-ms") == 0 && i + 1 < argc) {
      slo_p99_ms = std::atof(argv[++i]);
      if (slo_p99_ms <= 0.0) {
        std::fprintf(stderr, "--slo-p99-ms must be > 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--slo-availability") == 0 &&
               i + 1 < argc) {
      slo_availability = std::atof(argv[++i]);
      if (slo_availability <= 0.0 || slo_availability >= 1.0) {
        std::fprintf(stderr, "--slo-availability must be in (0, 1)\n");
        return 2;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!trace_out.empty()) obs::TraceCollector::global().enable();
  const int shards = positional.size() > 0 ? std::atoi(positional[0]) : 4;
  const int top_k = positional.size() > 1 ? std::atoi(positional[1]) : 10;
  const double target_qps = positional.size() > 2 ? std::atof(positional[2]) : 0.0;
  const double p99_ms = positional.size() > 3 ? std::atof(positional[3]) : 5.0;
  if (shards < 1 || top_k < 1 || target_qps < 0.0 || p99_ms <= 0.0) {
    std::fprintf(stderr,
                 "usage: %s [shards >= 1] [top_k >= 1] [target_qps] [p99_ms] "
                 "[--port N] [--daemon] [--train-tier full|incremental|auto] "
                 "[--consolidate-every N] [--trace-out FILE] "
                 "[--slo-p99-ms X] [--slo-availability F]\n",
                 argv[0]);
    return 2;
  }

  // In --port mode SIGINT/SIGTERM must be blocked *before any thread
  // exists* — training pool threads and the batcher's flusher inherit the
  // mask, so a process-directed Ctrl-C can only land in the sigwait at step
  // 8 instead of killing an arbitrary worker thread with the default action.
  sigset_t sigs;
  sigemptyset(&sigs);
  if (serve_over_tcp) {
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  }

  // 1. Train: 3,000 users × 1,200 items, planted rank-8 taste structure.
  data::SyntheticOptions gen;
  gen.m = 3000;
  gen.n = 1200;
  gen.nz = 90'000;
  gen.f_true = 8;
  gen.noise_std = 0.4;
  gen.seed = 42;
  const sparse::CooMatrix ratings = data::generate_ratings(gen);

  util::Rng rng(7);
  auto split = sparse::split_ratings(ratings, 0.1, rng);
  const auto R = sparse::coo_to_csr(split.train);
  const auto Rt = sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(R));

  const auto topo = gpusim::PcieTopology::flat(1);
  gpusim::DeviceGroup gpu(1, gpusim::titan_x(), topo);
  core::SolverConfig cfg;
  cfg.als.f = 16;
  cfg.als.lambda = 0.05f;
  core::AlsSolver solver(gpu.pointers(), topo, R, Rt, cfg);
  const auto history =
      solver.train(/*iterations=*/6, &split.train, &split.test, "serve-demo");
  std::printf("trained 6 ALS iterations, final test RMSE %.4f\n",
              history.points.back().test_rmse);

  // 2. Checkpoint, exactly as a training job would on its way out.
  const auto ckpt_dir =
      std::filesystem::temp_directory_path() / "cumf_serve_demo_ckpt";
  std::filesystem::create_directories(ckpt_dir);
  core::CheckpointManager manager(ckpt_dir.string());
  manager.save_x(solver.x(), solver.iterations_run());
  manager.save_theta(solver.theta(), solver.iterations_run());

  // 3. Restore into a *live* sharded store; attach the training CSR so users
  //    are never recommended items they already rated. The engine pins one
  //    generation per micro-batch, so step 6's hot swap below lands under
  //    live traffic without a lock on the query path.
  serve::LiveFactorStore live(
      serve::FactorStore::from_checkpoint(ckpt_dir.string(), shards));
  std::printf("restored checkpoint (iteration %d) into %d shards as generation %llu\n",
              static_cast<int>(live.pin()->restored_iteration()), live.shards(),
              static_cast<unsigned long long>(live.generation()));

  serve::TopKOptions engine_opt;
  engine_opt.exclude_rated = &R;
  const serve::TopKEngine engine(live, engine_opt);

  serve::BatcherOptions batch_opt;
  batch_opt.k = top_k;
  batch_opt.max_batch = 32;
  batch_opt.cache_capacity = 128;
  serve::RequestBatcher batcher(engine, batch_opt);

  // 4. Serve a burst of queries, a few hot users among them.
  std::vector<idx_t> traffic;
  util::Rng qrng(99);
  for (int q = 0; q < 500; ++q) {
    traffic.push_back(
        static_cast<idx_t>(qrng.zipf(static_cast<std::uint64_t>(gen.m), 1.1)));
  }
  // Closed-loop waves, so hot users from earlier waves hit the LRU cache.
  std::vector<serve::Recommendation> first_answer;
  std::vector<std::future<serve::BatchedAnswer>> futures;
  for (std::size_t q = 0; q < traffic.size(); q += 50) {
    futures.clear();
    const std::size_t hi = std::min(traffic.size(), q + 50);
    for (std::size_t i = q; i < hi; ++i) futures.push_back(batcher.submit(traffic[i]));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto answer = futures[i].get().items;
      if (q == 0 && i == 0) first_answer = std::move(answer);
    }
  }

  std::printf("\ntop-%d for user %d:\n", top_k, traffic[0]);
  for (const auto& rec : first_answer) {
    std::printf("  item %4d  score %.3f\n", rec.item, rec.score);
  }

  // 5. Ranking quality of the served lists against the held-out test set.
  std::vector<std::vector<idx_t>> test_items(static_cast<std::size_t>(gen.m));
  for (std::size_t i = 0; i < split.test.val.size(); ++i) {
    test_items[static_cast<std::size_t>(split.test.row[i])].push_back(
        split.test.col[i]);
  }
  const auto ranking_quality = [&](const char* label) {
    double recall_sum = 0.0, ndcg_sum = 0.0;
    int evaluated = 0;
    for (idx_t u = 0; u < gen.m && evaluated < 200; ++u) {
      const auto& relevant = test_items[static_cast<std::size_t>(u)];
      if (relevant.empty()) continue;
      const auto top = engine.recommend_one(u, top_k);
      std::vector<idx_t> items;
      items.reserve(top.size());
      for (const auto& rec : top) items.push_back(rec.item);
      recall_sum += eval::recall_at_k(items, relevant);
      ndcg_sum += eval::ndcg_at_k(items, relevant);
      ++evaluated;
    }
    std::printf("\nranking quality (%s) over %d users: recall@%d %.3f, "
                "ndcg@%d %.3f\n",
                label, evaluated, top_k, recall_sum / evaluated, top_k,
                ndcg_sum / evaluated);
  };
  ranking_quality("generation 1");

  // 6. Retrain → hot swap: four more ALS iterations, checkpointed and
  //    swapped into the running server. The batcher keeps serving across
  //    the swap; its generation-tagged cache retires stale lists lazily.
  (void)solver.train(/*iterations=*/4, &split.train, &split.test, "serve-demo-2");
  manager.save_x(solver.x(), solver.iterations_run());
  manager.save_theta(solver.theta(), solver.iterations_run());
  const auto outcome = live.refresh_from_checkpoint(ckpt_dir.string());
  if (!outcome.swapped) {
    std::fprintf(stderr, "refresh failed: %s\n", outcome.error.c_str());
    return 1;
  }
  std::printf("\nhot-swapped checkpoint (iteration %d) in as generation %llu: "
              "load %.1f ms off the query path, swap pause %.4f ms\n",
              static_cast<int>(live.pin()->restored_iteration()),
              static_cast<unsigned long long>(outcome.generation),
              outcome.load_ms, outcome.swap_pause_ms);

  // Replay the same traffic through the same batcher: hot users that were
  // cached under generation 1 are rescored against the fresh factors.
  for (std::size_t q = 0; q < traffic.size(); q += 50) {
    futures.clear();
    const std::size_t hi = std::min(traffic.size(), q + 50);
    for (std::size_t i = q; i < hi; ++i) futures.push_back(batcher.submit(traffic[i]));
    for (auto& fut : futures) (void)fut.get();
  }
  ranking_quality("generation 2");

  const auto stats = batcher.stats();
  std::printf("\nserve stats: %llu queries in %llu micro-batches, "
              "%llu cache hits / %llu misses (%llu stale lists retired), "
              "%llu scored, %llu pruned\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.cache_stale_evictions),
              static_cast<unsigned long long>(stats.items_scored),
              static_cast<unsigned long long>(stats.items_pruned));
  // `samples` is the retained percentile window; `total_recorded` is the
  // lifetime batch count this process actually flushed.
  std::printf("serving generation %llu after %llu refreshes "
              "(%llu rejected); engine batch latency: p50 %.2f ms, "
              "p99 %.2f ms over %llu batches (%llu in window)\n",
              static_cast<unsigned long long>(stats.generation),
              static_cast<unsigned long long>(stats.refreshes),
              static_cast<unsigned long long>(stats.refresh_failures),
              stats.batch_wall.p50_ms, stats.batch_wall.p99_ms,
              static_cast<unsigned long long>(stats.batch_wall.total_recorded),
              static_cast<unsigned long long>(stats.batch_wall.samples));
  std::printf("per-query latency: e2e p50 %.3f ms / p99 %.3f ms "
              "(cache hits included), queueing p99 %.3f ms\n",
              stats.e2e.p50_ms, stats.e2e.p99_ms, stats.queue_delay.p99_ms);

  // 7. Fleet-sizing mode: price a serving fleet for this exact model.
  if (target_qps > 0.0) {
    constexpr int kFleetBatch = 32;
    costmodel::FleetRequirement req;
    req.target_qps = target_qps;
    req.p99_ms = p99_ms;

    std::printf("\nfleet plan for %.0f qps at p99 <= %.1f ms:\n", target_qps,
                p99_ms);
    std::printf("%-8s %11s %8s %11s %10s %13s\n", "device", "qps/device",
                "devices", "p99(ms)", "$/hr", "qps/$-hr");
    // Pinning keeps the probed generation alive and bit-stable even if a
    // refresh lands while the fleet probes run.
    const auto pinned = live.pin();
    for (const auto& fd : costmodel::priced_serving_devices()) {
      // Replay a probe through the simulated backend: same top-k answers,
      // but every sweep is accounted on the device's roofline clock.
      gpusim::Device dev(0, fd.spec);
      serve::MultiDeviceScoringBackend backend(dev, *pinned.store);
      serve::TopKOptions opt;
      opt.exclude_rated = &R;
      opt.user_block = kFleetBatch;
      opt.backend = &backend;
      const serve::TopKEngine modeled(*pinned.store, opt);
      for (std::size_t q = 0; q + kFleetBatch <= traffic.size();
           q += kFleetBatch) {
        (void)modeled.recommend(
            std::span<const idx_t>(traffic.data() + q, kFleetBatch), top_k);
      }

      costmodel::ServingProfile profile;
      profile.batch_seconds = modeled.batch_modeled_summary().p50_ms * 1e-3;
      profile.batch_users = kFleetBatch;
      const auto plan = costmodel::plan_serving_fleet(
          req, fd.spec, fd.pricing.price_per_device_hr, profile);
      std::printf("%-8s %11.0f %8d %11.2f %10.2f %13.0f%s\n",
                  plan.device.c_str(), plan.device_qps, plan.devices,
                  plan.modeled_p99_ms, plan.dollars_per_hr,
                  plan.qps_per_dollar_hr,
                  plan.feasible ? "" : "  (INFEASIBLE)");
    }
  }

  // 8. --port: keep the trained model serving over TCP until SIGINT (the
  //    mask was installed at the top of main, before any thread spawned).
  //    --daemon additionally runs the retrain orchestrator behind the
  //    server: AddRating frames feed its RatingLog, retrains fire on the
  //    cadence or the delta trigger, and gate-passing candidates hot-swap
  //    under the live connections.
  if (serve_over_tcp) {
    orchestrate::RatingLog rating_log(split.train);
    std::unique_ptr<orchestrate::Orchestrator> orch;
    const auto orch_dir =
        std::filesystem::temp_directory_path() / "cumf_serve_demo_orch";

    // SLO monitor for the wire-served traffic: the batcher feeds it every
    // answered query (latency + availability), the server feeds it edge
    // sheds, and GetHealth frames read it back.
    obs::SloOptions slo_opt;
    slo_opt.latency_threshold_ms = slo_p99_ms;
    slo_opt.availability_objective = slo_availability;
    obs::SloMonitor slo(slo_opt, &obs::EventLog::global());
    batcher.set_slo(&slo);

    serve::net::ServerOptions sopt;
    sopt.port = port;
    sopt.slo = &slo;
    if (daemon_mode) {
      std::filesystem::create_directories(orch_dir);
      orchestrate::OrchestratorOptions oopt;
      oopt.trainer.solver = cfg;  // same rank/lambda the demo trained with
      oopt.trainer.iterations = 2;
      oopt.gate.k = top_k;
      oopt.cadence = std::chrono::milliseconds(5000);
      oopt.delta_trigger = 500;
      oopt.tier_mode = tier_mode;
      oopt.consolidate_every = consolidate_every;
      // Retrain on cadence even without deltas so the generation column
      // visibly advances in the other terminal.
      oopt.skip_when_idle = false;
      oopt.work_dir = orch_dir.string();
      orch = std::make_unique<orchestrate::Orchestrator>(
          rating_log, live, split.test, oopt, &R);
      sopt.ingest = [&rating_log](idx_t user, idx_t item, double value) {
        return rating_log.append(user, item, static_cast<real_t>(value));
      };
      sopt.augment_stats = [&orch](serve::ServeStats& s) {
        orch->merge_into(&s);
      };
    }

    serve::net::TcpServer server(batcher, sopt);
    if (orch) orch->start();
    std::printf("\nserving generation %llu on 127.0.0.1:%u (top-%d, %d users%s)"
                "\ndrive it from another terminal:\n"
                "  ./build/bench/serve_netload --connect 127.0.0.1 %u %d %d\n"
                "Ctrl-C to stop.\n",
                static_cast<unsigned long long>(live.generation()),
                server.port(), top_k, gen.m,
                daemon_mode ? ", retrain daemon on" : "", server.port(), gen.m,
                top_k);
    int sig = 0;
    sigwait(&sigs, &sig);

    if (orch) {
      orch->stop();
      const auto oc = orch->counters();
      std::printf("\norchestrator: %llu retrains, %llu promotions, "
                  "%llu rejections, %llu rollbacks; %llu deltas ingested "
                  "(%llu rejected); last gate rmse %.4f recall@%d %.3f; "
                  "last train %.0f ms wall / %.3f s modeled\n",
                  static_cast<unsigned long long>(oc.retrains),
                  static_cast<unsigned long long>(oc.promotions),
                  static_cast<unsigned long long>(oc.rejections),
                  static_cast<unsigned long long>(oc.rollbacks),
                  static_cast<unsigned long long>(oc.deltas_ingested),
                  static_cast<unsigned long long>(oc.deltas_rejected),
                  oc.last_gate_rmse, top_k, oc.last_gate_recall,
                  oc.last_train_wall_ms, oc.last_train_modeled_s);
      std::printf("retraining tiers: full %llu cycles (%llu promoted, "
                  "%llu rejected), incremental %llu cycles (%llu promoted, "
                  "%llu rejected); %llu escalations, %llu consolidations\n",
                  static_cast<unsigned long long>(oc.retrains_full),
                  static_cast<unsigned long long>(oc.promotions_full),
                  static_cast<unsigned long long>(oc.rejections_full),
                  static_cast<unsigned long long>(oc.retrains_incremental),
                  static_cast<unsigned long long>(oc.promotions_incremental),
                  static_cast<unsigned long long>(oc.rejections_incremental),
                  static_cast<unsigned long long>(oc.escalations),
                  static_cast<unsigned long long>(oc.consolidations));
      for (const auto& rec : orch->history()) {
        const char* what =
            rec.outcome == orchestrate::CycleOutcome::kPromoted   ? "promoted"
            : rec.outcome == orchestrate::CycleOutcome::kRejected ? "rejected"
            : rec.outcome == orchestrate::CycleOutcome::kRolledBack
                ? "rolled back"
                : "failed";
        std::printf("  cycle %llu [%s%s%s]: %s -> generation %llu "
                    "(gate rmse %.4f, recall %.3f)%s%s\n",
                    static_cast<unsigned long long>(rec.cycle),
                    orchestrate::tier_name(rec.tier),
                    rec.escalated ? ", escalated" : "",
                    rec.consolidation ? ", consolidation" : "", what,
                    static_cast<unsigned long long>(rec.generation),
                    rec.gate.rmse, rec.gate.recall,
                    rec.gate.reason.empty() ? "" : " — ",
                    rec.gate.reason.c_str());
      }
    }
    const auto net = server.stats();
    std::printf("\nshutting down: served %llu queries over the wire, "
                "accept→reply p99 %.3f ms (queueing p99 %.3f ms)\n",
                static_cast<unsigned long long>(net.queries - stats.queries),
                net.net_e2e.p99_ms, net.queue_delay.p99_ms);

    // Health on the way out — the same view a GetHealth frame (op 5) would
    // have returned moments earlier, so an incident that ended the run is
    // not lost with the process.
    {
      const obs::HealthSnapshot health = slo.snapshot();
      std::printf("\nSLO health at shutdown:\n"
                  "  latency      %-4s  fast burn %6.2f  slow burn %6.2f  "
                  "(threshold %.1f ms, %llu violations, %llu transitions)\n"
                  "  availability %-4s  fast burn %6.2f  slow burn %6.2f  "
                  "(%llu errors incl. sheds, %llu transitions)\n",
                  obs::alert_state_name(health.latency.state),
                  health.latency.fast_burn, health.latency.slow_burn,
                  health.latency_threshold_ms,
                  static_cast<unsigned long long>(health.latency.lifetime_bad),
                  static_cast<unsigned long long>(health.latency.transitions),
                  obs::alert_state_name(health.availability.state),
                  health.availability.fast_burn, health.availability.slow_burn,
                  static_cast<unsigned long long>(
                      health.availability.lifetime_bad),
                  static_cast<unsigned long long>(
                      health.availability.transitions));
      for (const auto& ex : health.exemplars) {
        std::printf("  slow query: user %llu  e2e %.3f ms = queue %.3f + "
                    "engine %.3f + finish %.3f\n",
                    static_cast<unsigned long long>(ex.user), ex.e2e_ms,
                    ex.queue_ms, ex.engine_ms, ex.finish_ms);
      }
      auto& events = obs::EventLog::global();
      std::printf("\nevent tail (%llu recorded, %llu dropped):\n%s",
                  static_cast<unsigned long long>(events.recorded()),
                  static_cast<unsigned long long>(events.dropped()),
                  events.export_json_lines(16).c_str());
    }
    if (daemon_mode) {
      // Final metrics snapshot — byte-identical in shape to what a GetMetrics
      // frame (op 4) would have returned over the wire moments earlier.
      std::printf("\nfinal metrics exposition:\n%s",
                  serve::metrics_exposition(net).c_str());
    }
    // Detach before the monitor leaves this scope: the batcher (and its
    // flusher thread) outlives the block.
    batcher.set_slo(nullptr);
    std::error_code ec;
    std::filesystem::remove_all(orch_dir, ec);
  }

  if (!trace_out.empty()) {
    auto& trace = obs::TraceCollector::global();
    trace.disable();
    if (trace.write_chrome_json(trace_out)) {
      std::printf("\ntrace: %llu events (%llu dropped by ring wrap) -> %s\n",
                  static_cast<unsigned long long>(trace.events_recorded()),
                  static_cast<unsigned long long>(trace.events_dropped()),
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "could not write trace to %s\n", trace_out.c_str());
    }
  }

  std::filesystem::remove_all(ckpt_dir);
  return 0;
}
