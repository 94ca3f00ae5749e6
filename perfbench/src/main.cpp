// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --param key=value ...
//
// perfbench/run.py builds this program and passes the workload's parameters
// from perfbench/workloads.json. The run prints a readable report (every
// metric with its unit and sample count, and every correctness check) and,
// as its last line, one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. The exit code is 0 only when every
// correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "measure.hpp"
#include "stages.hpp"

namespace {

using namespace perfbench;

/// Host steal above this share of the run's CPU time marks the run as
/// disturbed: its wall-clock metrics then say more about the neighbours
/// than about the code.
constexpr double kDisturbedStealPct = 5.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  Params params;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else if (key == "--param") {
      const auto eq = val.find('=');
      if (eq == std::string::npos) return false;
      a->params.set(val.substr(0, eq), val.substr(eq + 1));
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0.0;
}

void print_table(const char* title, const Report& r) {
  std::printf("## %s\n", title);
  for (const std::string& name : r.names()) {
    const Metric& m = r.get(name);
    if (!m.absent.empty()) {
      std::printf("%-34s %14s %-6s absent: %s\n", name.c_str(), "-",
                  m.unit.c_str(), m.absent.c_str());
    } else {
      std::printf("%-34s %14.6g %-6s n=%zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
}

std::string metrics_json(const Report& r) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const std::string& name : r.names()) {
    const Metric& m = r.get(name);
    if (!m.absent.empty()) continue;  // absent metrics carry no value
    if (!first) os << ", ";
    first = false;
    os << json_string(name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << '}';
  }
  os << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--param key=value ...]\n",
                 argv[0]);
    return 2;
  }
  const Clock::time_point t_start = Clock::now();
  const CpuTimes cpu0 = read_cpu_times();
  const double proc_cpu0 = process_cpu_seconds();

  RunContext ctx(args.params);
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.trace = args.trace;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  int rc = 0;
  try {
    std::unique_ptr<World> world;
    run_setup(ctx, args.work_dir, &world);
    run_idle_segment(ctx, 0);
    run_serving(ctx);
    run_idle_segment(ctx, 1);
    run_refresh(ctx);
    run_idle_segment(ctx, 2);
    if (args.trace) {
      run_capacity_search(ctx);
      run_layer_probes(ctx);
    }
    ctx.e2e.set("peak_rss_mb", peak_rss_mib(), "MiB");
  } catch (const std::exception& e) {
    std::printf("# error: %s\n", e.what());
    ctx.check_failures.push_back(std::string("run aborted: ") + e.what());
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);

  ctx.layer.set("net.sheds", static_cast<double>(ctx.sheds), "count");
  ctx.layer.set("net.stalled", static_cast<double>(ctx.stalled), "count");
  ctx.layer.set("net.errors", static_cast<double>(ctx.errors), "count");
  ctx.layer.set_pct("loadgen.late_p99_ms", ctx.late_ms, 0.99, "ms",
                    "no requests sent");
  const double steal = steal_pct(cpu0, read_cpu_times());
  ctx.layer.set("host.steal_pct", steal, "%");
  ctx.layer.set("host.cpu_s", process_cpu_seconds() - proc_cpu0, "s");

  print_table("end-to-end", ctx.e2e);
  print_table("per-layer", ctx.layer);
  std::printf("## checks: %zu sampled answers compared bit-for-bit\n",
              ctx.answers_checked);
  for (const std::string& f : ctx.check_failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  // Printed with every run, traced or not, so a run disturbed by a
  // neighbour can be told from a slow one.
  std::printf("# host.steal_pct %.2f %% over the run: %s (threshold %.0f %%)\n",
              steal, steal > kDisturbedStealPct ? "DISTURBED" : "quiet",
              kDisturbedStealPct);
  const bool correct = ctx.check_failures.empty();
  std::printf("# attempted %llu failed %llu (%.4f%%) wall %.1f s\n",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed),
              ctx.attempted == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(ctx.failed) /
                        static_cast<double>(ctx.attempted),
              seconds_since(t_start));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed),
              metrics_json(args.trace ? ctx.layer : ctx.e2e).c_str());
  std::fflush(stdout);
  return correct && rc == 0 ? 0 : 1;
}
