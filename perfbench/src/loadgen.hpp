#pragma once

// Open-loop load generation over loopback TCP and in process.
//
// Each connection has its own thread and a fixed schedule: request j of
// connection c is due at (j·C + c) / rate after the phase start, whatever
// the server is doing, so a stall delays every later request and shows in
// their latency. Latency is timed from the due time, not the send time.
// Every phase has a deadline: requests unanswered when it passes are counted
// as stalled (failed) and their connection is closed, never retried.

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "orchestrate/rating_log.hpp"
#include "serve/batcher.hpp"
#include "serve/topk.hpp"
#include "util/types.hpp"

namespace perfbench {

using cumf::idx_t;

/// Deterministic user stream: Zipf(s) ranks over `users` ids (s <= 0 is
/// uniform), seeded per phase and connection.
struct UserMix {
  idx_t users = 1;
  double zipf_s = 0.0;
};

struct PhaseSpec {
  double rate_qps = 100.0;  // offered rate summed over all connections
  double seconds = 1.0;     // send window
  double deadline_s = 2.0;  // wait for replies after the last due time
  int connections = 1;      // one generator thread each (at most 4)
  int k = 10;
  UserMix mix;
  std::uint64_t seed = 1;
  /// Keep every Nth ok answer for the brute-force correctness sample; 0
  /// keeps none.
  int sample_every = 0;
};

struct SampledAnswer {
  idx_t user = 0;
  std::uint64_t generation = 0;
  std::vector<cumf::serve::Recommendation> items;
};

/// Latency samples of one phase, kept per sub-window of its schedule (by due
/// time). A percentile is reported as the median of the windows' percentiles,
/// so a burst of host contention in one window moves it far less than it
/// moves a percentile over the whole phase.
class WindowedLatency {
 public:
  static constexpr int kWindows = 10;

  void add(double due_s, double phase_s, double ms);
  void append(const WindowedLatency& other);
  [[nodiscard]] double pct(double q) const { return window_pcts(q).median(); }
  /// The q-percentile of each non-empty window.
  [[nodiscard]] Samples window_pcts(double q) const;
  [[nodiscard]] double median() const { return pct(0.5); }
  [[nodiscard]] std::size_t size() const;

 private:
  Samples windows_[kWindows];
};

struct PhaseResult {
  /// due → reply of every request; failures enter at the phase deadline, so
  /// each counts as missing any latency limit.
  WindowedLatency latency_ms;
  Samples late_ms;     // send − due: how late the generator ran
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t sheds = 0;    // Status::kOverloaded
  std::uint64_t errors = 0;   // any other non-ok status, or a broken socket
  std::uint64_t stalled = 0;  // unanswered at the phase deadline
  /// Requests still unanswered when the send window closed, summed over
  /// connections: the backlog the server carried out of the phase.
  std::uint64_t backlog_at_end = 0;
  double wall_s = 0.0;  // phase start → last reply or deadline
  std::vector<SampledAnswer> sample;

  [[nodiscard]] std::uint64_t failed() const {
    return sheds + errors + stalled;
  }
};

/// Runs one open-loop phase against 127.0.0.1:port.
PhaseResult run_tcp_phase(std::uint16_t port, const PhaseSpec& spec);

/// The same schedule (one sender, one FIFO receiver) driven straight into
/// RequestBatcher::submit, for the network overhead metric.
PhaseResult run_inprocess_phase(cumf::serve::RequestBatcher& batcher,
                                const PhaseSpec& spec);

struct IngestResult {
  std::uint64_t sent = 0;
  std::uint64_t acked_ok = 0;
  std::uint64_t failed = 0;  // non-ok acks plus unanswered at the deadline
  double seconds = 0.0;      // first send → last ack
};

/// Pushes `deltas` as pipelined AddRating frames on one connection and waits
/// for every ack (or the deadline).
IngestResult push_ratings(
    std::uint16_t port,
    const std::vector<cumf::orchestrate::RatingDelta>& deltas,
    double deadline_s);

}  // namespace perfbench
