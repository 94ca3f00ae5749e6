#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "serve/net/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace net = cumf::serve::net;

void WindowedLatency::add(double due_s, double phase_s, double ms) {
  const int w =
      phase_s > 0.0 ? static_cast<int>(due_s / phase_s * kWindows) : 0;
  windows_[std::clamp(w, 0, kWindows - 1)].add(ms);
}

void WindowedLatency::append(const WindowedLatency& other) {
  for (int w = 0; w < kWindows; ++w) windows_[w].append(other.windows_[w]);
}

Samples WindowedLatency::window_pcts(double q) const {
  Samples per_window;
  for (const Samples& w : windows_) {
    if (!w.empty()) per_window.add(w.pct(q));
  }
  return per_window;
}

std::size_t WindowedLatency::size() const {
  std::size_t n = 0;
  for (const Samples& w : windows_) n += w.size();
  return n;
}

namespace {

/// Owns one connected, non-blocking loopback socket.
class Socket {
 public:
  explicit Socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error(std::string("connect() failed: ") +
                               std::strerror(err));
    }
    int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    (void)fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

Clock::time_point at(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// The users a connection queries, in order: a pure function of the phase
/// seed and connection index.
std::vector<idx_t> user_stream(const PhaseSpec& spec, int conn,
                               std::size_t count) {
  cumf::util::Rng rng(spec.seed * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(conn) + 1);
  std::vector<idx_t> users(count);
  const auto n = static_cast<std::uint64_t>(spec.mix.users);
  for (auto& u : users) {
    u = static_cast<idx_t>(spec.mix.zipf_s > 0.0 ? rng.zipf(n, spec.mix.zipf_s)
                                                 : rng.next_below(n));
  }
  return users;
}

/// Due offsets (seconds from phase start) of connection `conn`'s requests.
std::vector<double> due_times(const PhaseSpec& spec, int conn) {
  std::vector<double> due;
  const int conns = std::max(1, spec.connections);
  for (std::size_t j = 0;; ++j) {
    const double t =
        static_cast<double>(j * static_cast<std::size_t>(conns) +
                            static_cast<std::size_t>(conn)) /
        spec.rate_qps;
    if (t >= spec.seconds) break;
    due.push_back(t);
  }
  return due;
}

/// Waits for `events` on `fd` until `until`, with microsecond resolution.
short wait_fd(int fd, short events, Clock::time_point until) {
  const auto left = until - Clock::now();
  const auto ns = std::max<long long>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  pollfd p{fd, events, 0};
  const int rc = ::ppoll(&p, 1, &ts, nullptr);
  return rc > 0 ? p.revents : 0;
}

/// Appends whatever the socket has to `in`. Returns false when the peer
/// closed the connection or the read failed.
bool read_available(int fd, std::vector<std::uint8_t>& in) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in.insert(in.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

/// Sends as much of out[off..] as the socket accepts. False on a hard error.
bool write_available(int fd, const std::vector<std::uint8_t>& out,
                     std::size_t& off) {
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

/// Pops every complete response frame off `in`, in order. Returns false on
/// a frame that does not decode: the connection can no longer be trusted.
template <typename OnFrame>
bool drain_frames(std::vector<std::uint8_t>& in, OnFrame&& on_frame) {
  std::size_t consumed = 0;
  std::size_t off = 0, len = 0;
  bool ok = true;
  while (net::try_frame(in.data() + consumed, in.size() - consumed, &off,
                        &len)) {
    net::QueryResponse q;
    net::StatsResponse s;
    net::MsgType type{};
    try {
      type = net::decode_response(in.data() + consumed + off, len, &q, &s);
    } catch (const net::ProtocolError&) {
      ok = false;
      break;
    }
    on_frame(type, q);
    consumed += off + len;
  }
  in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(consumed));
  return ok;
}

struct Outstanding {
  Clock::time_point due;
  double due_s = 0.0;  // offset from the phase start
  idx_t user = 0;
  bool sampled = false;
};

void merge_into(PhaseResult& into, PhaseResult&& part) {
  into.latency_ms.append(part.latency_ms);
  into.late_ms.append(part.late_ms);
  into.attempted += part.attempted;
  into.sheds += part.sheds;
  into.errors += part.errors;
  into.stalled += part.stalled;
  into.backlog_at_end += part.backlog_at_end;
  into.ok += part.ok;
  for (auto& a : part.sample) into.sample.push_back(std::move(a));
}

/// One connection's share of a TCP phase.
PhaseResult drive_connection(Socket& sock, const PhaseSpec& spec, int conn,
                             Clock::time_point start) {
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult r;
  const std::vector<double> due = due_times(spec, conn);
  const std::vector<idx_t> users = user_stream(spec, conn, due.size());
  const Clock::time_point send_end = at(start, spec.seconds);
  const Clock::time_point deadline = at(start, spec.seconds + spec.deadline_s);

  std::vector<std::uint8_t> out, in;
  std::size_t out_off = 0;
  std::deque<Outstanding> inflight;
  std::size_t next = 0;
  bool backlog_noted = false;
  bool broken = false;
  const int fd = sock.fd();

  while (true) {
    Clock::time_point now = Clock::now();
    while (next < due.size() && at(start, due[next]) <= now) {
      const Clock::time_point d = at(start, due[next]);
      net::encode_query_request(net::QueryRequest{users[next], spec.k}, &out);
      r.late_ms.add(ms_between(d, now));
      const auto every = static_cast<std::size_t>(spec.sample_every);
      const bool sampled = every > 0 && next % every == 0;
      inflight.push_back({d, due[next], users[next], sampled});
      ++r.attempted;
      ++next;
    }
    if (!backlog_noted && next == due.size() && now >= send_end) {
      r.backlog_at_end = inflight.size();
      backlog_noted = true;
    }
    if (out_off < out.size() && !write_available(fd, out, out_off)) {
      broken = true;
      break;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    if (next == due.size() && inflight.empty()) break;
    if (now >= deadline) break;

    Clock::time_point until = deadline;
    if (next < due.size()) until = std::min(until, at(start, due[next]));
    const short ev = wait_fd(
        fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), until);
    if ((ev & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    bool open = read_available(fd, in);
    now = Clock::now();
    open &= drain_frames(in, [&](net::MsgType type, net::QueryResponse& q) {
      if (inflight.empty()) return;  // unsolicited frame: ignored
      const Outstanding o = inflight.front();
      inflight.pop_front();
      if (type != net::MsgType::kQuery) {
        ++r.errors;
        r.latency_ms.add(o.due_s, spec.seconds, ms_between(o.due, deadline));
      } else if (q.status == net::Status::kOk) {
        ++r.ok;
        r.latency_ms.add(o.due_s, spec.seconds, ms_between(o.due, now));
        if (o.sampled) {
          r.sample.push_back({o.user, q.generation, std::move(q.items)});
        }
      } else {
        if (q.status == net::Status::kOverloaded) {
          ++r.sheds;
        } else {
          ++r.errors;
        }
        r.latency_ms.add(o.due_s, spec.seconds, ms_between(o.due, deadline));
      }
    });
    if (!open) {
      broken = true;
      break;
    }
  }
  // Whatever is still owed failed: a broken socket is an error, an open one
  // that never answered by the deadline is a stall. Each counts as missing
  // the latency limit, timed to the deadline.
  if (!backlog_noted) r.backlog_at_end = inflight.size() + (due.size() - next);
  const std::uint64_t owed = inflight.size() + (due.size() - next);
  (broken ? r.errors : r.stalled) += owed;
  for (const auto& o : inflight) {
    r.latency_ms.add(o.due_s, spec.seconds, ms_between(o.due, deadline));
  }
  for (std::size_t j = next; j < due.size(); ++j) {
    ++r.attempted;
    r.latency_ms.add(due[j], spec.seconds,
                     ms_between(at(start, due[j]), deadline));
  }
  return r;
}

}  // namespace

PhaseResult run_tcp_phase(std::uint16_t port, const PhaseSpec& spec) {
  const int conns = std::clamp(spec.connections, 1, 4);
  std::vector<std::unique_ptr<Socket>> socks;
  for (int c = 0; c < conns; ++c) {
    socks.push_back(std::make_unique<Socket>(port));
  }
  PhaseSpec s = spec;
  s.connections = conns;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<PhaseResult> parts(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      parts[static_cast<std::size_t>(c)] =
          drive_connection(*socks[static_cast<std::size_t>(c)], s, c, start);
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult total;
  for (auto& p : parts) merge_into(total, std::move(p));
  total.wall_s = seconds_since(start);
  return total;
}

PhaseResult run_inprocess_phase(cumf::serve::RequestBatcher& batcher,
                                const PhaseSpec& spec) {
  PhaseSpec s = spec;
  s.connections = 1;
  const std::vector<double> due = due_times(s, 0);
  const std::vector<idx_t> users = user_stream(s, 0, due.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point deadline = at(start, s.seconds + s.deadline_s);

  struct Item {
    Clock::time_point due;
    double due_s = 0.0;
    std::future<cumf::serve::BatchedAnswer> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  bool done = false;
  PhaseResult r;

  std::thread receiver([&] {
    for (;;) {
      Item it;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        it = std::move(queue.front());
        queue.pop_front();
      }
      if (it.fut.wait_until(deadline) != std::future_status::ready) {
        ++r.stalled;
        r.latency_ms.add(it.due_s, s.seconds, ms_between(it.due, deadline));
        continue;
      }
      try {
        (void)it.fut.get();
        ++r.ok;
        r.latency_ms.add(it.due_s, s.seconds, ms_between(it.due, Clock::now()));
      } catch (const std::exception&) {
        ++r.errors;
        r.latency_ms.add(it.due_s, s.seconds, ms_between(it.due, deadline));
      }
    }
  });

  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (std::size_t j = 0; j < due.size(); ++j) {
    const Clock::time_point d = at(start, due[j]);
    std::this_thread::sleep_until(d);
    r.late_ms.add(ms_between(d, Clock::now()));
    auto fut = batcher.submit(users[j]);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({d, due[j], std::move(fut)});
    }
    cv.notify_one();
  }
  r.attempted = due.size();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  receiver.join();
  r.wall_s = seconds_since(start);
  return r;
}

IngestResult push_ratings(
    std::uint16_t port,
    const std::vector<cumf::orchestrate::RatingDelta>& deltas,
    double deadline_s) {
  IngestResult r;
  Socket sock(port);
  std::vector<std::uint8_t> out, in;
  out.reserve(deltas.size() * 32);
  for (const auto& d : deltas) {
    net::encode_add_rating_request(
        net::AddRatingRequest{d.user, d.item, static_cast<double>(d.value)},
        &out);
  }
  r.sent = deltas.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = at(start, deadline_s);
  std::size_t out_off = 0;
  std::uint64_t answered = 0;
  while (answered < r.sent && Clock::now() < deadline) {
    if (out_off < out.size() && !write_available(sock.fd(), out, out_off)) {
      break;
    }
    const short ev = wait_fd(
        sock.fd(),
        static_cast<short>(POLLIN | (out_off < out.size() ? POLLOUT : 0)),
        deadline);
    if ((ev & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    bool open = read_available(sock.fd(), in);
    open &= drain_frames(in, [&](net::MsgType type, net::QueryResponse& q) {
      ++answered;
      if (type == net::MsgType::kAddRating && q.status == net::Status::kOk) {
        ++r.acked_ok;
      }
    });
    if (!open) break;
  }
  r.seconds = seconds_since(start);
  r.failed = r.sent - r.acked_ok;
  return r;
}

}  // namespace perfbench
