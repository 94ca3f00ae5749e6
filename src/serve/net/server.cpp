#include "serve/net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/events.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/metrics_export.hpp"

namespace cumf::serve::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("TcpServer: ") + what + ": " +
                           std::strerror(errno));
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void set_nodelay(int fd) {
  // Micro-batch deadlines are in the hundreds of microseconds; Nagle would
  // hold small response frames for an RTT and dwarf the latency being
  // measured. Best effort: a non-TCP fd (tests) just ignores it.
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// TraceCollector::set_thread_name stores the pointer, so shard names must be
// string literals; shards beyond the tables share a generic name.
const char* io_thread_name(int shard) {
  static const char* const kNames[] = {"net.io0", "net.io1", "net.io2",
                                       "net.io3", "net.io4", "net.io5",
                                       "net.io6", "net.io7"};
  return shard < 8 ? kNames[shard] : "net.io";
}

const char* lane_thread_name(int shard) {
  static const char* const kNames[] = {"net.lane0", "net.lane1", "net.lane2",
                                       "net.lane3", "net.lane4", "net.lane5",
                                       "net.lane6", "net.lane7"};
  return shard < 8 ? kNames[shard] : "net.lane";
}

/// Most recent events a health response carries; the encoder trims further
/// if the frame would overflow, but 64 lines is an incident tail, not a dump.
constexpr std::size_t kHealthEventTail = 64;

HealthResponse build_health(obs::SloMonitor* slo) {
  HealthResponse h;
  if (slo != nullptr) {
    obs::HealthSnapshot snap = slo->snapshot();
    h.latency_state = static_cast<std::uint8_t>(snap.latency.state);
    h.availability_state = static_cast<std::uint8_t>(snap.availability.state);
    h.latency_threshold_ms = snap.latency_threshold_ms;
    h.latency_fast_burn = snap.latency.fast_burn;
    h.latency_slow_burn = snap.latency.slow_burn;
    h.availability_fast_burn = snap.availability.fast_burn;
    h.availability_slow_burn = snap.availability.slow_burn;
    h.latency_violations = snap.latency.lifetime_bad;
    h.availability_errors = snap.availability.lifetime_bad;
    h.latency_transitions = snap.latency.transitions;
    h.availability_transitions = snap.availability.transitions;
    h.exemplars.reserve(snap.exemplars.size());
    for (const auto& ex : snap.exemplars) {
      HealthExemplar w;
      w.ticket = ex.ticket;
      w.user = ex.user;
      w.e2e_ms = ex.e2e_ms;
      w.queue_ms = ex.queue_ms;
      w.engine_ms = ex.engine_ms;
      w.finish_ms = ex.finish_ms;
      h.exemplars.push_back(w);
    }
  }
  auto& events = obs::EventLog::global();
  h.events_recorded = events.recorded();
  h.events_dropped = events.dropped();
  h.events_json = events.export_json_lines(kHealthEventTail);
  return h;
}

}  // namespace

TcpServer::TcpServer(RequestBatcher& batcher, ServerOptions opt)
    : batcher_(batcher), opt_(std::move(opt)) {
  opt_.io_threads = std::max(1, opt_.io_threads);
  opt_.max_inflight = std::max(1, opt_.max_inflight);
  opt_.max_queued_replies = std::max<std::size_t>(1, opt_.max_queued_replies);
  // One maximum frame must always fit, or a paused connection whose buffer
  // holds a single incomplete frame could never make progress.
  opt_.max_in_buffer =
      std::max(opt_.max_in_buffer,
               static_cast<std::size_t>(kMaxPayload) + kFramePrefix);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(opt_.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(opt_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(listen_fd_, opt_.backlog) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  auto fail = [this](const char* what) {
    const int saved = errno;
    for (auto& sh : shards_) {
      if (sh->epoll_fd >= 0) ::close(sh->epoll_fd);
      if (sh->wake_rd >= 0) ::close(sh->wake_rd);
      if (sh->wake_wr >= 0) ::close(sh->wake_wr);
    }
    ::close(listen_fd_);
    errno = saved;
    throw_errno(what);
  };

  shards_.reserve(static_cast<std::size_t>(opt_.io_threads));
  for (int i = 0; i < opt_.io_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& sh = *shards_.back();
    sh.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (sh.epoll_fd < 0) fail("epoll_create1");
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) fail("pipe2");
    sh.wake_rd = pipe_fds[0];
    sh.wake_wr = pipe_fds[1];
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = sh.wake_rd;
    if (::epoll_ctl(sh.epoll_fd, EPOLL_CTL_ADD, sh.wake_rd, &ev) < 0) {
      fail("epoll_ctl wake");
    }
  }
  // The listen fd lives in shard 0's epoll; accepted connections are handed
  // off round-robin (accept_loop).
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  if (::epoll_ctl(shards_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev) < 0) {
    fail("epoll_ctl listen");
  }

  for (int i = 0; i < opt_.io_threads; ++i) {
    shards_[static_cast<std::size_t>(i)]->io_thread =
        std::thread([this, i] { io_loop(i); });
    shards_[static_cast<std::size_t>(i)]->lane_thread =
        std::thread([this, i] { completion_loop(i); });
  }
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  // Join the io threads first so no new queries can be submitted, then flush
  // the batcher so every future already handed to a completion lane resolves
  // without waiting out max_delay; the lanes drain their queues (replies to
  // closed connections are dropped) and exit.
  for (auto& sh : shards_) wake(*sh);
  for (auto& sh : shards_) sh->io_thread.join();
  batcher_.flush();
  for (auto& sh : shards_) sh->replies_cv.notify_all();
  for (auto& sh : shards_) sh->lane_thread.join();
  for (auto& sh : shards_) {
    ::close(sh->epoll_fd);
    ::close(sh->wake_rd);
    ::close(sh->wake_wr);
  }
  ::close(listen_fd_);
}

NetMetrics TcpServer::net_metrics() const {
  NetMetrics m;
  m.connections_accepted = connections_.load(std::memory_order_relaxed);
  m.connections_rejected = conns_rejected_.load(std::memory_order_relaxed);
  m.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  m.recv_errors = recv_errors_.load(std::memory_order_relaxed);
  m.slow_client_closes = slow_closes_.load(std::memory_order_relaxed);
  m.overload_sheds = overload_sheds_.load(std::memory_order_relaxed);
  m.io_shards = static_cast<std::uint64_t>(shards_.size());
  m.open_connections = open_conns_.load(std::memory_order_relaxed);
  return m;
}

ServeStats TcpServer::stats() const {
  ServeStats s = batcher_.stats();
  s.net_e2e = net_e2e_.summary();
  s.net = net_metrics();
  if (opt_.augment_stats) opt_.augment_stats(s);
  return s;
}

void TcpServer::wake(Shard& sh) {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(sh.wake_wr, &byte, 1);
}

void TcpServer::queue_reply(Shard& sh, Reply reply) {
  reply.conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  if (reply.kind == Reply::Kind::kQuery) {
    sh.queued_queries.fetch_add(1, std::memory_order_acq_rel);
  }
  {
    std::lock_guard<std::mutex> lock(sh.replies_mu);
    sh.replies.push_back(std::move(reply));
  }
  sh.replies_cv.notify_one();
}

void TcpServer::respond(Shard& sh, const std::shared_ptr<Conn>& conn,
                        bool can_inline,
                        std::chrono::steady_clock::time_point t0,
                        std::vector<std::uint8_t> encoded) {
  if (can_inline) {
    conn->out.insert(conn->out.end(), encoded.begin(), encoded.end());
    net_e2e_.record(ms_since(t0));
    return;
  }
  Reply reply;
  reply.conn = conn;
  reply.t0 = t0;
  reply.encoded = std::move(encoded);
  queue_reply(sh, std::move(reply));
}

void TcpServer::flush_outbox(Conn& conn) {
  std::lock_guard<std::mutex> lock(conn.outbox_mu);
  if (conn.outbox.empty()) return;
  conn.out.insert(conn.out.end(), conn.outbox.begin(), conn.outbox.end());
  conn.outbox.clear();
}

QueryResponse TcpServer::resolve(std::future<BatchedAnswer>& fut,
                                 int k) const {
  QueryResponse resp;
  try {
    BatchedAnswer answer = fut.get();
    resp.status = Status::kOk;
    resp.generation = answer.generation;
    resp.items = std::move(answer.items);
    // A top-k list's prefix is the top-k' list (total order), so a request
    // for fewer than the batcher's configured k truncates.
    if (resp.items.size() > static_cast<std::size_t>(k)) {
      resp.items.resize(static_cast<std::size_t>(k));
    }
  } catch (const std::out_of_range&) {
    resp.status = Status::kBadUser;
  } catch (...) {
    resp.status = Status::kError;
  }
  return resp;
}

bool TcpServer::handle_frame(Shard& sh, const std::shared_ptr<Conn>& conn,
                             const std::uint8_t* payload, std::size_t len) {
  const auto t0 = std::chrono::steady_clock::now();
  Request req;
  try {
    req = decode_request(payload, len);
  } catch (const ProtocolError&) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // io-thread slice of the request: frame decode + dispatch (+ inline
  // encode on the fast path). A batched query's remaining time shows up as
  // batch.queue_wait / batch.flush / query.e2e and the completion lane's
  // net.reply on the same timeline.
  obs::TraceSpan frame_span(obs::TraceCollector::global(), "net.frame");
  frame_span.arg("fd", static_cast<std::uint64_t>(conn->fd));
  frame_span.arg("type", static_cast<std::uint64_t>(req.type));
  frame_span.arg("shard", static_cast<std::uint64_t>(conn->shard));

  // The inline fast path may only run when nothing for this connection is
  // still on the completion lane, otherwise replies would overtake each
  // other; inflight is decremented only after the earlier reply reached the
  // outbox, so flushing the outbox first preserves request order.
  const bool can_inline = conn->inflight.load(std::memory_order_acquire) == 0;
  if (can_inline) flush_outbox(*conn);

  if (req.type == MsgType::kStats || req.type == MsgType::kMetrics ||
      req.type == MsgType::kHealth) {
    // Snapshotting stats — and especially rendering the Prometheus
    // exposition or the health event tail — is milliseconds of string work;
    // doing it here would head-of-line block every connection on this shard,
    // so the lane encodes it behind this connection's earlier replies.
    Reply reply;
    reply.conn = conn;
    reply.kind = req.type == MsgType::kStats     ? Reply::Kind::kStats
                 : req.type == MsgType::kMetrics ? Reply::Kind::kMetrics
                                                 : Reply::Kind::kHealth;
    reply.t0 = t0;
    queue_reply(sh, std::move(reply));
    return true;
  }

  if (req.type == MsgType::kAddRating) {
    // Ratings are answered at submit time: the ingest sink is a mutex
    // push_back, so there is nothing to hand to the completion lane.
    Status status = Status::kBadRequest;  // no ingest sink attached
    if (opt_.ingest) {
      status = opt_.ingest(req.rating.user, req.rating.item, req.rating.value)
                   ? Status::kOk
                   : Status::kBadUser;
    }
    std::vector<std::uint8_t> encoded;
    encode_add_rating_response(status, &encoded);
    respond(sh, conn, can_inline, t0, std::move(encoded));
    return true;
  }

  const int max_k = batcher_.options().k;
  if (req.query.k < 1 || req.query.k > max_k) {
    QueryResponse resp;
    resp.status = Status::kBadRequest;
    std::vector<std::uint8_t> encoded;
    encode_query_response(resp, &encoded);
    respond(sh, conn, can_inline, t0, std::move(encoded));
    return true;
  }

  // Admission control: at the lane's query bound this shard stops feeding
  // the batcher and sheds at the edge — the client gets an immediate
  // kOverloaded instead of a reply that would have blown its deadline, and
  // server memory stays bounded.
  if (sh.queued_queries.load(std::memory_order_acquire) >=
      opt_.max_queued_replies) {
    overload_sheds_.fetch_add(1, std::memory_order_relaxed);
    // A shed query never reaches the batcher, so the availability SLO is fed
    // here — it is a failed reply from the client's point of view.
    if (opt_.slo != nullptr) opt_.slo->shed();
    obs::EventLog::global().record(
        obs::Severity::kWarn, obs::Component::kNet, "overload_shed",
        {"shard", static_cast<std::uint64_t>(conn->shard)},
        {"queued", sh.queued_queries.load(std::memory_order_relaxed)});
    QueryResponse resp;
    resp.status = Status::kOverloaded;
    std::vector<std::uint8_t> encoded;
    encode_query_response(resp, &encoded);
    respond(sh, conn, can_inline, t0, std::move(encoded));
    return true;
  }

  auto fut = batcher_.submit(req.query.user);
  if (can_inline &&
      fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    // Cache hit or immediately-rejected id: answer without a hand-off.
    std::vector<std::uint8_t> encoded;
    encode_query_response(resolve(fut, req.query.k), &encoded);
    respond(sh, conn, true, t0, std::move(encoded));
    return true;
  }

  Reply reply;
  reply.conn = conn;
  reply.kind = Reply::Kind::kQuery;
  reply.fut = std::move(fut);
  reply.t0 = t0;
  reply.k = req.query.k;
  queue_reply(sh, std::move(reply));
  return true;
}

void TcpServer::completion_loop(int shard_index) {
  obs::TraceCollector::global().set_thread_name(lane_thread_name(shard_index));
  Shard& sh = *shards_[static_cast<std::size_t>(shard_index)];
  for (;;) {
    Reply reply;
    {
      std::unique_lock<std::mutex> lock(sh.replies_mu);
      sh.replies_cv.wait(lock, [this, &sh] {
        return !sh.replies.empty() || stop_.load(std::memory_order_acquire);
      });
      if (sh.replies.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      reply = std::move(sh.replies.front());
      sh.replies.pop_front();
    }

    // Future resolution + encode + outbox splice: the lane's slice of a
    // pipelined reply's timeline.
    obs::TraceSpan reply_span(obs::TraceCollector::global(), "net.reply");
    reply_span.arg("fd", static_cast<std::uint64_t>(reply.conn->fd));
    reply_span.arg("shard", static_cast<std::uint64_t>(reply.conn->shard));

    std::vector<std::uint8_t> encoded;
    switch (reply.kind) {
      case Reply::Kind::kQuery: {
        // Blocking here is safe: the batcher's single flusher resolves
        // futures in submission order, which is exactly this queue's order.
        const QueryResponse resp = resolve(reply.fut, reply.k);
        encode_query_response(resp, &encoded);
        sh.queued_queries.fetch_sub(1, std::memory_order_acq_rel);
        break;
      }
      case Reply::Kind::kStats:
        encode_stats_response(stats_from(stats()), &encoded);
        break;
      case Reply::Kind::kMetrics:
        // Rendered from the same stats() snapshot the stats op encodes, so
        // the two views agree whenever they are taken back to back.
        encode_metrics_response(metrics_exposition(stats()), &encoded);
        break;
      case Reply::Kind::kHealth:
        encode_health_response(build_health(opt_.slo), &encoded);
        break;
      case Reply::Kind::kEncoded:
        encoded = std::move(reply.encoded);
        break;
    }

    {
      std::lock_guard<std::mutex> lock(reply.conn->outbox_mu);
      if (!reply.conn->dead) {
        reply.conn->outbox.insert(reply.conn->outbox.end(), encoded.begin(),
                                  encoded.end());
      }
    }
    net_e2e_.record(ms_since(reply.t0));
    reply.conn->inflight.fetch_sub(1, std::memory_order_acq_rel);

    // Only the owning shard touches conn->out, so hand it the fresh output:
    // mark the connection dirty and wake that shard. Duplicate dirty entries
    // are fine — flushing an empty outbox is a no-op.
    Shard& owner = *shards_[static_cast<std::size_t>(reply.conn->shard)];
    {
      std::lock_guard<std::mutex> lock(owner.dirty_mu);
      owner.dirty.push_back(reply.conn);
    }
    wake(owner);
  }
}

void TcpServer::close_conn(Shard& sh, const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->outbox_mu);
    conn->dead = true;
    conn->outbox.clear();
  }
  (void)::epoll_ctl(sh.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  sh.conns.erase(conn->fd);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void TcpServer::add_conn(Shard& sh, const std::shared_ptr<Conn>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(sh.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    ::close(conn->fd);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  conn->armed = EPOLLIN;
  sh.conns.emplace(conn->fd, conn);
}

void TcpServer::accept_loop(Shard& sh0) {
  for (;;) {
    const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) break;
    if (open_conns_.load(std::memory_order_relaxed) >= opt_.max_connections) {
      conns_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(cfd);
      continue;
    }
    set_nodelay(cfd);
    if (opt_.so_sndbuf > 0) {
      (void)setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &opt_.so_sndbuf,
                       sizeof(opt_.so_sndbuf));
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    conn->shard = static_cast<int>(next_shard_++ % shards_.size());
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    connections_.fetch_add(1, std::memory_order_relaxed);
    if (conn->shard == 0) {
      add_conn(sh0, conn);
      continue;
    }
    Shard& target = *shards_[static_cast<std::size_t>(conn->shard)];
    {
      std::lock_guard<std::mutex> lock(target.pending_mu);
      target.pending.push_back(std::move(conn));
    }
    wake(target);
  }
}

bool TcpServer::process_in(Shard& sh, const std::shared_ptr<Conn>& conn) {
  std::size_t consumed = 0;
  bool capped = false;
  for (;;) {
    if (conn->inflight.load(std::memory_order_acquire) >= opt_.max_inflight) {
      capped = true;
      break;
    }
    std::size_t payload_off = 0;
    std::size_t payload_len = 0;
    bool have = false;
    try {
      have = try_frame(conn->in.data() + consumed, conn->in.size() - consumed,
                       &payload_off, &payload_len);
    } catch (const ProtocolError&) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!have) break;
    if (!handle_frame(sh, conn, conn->in.data() + consumed + payload_off,
                      payload_len)) {
      return false;
    }
    consumed += payload_off + payload_len;
  }
  if (consumed > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  // Backpressure: stop reading while the inflight cap is hit (frames beyond
  // it stay buffered) or buffered input is still over the cap. Resumed by
  // the dirty-connection flush when replies drain — buffered bytes never
  // re-trigger epoll, so the flush re-runs this parse. The pause follows
  // why the parse stopped, not a fresh inflight read: if the lane drained
  // every reply since the cap was hit, its dirty flush still has to find
  // the connection paused, or the frames left buffered would never run.
  conn->paused = capped || conn->in.size() >= opt_.max_in_buffer;
  return true;
}

void TcpServer::on_readable(Shard& sh, const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  bool peer_closed = false;
  while (conn->in.size() < opt_.max_in_buffer) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      peer_closed = true;  // orderly shutdown from the client
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // Hard error (ECONNRESET and friends): close now instead of leaving the
    // dead connection to linger until a later epoll error event.
    recv_errors_.fetch_add(1, std::memory_order_relaxed);
    obs::EventLog::global().record(
        obs::Severity::kWarn, obs::Component::kNet, "recv_error",
        {"fd", static_cast<std::uint64_t>(conn->fd)},
        {"errno", static_cast<std::uint64_t>(errno)});
    close_conn(sh, conn);
    return;
  }

  if (!process_in(sh, conn)) {
    close_conn(sh, conn);
    return;
  }
  if (peer_closed) close_conn(sh, conn);
}

bool TcpServer::try_write(Conn& conn) {
  while (conn.out.size() > conn.out_off) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  return true;
}

void TcpServer::update_interest(Shard& sh, Conn& conn) {
  std::uint32_t want = 0;
  if (!conn.paused) want |= EPOLLIN;
  if (conn.out.size() > conn.out_off) want |= EPOLLOUT;
  if (want == conn.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  (void)::epoll_ctl(sh.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed = want;
}

void TcpServer::io_loop(int shard_index) {
  obs::TraceCollector::global().set_thread_name(io_thread_name(shard_index));
  Shard& sh = *shards_[static_cast<std::size_t>(shard_index)];
  epoll_event events[64];
  char drain[4096];

  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(sh.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; stop() still joins cleanly
    }

    // Connection events first, wake/accept after: a connection closed in
    // this pass may free its fd, and handling accepts last guarantees a
    // stale event can never be attributed to a fresh connection that reused
    // the number.
    bool woken = false;
    bool acceptable = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == sh.wake_rd) {
        woken = true;
        continue;
      }
      if (shard_index == 0 && fd == listen_fd_) {
        acceptable = true;
        continue;
      }
      auto it = sh.conns.find(fd);
      if (it == sh.conns.end()) continue;  // closed earlier in this pass
      auto conn = it->second;
      const std::uint32_t ev = events[i].events;

      // Reads before the error bits so a hard recv() failure is observed
      // (and counted) rather than folded into a generic EPOLLERR close.
      if ((ev & EPOLLIN) != 0) {
        on_readable(sh, conn);
        auto again = sh.conns.find(fd);
        if (again == sh.conns.end() || again->second != conn) continue;
      }
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(sh, conn);
        continue;
      }
      if (conn->out.size() > conn->out_off && !try_write(*conn)) {
        close_conn(sh, conn);
        continue;
      }
      // Slow-reader bound: whatever the socket would not take stays in
      // conn->out; past the cap the reader is not keeping up and holding
      // its replies would pin server memory.
      if (conn->out.size() - conn->out_off > opt_.max_out_buffer) {
        slow_closes_.fetch_add(1, std::memory_order_relaxed);
        obs::EventLog::global().record(
            obs::Severity::kWarn, obs::Component::kNet, "slow_client_close",
            {"fd", static_cast<std::uint64_t>(conn->fd)},
            {"unread", conn->out.size() - conn->out_off});
        close_conn(sh, conn);
        continue;
      }
      update_interest(sh, *conn);
    }

    if (woken) {
      while (::read(sh.wake_rd, drain, sizeof(drain)) > 0) {
      }
      // Adopt connections handed off by the acceptor.
      std::vector<std::shared_ptr<Conn>> adopted;
      {
        std::lock_guard<std::mutex> lock(sh.pending_mu);
        adopted.swap(sh.pending);
      }
      for (auto& conn : adopted) add_conn(sh, conn);
      // Flush completion output onto the connections it belongs to.
      std::vector<std::shared_ptr<Conn>> dirty;
      {
        std::lock_guard<std::mutex> lock(sh.dirty_mu);
        dirty.swap(sh.dirty);
      }
      for (auto& conn : dirty) {
        auto it = sh.conns.find(conn->fd);
        if (it == sh.conns.end() || it->second != conn) continue;  // closed
        flush_outbox(*conn);
        if (!try_write(*conn)) {
          close_conn(sh, conn);
          continue;
        }
        if (conn->out.size() - conn->out_off > opt_.max_out_buffer) {
          slow_closes_.fetch_add(1, std::memory_order_relaxed);
          obs::EventLog::global().record(
              obs::Severity::kWarn, obs::Component::kNet, "slow_client_close",
              {"fd", static_cast<std::uint64_t>(conn->fd)},
              {"unread", conn->out.size() - conn->out_off});
          close_conn(sh, conn);
          continue;
        }
        if (conn->paused) {
          // Replies drained; frames buffered behind the inflight cap can
          // run now (epoll will not re-deliver bytes already read).
          if (!process_in(sh, conn)) {
            close_conn(sh, conn);
            continue;
          }
          if (!try_write(*conn)) {
            close_conn(sh, conn);
            continue;
          }
        }
        update_interest(sh, *conn);
      }
    }

    if (acceptable) accept_loop(sh);
  }

  // Shutdown: mark every owned connection dead (lanes drop their replies)
  // and close the sockets, including hand-offs never adopted.
  for (auto& [fd, conn] : sh.conns) {
    std::lock_guard<std::mutex> lock(conn->outbox_mu);
    conn->dead = true;
    ::close(fd);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  sh.conns.clear();
  std::vector<std::shared_ptr<Conn>> orphans;
  {
    std::lock_guard<std::mutex> lock(sh.pending_mu);
    orphans.swap(sh.pending);
  }
  for (auto& conn : orphans) {
    std::lock_guard<std::mutex> lock(conn->outbox_mu);
    conn->dead = true;
    ::close(conn->fd);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace cumf::serve::net
