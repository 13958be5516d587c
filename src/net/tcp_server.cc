#include "net/tcp_server.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/stopwatch.h"

namespace colossal {

namespace {

// How long a stopping server keeps flushing pending replies before
// force-closing connections a peer refuses to drain.
constexpr double kDrainDeadlineSeconds = 2.0;

// Bounds on the lingering close: how much post-reply input it discards
// and how long it waits for the peer's EOF before the hard close, so a
// peer that streams forever — or goes silent — cannot pin the slot.
constexpr double kLingerDeadlineSeconds = 5.0;
constexpr int64_t kMaxLingerDrainBytes = int64_t{1} << 20;

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(O_NONBLOCK): ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

ServerReply DefaultErrorReply(const Status& status) {
  ServerReply reply;
  reply.data = "error: " + status.ToString() + "\n";
  reply.close = true;
  return reply;
}

// The counted-line protocol's framer: one request per '\n'-terminated
// line, capped at max_line_bytes.
class LineFramer : public ConnectionFramer {
 public:
  explicit LineFramer(int64_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  Status Next(std::string* inbuf,
              std::optional<std::string>* request) override {
    const size_t newline = inbuf->find('\n');
    // Reads overshoot the limit by up to one chunk, so a complete line
    // can arrive alongside too many buffered bytes — enforce the limit
    // on the line itself, not just on newline-less buffers.
    if (newline == std::string::npos
            ? static_cast<int64_t>(inbuf->size()) > max_line_bytes_
            : static_cast<int64_t>(newline) > max_line_bytes_) {
      return Status::OutOfRange("request line exceeds " +
                                std::to_string(max_line_bytes_) + " bytes");
    }
    if (newline == std::string::npos) return Status::Ok();
    request->emplace(inbuf->substr(0, newline));
    inbuf->erase(0, newline + 1);
    return Status::Ok();
  }

 private:
  const int64_t max_line_bytes_;
};

}  // namespace

TcpServer::TcpServer(const TcpServerOptions& options, LineHandler handler,
                     ErrorFormatter error_formatter)
    : options_(options),
      handler_(std::move(handler)),
      error_formatter_(error_formatter ? std::move(error_formatter)
                                       : DefaultErrorReply),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  const std::string& prefix = options_.metric_prefix;
  accepted_ =
      metrics->GetCounter(prefix + "_accepted_total", "Connections accepted");
  rejected_ = metrics->GetCounter(prefix + "_rejected_total",
                                  "Connections rejected over the limit");
  lines_dispatched_ = metrics->GetCounter(prefix + "_lines_dispatched_total",
                                          "Requests handed to handlers");
  oversized_lines_ = metrics->GetCounter(
      prefix + "_oversized_lines_total",
      "Requests rejected by the framer (oversized or malformed)");
  active_connections_ = metrics->GetGauge(prefix + "_active_connections",
                                          "Connections currently open");
}

TcpServer::~TcpServer() {
  Shutdown();
  // Drain handler jobs before the wake pipe closes: a draining job's
  // completion still writes the pipe.
  pool_.reset();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Status TcpServer::Start() {
  if (started_) return Status::FailedPrecondition("Start called twice");
  if (options_.max_connections < 1 || options_.max_line_bytes < 1 ||
      options_.max_pipeline < 1) {
    return Status::InvalidArgument(
        "max_connections, max_line_bytes and max_pipeline must be >= 1");
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  for (const int fd : pipe_fds) {
    Status status = SetNonBlocking(fd);
    if (!status.ok()) return status;
  }

  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(options_.host.c_str(), std::to_string(options_.port).c_str(),
                    &hints, &results);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve listen host " +
                                   options_.host + ": " + ::gai_strerror(rc));
  }
  Status last = Status::Internal("no usable listen address");
  for (struct addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, options_.listen_backlog) != 0) {
      last = Status::Internal("bind/listen " + options_.host + ":" +
                              std::to_string(options_.port) + ": " +
                              std::strerror(errno));
      ::close(fd);
      continue;
    }
    listen_fd_ = fd;
    break;
  }
  ::freeaddrinfo(results);
  if (listen_fd_ < 0) return last;
  Status status = SetNonBlocking(listen_fd_);
  if (!status.ok()) return status;

  // Resolve the bound port (meaningful when options_.port was 0).
  struct sockaddr_storage addr;
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) == 0) {
    if (addr.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
    }
  }

  started_ = true;
  loop_thread_ = std::thread(&TcpServer::Loop, this);
  return Status::Ok();
}

void TcpServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  // Wake the loop; both calls are async-signal-safe.
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    [[maybe_unused]] ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  }
}

void TcpServer::Wait() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

void TcpServer::Shutdown() {
  RequestStop();
  Wait();
}

void TcpServer::WakeLoop() {
  const char byte = 'x';
  // EAGAIN means the pipe already holds a pending wakeup.
  [[maybe_unused]] ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
}

bool TcpServer::AcceptNewConnections() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE etc.: the pending connection stays queued and the
      // listen fd stays readable — back off instead of spinning.
      return false;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Connection conn;
    conn.id = next_connection_id_++;
    conn.fd = fd;
    conn.framer = options_.framer_factory
                      ? options_.framer_factory()
                      : std::make_unique<LineFramer>(options_.max_line_bytes);
    const bool over_limit =
        static_cast<int>(connections_.size()) >= options_.max_connections;
    if (over_limit) {
      ServerReply reply = error_formatter_(Status::ResourceExhausted(
          "connection limit reached (" +
          std::to_string(options_.max_connections) + ")"));
      conn.outbuf = std::move(reply.data);
      conn.close_after_flush = true;
      conn.linger_on_close = false;
    }
    if (over_limit) {
      rejected_->Increment();
    } else {
      accepted_->Increment();
    }
    active_connections_->Set(static_cast<int64_t>(connections_.size()) + 1);
    const uint64_t id = conn.id;
    connections_.emplace(id, std::move(conn));
    FlushConnection(connections_.at(id));
  }
}

bool TcpServer::ReadFromConnection(Connection& conn) {
  char chunk[4096];
  while (!conn.peer_eof &&
         (conn.draining ||
          static_cast<int64_t>(conn.inbuf.size()) <= options_.max_line_bytes)) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // reset / hard error: drop the connection
    }
    if (n == 0) {
      conn.peer_eof = true;
      return true;
    }
    if (conn.draining) {
      // Lingering close: input after the final reply is discarded.
      conn.drained_bytes += n;
      if (conn.drained_bytes > kMaxLingerDrainBytes) return false;
      continue;
    }
    conn.inbuf.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

bool TcpServer::FlushConnection(Connection& conn) {
  while (conn.out_pos < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_pos,
               conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // peer went away mid-write
    }
    conn.out_pos += static_cast<size_t>(n);
  }
  conn.outbuf.clear();
  conn.out_pos = 0;
  return true;
}

void TcpServer::MaybeDispatchRequests(Connection& conn) {
  while (!conn.framing_dead && !conn.close_after_flush && !stopping_ &&
         conn.inflight < options_.max_pipeline) {
    std::optional<std::string> request;
    Status status = conn.framer->Next(&conn.inbuf, &request);
    if (!status.ok()) {
      // Protocol fault: the formatted error becomes this request slot's
      // reply, so replies to earlier pipelined requests still deliver
      // in order before it; then the connection closes.
      conn.inbuf.clear();
      conn.inbuf.shrink_to_fit();
      conn.framing_dead = true;
      oversized_lines_->Increment();
      ServerReply reply = error_formatter_(status);
      reply.close = true;
      ReleaseReady(conn, conn.next_dispatch_seq++, std::move(reply));
      return;
    }
    if (!request.has_value()) return;  // need more bytes
    const uint64_t seq = conn.next_dispatch_seq++;
    ++conn.inflight;
    lines_dispatched_->Increment();
    const uint64_t id = conn.id;
    pool_->Submit([this, id, seq, line = std::move(*request)]() {
      ServerReply reply = handler_(line);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        completions_.push_back(Completion{id, seq, std::move(reply)});
      }
      WakeLoop();
    });
  }
}

void TcpServer::ReleaseReady(Connection& conn, uint64_t seq,
                             ServerReply reply) {
  conn.ready.emplace(seq, std::move(reply));
  auto it = conn.ready.begin();
  while (it != conn.ready.end() && it->first == conn.next_reply_seq) {
    ServerReply& next = it->second;
    // Replies sequenced after one that closed the connection are
    // dropped — the peer was told the stream ends — but their flags
    // were already honored at completion time.
    if (!conn.close_after_flush) conn.outbuf.append(next.data);
    if (next.close) conn.close_after_flush = true;
    ++conn.next_reply_seq;
    it = conn.ready.erase(it);
  }
}

void TcpServer::DestroyConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ::close(it->second.fd);
  connections_.erase(it);
  active_connections_->Set(static_cast<int64_t>(connections_.size()));
}

void TcpServer::Loop() {
  Stopwatch drain_clock;
  bool draining = false;
  // Backoff after a hard accept failure (see AcceptNewConnections).
  Stopwatch accept_backoff_clock;
  bool accept_backoff = false;

  while (true) {
    if (!stopping_ && stop_requested_.load(std::memory_order_acquire)) {
      stopping_ = true;
    }
    if (stopping_ && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      draining = true;
      drain_clock.Restart();
    }

    if (stopping_) {
      bool busy_or_pending = false;
      for (const auto& [id, conn] : connections_) {
        if (conn.inflight > 0 || !conn.ready.empty() ||
            conn.out_pos < conn.outbuf.size()) {
          busy_or_pending = true;
          break;
        }
      }
      if (!busy_or_pending ||
          (draining && drain_clock.ElapsedSeconds() > kDrainDeadlineSeconds)) {
        break;
      }
    }

    if (accept_backoff && accept_backoff_clock.ElapsedSeconds() > 0.1) {
      accept_backoff = false;
    }

    std::vector<struct pollfd> fds;
    std::vector<uint64_t> ids;  // ids[i] pairs with fds[i + fixed]
    fds.push_back({wake_read_fd_, POLLIN, 0});
    const int listen_index = (listen_fd_ >= 0 && !accept_backoff) ? 1 : -1;
    if (listen_index >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    const size_t fixed = fds.size();
    bool any_draining = false;
    for (const auto& [id, conn] : connections_) {
      if (conn.draining) any_draining = true;
      short events = 0;
      const bool want_read =
          conn.inflight < options_.max_pipeline && !conn.peer_eof &&
          (conn.draining ||
           (!conn.close_after_flush && !conn.framing_dead &&
            static_cast<int64_t>(conn.inbuf.size()) <=
                options_.max_line_bytes));
      if (want_read) events |= POLLIN;
      if (conn.out_pos < conn.outbuf.size()) events |= POLLOUT;
      // A pipeline-full connection with nothing to write is deliberately
      // left out of the poll set: poll reports POLLHUP regardless of
      // `events`, so a peer that hangs up mid-mine would otherwise spin
      // the loop until the handler finishes. Its death is caught at
      // flush time instead.
      if (events == 0) continue;
      fds.push_back({conn.fd, events, 0});
      ids.push_back(id);
    }

    // Bounded timeouts whenever a deadline needs enforcing: the stop
    // drain, a lingering close, or the accept backoff window.
    const int timeout_ms =
        stopping_ ? 50 : (any_draining || accept_backoff) ? 100 : -1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      char sink[64];
      while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
      }
    }

    // Apply handler completions before anything else so freed
    // connections can dispatch their next pipelined request this round.
    std::vector<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      completions.swap(completions_);
    }
    for (Completion& completion : completions) {
      // Honored even when the issuing connection died mid-handler —
      // a shutdown request must stop the server regardless.
      if (completion.reply.shutdown_server) stopping_ = true;
      auto it = connections_.find(completion.connection_id);
      if (it == connections_.end()) continue;  // died while mining
      Connection& conn = it->second;
      --conn.inflight;
      ReleaseReady(conn, completion.seq, std::move(completion.reply));
    }

    if (listen_index >= 0 && listen_fd_ >= 0 &&
        (fds[static_cast<size_t>(listen_index)].revents & POLLIN)) {
      if (!AcceptNewConnections()) {
        accept_backoff = true;
        accept_backoff_clock.Restart();
      }
    }

    std::vector<uint64_t> dead;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto it = connections_.find(ids[i]);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      const short revents = fds[i + fixed].revents;
      if (revents & (POLLIN | POLLHUP)) {
        if ((fds[i + fixed].events & POLLIN) && !ReadFromConnection(conn)) {
          dead.push_back(conn.id);
          continue;
        }
      }
      if (revents & (POLLERR | POLLNVAL)) {
        dead.push_back(conn.id);
        continue;
      }
    }
    for (const uint64_t id : dead) DestroyConnection(id);

    // Frame, dispatch, flush, and reap every connection.
    dead.clear();
    for (auto& [id, conn] : connections_) {
      MaybeDispatchRequests(conn);
      if (!FlushConnection(conn)) {
        dead.push_back(id);
        continue;
      }
      const bool flushed = conn.out_pos >= conn.outbuf.size();
      if (conn.close_after_flush && flushed && conn.inflight == 0) {
        if (!conn.linger_on_close) {
          dead.push_back(id);
          continue;
        }
        if (!conn.draining) {
          // Send the FIN now, then discard input until the peer's own
          // EOF so the final reply is never clobbered by an RST.
          conn.draining = true;
          conn.drain_clock.Restart();
          conn.inbuf.clear();
          ::shutdown(conn.fd, SHUT_WR);
        }
        if (conn.peer_eof ||
            conn.drain_clock.ElapsedSeconds() > kLingerDeadlineSeconds) {
          dead.push_back(id);
        }
        continue;
      }
      if (conn.peer_eof && flushed && conn.inflight == 0 &&
          conn.ready.empty()) {
        // Clean disconnect, or an abrupt one mid-request: the dispatch
        // attempt above framed everything complete, so whatever remains
        // in inbuf is a partial request nobody will finish — there is
        // nothing left to answer.
        dead.push_back(id);
      }
    }
    for (const uint64_t id : dead) DestroyConnection(id);
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<uint64_t> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) remaining.push_back(id);
  for (const uint64_t id : remaining) DestroyConnection(id);
}

}  // namespace colossal
