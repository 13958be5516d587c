#ifndef COLOSSAL_NET_TCP_SERVER_H_
#define COLOSSAL_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace colossal {

// A small poll(2)-based TCP front end for framed request/reply
// protocols.
//
// One event-loop thread owns every socket and does all reading, framing
// and writing; complete requests are handed to a RequestHandler that
// runs on a ThreadPool, so a slow handler (a cold mine, say) never
// blocks I/O on other connections. Handler results come back to the
// loop through a completion queue + self-pipe wakeup, which keeps all
// connection state single-threaded — no per-connection locks.
//
// Framing is pluggable: a ConnectionFramer instance per connection
// splits the byte stream into complete request payloads (the default is
// the newline framer of the counted-line protocol; net/http_server.h
// installs an HTTP/1.1 framer). Up to max_pipeline handler jobs run
// concurrently per connection; replies are queued by request sequence
// number and released strictly in request order, so a pipelining client
// always reads responses in the order it sent requests, whatever order
// the handlers finished in. Once the pipeline is full the loop stops
// polling that connection for input, so a client that keeps pushing is
// throttled by TCP backpressure instead of unbounded buffering.
// Responses are flushed with partial-write handling (POLLOUT) so
// arbitrarily large payloads stream without blocking the loop.
//
// The server is protocol-agnostic: the handler maps a request payload
// to reply bytes, and an error formatter maps server-detected faults
// (oversized/malformed framing, connection limit) to reply bytes, so
// the wire format lives entirely with the caller (see
// tools/colossal_serve.cc and net/http_server.cc).

// Splits one connection's byte stream into complete request payloads.
// One instance per connection, owned by the event loop, so stateful
// protocols (HTTP head-then-body, say) carry parse state across reads
// without locks.
class ConnectionFramer {
 public:
  virtual ~ConnectionFramer() = default;

  // Tries to extract the next complete request payload from `inbuf`,
  // erasing the consumed bytes. On success either sets *request (one
  // complete request) or leaves it empty (more bytes needed). A
  // non-OK return is a protocol fault (oversized element, malformed
  // framing): the server sends the formatted error, stops framing this
  // connection, and closes it once earlier replies have flushed.
  virtual Status Next(std::string* inbuf,
                      std::optional<std::string>* request) = 0;
};

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  // 0 = kernel-assigned; read the resolved port with port() after
  // Start(). This is what CI uses to avoid port collisions.
  int port = 0;

  // Handler pool size; 0 = hardware concurrency.
  int num_threads = 0;

  // Global limit: connections over this are sent the formatted
  // RESOURCE_EXHAUSTED error and closed after the flush.
  int max_connections = 64;

  // Per-connection limit, two duties: the default newline framer
  // rejects an input line longer than this (formatted OUT_OF_RANGE
  // error, connection closed), and the loop stops reading a connection
  // whose unframed buffer exceeds it (backpressure). A custom framer
  // with its own element limits should set this to at least its largest
  // admissible request so reads never stall before the framer can
  // judge.
  int64_t max_line_bytes = int64_t{1} << 20;

  // In-flight handler jobs per connection. 1 (the counted-line
  // protocol's default) serializes a connection's requests; HTTP sets
  // it higher for pipelining. Replies are always released in request
  // order regardless.
  int max_pipeline = 1;

  // Builds the per-connection framer; null = the newline framer
  // (requests are '\n'-terminated lines, capped at max_line_bytes).
  std::function<std::unique_ptr<ConnectionFramer>()> framer_factory;

  int listen_backlog = 64;

  // Registry the server metrics live in; the server owns a private one
  // when null. metric_prefix names the series ("colossal_tcp" →
  // colossal_tcp_{accepted,rejected,lines_dispatched,oversized_lines}_total
  // and colossal_tcp_active_connections), so a TCP and an HTTP front
  // end sharing one registry keep distinct counters.
  MetricsRegistry* metrics = nullptr;
  std::string metric_prefix = "colossal_tcp";
};

// What a handler (or the error formatter) sends back for one line.
struct ServerReply {
  // Bytes queued verbatim on the connection (framing included).
  std::string data;
  // Close the connection once `data` is flushed.
  bool close = false;
  // Gracefully stop the whole server after the flush (the protocol's
  // "shutdown" command).
  bool shutdown_server = false;
};

class TcpServer {
 public:
  using LineHandler = std::function<ServerReply(const std::string& line)>;
  // Formats server-detected faults; `status` is OUT_OF_RANGE (oversized
  // line) or RESOURCE_EXHAUSTED (connection limit). Defaults to
  // "error: <status>\n" with close.
  using ErrorFormatter = std::function<ServerReply(const Status& status)>;

  TcpServer(const TcpServerOptions& options, LineHandler handler,
            ErrorFormatter error_formatter = nullptr);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens, and starts the event loop. Fails (rather than
  // aborting) on an unusable host/port.
  Status Start();

  // The bound port (resolves option port 0), valid after Start().
  int port() const { return port_; }

  // Asks the loop to stop. Async-signal-safe (an atomic store and a
  // write(2)), so colossal_serve calls it from SIGINT/SIGTERM handlers.
  void RequestStop();

  // Blocks until the event loop exits (RequestStop, a shutdown_server
  // reply, or Start never having succeeded).
  void Wait();

  // RequestStop + Wait. In-flight handler jobs finish and their replies
  // are flushed (bounded by a short drain deadline) before sockets
  // close.
  void Shutdown();

 private:
  // All fields owned by the event-loop thread.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string inbuf;       // bytes read, not yet framed into requests
    std::string outbuf;      // reply bytes not yet written
    size_t out_pos = 0;      // flushed prefix of outbuf
    std::unique_ptr<ConnectionFramer> framer;
    int inflight = 0;        // handler jobs in flight (≤ max_pipeline)
    // Pipelining bookkeeping: requests are numbered as dispatched;
    // finished replies park in `ready` until every lower-numbered reply
    // has been appended to outbuf, so the client reads responses in
    // request order whatever order the handlers finished in.
    uint64_t next_dispatch_seq = 0;
    uint64_t next_reply_seq = 0;
    std::map<uint64_t, ServerReply> ready;
    // The framer reported a protocol fault: its formatted error has
    // been queued as the final reply and no further input is framed.
    bool framing_dead = false;
    bool close_after_flush = false;
    bool peer_eof = false;   // read side saw EOF
    // Lingering close: after the final reply is flushed the write side
    // is shut down and remaining input discarded until the peer's EOF,
    // so the reply arrives as data + FIN instead of being torn down by
    // an RST over unread bytes. Bounded by a byte cap and a deadline so
    // a silent peer cannot pin the connection slot.
    bool draining = false;
    int64_t drained_bytes = 0;
    Stopwatch drain_clock;
    // Over-limit rejections close immediately after the flush instead:
    // lingering would let a connection flood pin fds open indefinitely.
    bool linger_on_close = true;
  };

  void Loop();
  void WakeLoop();
  // Returns false when the connection died (read error / reset).
  bool ReadFromConnection(Connection& conn);
  bool FlushConnection(Connection& conn);
  void MaybeDispatchRequests(Connection& conn);
  // Parks `reply` as request number `seq`'s response and appends to
  // outbuf every reply that is now next in request order.
  void ReleaseReady(Connection& conn, uint64_t seq, ServerReply reply);
  // Returns false on a hard accept failure (EMFILE and friends): the
  // caller backs off polling the listen fd briefly instead of spinning
  // on a perpetually-readable socket it cannot accept from.
  bool AcceptNewConnections();
  void DestroyConnection(uint64_t id);

  const TcpServerOptions options_;
  const LineHandler handler_;
  const ErrorFormatter error_formatter_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when options.metrics null
  Counter* accepted_;
  Counter* rejected_;
  Counter* lines_dispatched_;
  Counter* oversized_lines_;
  Gauge* active_connections_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  std::thread loop_thread_;
  std::mutex join_mutex_;

  // Loop-thread state.
  std::map<uint64_t, Connection> connections_;
  uint64_t next_connection_id_ = 1;
  bool stopping_ = false;

  // Shared between handler jobs and the loop.
  struct Completion {
    uint64_t connection_id = 0;
    uint64_t seq = 0;  // request number within the connection
    ServerReply reply;
  };
  std::mutex mutex_;
  std::vector<Completion> completions_;

  // Last: destroyed first, so handler jobs drain while the rest of the
  // server is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace colossal

#endif  // COLOSSAL_NET_TCP_SERVER_H_
