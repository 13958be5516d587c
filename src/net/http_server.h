#ifndef COLOSSAL_NET_HTTP_SERVER_H_
#define COLOSSAL_NET_HTTP_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"

namespace colossal {

// A minimal HTTP/1.1 front end over TcpServer's poll loop: same event
// loop, same handler offload, same ordered-pipeline machinery — only
// the framing differs. The framer is hardened against hostile input:
// every element (request line, header block, body) has an explicit
// byte limit, Content-Length is validated strictly, and any protocol
// fault answers with a well-formed HTTP error response before the
// connection closes (replies to earlier pipelined requests still
// deliver, in order, first).
//
// Supported surface — deliberately small, this is a serving front end,
// not a general web server: HTTP/1.0 and 1.1, GET/POST/HEAD,
// Content-Length bodies (no chunked transfer coding, answered 501),
// keep-alive with up to max_pipeline in-flight pipelined requests per
// connection. Responses always carry Content-Length and an explicit
// Connection header, and never a Date header, so the bytes for a given
// request are deterministic — which is what lets CI diff mining
// payloads byte-for-byte against the TCP framing.

// One parsed request. Header names are lowercased at parse time;
// values keep their bytes with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;   // as received (method names are case-sensitive)
  std::string target;   // origin-form, e.g. "/mine"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  // Computed from version + Connection header: false means the
  // connection closes after this response.
  bool keep_alive = true;

  // First value of `lower_name` (must be passed lowercased), or null.
  const std::string* FindHeader(const std::string& lower_name) const;
};

// What a handler returns. Content-Length, Connection and the status
// line are the server's job; `headers` is for extras (Content-Type,
// Retry-After, ...).
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool close = false;            // force Connection: close
  bool shutdown_server = false;  // stop the front end after the flush
};

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-assigned, read back with port()

  // Handler pool size; 0 = hardware concurrency.
  int num_threads = 0;
  int max_connections = 64;

  // In-flight pipelined requests per connection; replies are released
  // in request order (see TcpServerOptions::max_pipeline).
  int max_pipeline = 8;

  // Framing limits. Faults answer 414 (request line), 431 (header
  // block), 413 (body), 400 (malformed), 501 (transfer codings).
  int64_t max_request_line_bytes = 8 << 10;
  int64_t max_header_bytes = 32 << 10;  // whole head incl. request line
  int64_t max_body_bytes = 4 << 20;

  // Registry the colossal_http_* metrics live in: the responses and
  // errors counters, plus the transport's (TcpServerOptions::metrics)
  // under the same prefix. The server owns a private one when null.
  MetricsRegistry* metrics = nullptr;
  std::string metric_prefix = "colossal_http";
};

// Reason phrase for the status codes this server emits ("Error" for
// anything unknown).
const char* HttpReasonPhrase(int status);

// Renders the full response bytes: status line, Content-Length,
// Connection (keep-alive/close), extra headers, body. For HEAD
// responses pass include_body=false — Content-Length still reflects
// the body the corresponding GET would carry.
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive, bool include_body = true);

// Parses one complete request (head + exactly-Content-Length body) as
// produced by the server's framer. Exposed for tests; faults return a
// Status whose message starts with the HTTP status code to answer,
// e.g. "400 malformed request line".
StatusOr<HttpRequest> ParseHttpRequest(const std::string& raw);

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(const HttpServerOptions& options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  Status Start();
  int port() const;
  void RequestStop();  // async-signal-safe
  void Wait();
  void Shutdown();

 private:
  ServerReply HandleRaw(const std::string& raw);

  const HttpServerOptions options_;
  const Handler handler_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when options.metrics null
  Counter* responses_total_;
  Counter* errors_total_;  // responses with status >= 400
  std::unique_ptr<TcpServer> server_;  // last: jobs drain before counters die
};

}  // namespace colossal

#endif  // COLOSSAL_NET_HTTP_SERVER_H_
