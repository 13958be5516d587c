#include "net/http_server.h"

#include <cctype>
#include <cstdint>
#include <optional>

namespace colossal {

namespace {

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string TrimWhitespace(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t')) --end;
  return s.substr(begin, end - begin);
}

// Finds the end of the head: the first blank line. Accepts CRLF (the
// standard) and bare LF (lenient, like most servers). Returns npos when
// the head is still incomplete; *head_end is where the head's content
// stops (exclusive), return value is where the body starts.
size_t FindHeadEnd(const std::string& buf, size_t* head_end) {
  const size_t crlf = buf.find("\r\n\r\n");
  const size_t lflf = buf.find("\n\n");
  if (crlf != std::string::npos && (lflf == std::string::npos || crlf < lflf)) {
    *head_end = crlf;
    return crlf + 4;
  }
  if (lflf != std::string::npos) {
    *head_end = lflf;
    return lflf + 2;
  }
  return std::string::npos;
}

// Splits the head (request line + header lines, no trailing blank line)
// into lines, tolerating either line ending.
std::vector<std::string> SplitHeadLines(const std::string& head) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find('\n', pos);
    if (eol == std::string::npos) eol = head.size();
    size_t end = eol;
    if (end > pos && head[end - 1] == '\r') --end;
    lines.push_back(head.substr(pos, end - pos));
    pos = eol + 1;
  }
  return lines;
}

// The framing-time validation shared by the framer (to find message
// boundaries) and ParseHttpRequest (to build the struct). A fault
// returns a Status whose message leads with the HTTP status to answer.
struct ParsedHead {
  std::string method;
  std::string target;
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;
  int64_t content_length = 0;
};

StatusOr<ParsedHead> ParseHead(const std::string& head,
                               int64_t max_request_line_bytes,
                               int64_t max_body_bytes) {
  std::vector<std::string> lines = SplitHeadLines(head);
  if (lines.empty() || lines[0].empty()) {
    return Status::InvalidArgument("400 empty request");
  }
  const std::string& request_line = lines[0];
  if (static_cast<int64_t>(request_line.size()) > max_request_line_bytes) {
    return Status::OutOfRange("414 request line exceeds " +
                              std::to_string(max_request_line_bytes) +
                              " bytes");
  }
  ParsedHead parsed;
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || sp2 + 1 >= request_line.size() ||
      request_line.find(' ', sp2 + 1) != std::string::npos) {
    return Status::InvalidArgument("400 malformed request line");
  }
  parsed.method = request_line.substr(0, sp1);
  parsed.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  parsed.version = request_line.substr(sp2 + 1);
  if (parsed.version.rfind("HTTP/", 0) != 0) {
    return Status::InvalidArgument("400 malformed request line");
  }

  bool saw_content_length = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("400 malformed header line");
    }
    // A name ending in whitespace is the classic request-smuggling
    // shape ("Content-Length : 5"); reject rather than normalize.
    if (line[colon - 1] == ' ' || line[colon - 1] == '\t') {
      return Status::InvalidArgument("400 whitespace before header colon");
    }
    std::string name = ToLower(line.substr(0, colon));
    std::string value = TrimWhitespace(line.substr(colon + 1));
    if (name == "content-length") {
      if (value.empty() || value.size() > 18) {
        return Status::InvalidArgument("400 bad Content-Length");
      }
      int64_t n = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("400 bad Content-Length");
        }
        n = n * 10 + (c - '0');
      }
      if (saw_content_length && n != parsed.content_length) {
        return Status::InvalidArgument("400 conflicting Content-Length");
      }
      saw_content_length = true;
      parsed.content_length = n;
    } else if (name == "transfer-encoding") {
      return Status::InvalidArgument(
          "501 transfer codings not supported; send Content-Length");
    }
    parsed.headers.emplace_back(std::move(name), std::move(value));
  }
  if (parsed.content_length > max_body_bytes) {
    return Status::OutOfRange("413 body exceeds " +
                              std::to_string(max_body_bytes) + " bytes");
  }
  return parsed;
}

// Head-then-body framer: accumulates until the blank line, validates
// the head (limits, Content-Length), then waits for exactly
// content-length body bytes and emits head+body as one request.
class HttpFramer : public ConnectionFramer {
 public:
  HttpFramer(int64_t max_request_line_bytes, int64_t max_header_bytes,
             int64_t max_body_bytes)
      : max_request_line_bytes_(max_request_line_bytes),
        max_header_bytes_(max_header_bytes),
        max_body_bytes_(max_body_bytes) {}

  Status Next(std::string* inbuf,
              std::optional<std::string>* request) override {
    if (body_needed_ < 0) {  // reading the head
      size_t head_end = 0;
      const size_t body_start = FindHeadEnd(*inbuf, &head_end);
      if (body_start == std::string::npos) {
        // Limits enforced on the partial head too, so an attacker
        // cannot buffer unboundedly by never sending the blank line.
        if (static_cast<int64_t>(inbuf->size()) > max_header_bytes_) {
          return Status::OutOfRange("431 header block exceeds " +
                                    std::to_string(max_header_bytes_) +
                                    " bytes");
        }
        if (inbuf->find('\n') == std::string::npos &&
            static_cast<int64_t>(inbuf->size()) > max_request_line_bytes_) {
          return Status::OutOfRange("414 request line exceeds " +
                                    std::to_string(max_request_line_bytes_) +
                                    " bytes");
        }
        return Status::Ok();  // need more bytes
      }
      if (static_cast<int64_t>(body_start) > max_header_bytes_) {
        return Status::OutOfRange("431 header block exceeds " +
                                  std::to_string(max_header_bytes_) +
                                  " bytes");
      }
      StatusOr<ParsedHead> parsed = ParseHead(
          inbuf->substr(0, head_end), max_request_line_bytes_,
          max_body_bytes_);
      if (!parsed.ok()) return parsed.status();
      head_ = inbuf->substr(0, body_start);
      inbuf->erase(0, body_start);
      body_needed_ = parsed->content_length;
    }
    if (static_cast<int64_t>(inbuf->size()) < body_needed_) {
      return Status::Ok();  // need more body bytes
    }
    *request = std::move(head_);
    (*request)->append(*inbuf, 0, static_cast<size_t>(body_needed_));
    inbuf->erase(0, static_cast<size_t>(body_needed_));
    head_.clear();
    body_needed_ = -1;
    return Status::Ok();
  }

 private:
  const int64_t max_request_line_bytes_;
  const int64_t max_header_bytes_;
  const int64_t max_body_bytes_;
  std::string head_;         // consumed head, body still pending
  int64_t body_needed_ = -1;  // <0: head incomplete
};

// HTTP status to answer for a framing/parse fault: the leading
// "NNN " of the Status message when present, else a generic mapping.
int StatusCodeForFault(const Status& status) {
  const std::string& message = status.message();
  if (message.size() >= 4 && message[3] == ' ' &&
      std::isdigit(static_cast<unsigned char>(message[0])) &&
      std::isdigit(static_cast<unsigned char>(message[1])) &&
      std::isdigit(static_cast<unsigned char>(message[2]))) {
    return (message[0] - '0') * 100 + (message[1] - '0') * 10 +
           (message[2] - '0');
  }
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return 503;  // the transport's connection limit
    case StatusCode::kOutOfRange:
      return 431;
    default:
      return 400;
  }
}

}  // namespace

const std::string* HttpRequest::FindHeader(
    const std::string& lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive, bool include_body) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  if (include_body) out += response.body;
  return out;
}

StatusOr<HttpRequest> ParseHttpRequest(const std::string& raw) {
  size_t head_end = 0;
  const size_t body_start = FindHeadEnd(raw, &head_end);
  if (body_start == std::string::npos) {
    return Status::InvalidArgument("400 truncated request");
  }
  StatusOr<ParsedHead> parsed =
      ParseHead(raw.substr(0, head_end),
                /*max_request_line_bytes=*/INT64_MAX,
                /*max_body_bytes=*/INT64_MAX);
  if (!parsed.ok()) return parsed.status();
  if (static_cast<int64_t>(raw.size() - body_start) !=
      parsed->content_length) {
    return Status::InvalidArgument("400 body length mismatch");
  }
  HttpRequest request;
  request.method = std::move(parsed->method);
  request.target = std::move(parsed->target);
  request.version = std::move(parsed->version);
  request.headers = std::move(parsed->headers);
  request.body = raw.substr(body_start);
  const std::string* connection = request.FindHeader("connection");
  const std::string token = connection ? ToLower(*connection) : "";
  if (request.version == "HTTP/1.0") {
    request.keep_alive = token == "keep-alive";
  } else {
    request.keep_alive = token != "close";
  }
  return request;
}

HttpServer::HttpServer(const HttpServerOptions& options, Handler handler)
    : options_(options), handler_(std::move(handler)) {
  MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  responses_total_ = metrics->GetCounter(
      options_.metric_prefix + "_responses_total", "HTTP responses sent");
  errors_total_ =
      metrics->GetCounter(options_.metric_prefix + "_errors_total",
                          "HTTP responses with status >= 400");

  TcpServerOptions tcp;
  tcp.host = options_.host;
  tcp.port = options_.port;
  tcp.num_threads = options_.num_threads;
  tcp.max_connections = options_.max_connections;
  tcp.max_pipeline = options_.max_pipeline;
  // The loop's read backpressure must admit the largest whole request
  // the framer can accept, or reads would stall before the framer
  // could judge it.
  tcp.max_line_bytes = options_.max_header_bytes + options_.max_body_bytes;
  tcp.metrics = metrics;
  tcp.metric_prefix = options_.metric_prefix;
  const int64_t line_limit = options_.max_request_line_bytes;
  const int64_t header_limit = options_.max_header_bytes;
  const int64_t body_limit = options_.max_body_bytes;
  tcp.framer_factory = [line_limit, header_limit, body_limit]() {
    return std::make_unique<HttpFramer>(line_limit, header_limit, body_limit);
  };

  Counter* responses = responses_total_;
  Counter* errors = errors_total_;
  server_ = std::make_unique<TcpServer>(
      tcp, [this](const std::string& raw) { return HandleRaw(raw); },
      [responses, errors](const Status& status) {
        // Framing faults and the connection limit answer as well-formed
        // HTTP before the close, so curl shows "431 ..." instead of a
        // dropped connection.
        HttpResponse response;
        response.status = StatusCodeForFault(status);
        response.body = status.message() + "\n";
        response.headers.emplace_back("Content-Type", "text/plain");
        if (response.status == 503 || response.status == 429) {
          response.headers.emplace_back("Retry-After", "1");
        }
        responses->Increment();
        errors->Increment();
        ServerReply reply;
        reply.data = SerializeHttpResponse(response, /*keep_alive=*/false);
        reply.close = true;
        return reply;
      });
}

HttpServer::~HttpServer() { Shutdown(); }

ServerReply HttpServer::HandleRaw(const std::string& raw) {
  ServerReply reply;
  StatusOr<HttpRequest> request = ParseHttpRequest(raw);
  if (!request.ok()) {
    // The framer validated this request, so re-parse cannot fail; kept
    // as defense in depth.
    HttpResponse response;
    response.status = StatusCodeForFault(request.status());
    response.body = request.status().message() + "\n";
    responses_total_->Increment();
    errors_total_->Increment();
    reply.data = SerializeHttpResponse(response, /*keep_alive=*/false);
    reply.close = true;
    return reply;
  }
  HttpResponse response = handler_(*request);
  const bool keep_alive = request->keep_alive && !response.close &&
                          !response.shutdown_server;
  responses_total_->Increment();
  if (response.status >= 400) errors_total_->Increment();
  reply.data = SerializeHttpResponse(response, keep_alive,
                                     /*include_body=*/request->method !=
                                         "HEAD");
  reply.close = !keep_alive;
  reply.shutdown_server = response.shutdown_server;
  return reply;
}

Status HttpServer::Start() { return server_->Start(); }
int HttpServer::port() const { return server_->port(); }
void HttpServer::RequestStop() { server_->RequestStop(); }
void HttpServer::Wait() { server_->Wait(); }
void HttpServer::Shutdown() { server_->Shutdown(); }

}  // namespace colossal
