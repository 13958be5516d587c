// Socket-path coverage for net/http_server.h: framing units
// (ParseHttpRequest / SerializeHttpResponse), keep-alive round trips,
// ordered pipelining, and a table of hostile inputs — truncated request
// lines, oversized headers, bad Content-Length, premature disconnects
// mid-body, pipelined mixes of good and bad requests. Every fault must
// answer as a well-formed HTTP error response before the close, never a
// crash or a hang. CI runs this file under ASan/UBSan and TSan.

#include "net/http_server.h"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/socket_io.h"
#include "obs/metrics.h"
#include "tests/metrics_scrape.h"

namespace colossal {
namespace {

// --- Units: request parsing ------------------------------------------------

TEST(HttpParseTest, ParsesRequestLineHeadersAndBody) {
  StatusOr<HttpRequest> request = ParseHttpRequest(
      "POST /mine HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
      "X-Mixed-Case: Kept As-Is\r\n\r\nhello");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->target, "/mine");
  EXPECT_EQ(request->version, "HTTP/1.1");
  EXPECT_EQ(request->body, "hello");
  EXPECT_TRUE(request->keep_alive);
  // Header names lowercase at parse time; values keep their bytes.
  const std::string* value = request->FindHeader("x-mixed-case");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "Kept As-Is");
  EXPECT_EQ(request->FindHeader("no-such-header"), nullptr);
}

TEST(HttpParseTest, BareLfLineEndingsAreAccepted) {
  StatusOr<HttpRequest> request =
      ParseHttpRequest("GET /metrics HTTP/1.1\nHost: x\n\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->target, "/metrics");
  EXPECT_TRUE(request->body.empty());
}

TEST(HttpParseTest, KeepAliveDefaultsByVersion) {
  // 1.1: keep-alive unless Connection: close.
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.1\r\n\r\n")->keep_alive);
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
          ->keep_alive);
  // 1.0: close unless Connection: keep-alive (any case).
  EXPECT_FALSE(ParseHttpRequest("GET / HTTP/1.0\r\n\r\n")->keep_alive);
  EXPECT_TRUE(
      ParseHttpRequest("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
          ->keep_alive);
}

TEST(HttpParseTest, MalformedRequestsFailWithLeadingStatusCode) {
  const struct {
    const char* name;
    const char* raw;
    const char* want_prefix;  // fault messages lead with the HTTP code
  } cases[] = {
      {"no blank line", "GET / HTTP/1.1\r\n", "400"},
      {"one-token request line", "GETONLY\r\n\r\n", "400"},
      {"two-token request line", "GET /\r\n\r\n", "400"},
      {"four tokens", "GET / HTTP/1.1 extra\r\n\r\n", "400"},
      {"not an http version", "GET / FTP/1.1\r\n\r\n", "400"},
      {"header without colon", "GET / HTTP/1.1\r\nnocolon\r\n\r\n", "400"},
      {"whitespace before colon",
       "GET / HTTP/1.1\r\nContent-Length : 5\r\n\r\n", "400"},
      {"non-numeric content length",
       "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", "400"},
      {"negative content length",
       "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", "400"},
      {"conflicting content lengths",
       "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab",
       "400"},
      {"chunked transfer coding",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "501"},
      {"body shorter than declared",
       "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", "400"},
  };
  for (const auto& test_case : cases) {
    StatusOr<HttpRequest> request = ParseHttpRequest(test_case.raw);
    ASSERT_FALSE(request.ok()) << test_case.name;
    EXPECT_EQ(request.status().message().rfind(test_case.want_prefix, 0), 0u)
        << test_case.name << ": " << request.status().ToString();
  }
}

// --- Units: response serialization -----------------------------------------

TEST(HttpSerializeTest, AlwaysEmitsContentLengthAndConnection) {
  HttpResponse response;
  response.status = 200;
  response.body = "hello\n";
  response.headers.emplace_back("Content-Type", "text/plain");
  const std::string wire =
      SerializeHttpResponse(response, /*keep_alive=*/true);
  EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << wire;
  EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 6), "hello\n");
  // No Date header: responses are deterministic by design.
  EXPECT_EQ(wire.find("Date:"), std::string::npos);
}

TEST(HttpSerializeTest, HeadOmitsBodyButKeepsContentLength) {
  HttpResponse response;
  response.body = "0123456789";
  const std::string wire = SerializeHttpResponse(
      response, /*keep_alive=*/false, /*include_body=*/false);
  EXPECT_NE(wire.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 4), "\r\n\r\n");  // head only
}

// --- E2E over real sockets -------------------------------------------------

// Echo handler: body and target round-trip, /slow sleeps first so
// pipelining order is observable.
HttpResponse EchoHandler(const HttpRequest& request) {
  if (request.target == "/slow") {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  HttpResponse response;
  response.body = request.method + " " + request.target + " body=[" +
                  request.body + "]";
  return response;
}

std::unique_ptr<HttpServer> StartEchoServer(HttpServerOptions options) {
  options.host = "127.0.0.1";
  options.port = 0;
  auto server = std::make_unique<HttpServer>(options, EchoHandler);
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

struct ClientResponse {
  int status = 0;
  std::string status_line;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

// Reads one full response; fails the test on malformed framing.
void ReadResponse(SocketReader& reader, ClientResponse* out) {
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  if (!line->empty() && line->back() == '\r') line->pop_back();
  out->status_line = *line;
  ASSERT_EQ(line->rfind("HTTP/1.1 ", 0), 0u) << *line;
  out->status = std::stoi(line->substr(9));
  size_t content_length = 0;
  while (true) {
    line = reader.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (line->empty()) break;
    const size_t colon = line->find(':');
    ASSERT_NE(colon, std::string::npos) << *line;
    std::string name = line->substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    size_t begin = colon + 1;
    while (begin < line->size() && (*line)[begin] == ' ') ++begin;
    out->headers[name] = line->substr(begin);
    if (name == "content-length") {
      content_length = std::stoull(out->headers[name]);
    }
  }
  if (content_length > 0) {
    StatusOr<std::string> body = reader.ReadExact(content_length);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    out->body = *body;
  }
}

TEST(HttpServerTest, KeepAliveRoundTrips) {
  MetricsRegistry metrics;
  HttpServerOptions options;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  SocketReader reader(*fd);

  // Three sequential requests on one connection.
  for (const char* target : {"/a", "/b", "/c"}) {
    const std::string request = std::string("POST ") + target +
                                " HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
    ASSERT_TRUE(WriteAll(*fd, request).ok());
    ClientResponse response;
    ReadResponse(reader, &response);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.headers["connection"], "keep-alive");
    EXPECT_EQ(response.body, std::string("POST ") + target + " body=[hi]");
  }
  ::close(*fd);
  server->Shutdown();
  EXPECT_EQ(Scrape(metrics, "colossal_http_lines_dispatched_total"), 3);
}

TEST(HttpServerTest, ConnectionCloseIsHonored) {
  auto server = StartEchoServer({});
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  SocketReader reader(*fd);
  ASSERT_TRUE(
      WriteAll(*fd, "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").ok());
  ClientResponse response;
  ReadResponse(reader, &response);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["connection"], "close");
  EXPECT_TRUE(reader.AtEof());
  ::close(*fd);
}

TEST(HttpServerTest, HeadGetsHeadersWithoutBody) {
  auto server = StartEchoServer({});
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  SocketReader reader(*fd);
  ASSERT_TRUE(WriteAll(*fd, "HEAD /h HTTP/1.1\r\n\r\n"
                            "GET /after HTTP/1.1\r\n\r\n")
                  .ok());
  // HEAD: Content-Length reflects the GET body, but no body bytes
  // follow — proven by the next pipelined response parsing cleanly.
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("HTTP/1.1 200", 0), 0u) << *line;
  size_t declared = 0;
  while (true) {
    line = reader.ReadLine();
    ASSERT_TRUE(line.ok());
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (line->empty()) break;
    if (line->rfind("Content-Length: ", 0) == 0) {
      declared = std::stoull(line->substr(16));
    }
  }
  EXPECT_GT(declared, 0u);
  ClientResponse after;
  ReadResponse(reader, &after);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "GET /after body=[]");
  ::close(*fd);
}

TEST(HttpServerTest, PipelinedRepliesComeBackInRequestOrder) {
  HttpServerOptions options;
  options.num_threads = 4;  // both handlers run concurrently
  options.max_pipeline = 8;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  SocketReader reader(*fd);

  // /slow finishes after /fast, but must be answered first.
  ASSERT_TRUE(WriteAll(*fd, "GET /slow HTTP/1.1\r\n\r\n"
                            "GET /fast HTTP/1.1\r\n\r\n")
                  .ok());
  ClientResponse first;
  ClientResponse second;
  ReadResponse(reader, &first);
  ReadResponse(reader, &second);
  EXPECT_EQ(first.body, "GET /slow body=[]");
  EXPECT_EQ(second.body, "GET /fast body=[]");
  ::close(*fd);
}

TEST(HttpServerTest, HostileInputsAnswerWellFormedErrorsThenClose) {
  HttpServerOptions options;
  options.max_request_line_bytes = 128;
  options.max_header_bytes = 256;
  options.max_body_bytes = 512;
  const struct {
    const char* name;
    std::string raw;
    int want_status;
  } cases[] = {
      // Sized over the 128-byte line limit but under the 256-byte head
      // limit, so the request-line check is the one that fires.
      {"oversized request line, no newline yet",
       "GET /" + std::string(200, 'a'), 414},
      {"oversized terminated request line",
       "GET /" + std::string(150, 'a') + " HTTP/1.1\r\n\r\n", 414},
      {"oversized header block",
       "GET / HTTP/1.1\r\nX-Pad: " + std::string(400, 'b') + "\r\n\r\n", 431},
      {"unterminated header flood", std::string("GET / HTTP/1.1\r\n") +
                                        "X-Pad: " + std::string(400, 'c'),
       431},
      {"declared body over the limit",
       "POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n", 413},
      {"non-numeric content length",
       "POST / HTTP/1.1\r\nContent-Length: 12px\r\n\r\n", 400},
      {"content length overflow ruse",
       "POST / HTTP/1.1\r\nContent-Length: 9999999999999999999\r\n\r\n", 400},
      {"conflicting content lengths",
       "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx",
       400},
      {"smuggling-shaped header",
       "POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\n", 400},
      {"chunked transfer coding",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501},
      {"garbage request line", "\x01\x02\x03 garbage\r\n\r\n", 400},
  };
  for (const auto& test_case : cases) {
    auto server = StartEchoServer(options);
    StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
    ASSERT_TRUE(fd.ok()) << test_case.name;
    ASSERT_TRUE(WriteAll(*fd, test_case.raw).ok()) << test_case.name;
    SocketReader reader(*fd);
    ClientResponse response;
    ReadResponse(reader, &response);
    EXPECT_EQ(response.status, test_case.want_status)
        << test_case.name << ": " << response.status_line;
    EXPECT_EQ(response.headers["connection"], "close") << test_case.name;
    EXPECT_FALSE(response.body.empty()) << test_case.name;
    EXPECT_TRUE(reader.AtEof()) << test_case.name;
    ::close(*fd);

    // The server survived and serves a fresh connection.
    StatusOr<int> fd2 = DialTcp("127.0.0.1", server->port());
    ASSERT_TRUE(fd2.ok()) << test_case.name;
    ASSERT_TRUE(WriteAll(*fd2, "GET /ok HTTP/1.1\r\n\r\n").ok());
    SocketReader reader2(*fd2);
    ClientResponse alive;
    ReadResponse(reader2, &alive);
    EXPECT_EQ(alive.status, 200) << test_case.name;
    ::close(*fd2);
  }
}

TEST(HttpServerTest, PrematureDisconnectsAreHarmless) {
  auto server = StartEchoServer({});
  {
    // Vanish mid-request-line.
    StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteAll(*fd, "GET /trunca").ok());
    ::close(*fd);
  }
  {
    // Vanish mid-body: head promises 100 bytes, 3 arrive.
    StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        WriteAll(*fd, "POST /m HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
            .ok());
    ::close(*fd);
  }
  {
    // Vanish while the handler runs.
    StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteAll(*fd, "GET /slow HTTP/1.1\r\n\r\n").ok());
    ::close(*fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "GET /alive HTTP/1.1\r\n\r\n").ok());
  SocketReader reader(*fd);
  ClientResponse response;
  ReadResponse(reader, &response);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "GET /alive body=[]");
  ::close(*fd);
}

TEST(HttpServerTest, PipelinedMixKeepsEarlierRepliesAndClosesAfterError) {
  MetricsRegistry metrics;
  HttpServerOptions options;
  options.num_threads = 2;
  options.max_pipeline = 8;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  SocketReader reader(*fd);

  // good (slow), good, malformed, good-after-error: the two good
  // replies arrive in order, then the 400, then the close — the
  // request after the error is never answered.
  ASSERT_TRUE(WriteAll(*fd, "GET /slow HTTP/1.1\r\n\r\n"
                            "GET /ok HTTP/1.1\r\n\r\n"
                            "JUNK\r\n\r\n"
                            "GET /never HTTP/1.1\r\n\r\n")
                  .ok());
  ClientResponse slow;
  ClientResponse ok;
  ClientResponse error;
  ReadResponse(reader, &slow);
  ReadResponse(reader, &ok);
  ReadResponse(reader, &error);
  EXPECT_EQ(slow.status, 200);
  EXPECT_EQ(slow.body, "GET /slow body=[]");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "GET /ok body=[]");
  EXPECT_EQ(error.status, 400) << error.status_line;
  EXPECT_EQ(error.headers["connection"], "close");
  EXPECT_TRUE(reader.AtEof());
  ::close(*fd);
  server->Shutdown();
  // Only the three answered requests were dispatched or faulted.
  EXPECT_EQ(Scrape(metrics, "colossal_http_lines_dispatched_total"), 2);
  EXPECT_EQ(Scrape(metrics, "colossal_http_oversized_lines_total"), 1);
}

TEST(HttpServerTest, ConnectionLimitAnswers503WithRetryAfter) {
  HttpServerOptions options;
  options.max_connections = 1;
  auto server = StartEchoServer(options);

  StatusOr<int> first = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(first.ok());
  // Prove the first connection is established server-side first.
  ASSERT_TRUE(WriteAll(*first, "GET /one HTTP/1.1\r\n\r\n").ok());
  SocketReader first_reader(*first);
  ClientResponse one;
  ReadResponse(first_reader, &one);
  ASSERT_EQ(one.status, 200);

  StatusOr<int> second = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(second.ok());
  SocketReader reader(*second);
  ClientResponse rejected;
  ReadResponse(reader, &rejected);
  EXPECT_EQ(rejected.status, 503) << rejected.status_line;
  EXPECT_EQ(rejected.headers["retry-after"], "1");
  EXPECT_TRUE(reader.AtEof());
  ::close(*second);
  ::close(*first);
}

TEST(HttpServerTest, ShutdownServerResponseStopsTheFrontEnd) {
  HttpServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  auto server = std::make_unique<HttpServer>(
      options, [](const HttpRequest&) {
        HttpResponse response;
        response.body = "bye\n";
        response.shutdown_server = true;
        return response;
      });
  ASSERT_TRUE(server->Start().ok());
  StatusOr<int> fd = DialTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "POST /mine HTTP/1.1\r\n"
                            "Content-Length: 8\r\n\r\nshutdown")
                  .ok());
  SocketReader reader(*fd);
  ClientResponse response;
  ReadResponse(reader, &response);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["connection"], "close");
  ::close(*fd);
  server->Wait();  // returns because the reply stopped it
}

}  // namespace
}  // namespace colossal
