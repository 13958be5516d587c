// Socket-path coverage for net/tcp_server.h and the serve wire protocol
// (service/dispatch.h): round trips, pipelining, partial writes, and the
// hostile inputs the acceptance criteria name — oversized lines, abrupt
// disconnects mid-request, malformed requests, connection-limit
// pressure. Everything must fail with a Status-shaped error response (or
// a clean close), never a crash. CI runs this file under ASan/UBSan and
// TSan.

#include "net/tcp_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "data/generators.h"
#include "net/socket_io.h"
#include "obs/metrics.h"
#include "service/dispatch.h"
#include "service/mining_service.h"
#include "tests/metrics_scrape.h"

namespace colossal {
namespace {

// An echo handler framed like the real protocol: "echo <line>\n".
ServerReply EchoReply(const std::string& line) {
  ServerReply reply;
  reply.data = "echo " + line + "\n";
  return reply;
}

std::unique_ptr<TcpServer> StartEchoServer(TcpServerOptions options) {
  options.host = "127.0.0.1";
  options.port = 0;
  auto server = std::make_unique<TcpServer>(options, EchoReply);
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

StatusOr<int> Connect(const TcpServer& server) {
  return DialTcp("127.0.0.1", server.port());
}

TEST(TcpServerTest, EchoRoundTripAndPipelining) {
  MetricsRegistry metrics;
  TcpServerOptions options;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  SocketReader reader(*fd);

  ASSERT_TRUE(WriteAll(*fd, "hello\n").ok());
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "echo hello");

  // Three pipelined requests come back in order.
  ASSERT_TRUE(WriteAll(*fd, "a\nb\nc\n").ok());
  for (const char* expected : {"echo a", "echo b", "echo c"}) {
    line = reader.ReadLine();
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(*line, expected);
  }
  ::close(*fd);
  server->Shutdown();
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_lines_dispatched_total"), 4);
}

TEST(TcpServerTest, MaxPipelineReleasesRepliesInRequestOrder) {
  // With max_pipeline > 1 both requests run concurrently; the first
  // sleeps so its reply completes last, yet must be delivered first.
  MetricsRegistry metrics;
  TcpServerOptions options;
  options.max_pipeline = 4;
  options.num_threads = 4;
  options.host = "127.0.0.1";
  options.port = 0;
  options.metrics = &metrics;
  TcpServer server(options, [](const std::string& line) {
    if (line == "slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return EchoReply(line);
  });
  ASSERT_TRUE(server.Start().ok());
  StatusOr<int> fd = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "slow\nfast1\nfast2\n").ok());
  SocketReader reader(*fd);
  for (const char* expected : {"echo slow", "echo fast1", "echo fast2"}) {
    StatusOr<std::string> line = reader.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_EQ(*line, expected);
  }
  ::close(*fd);
  server.Shutdown();
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_lines_dispatched_total"), 3);
}

TEST(TcpServerTest, PipelinedFramingErrorStillDeliversEarlierReplies) {
  // An oversized line behind two good pipelined requests: both good
  // replies arrive in order, then the error frame, then the close.
  MetricsRegistry metrics;
  TcpServerOptions options;
  options.max_pipeline = 4;
  options.num_threads = 2;
  options.max_line_bytes = 64;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      WriteAll(*fd, "a\nb\n" + std::string(200, 'x') + "\n").ok());
  SocketReader reader(*fd);
  for (const char* expected : {"echo a", "echo b"}) {
    StatusOr<std::string> line = reader.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_EQ(*line, expected);
  }
  StatusOr<std::string> error_line = reader.ReadLine();
  ASSERT_TRUE(error_line.ok()) << error_line.status().ToString();
  EXPECT_NE(error_line->find("OUT_OF_RANGE"), std::string::npos)
      << *error_line;
  EXPECT_TRUE(reader.AtEof());
  ::close(*fd);
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_oversized_lines_total"), 1);
}

TEST(TcpServerTest, PartialWritesAreReassembled) {
  auto server = StartEchoServer({});
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok());
  // Dribble one request byte by byte; line framing must wait for '\n'.
  const std::string request = "slow trickle\n";
  for (const char byte : request) {
    ASSERT_TRUE(WriteAll(*fd, std::string(1, byte)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SocketReader reader(*fd);
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "echo slow trickle");
  ::close(*fd);
}

TEST(TcpServerTest, OversizedLineGetsErrorAndClose) {
  MetricsRegistry metrics;
  TcpServerOptions options;
  options.max_line_bytes = 64;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok());

  // 8 KiB with no newline: far over the 64-byte line limit.
  ASSERT_TRUE(WriteAll(*fd, std::string(8192, 'x')).ok());
  SocketReader reader(*fd);
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_NE(line->find("OUT_OF_RANGE"), std::string::npos) << *line;
  EXPECT_TRUE(reader.AtEof());  // connection closed after the error
  ::close(*fd);

  // The server survived and serves new connections.
  StatusOr<int> fd2 = Connect(*server);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(WriteAll(*fd2, "after\n").ok());
  SocketReader reader2(*fd2);
  StatusOr<std::string> line2 = reader2.ReadLine();
  ASSERT_TRUE(line2.ok());
  EXPECT_EQ(*line2, "echo after");
  ::close(*fd2);
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_oversized_lines_total"), 1);
}

TEST(TcpServerTest, OversizedButTerminatedLineIsRejectedToo) {
  MetricsRegistry metrics;
  TcpServerOptions options;
  options.max_line_bytes = 64;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok());

  // A complete line over the limit that fits inside one read chunk:
  // must be rejected, not handed to the handler.
  ASSERT_TRUE(WriteAll(*fd, std::string(100, 'y') + "\n").ok());
  SocketReader reader(*fd);
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_NE(line->find("OUT_OF_RANGE"), std::string::npos) << *line;
  EXPECT_TRUE(reader.AtEof());
  ::close(*fd);
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_oversized_lines_total"), 1);
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_lines_dispatched_total"), 0);
}

TEST(TcpServerTest, AbruptDisconnectMidRequestIsHarmless) {
  auto server = StartEchoServer({});
  {
    StatusOr<int> fd = Connect(*server);
    ASSERT_TRUE(fd.ok());
    // Half a request, then vanish.
    ASSERT_TRUE(WriteAll(*fd, "incomplete with no newline").ok());
    ::close(*fd);
  }
  {
    // Vanish while the handler is running.
    StatusOr<int> fd = Connect(*server);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteAll(*fd, "request\n").ok());
    ::close(*fd);
  }
  // Give the loop a moment to reap, then prove the server still works.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "alive\n").ok());
  SocketReader reader(*fd);
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "echo alive");
  ::close(*fd);
}

TEST(TcpServerTest, ConnectionLimitRejectsWithStatus) {
  MetricsRegistry metrics;
  TcpServerOptions options;
  options.max_connections = 1;
  options.metrics = &metrics;
  auto server = StartEchoServer(options);

  StatusOr<int> first = Connect(*server);
  ASSERT_TRUE(first.ok());
  // Prove the first connection is established server-side before the
  // second lands (accept order is connect order on one loop).
  ASSERT_TRUE(WriteAll(*first, "one\n").ok());
  SocketReader first_reader(*first);
  ASSERT_TRUE(first_reader.ReadLine().ok());

  StatusOr<int> second = Connect(*server);
  ASSERT_TRUE(second.ok());
  SocketReader reader(*second);
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("RESOURCE_EXHAUSTED"), std::string::npos) << *line;
  EXPECT_TRUE(reader.AtEof());
  ::close(*second);
  ::close(*first);

  // Capacity freed: a later connection is accepted again.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  StatusOr<int> third = Connect(*server);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(WriteAll(*third, "three\n").ok());
  SocketReader third_reader(*third);
  StatusOr<std::string> reply = third_reader.ReadLine();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo three");
  ::close(*third);
  EXPECT_EQ(Scrape(metrics, "colossal_tcp_rejected_total"), 1);
}

TEST(TcpServerTest, GracefulShutdownClosesIdleConnections) {
  auto server = StartEchoServer({});
  StatusOr<int> fd = Connect(*server);
  ASSERT_TRUE(fd.ok());
  server->Shutdown();
  // Depending on whether the loop accepted before stopping, the client
  // sees a clean EOF or a reset — either way the read ends, promptly.
  char buffer[8];
  EXPECT_LE(::recv(*fd, buffer, sizeof(buffer), 0), 0);
  ::close(*fd);
  // Idempotent.
  server->Shutdown();
}

TEST(TcpServerTest, StartRejectsBadOptions) {
  TcpServerOptions options;
  options.max_connections = 0;
  TcpServer server(options, EchoReply);
  EXPECT_FALSE(server.Start().ok());

  // A non-local address cannot be bound (no DNS involved, fails fast).
  TcpServerOptions unbindable;
  unbindable.host = "8.8.8.8";
  TcpServer server2(unbindable, EchoReply);
  EXPECT_FALSE(server2.Start().ok());
}

// --- End-to-end: the real serve protocol over the real server ---------------

class ServeProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(::testing::TempDir() + "/tcp_server_test.fimi");
    ASSERT_TRUE(WriteFimiFile(MakeDiagPlus(16, 8).db, *path_).ok());
  }

  void StartServeServer(int64_t max_line_bytes = int64_t{1} << 20) {
    service_ = std::make_unique<MiningService>();
    TcpServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.max_line_bytes = max_line_bytes;
    MiningService* service = service_.get();
    server_ = std::make_unique<TcpServer>(
        options,
        [service](const std::string& line) {
          return FrameTcpReply(DispatchServeLine(*service, line),
                               /*send_patterns=*/true);
        },
        // The service overload mints a request id for transport faults
        // and lands them in the flight recorder, like production serve.
        [service](const Status& status) {
          return FrameTcpError(*service, status, "tcp");
        });
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  // Reads one framed response: header line + bytes= payload.
  static void ReadFrame(SocketReader& reader, std::string* header,
                        std::string* payload) {
    StatusOr<std::string> line = reader.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    *header = *line;
    const size_t pos = header->rfind(" bytes=");
    ASSERT_NE(pos, std::string::npos) << *header;
    const size_t count = std::stoull(header->substr(pos + 7));
    StatusOr<std::string> body = reader.ReadExact(count);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    *payload = *body;
  }

  static std::string* path_;
  std::unique_ptr<MiningService> service_;
  std::unique_ptr<TcpServer> server_;
};

std::string* ServeProtocolTest::path_ = nullptr;

TEST_F(ServeProtocolTest, RequestRoundTripMatchesDirectMineAndCaches) {
  StartServeServer();
  StatusOr<int> fd = DialTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  SocketReader reader(*fd);
  const std::string request =
      "--in " + *path_ + " --min-support 8 --k 20 --pool-size 2\n";

  ASSERT_TRUE(WriteAll(*fd, request).ok());
  std::string header;
  std::string payload;
  ReadFrame(reader, &header, &payload);
  EXPECT_EQ(header.rfind("ok source=mined", 0), 0u) << header;

  // The payload is byte-identical to a direct service mine.
  StatusOr<MineRequest> parsed = ParseRequestLine(request);
  ASSERT_TRUE(parsed.ok());
  MiningService reference;
  MiningResponse direct = reference.Mine(*parsed);
  ASSERT_TRUE(direct.status.ok());
  EXPECT_EQ(payload, RenderPatternsPayload(direct));

  // Repeating the request over the same connection hits the cache.
  ASSERT_TRUE(WriteAll(*fd, request).ok());
  std::string cached_header;
  std::string cached_payload;
  ReadFrame(reader, &cached_header, &cached_payload);
  EXPECT_EQ(cached_header.rfind("ok source=cache", 0), 0u) << cached_header;
  EXPECT_EQ(cached_payload, payload);

  // stats and quit.
  ASSERT_TRUE(WriteAll(*fd, "stats\n").ok());
  ReadFrame(reader, &header, &payload);
  EXPECT_EQ(header.rfind("stats cache_hits=1", 0), 0u) << header;
  ASSERT_TRUE(WriteAll(*fd, "quit\n").ok());
  ReadFrame(reader, &header, &payload);
  EXPECT_EQ(header, "ok bye bytes=0");
  EXPECT_TRUE(reader.AtEof());
  ::close(*fd);
}

TEST_F(ServeProtocolTest, MalformedRequestsFailWithStatusNotCrash) {
  StartServeServer(/*max_line_bytes=*/256);
  StatusOr<int> fd = DialTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  SocketReader reader(*fd);

  const struct {
    const char* line;
    const char* expected_code;
  } cases[] = {
      {"definitely not a request", "INVALID_ARGUMENT"},
      {"--bogus-flag 1 --in x --min-support 2", "INVALID_ARGUMENT"},
      {"--in /no/such/file.fimi --min-support 2", "NOT_FOUND"},
      {"--in x --min-support notanumber", "INVALID_ARGUMENT"},
      {"--in x", "INVALID_ARGUMENT"},  // missing support
  };
  for (const auto& test_case : cases) {
    ASSERT_TRUE(WriteAll(*fd, std::string(test_case.line) + "\n").ok());
    std::string header;
    std::string payload;
    ReadFrame(reader, &header, &payload);
    EXPECT_EQ(header.rfind("error code=", 0), 0u) << header;
    EXPECT_NE(header.find(test_case.expected_code), std::string::npos)
        << header << " for input: " << test_case.line;
    EXPECT_FALSE(payload.empty());
  }

  // The connection survived five bad requests; a good one still works.
  ASSERT_TRUE(WriteAll(*fd, "--in " + *path_ +
                                " --min-support 8 --k 20 --pool-size 2\n")
                  .ok());
  std::string header;
  std::string payload;
  ReadFrame(reader, &header, &payload);
  EXPECT_EQ(header.rfind("ok source=", 0), 0u) << header;
  ::close(*fd);

  // An oversized request line is an OUT_OF_RANGE frame, then close.
  StatusOr<int> fd2 = DialTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(WriteAll(*fd2, std::string(1024, 'z')).ok());
  SocketReader reader2(*fd2);
  ReadFrame(reader2, &header, &payload);
  EXPECT_EQ(header.rfind("error code=OUT_OF_RANGE", 0), 0u) << header;
  EXPECT_TRUE(reader2.AtEof());
  ::close(*fd2);
}

TEST_F(ServeProtocolTest, ConcurrentConnectionsShareTheCache) {
  StartServeServer();
  const std::string request =
      "--in " + *path_ + " --min-support 8 --k 20 --pool-size 2\n";

  // Hammer the server from several client threads at once; every
  // response must be a well-formed ok frame with the same payload.
  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      StatusOr<int> fd = DialTcp("127.0.0.1", server_->port());
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(WriteAll(*fd, request).ok());
      SocketReader reader(*fd);
      std::string header;
      ReadFrame(reader, &header, &payloads[static_cast<size_t>(i)]);
      EXPECT_EQ(header.rfind("ok source=", 0), 0u) << header;
      ::close(*fd);
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(payloads[static_cast<size_t>(i)], payloads[0]) << i;
  }
  // One mine; everything else was cache or in-flight coalescing. Which
  // of the two each joiner got is schedule-dependent (a joiner probes
  // the cache and misses before it joins the in-flight mine), so only
  // the totals are asserted.
  const MetricsRegistry& metrics = service_->metrics();
  const int64_t mined = Scrape(metrics, "colossal_responses_mined_total");
  EXPECT_EQ(mined, 1);
  EXPECT_EQ(mined + Scrape(metrics, "colossal_responses_cache_total") +
                Scrape(metrics, "colossal_responses_coalesced_total"),
            kClients);
}

TEST_F(ServeProtocolTest, ShutdownCommandStopsTheServer) {
  StartServeServer();
  StatusOr<int> fd = DialTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "shutdown\n").ok());
  SocketReader reader(*fd);
  StatusOr<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "ok bye bytes=0");
  ::close(*fd);
  server_->Wait();  // returns because the dispatched reply stopped it
}

}  // namespace
}  // namespace colossal
