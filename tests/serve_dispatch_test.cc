// Unit coverage for the shared serve dispatch path (service/dispatch.h):
// line classification, the response/stats header formats both transports
// print, and the TCP counted framing.

#include "service/dispatch.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "data/generators.h"
#include "net/socket_io.h"
#include "obs/flight_recorder.h"
#include "tests/metrics_scrape.h"

namespace colossal {
namespace {

class ServeDispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(::testing::TempDir() + "/dispatch_test.fimi");
    const TransactionDatabase db = MakeDiagPlus(16, 8).db;
    rows_ = db.num_transactions();
    ASSERT_TRUE(WriteFimiFile(db, *path_).ok());
  }

  static std::string RequestLine(int k = 20) {
    return "--in " + *path_ + " --min-support 8 --k " + std::to_string(k) +
           " --pool-size 2";
  }

  static std::string* path_;
  static int64_t rows_;
  MiningService service_;
};

std::string* ServeDispatchTest::path_ = nullptr;
int64_t ServeDispatchTest::rows_ = 0;

TEST_F(ServeDispatchTest, ClassifiesControlLines) {
  EXPECT_EQ(DispatchServeLine(service_, "").kind, ServeOutcome::Kind::kEmpty);
  EXPECT_EQ(DispatchServeLine(service_, "   \t").kind,
            ServeOutcome::Kind::kEmpty);
  EXPECT_EQ(DispatchServeLine(service_, "# comment").kind,
            ServeOutcome::Kind::kEmpty);
  EXPECT_EQ(DispatchServeLine(service_, "quit").kind,
            ServeOutcome::Kind::kQuit);
  EXPECT_EQ(DispatchServeLine(service_, "exit").kind,
            ServeOutcome::Kind::kQuit);
  EXPECT_EQ(DispatchServeLine(service_, "  quit\r").kind,
            ServeOutcome::Kind::kQuit);
  EXPECT_EQ(DispatchServeLine(service_, "shutdown").kind,
            ServeOutcome::Kind::kShutdown);

  ServeOutcome stats = DispatchServeLine(service_, "stats");
  EXPECT_EQ(stats.kind, ServeOutcome::Kind::kStats);
  EXPECT_EQ(stats.stats_line.rfind("stats cache_hits=0", 0), 0u)
      << stats.stats_line;
  // The full registry/cache counter set rides the one stats line every
  // transport shares.
  for (const char* field :
       {" cache_misses=", " cache_entries=", " cache_evictions=",
        " dataset_loads=", " dataset_hits=", " dataset_evictions=",
        " dataset_stale_reloads=", " sniff_cache_hits=",
        " admission_waits=", " resident_mb=", " peak_resident_mb=",
        " arena_peak_mb=", " simd="}) {
    EXPECT_NE(stats.stats_line.find(field), std::string::npos)
        << "missing " << field << " in: " << stats.stats_line;
  }
}

TEST_F(ServeDispatchTest, MetricsWordRendersExposition) {
  ServeOutcome outcome = DispatchServeLine(service_, "metrics");
  EXPECT_EQ(outcome.kind, ServeOutcome::Kind::kMetrics);
  EXPECT_NE(outcome.metrics_text.find("# TYPE colossal_requests_total counter"),
            std::string::npos)
      << outcome.metrics_text;
  EXPECT_NE(outcome.metrics_text.find(
                "# TYPE colossal_request_seconds summary"),
            std::string::npos);
  // Trailing whitespace is stripped like the other control words.
  EXPECT_EQ(DispatchServeLine(service_, "  metrics\r").kind,
            ServeOutcome::Kind::kMetrics);
}

TEST_F(ServeDispatchTest, RequestsPopulatePhaseHistograms) {
  ServeOutcome outcome = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(outcome.response.status.ok());
  // Two cache-served repeats: the first hit renders the payload and
  // attaches it to the cache entry, the second serves that payload.
  DispatchServeLine(service_, RequestLine());
  const ServeOutcome memo_hit = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(memo_hit.response.status.ok());
  EXPECT_EQ(memo_hit.patterns_payload, outcome.patterns_payload);

  const MetricsRegistry& metrics = service_.metrics();
  EXPECT_EQ(Scrape(metrics, "colossal_requests_total"), 3);
  EXPECT_EQ(Scrape(metrics, "colossal_responses_mined_total"), 1);
  EXPECT_EQ(Scrape(metrics, "colossal_responses_cache_total"), 2);
  // Every phase an unsharded mine passes through recorded at least one
  // sample (stitch is sharded-only).
  for (const char* name :
       {"colossal_phase_parse_seconds", "colossal_phase_cache_lookup_seconds",
        "colossal_phase_registry_seconds", "colossal_phase_pool_mine_seconds",
        "colossal_phase_fusion_seconds", "colossal_phase_serialize_seconds",
        "colossal_request_seconds"}) {
    const Histogram* histogram = metrics.FindHistogram(name);
    ASSERT_NE(histogram, nullptr) << name;
    EXPECT_GT(histogram->TotalCount(), 0) << name;
  }
  // All three requests went through parse and the cache lookup; only
  // the mine and the first hit rendered.
  EXPECT_EQ(
      metrics.FindHistogram("colossal_phase_parse_seconds")->TotalCount(), 3);
  EXPECT_EQ(metrics.FindHistogram("colossal_phase_cache_lookup_seconds")
                ->TotalCount(),
            3);
  EXPECT_EQ(
      metrics.FindHistogram("colossal_phase_serialize_seconds")->TotalCount(),
      2);
  FlightRecord record;
  ASSERT_TRUE(service_.flight_recorder().Find(memo_hit.request_id, &record));
  EXPECT_STREQ(record.source, "cache");
  EXPECT_EQ(record.phase_nanos[static_cast<int>(TracePhase::kSerialize)], 0);
  EXPECT_EQ(record.response_bytes,
            static_cast<int64_t>(memo_hit.patterns_payload.size()));
}

TEST_F(ServeDispatchTest, ParseFailuresCountAsRequests) {
  DispatchServeLine(service_, "--nope 1");
  const MetricsRegistry& metrics = service_.metrics();
  EXPECT_EQ(Scrape(metrics, "colossal_requests_total"), 1);
  EXPECT_EQ(Scrape(metrics, "colossal_request_parse_failures_total"), 1);
  EXPECT_EQ(
      metrics.FindHistogram("colossal_phase_parse_seconds")->TotalCount(), 1);
}

// The torn-read audit's hammer: readers render the stats line and the
// full exposition nonstop while 8 writer threads mine (a cache-hit mix,
// so the loop is fast) — under TSan this pins down that every exported
// counter is either atomic or snapshotted under its owner's mutex.
TEST_F(ServeDispatchTest, StatsReadersRaceMiningWriters) {
  ASSERT_TRUE(DispatchServeLine(service_, RequestLine()).response.status.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> miners;
  for (int i = 0; i < 8; ++i) {
    miners.emplace_back([this] {
      for (int j = 0; j < 50; ++j) {
        DispatchServeLine(service_, RequestLine());
      }
    });
  }
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([this, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string line = FormatStatsLine(service_);
        EXPECT_EQ(line.rfind("stats ", 0), 0u);
        EXPECT_FALSE(service_.metrics().RenderText().empty());
      }
    });
  }
  for (std::thread& miner : miners) miner.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(Scrape(service_.metrics(), "colossal_requests_total"),
            1 + 8 * 50);
}

TEST_F(ServeDispatchTest, ParseErrorsAreFailedResponses) {
  ServeOutcome outcome = DispatchServeLine(service_, "--nope 1");
  EXPECT_EQ(outcome.kind, ServeOutcome::Kind::kResponse);
  EXPECT_FALSE(outcome.response.status.ok());
  EXPECT_EQ(outcome.response.source, ResponseSource::kFailed);
}

TEST_F(ServeDispatchTest, MinesAndFormatsHeader) {
  ServeOutcome outcome = DispatchServeLine(service_, RequestLine());
  ASSERT_EQ(outcome.kind, ServeOutcome::Kind::kResponse);
  ASSERT_TRUE(outcome.response.status.ok())
      << outcome.response.status.ToString();

  const std::string header = FormatResponseHeader(outcome.response);
  EXPECT_EQ(header.rfind("ok source=mined patterns=", 0), 0u) << header;
  EXPECT_NE(header.find(" iterations="), std::string::npos);
  // 16 lowercase hex digits.
  const size_t fp = header.find(" fingerprint=");
  ASSERT_NE(fp, std::string::npos);
  const std::string digits = header.substr(fp + 13, 16);
  EXPECT_EQ(digits.find_first_not_of("0123456789abcdef"), std::string::npos)
      << digits;
  EXPECT_NE(header.find(" ms="), std::string::npos);

  // The payload renders the same FIMI text as the result itself.
  EXPECT_FALSE(RenderPatternsPayload(outcome.response).empty());

  // A repeat is a cache hit through the same path.
  ServeOutcome again = DispatchServeLine(service_, RequestLine());
  EXPECT_EQ(again.response.source, ResponseSource::kCache);
}

TEST_F(ServeDispatchTest, TcpFramingCountsPayloadBytesExactly) {
  ServeOutcome outcome = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(outcome.response.status.ok());

  ServerReply reply = FrameTcpReply(outcome, /*send_patterns=*/true);
  EXPECT_FALSE(reply.close);
  const size_t newline = reply.data.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string header = reply.data.substr(0, newline);
  const std::string payload = reply.data.substr(newline + 1);
  const size_t bytes_pos = header.rfind(" bytes=");
  ASSERT_NE(bytes_pos, std::string::npos) << header;
  EXPECT_EQ(std::stoull(header.substr(bytes_pos + 7)), payload.size());
  EXPECT_EQ(payload, RenderPatternsPayload(outcome.response));

  // --no-patterns mode: same header shape, zero payload bytes.
  ServerReply stripped = FrameTcpReply(outcome, /*send_patterns=*/false);
  EXPECT_NE(stripped.data.find(" bytes=0\n"), std::string::npos);
  EXPECT_EQ(stripped.data.back(), '\n');
}

TEST_F(ServeDispatchTest, TcpFramingForControlAndErrorOutcomes) {
  EXPECT_TRUE(FrameTcpReply(DispatchServeLine(service_, "# c"), true)
                  .data.empty());

  ServerReply quit = FrameTcpReply(DispatchServeLine(service_, "quit"), true);
  EXPECT_EQ(quit.data, "ok bye bytes=0\n");
  EXPECT_TRUE(quit.close);
  EXPECT_FALSE(quit.shutdown_server);

  ServerReply shutdown =
      FrameTcpReply(DispatchServeLine(service_, "shutdown"), true);
  EXPECT_EQ(shutdown.data, "ok bye bytes=0\n");
  EXPECT_TRUE(shutdown.close);
  EXPECT_TRUE(shutdown.shutdown_server);

  ServerReply stats =
      FrameTcpReply(DispatchServeLine(service_, "stats"), true);
  EXPECT_EQ(stats.data.rfind("stats cache_hits=", 0), 0u);
  EXPECT_NE(stats.data.find(" bytes=0\n"), std::string::npos);

  ServerReply metrics =
      FrameTcpReply(DispatchServeLine(service_, "metrics"), true);
  EXPECT_EQ(metrics.data.rfind("metrics bytes=", 0), 0u) << metrics.data;
  EXPECT_FALSE(metrics.close);
  {
    const size_t newline = metrics.data.find('\n');
    ASSERT_NE(newline, std::string::npos);
    EXPECT_EQ(std::stoull(metrics.data.substr(14, newline - 14)),
              metrics.data.size() - newline - 1);
    EXPECT_NE(metrics.data.find("colossal_requests_total"),
              std::string::npos);
  }

  ServerReply bad = FrameTcpReply(DispatchServeLine(service_, "--nope 1"),
                                  /*send_patterns=*/true);
  EXPECT_EQ(bad.data.rfind("error code=INVALID_ARGUMENT id=", 0), 0u)
      << bad.data;
  EXPECT_FALSE(bad.close);  // a bad request does not kill the connection
  // Payload length matches the advertised count here too.
  const size_t newline = bad.data.find('\n');
  const size_t bytes_pos = bad.data.rfind(" bytes=", newline);
  EXPECT_EQ(std::stoull(bad.data.substr(bytes_pos + 7, newline - bytes_pos)),
            bad.data.size() - newline - 1);
}

// The stdin daemon writes these same frames to stdout; ReadTcpFrame
// parses such a transcript from a pipe just as it parses a socket.
TEST_F(ServeDispatchTest, CountedFramesParseFromAPipeTranscript) {
  const ServeOutcome mined = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(mined.response.status.ok());
  const std::string transcript =
      FrameTcpReply(mined, /*send_patterns=*/true).data +
      FrameTcpReply(DispatchServeLine(service_, "--nope 1"), true).data +
      FrameTcpReply(DispatchServeLine(service_, "quit"), true).data;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Well under the pipe buffer, so no writer thread is needed.
  ASSERT_EQ(::write(fds[1], transcript.data(), transcript.size()),
            static_cast<ssize_t>(transcript.size()));
  ::close(fds[1]);

  SocketReader reader(fds[0]);
  StatusOr<TcpFrame> ok = ReadTcpFrame(reader);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->ok);
  EXPECT_EQ(ok->source, "mined");
  EXPECT_EQ(ok->request_id, mined.request_id);
  EXPECT_EQ(ok->payload, RenderPatternsPayload(mined.response));
  StatusOr<TcpFrame> failed = ReadTcpFrame(reader);
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_FALSE(failed->ok);
  EXPECT_EQ(failed->header.rfind("error code=INVALID_ARGUMENT id=", 0), 0u);
  StatusOr<TcpFrame> bye = ReadTcpFrame(reader);
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(bye->header, "ok bye bytes=0");
  EXPECT_TRUE(reader.AtEof());
  ::close(fds[0]);
}

// --- Request ids and the flight recorder through dispatch -------------------

TEST_F(ServeDispatchTest, RequestIdsAreMonotoneAndKeepBytesLast) {
  ServeOutcome first = DispatchServeLine(service_, RequestLine());
  ServeOutcome second = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(first.response.status.ok());
  EXPECT_GT(first.request_id, 0u);
  EXPECT_GT(second.request_id, first.request_id);
  // Parse failures mint ids too — every request line is correlatable.
  ServeOutcome failed = DispatchServeLine(service_, "--nope 1");
  EXPECT_GT(failed.request_id, second.request_id);
  // Control words do not (they are not requests).
  EXPECT_EQ(DispatchServeLine(service_, "stats").request_id, 0u);

  // The id rides the header; the framing contract (bytes= is the LAST
  // header token) is what ReadTcpFrame parses, so it must survive.
  ServerReply reply = FrameTcpReply(first, /*send_patterns=*/true);
  const size_t newline = reply.data.find('\n');
  const std::string header = reply.data.substr(0, newline);
  EXPECT_NE(header.find(" id=" + std::to_string(first.request_id) + " "),
            std::string::npos)
      << header;
  const size_t bytes_pos = header.rfind(" bytes=");
  ASSERT_NE(bytes_pos, std::string::npos);
  EXPECT_EQ(header.find(' ', bytes_pos + 1), std::string::npos)
      << "bytes= must stay the last header token: " << header;

  // Ids never leak into the payload: two dispatches of the same line
  // differ in id but ship byte-identical payload bytes.
  ServerReply reply2 = FrameTcpReply(second, /*send_patterns=*/true);
  EXPECT_EQ(reply.data.substr(reply.data.find('\n') + 1),
            reply2.data.substr(reply2.data.find('\n') + 1));
}

TEST_F(ServeDispatchTest, TransportFaultsMintIdsAndRecord) {
  const int64_t before = service_.flight_recorder().recorded();
  ServerReply fault =
      FrameTcpError(service_, Status::OutOfRange("line too long"), "stdin");
  EXPECT_EQ(fault.data.rfind("error code=OUT_OF_RANGE id=", 0), 0u)
      << fault.data;
  EXPECT_NE(fault.data.find(" bytes=14\nline too long\n"), std::string::npos)
      << fault.data;
  EXPECT_TRUE(fault.close);
  EXPECT_EQ(service_.flight_recorder().recorded(), before + 1);
  // The record names the transport that saw the fault.
  const std::vector<FlightRecord> recent = service_.flight_recorder().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_STREQ(recent[0].transport, "stdin");
  EXPECT_STREQ(recent[0].status, "OUT_OF_RANGE");
}

TEST_F(ServeDispatchTest, RecentControlWordListsFlightRecords) {
  ServeOutcome mined = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(mined.response.status.ok());

  ServeOutcome recent = DispatchServeLine(service_, "recent");
  ASSERT_EQ(recent.kind, ServeOutcome::Kind::kDebug);
  EXPECT_TRUE(recent.debug_status.ok()) << recent.debug_status.ToString();
  EXPECT_EQ(recent.debug_word, "recent");
  EXPECT_NE(recent.debug_text.find("\"requests\":["), std::string::npos)
      << recent.debug_text;
  EXPECT_NE(recent.debug_text.find(
                "\"id\":" + std::to_string(mined.request_id)),
            std::string::npos)
      << recent.debug_text;
  EXPECT_EQ(recent.debug_text.back(), '\n');

  // recent with a count, and the error paths of the argument grammar.
  EXPECT_TRUE(DispatchServeLine(service_, "recent 1").debug_status.ok());
  EXPECT_FALSE(DispatchServeLine(service_, "recent 0").debug_status.ok());
  EXPECT_FALSE(DispatchServeLine(service_, "recent x").debug_status.ok());
  // n is decimal digits only: no sign, no second space, and a negative
  // is a usage error, never a wrapped count checked against capacity.
  for (const char* malformed : {"recent +1", "recent  1", "recent  -1"}) {
    ServeOutcome bad = DispatchServeLine(service_, malformed);
    EXPECT_EQ(bad.debug_status.code(), StatusCode::kInvalidArgument)
        << malformed;
    EXPECT_EQ(bad.debug_status.message().rfind("usage: recent", 0), 0u)
        << malformed << ": " << bad.debug_status.message();
  }
  // At the capacity bound is fine; past it is a rejection that names
  // the bound, never a silently clamped listing — hostile counts (the
  // uint64 edge, absurd magnitudes) get the same well-formed error.
  const size_t capacity = service_.flight_recorder().capacity();
  EXPECT_TRUE(DispatchServeLine(service_, "recent " +
                                              std::to_string(capacity))
                  .debug_status.ok());
  for (const std::string& hostile :
       {std::to_string(capacity + 1), std::string("999999999"),
        std::string("18446744073709551615")}) {
    ServeOutcome over = DispatchServeLine(service_, "recent " + hostile);
    EXPECT_EQ(over.debug_status.code(), StatusCode::kInvalidArgument)
        << hostile;
    EXPECT_NE(over.debug_status.message().find(std::to_string(capacity)),
              std::string::npos)
        << over.debug_status.message();
  }
  // Control words do not count as requests or land in the recorder.
  const int64_t recorded = service_.flight_recorder().recorded();
  DispatchServeLine(service_, "recent");
  EXPECT_EQ(service_.flight_recorder().recorded(), recorded);
}

TEST_F(ServeDispatchTest, TraceControlWordRoundTripsAllPhases) {
  ServeOutcome mined = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(mined.response.status.ok());

  ServeOutcome trace = DispatchServeLine(
      service_, "trace " + std::to_string(mined.request_id));
  ASSERT_EQ(trace.kind, ServeOutcome::Kind::kDebug);
  ASSERT_TRUE(trace.debug_status.ok()) << trace.debug_status.ToString();
  EXPECT_EQ(trace.debug_word, "trace");
  // The record carries the full identity and all 7 phase timings.
  EXPECT_NE(trace.debug_text.find(
                "\"id\":" + std::to_string(mined.request_id)),
            std::string::npos)
      << trace.debug_text;
  for (const char* key :
       {"\"transport\":", "\"dataset\":", "\"fingerprint\":", "\"source\":",
        "\"status\":\"OK\"", "\"total_ms\":", "\"parse\":",
        "\"cache_lookup\":", "\"registry\":", "\"pool_mine\":",
        "\"stitch\":", "\"fusion\":", "\"serialize\":",
        "\"admission_wait_ms\":", "\"arena_peak_bytes\":"}) {
    EXPECT_NE(trace.debug_text.find(key), std::string::npos)
        << key << " missing in: " << trace.debug_text;
  }

  // Unknown ids are a NotFound on the control word, not a dead session.
  ServeOutcome missing = DispatchServeLine(service_, "trace 99999999");
  EXPECT_EQ(missing.kind, ServeOutcome::Kind::kDebug);
  EXPECT_EQ(missing.debug_status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(DispatchServeLine(service_, "trace").debug_status.ok());
  EXPECT_FALSE(DispatchServeLine(service_, "trace abc").debug_status.ok());
  // Ids are decimal digits only, so a sign is a usage error, not a
  // lookup of id 1 or of a wrapped negative.
  for (const char* malformed : {"trace +1", "trace  -2"}) {
    EXPECT_EQ(DispatchServeLine(service_, malformed).debug_status.code(),
              StatusCode::kInvalidArgument)
        << malformed;
  }
}

TEST_F(ServeDispatchTest, StatsLineCarriesSlowRequests) {
  const std::string line = FormatStatsLine(service_);
  EXPECT_NE(line.find(" slow_requests="), std::string::npos) << line;
}

TEST_F(ServeDispatchTest, FlightDropsSurfaceInStatsAndMetrics) {
  // An untouched service has dropped nothing, and says so everywhere.
  EXPECT_NE(FormatStatsLine(service_).find(" flight_dropped=0"),
            std::string::npos)
      << FormatStatsLine(service_);

  // Normal ring wrap is NOT a drop: dropped() only advances when a
  // writer collides with another writer a full ring behind.
  MiningServiceOptions options;
  options.flight_recorder_capacity = 1;  // rounded up to the floor of 2
  MiningService tiny(options);
  const size_t capacity = tiny.flight_recorder().capacity();
  for (size_t i = 0; i < capacity + 3; ++i) {
    DispatchServeLine(tiny, "--bogus");  // parse failures still record
  }
  EXPECT_EQ(tiny.flight_recorder().dropped(), 0);

  // Hammer the tiny ring from many threads to provoke real same-slot
  // collisions, then dispatch once more so RecordFlight republishes the
  // gauge. Whatever the recorder counted, every surface — the stats
  // field, the gauge and the `recent` header — must agree with it.
  for (int round = 0; round < 64 && tiny.flight_recorder().dropped() == 0;
       ++round) {
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
      writers.emplace_back([&tiny] {
        FlightRecord record{};
        for (int i = 0; i < 2000; ++i) {
          record.id = tiny.flight_recorder().MintId();
          tiny.flight_recorder().Record(record);
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
  }
  DispatchServeLine(tiny, "--bogus");
  const int64_t dropped = tiny.flight_recorder().dropped();
  EXPECT_NE(FormatStatsLine(tiny).find(
                " flight_dropped=" + std::to_string(dropped)),
            std::string::npos)
      << FormatStatsLine(tiny);
  EXPECT_EQ(Scrape(tiny.metrics(), "colossal_flight_dropped_total"),
            dropped);
  ServeOutcome recent = DispatchServeLine(tiny, "recent");
  EXPECT_NE(recent.debug_text.find("\"dropped\":" + std::to_string(dropped)),
            std::string::npos)
      << recent.debug_text;
}

TEST_F(ServeDispatchTest, ModeExtensionsFlowThroughTheDispatchPath) {
  // One request line, no transport-specific anything: top-k and
  // constraints parse, mine and cache through the same shared path.
  const std::string constrained =
      RequestLine() + " --top-k 3 --min-len 2 --exclude 0,1";
  ServeOutcome first = DispatchServeLine(service_, constrained);
  ASSERT_TRUE(first.response.status.ok())
      << first.response.status.ToString();
  ASSERT_TRUE(first.response.result);
  EXPECT_LE(first.response.result->patterns.size(), 3u);
  for (const Pattern& pattern : first.response.result->patterns) {
    EXPECT_GE(pattern.size(), 2);
    for (ItemId item : pattern.items) {
      EXPECT_NE(item, 0u);
      EXPECT_NE(item, 1u);
    }
  }

  // Equal constraints spelled differently (list order, vacuous k)
  // share one cache entry; the unconstrained line never does.
  ServeOutcome respelled = DispatchServeLine(
      service_, RequestLine() + " --exclude 1,0 --min-len 2 --top-k 3");
  EXPECT_EQ(respelled.response.source, ResponseSource::kCache);
  ServeOutcome plain = DispatchServeLine(service_, RequestLine());
  ASSERT_TRUE(plain.response.status.ok());
  EXPECT_NE(plain.response.source, ResponseSource::kCache);
}

TEST_F(ServeDispatchTest, DebugFramingOverTcp) {
  ASSERT_TRUE(DispatchServeLine(service_, RequestLine()).response.status.ok());
  ServerReply recent =
      FrameTcpReply(DispatchServeLine(service_, "recent 2"), true);
  EXPECT_EQ(recent.data.rfind("recent bytes=", 0), 0u) << recent.data;
  EXPECT_FALSE(recent.close);
  const size_t newline = recent.data.find('\n');
  EXPECT_EQ(std::stoull(recent.data.substr(13, newline - 13)),
            recent.data.size() - newline - 1);

  ServerReply bad = FrameTcpReply(DispatchServeLine(service_, "trace 0"),
                                  true);
  EXPECT_EQ(bad.data.rfind("error code=", 0), 0u) << bad.data;
  EXPECT_FALSE(bad.close);
}

// --- The HTTP routing layer over the same dispatch path ---------------------

HttpRequest MakeHttpRequest(const std::string& method,
                            const std::string& target,
                            const std::string& body = "",
                            const std::string& version = "HTTP/1.1") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  request.version = version;
  return request;
}

const std::string* ResponseHeader(const HttpResponse& response,
                                  const char* name) {
  for (const auto& [header, value] : response.headers) {
    if (header == name) return &value;
  }
  return nullptr;
}

TEST(HttpStatusFromStatusTest, MapsEveryStatusCode) {
  EXPECT_EQ(HttpStatusFromStatus(Status::Ok()), 200);
  EXPECT_EQ(HttpStatusFromStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::OutOfRange("x")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusFromStatus(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpStatusFromStatus(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpStatusFromStatus(Status::Internal("x")), 500);
}

TEST_F(ServeDispatchTest, HttpMinePayloadIsByteIdenticalToTcp) {
  HttpResponse response = HandleHttpRequest(
      service_, MakeHttpRequest("POST", "/mine", RequestLine() + "\n"),
      /*send_patterns=*/true);
  EXPECT_EQ(response.status, 200);
  const std::string* colossal = ResponseHeader(response,
                                               "X-Colossal-Response");
  ASSERT_NE(colossal, nullptr);
  EXPECT_EQ(colossal->rfind("ok source=", 0), 0u) << *colossal;

  // The HTTP body is exactly the counted payload of the TCP framing
  // for the same request — transports differ only in envelope.
  ServerReply tcp =
      FrameTcpReply(DispatchServeLine(service_, RequestLine()), true);
  const size_t newline = tcp.data.find('\n');
  ASSERT_NE(newline, std::string::npos);
  EXPECT_EQ(response.body, tcp.data.substr(newline + 1));
}

TEST_F(ServeDispatchTest, HttpRoutesControlWordsAndEndpoints) {
  // GET /metrics == the `metrics` control word's exposition text.
  HttpResponse metrics =
      HandleHttpRequest(service_, MakeHttpRequest("GET", "/metrics"), true);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("colossal_requests_total"), std::string::npos);

  HttpResponse stats =
      HandleHttpRequest(service_, MakeHttpRequest("GET", "/stats"), true);
  EXPECT_EQ(stats.status, 200);
  EXPECT_EQ(stats.body.rfind("stats cache_hits=", 0), 0u) << stats.body;

  HttpResponse health =
      HandleHttpRequest(service_, MakeHttpRequest("GET", "/healthz"), true);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // HEAD is accepted wherever GET is.
  EXPECT_EQ(HandleHttpRequest(service_, MakeHttpRequest("HEAD", "/metrics"),
                              true)
                .status,
            200);

  // `shutdown` through POST /mine keeps its serve semantics.
  HttpResponse shutdown = HandleHttpRequest(
      service_, MakeHttpRequest("POST", "/mine", "shutdown"), true);
  EXPECT_EQ(shutdown.status, 200);
  EXPECT_TRUE(shutdown.close);
  EXPECT_TRUE(shutdown.shutdown_server);
}

TEST_F(ServeDispatchTest, HttpDebugEndpointsServeFlightRecords) {
  HttpResponse mined = HandleHttpRequest(
      service_, MakeHttpRequest("POST", "/mine", RequestLine()), true);
  ASSERT_EQ(mined.status, 200);
  const std::string* id_header =
      ResponseHeader(mined, "X-Colossal-Request-Id");
  ASSERT_NE(id_header, nullptr);
  const uint64_t id = std::stoull(*id_header);
  EXPECT_GT(id, 0u);

  // The listing endpoint, bare and with ?n=K.
  HttpResponse recent = HandleHttpRequest(
      service_, MakeHttpRequest("GET", "/debug/requests"), true);
  EXPECT_EQ(recent.status, 200);
  const std::string* type = ResponseHeader(recent, "Content-Type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(*type, "application/json");
  EXPECT_NE(recent.body.find("\"requests\":["), std::string::npos)
      << recent.body;
  EXPECT_EQ(HandleHttpRequest(service_,
                              MakeHttpRequest("GET", "/debug/requests?n=1"),
                              true)
                .status,
            200);
  for (const char* query : {"?n=x", "?n=", "?n=+1"}) {
    EXPECT_EQ(HandleHttpRequest(
                  service_,
                  MakeHttpRequest("GET", std::string("/debug/requests") + query),
                  true)
                  .status,
              400)
        << query;
  }

  // The by-id endpoint round-trips the id the /mine reply surfaced.
  HttpResponse trace = HandleHttpRequest(
      service_,
      MakeHttpRequest("GET", "/debug/requests/" + std::to_string(id)), true);
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"id\":" + std::to_string(id)),
            std::string::npos)
      << trace.body;
  EXPECT_NE(trace.body.find("\"transport\":\"http\""), std::string::npos)
      << trace.body;

  // Unknown id → 404; non-numeric id → 400; wrong method → 405.
  EXPECT_EQ(HandleHttpRequest(
                service_,
                MakeHttpRequest("GET", "/debug/requests/99999999"), true)
                .status,
            404);
  EXPECT_EQ(HandleHttpRequest(
                service_, MakeHttpRequest("GET", "/debug/requests/abc"),
                true)
                .status,
            400);
  EXPECT_EQ(HandleHttpRequest(
                service_, MakeHttpRequest("POST", "/debug/requests"), true)
                .status,
            405);
}

TEST_F(ServeDispatchTest, HttpFaultsCarryRequestIds) {
  // Every 4xx/5xx the HTTP layer originates mints an id and lands in
  // the flight recorder, so faults are correlatable like requests.
  const int64_t before = service_.flight_recorder().recorded();
  HttpResponse not_found =
      HandleHttpRequest(service_, MakeHttpRequest("GET", "/nope"), true);
  EXPECT_EQ(not_found.status, 404);
  ASSERT_NE(ResponseHeader(not_found, "X-Colossal-Request-Id"), nullptr);
  EXPECT_EQ(service_.flight_recorder().recorded(), before + 1);

  // Dispatch-path errors (a bad request line) carry the id header too.
  HttpResponse bad = HandleHttpRequest(
      service_, MakeHttpRequest("POST", "/mine", "--nope 1"), true);
  EXPECT_EQ(bad.status, 400);
  ASSERT_NE(ResponseHeader(bad, "X-Colossal-Request-Id"), nullptr);
}

TEST_F(ServeDispatchTest, HttpErrorsMapToStatusCodes) {
  // Wrong method on /mine: 405 with Allow.
  HttpResponse wrong_method =
      HandleHttpRequest(service_, MakeHttpRequest("GET", "/mine"), true);
  EXPECT_EQ(wrong_method.status, 405);
  const std::string* allow = ResponseHeader(wrong_method, "Allow");
  ASSERT_NE(allow, nullptr);
  EXPECT_EQ(*allow, "POST");

  // Wrong method on /metrics: GET/HEAD only.
  EXPECT_EQ(HandleHttpRequest(service_, MakeHttpRequest("POST", "/metrics"),
                              true)
                .status,
            405);

  // Unknown target: 404 naming the endpoints.
  HttpResponse not_found =
      HandleHttpRequest(service_, MakeHttpRequest("GET", "/nope"), true);
  EXPECT_EQ(not_found.status, 404);
  EXPECT_NE(not_found.body.find("/mine"), std::string::npos);

  // Unsupported version: 505.
  EXPECT_EQ(HandleHttpRequest(
                service_, MakeHttpRequest("GET", "/healthz", "", "HTTP/2.0"),
                true)
                .status,
            505);

  // A bad request line maps through HttpStatusFromStatus with the
  // error code echoed in X-Colossal-Response.
  HttpResponse bad = HandleHttpRequest(
      service_, MakeHttpRequest("POST", "/mine", "--nope 1"), true);
  EXPECT_EQ(bad.status, 400);
  const std::string* header = ResponseHeader(bad, "X-Colossal-Response");
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->rfind("error code=INVALID_ARGUMENT", 0), 0u) << *header;

  // An embedded newline cannot smuggle a second request line.
  EXPECT_EQ(HandleHttpRequest(
                service_,
                MakeHttpRequest("POST", "/mine", "stats\nshutdown"), true)
                .status,
            400);

  // An empty body is the kEmpty outcome: 400, not a mine.
  EXPECT_EQ(
      HandleHttpRequest(service_, MakeHttpRequest("POST", "/mine", "\n"),
                        true)
          .status,
      400);
}

// --- Batch replay ------------------------------------------------------------

TEST_F(ServeDispatchTest, BatchAlignsResponsesAndDeduplicates) {
  const std::vector<ServeOutcome> outcomes = DispatchBatch(
      service_, {RequestLine(), RequestLine(10), RequestLine(), RequestLine()},
      /*threads=*/1);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const ServeOutcome& outcome : outcomes) {
    ASSERT_EQ(outcome.kind, ServeOutcome::Kind::kResponse);
    ASSERT_TRUE(outcome.response.status.ok())
        << outcome.response.status.ToString();
  }
  EXPECT_EQ(outcomes[0].response.source, ResponseSource::kMined);
  EXPECT_EQ(outcomes[1].response.source, ResponseSource::kMined);
  EXPECT_EQ(outcomes[2].response.source, ResponseSource::kCache);
  EXPECT_EQ(outcomes[3].response.source, ResponseSource::kCache);
  EXPECT_EQ(outcomes[0].response.result.get(),
            outcomes[2].response.result.get());
  EXPECT_EQ(outcomes[0].response.result.get(),
            outcomes[3].response.result.get());
  EXPECT_NE(outcomes[0].response.options_hash,
            outcomes[1].response.options_hash);
}

TEST_F(ServeDispatchTest, BatchDedupIsThreadCountInvariant) {
  // However 8 workers interleave, each distinct cache key mines once:
  // the other lines of its group are served from the cache or by
  // waiting on the identical mine in flight, and share its result.
  char sigma[32];
  std::snprintf(sigma, sizeof(sigma), "%.17g",
                8.0 / static_cast<double>(rows_));
  const std::string sigma_equivalent =
      "--in " + *path_ + " --sigma " + sigma + " --k 20 --pool-size 2";
  const std::vector<ServeOutcome> outcomes =
      DispatchBatch(service_,
                    {RequestLine(), RequestLine(10), sigma_equivalent,
                     RequestLine(), RequestLine(), RequestLine(10)},
                    /*threads=*/8);
  ASSERT_EQ(outcomes.size(), 6u);
  for (const ServeOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.response.status.ok())
        << outcome.response.status.ToString();
  }
  EXPECT_EQ(Scrape(service_.metrics(), "colossal_responses_mined_total"), 2);
  for (const std::vector<size_t>& group :
       {std::vector<size_t>{0, 2, 3, 4}, std::vector<size_t>{1, 5}}) {
    int mined = 0;
    for (size_t i : group) {
      const MiningResponse& response = outcomes[i].response;
      EXPECT_EQ(response.result.get(),
                outcomes[group[0]].response.result.get())
          << i;
      if (response.source == ResponseSource::kMined) {
        ++mined;
      } else {
        EXPECT_TRUE(response.source == ResponseSource::kCache ||
                    response.source == ResponseSource::kCoalesced)
            << i << ": " << ResponseSourceName(response.source);
      }
    }
    EXPECT_EQ(mined, 1);
  }
}

TEST_F(ServeDispatchTest, FailuresArePerRequest) {
  const std::string bad = "--in " + ::testing::TempDir() +
                          "/does_not_exist.fimi --min-support 8 --k 20";
  const std::vector<ServeOutcome> outcomes =
      DispatchBatch(service_, {bad, RequestLine()}, /*threads=*/1);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].response.status.ok());
  EXPECT_EQ(outcomes[0].response.source, ResponseSource::kFailed);
  EXPECT_EQ(outcomes[0].response.result, nullptr);
  EXPECT_TRUE(outcomes[1].response.status.ok());
}

TEST_F(ServeDispatchTest, BatchFlightRecordsCarryIdsAndPayloadBytes) {
  const std::string missing =
      "--in " + ::testing::TempDir() + "/no_such_file.fimi --min-support 8";
  const std::vector<ServeOutcome> outcomes = DispatchBatch(
      service_, {RequestLine(), RequestLine(), missing}, /*threads=*/1);
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[0].response.status.ok());
  ASSERT_FALSE(outcomes[2].response.status.ok());
  for (const ServeOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.request_id, 0u);
    FlightRecord record;
    ASSERT_TRUE(service_.flight_recorder().Find(outcome.request_id, &record));
    EXPECT_STREQ(record.transport, "batch");
    EXPECT_STREQ(record.source, ResponseSourceName(outcome.response.source));
    const size_t payload_bytes =
        outcome.response.status.ok()
            ? outcome.patterns_payload.size()
            : outcome.response.status.message().size() + 1;
    EXPECT_EQ(record.response_bytes, static_cast<int64_t>(payload_bytes));
    if (outcome.response.status.ok()) {
      EXPECT_GT(payload_bytes, 0u);
      EXPECT_GT(
          record.phase_nanos[static_cast<int>(TracePhase::kSerialize)], 0);
    }
  }
  EXPECT_LT(outcomes[0].request_id, outcomes[1].request_id);
  EXPECT_LT(outcomes[1].request_id, outcomes[2].request_id);
}

// --- Error payload cap -------------------------------------------------------

TEST_F(ServeDispatchTest, ErrorMessagesAreCappedOnEveryTransport) {
  // Each line makes an error message that quotes ~1 MiB of request
  // text: junk where a flag belongs, and a huge --k value.
  const std::string junk(size_t{1} << 20, 'x');
  const std::string long_k = "--in " + *path_ +
                             " --min-support 8 --pool-size 2 --k " +
                             std::string(1000000, '9');
  for (const std::string& line : {junk, long_k}) {
    const ServeOutcome outcome = DispatchServeLine(service_, line, "tcp");
    ASSERT_EQ(outcome.response.status.code(), StatusCode::kInvalidArgument);
    const std::string& message = outcome.response.status.message();
    EXPECT_LE(message.size(), 1024u + 64u);
    EXPECT_NE(message.find("... (truncated from "), std::string::npos)
        << message.substr(0, 80);

    // TCP: the counted payload is the capped message, and the flight
    // record counts exactly those bytes.
    const ServerReply tcp = FrameTcpReply(outcome, /*send_patterns=*/true);
    const size_t newline = tcp.data.find('\n');
    ASSERT_NE(newline, std::string::npos);
    EXPECT_EQ(tcp.data.substr(newline + 1), message + "\n");
    const size_t bytes_pos = tcp.data.rfind(" bytes=", newline);
    ASSERT_NE(bytes_pos, std::string::npos);
    EXPECT_EQ(std::stoull(tcp.data.substr(bytes_pos + 7)),
              message.size() + 1);
    FlightRecord record;
    ASSERT_TRUE(service_.flight_recorder().Find(outcome.request_id, &record));
    EXPECT_EQ(record.response_bytes,
              static_cast<int64_t>(message.size()) + 1);

    // HTTP: the same capped message as the 400 body.
    const HttpResponse http = HandleHttpRequest(
        service_, MakeHttpRequest("POST", "/mine", line), true);
    EXPECT_EQ(http.status, 400);
    EXPECT_EQ(http.body, message + "\n");
  }
  // The junk line's message names its original length.
  EXPECT_NE(DispatchServeLine(service_, junk)
                .response.status.message()
                .find("(truncated from " +
                      std::to_string(junk.size() + 23) + " bytes)"),
            std::string::npos);
}

}  // namespace
}  // namespace colossal
