// colossal_loadgen — concurrent load generator for colossal_serve's TCP
// mode, the client half of the observability story: the server exports
// its latency histograms through `metrics`, this tool measures the same
// requests from the wire side, so the two views can be compared.
//
// usage: colossal_loadgen --port N [--host H] --requests FILE
//            [--connections N] [--repeat N] [--warmup N] [--out FILE]
//            [--http] [--out-dir DIR]
//
// Opens --connections independent TCP connections to a
// `colossal_serve listen` server. Each connection replays the request
// file (same format as `colossal_serve batch`) --warmup times untimed,
// then — after every connection finishes warmup, so the timed window
// has full concurrency from its first request — --repeat times timed.
// Every timed request's wire latency (send to last payload byte) is
// recorded into a per-connection obs Histogram in nanoseconds; the
// per-connection histograms merge losslessly (fixed buckets) into the
// report.
//
// With --http, --port is the server's --http-port and each request is
// a keep-alive `POST /mine` whose body is the request line; a request
// counts as failed when the response status is not 200. The response
// body carries the same payload bytes as the TCP framing, so the two
// modes are load-equivalent.
//
// With --out-dir (which needs --connections 1), the payload of each
// successful request of the first timed pass is written to
// DIR/response_<i>.txt, i being the request's 1-based position in the
// file — the naming `colossal_serve batch --out-dir` uses, so CI can
// `cmp` a replay over the wire against local batch mode. The writes
// happen outside each request's latency but inside wall_seconds.
//
// The report is one JSON object on stdout (and in --out FILE when
// given):
//
//   {"tool": "colossal_loadgen", "mode": "tcp"|"http",
//    "connections": C, "repeat": R,
//    "warmup": W, "requests_per_pass": P, "requests_sent": C*R*P,
//    "warmup_requests": C*W*P, "requests_failed": F,
//    "wall_seconds": S, "qps": C*R*P/S,
//    "latency_ms": {"p50": ..., "p95": ..., "p99": ...,
//                   "mean": ..., "max": ...},
//    "slowest_request_id": N,
//    "sources": {"mined": ..., "cache": ..., "coalesced": ...},
//    "host": {"nproc": N, "simd": "...", "cpu": "..."}}
//
// slowest_request_id is the server-minted request id (the header's id=
// token / the X-Colossal-Request-Id header) of the request that
// produced latency_ms.max — feed it to `trace <id>` or GET
// /debug/requests/<id> on the server to see that request's phase
// breakdown. 0 when the server predates request ids. The host object
// records the client machine (core count, active SIMD backend, CPU
// model) so saved reports are comparable across machines.
//
// requests_sent counts only timed requests — with --warmup 0 it is
// exactly the number of request lines the server saw, which is what the
// CI metrics-smoke job asserts against colossal_requests_total.
// Exit status is nonzero if any request failed or any connection broke;
// when that happens the report also carries a "first_failure" object
// ({"request": <the request line>, "status": <server status line or
// transport error>}) so the failing request is identifiable from the
// JSON alone, not just from interleaved stderr.

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/bitvector_kernels.h"
#include "common/status.h"
#include "net/socket_io.h"
#include "obs/metrics.h"
#include "service/dispatch.h"

namespace colossal {
namespace {

constexpr const char kUsage[] =
    "usage: colossal_loadgen --port N [--host H] --requests FILE\n"
    "           [--connections N] [--repeat N] [--warmup N] [--out FILE]\n"
    "           [--http] [--out-dir DIR]\n"
    "replays a request file over N concurrent connections against a\n"
    "'colossal_serve listen' server and reports QPS and client-side\n"
    "latency percentiles as JSON; --http sends each request line as a\n"
    "keep-alive POST /mine against the server's --http-port instead of\n"
    "the newline framing; --out-dir (with --connections 1) writes each\n"
    "response payload of the first timed pass to DIR/response_<i>.txt\n"
    "(see the header of tools/colossal_loadgen.cc for details)\n";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Everything one connection's worker accumulates. The histogram records
// wire latencies in nanoseconds; failures include protocol breaks (the
// connection stops at the first one — error holds its Status).
struct ConnectionResult {
  Histogram latency_ns;
  int64_t max_latency_ns = 0;
  uint64_t max_latency_request_id = 0;  // server id of the slowest request
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t source_mined = 0;
  int64_t source_cache = 0;
  int64_t source_coalesced = 0;
  Status error = Status::Ok();
  // First request this connection saw fail (server-reported error or
  // transport break), for the report's "first_failure" object.
  std::string first_fail_request;
  std::string first_fail_status;
};

// One parsed HTTP response off the keep-alive connection. `status_line`
// keeps the server's exact wording for failure reports.
struct HttpReply {
  int status = 0;
  std::string status_line;
  std::string colossal_header;  // X-Colossal-Response value (may be "")
  uint64_t request_id = 0;      // X-Colossal-Request-Id value (0 if absent)
  std::string body;
};

// Reads status line + headers + exactly-Content-Length body. Headers
// the report needs are picked out here; everything else is skipped.
StatusOr<HttpReply> ReadHttpReply(SocketReader& reader) {
  HttpReply reply;
  StatusOr<std::string> status_line = reader.ReadLine();
  if (!status_line.ok()) return status_line.status();
  if (!status_line->empty() && status_line->back() == '\r') {
    status_line->pop_back();
  }
  reply.status_line = *status_line;
  // "HTTP/1.1 200 OK" — the code is the second token.
  const size_t space = status_line->find(' ');
  if (space == std::string::npos ||
      status_line->compare(0, 5, "HTTP/") != 0) {
    return Status::Internal("malformed HTTP status line: " + *status_line);
  }
  reply.status = std::atoi(status_line->c_str() + space + 1);
  int64_t content_length = 0;
  while (true) {
    StatusOr<std::string> line = reader.ReadLine();
    if (!line.ok()) return line.status();
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (line->empty()) break;
    const size_t colon = line->find(':');
    if (colon == std::string::npos) continue;
    std::string name = line->substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    size_t value_begin = colon + 1;
    while (value_begin < line->size() && (*line)[value_begin] == ' ') {
      ++value_begin;
    }
    if (name == "content-length") {
      content_length = std::atoll(line->c_str() + value_begin);
    } else if (name == "x-colossal-response") {
      reply.colossal_header = line->substr(value_begin);
    } else if (name == "x-colossal-request-id") {
      reply.request_id = std::strtoull(line->c_str() + value_begin,
                                       nullptr, 10);
    }
  }
  if (content_length > 0) {
    StatusOr<std::string> body =
        reader.ReadExact(static_cast<size_t>(content_length));
    if (!body.ok()) return body.status();
    reply.body = *std::move(body);
  }
  return reply;
}

// Writes the payload of request `index` (0-based) as
// DIR/response_<index + 1>.txt, zero-padded like batch mode's files.
Status WriteResponseFile(const std::string& dir, size_t index,
                         const std::string& payload) {
  char name[48];
  std::snprintf(name, sizeof(name), "/response_%04zu.txt", index + 1);
  std::ofstream file(dir + name, std::ios::binary);
  file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!file) return Status::Internal("cannot write " + dir + name);
  return Status::Ok();
}

// One connection's replay loop: warmup passes untimed, then wait on the
// start latch, then timed passes. A non-empty `out_dir` receives the
// first timed pass's payloads.
void RunConnection(const std::string& host, int port, bool http,
                   const std::vector<std::string>& lines, int warmup,
                   int repeat, const std::string& out_dir, std::latch* start,
                   ConnectionResult* result) {
  StatusOr<int> dial = DialTcp(host, port);
  if (!dial.ok()) {
    result->error = dial.status();
    start->count_down();
    return;
  }
  const int fd = *dial;
  SocketReader reader(fd);

  auto note_failure = [&](const std::string& line,
                          const std::string& status) {
    if (result->first_fail_request.empty()) {
      result->first_fail_request = line;
      result->first_fail_status = status;
    }
  };

  auto tally_source = [&](const std::string& source) {
    if (source == "mined") {
      ++result->source_mined;
    } else if (source == "cache") {
      ++result->source_cache;
    } else if (source == "coalesced") {
      ++result->source_coalesced;
    }
  };

  // Sends one line and reads its reply; a successful reply's payload
  // lands in *payload_out when one is given. False when the connection
  // broke.
  auto one_request = [&](const std::string& line, bool timed,
                         std::optional<std::string>* payload_out) {
    const auto begin = std::chrono::steady_clock::now();
    bool request_ok = false;
    std::string status_text;
    std::string source;
    std::string payload;
    uint64_t request_id = 0;
    if (http) {
      std::string request = "POST /mine HTTP/1.1\r\nHost: " + host +
                            "\r\nContent-Length: " +
                            std::to_string(line.size()) + "\r\n\r\n" + line;
      Status sent = WriteAll(fd, request);
      StatusOr<HttpReply> reply =
          sent.ok() ? ReadHttpReply(reader) : StatusOr<HttpReply>(sent);
      if (!reply.ok()) {
        result->error = reply.status();
        note_failure(line, reply.status().ToString());
        return false;
      }
      request_ok = reply->status == 200;
      status_text = reply->status_line;
      request_id = reply->request_id;
      payload = std::move(reply->body);
      // "ok source=mined patterns=..." rides in X-Colossal-Response.
      const size_t at = reply->colossal_header.find("source=");
      if (at != std::string::npos) {
        const size_t end = reply->colossal_header.find(' ', at);
        source = reply->colossal_header.substr(
            at + 7, end == std::string::npos ? std::string::npos
                                             : end - (at + 7));
      }
    } else {
      Status sent = WriteAll(fd, line + "\n");
      StatusOr<TcpFrame> frame =
          sent.ok() ? ReadTcpFrame(reader) : StatusOr<TcpFrame>(sent);
      if (!frame.ok()) {
        result->error = frame.status();
        note_failure(line, frame.status().ToString());
        return false;
      }
      request_ok = frame->ok;
      status_text = frame->header;
      request_id = frame->request_id;
      payload = std::move(frame->payload);
      source = frame->source;
    }
    if (request_ok && payload_out != nullptr) {
      *payload_out = std::move(payload);
    }
    if (!timed) {
      if (!request_ok) note_failure(line, status_text);
      return true;
    }
    const int64_t nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count();
    result->latency_ns.Record(nanos);
    if (nanos > result->max_latency_ns) {
      result->max_latency_ns = nanos;
      result->max_latency_request_id = request_id;
    }
    ++result->sent;
    if (!request_ok) {
      ++result->failed;
      note_failure(line, status_text);
      std::fprintf(stderr, "request failed: %s\n%s", status_text.c_str(),
                   payload.c_str());
    } else {
      tally_source(source);
    }
    return true;
  };

  bool alive = true;
  for (int pass = 0; alive && pass < warmup; ++pass) {
    for (const std::string& line : lines) {
      if (!(alive = one_request(line, /*timed=*/false, nullptr))) break;
    }
  }
  // Arrive even after a warmup failure: the latch must release the
  // other connections either way.
  start->arrive_and_wait();
  for (int pass = 0; alive && pass < repeat; ++pass) {
    const bool save = pass == 0 && !out_dir.empty();
    for (size_t i = 0; alive && i < lines.size(); ++i) {
      std::optional<std::string> payload;
      alive = one_request(lines[i], /*timed=*/true, save ? &payload : nullptr);
      if (!payload) continue;  // not saving, or the request failed
      Status written = WriteResponseFile(out_dir, i, *payload);
      if (!written.ok()) {
        result->error = written;
        alive = false;
      }
    }
  }
  ::close(fd);
}

void AppendJsonDouble(std::string* out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  out->append(buffer);
}

// The CPU model of this machine, from /proc/cpuinfo's first
// "model name" line; "unknown" when unreadable (non-Linux, containers
// with a masked procfs).
std::string CpuModelName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    if (begin < line.size()) return line.substr(begin);
  }
  return "unknown";
}

// Minimal JSON string escaping for the first_failure fields (request
// lines and status lines are plain text, but a hostile request file
// could hold anything).
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

int Main(int argc, char** argv) {
  StatusOr<Args> parsed = Args::Parse(argc, argv, 1, {"http"});
  if (!parsed.ok()) return Fail(parsed.status());
  const Args& args = *parsed;
  if (args.HelpRequested()) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  Status known =
      args.CheckKnown({"port", "host", "requests", "connections", "repeat",
                       "warmup", "out", "http", "out-dir"});
  if (!known.ok()) return Fail(known);
  const bool http = args.Has("http");

  StatusOr<int64_t> port = args.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  StatusOr<int64_t> connections = args.GetInt("connections", 4);
  if (!connections.ok()) return Fail(connections.status());
  StatusOr<int64_t> repeat = args.GetInt("repeat", 1);
  if (!repeat.ok()) return Fail(repeat.status());
  StatusOr<int64_t> warmup = args.GetInt("warmup", 0);
  if (!warmup.ok()) return Fail(warmup.status());
  const std::string host = args.GetString("host", "127.0.0.1");
  const std::string requests_path = args.GetString("requests");
  const std::string out_path = args.GetString("out");
  const std::string out_dir = args.GetString("out-dir");

  if (*port < 1 || *port > 65535 || requests_path.empty() ||
      *connections < 1 || *connections > 1024 || *repeat < 1 ||
      *warmup < 0 || (!out_dir.empty() && *connections != 1)) {
    return Fail(Status::InvalidArgument(
        "need --port in [1, 65535], --requests FILE, --connections in "
        "[1, 1024] (1 with --out-dir), --repeat >= 1, --warmup >= 0"));
  }

  StatusOr<std::vector<RequestFileLine>> from_file =
      ReadRequestFile(requests_path);
  if (!from_file.ok()) return Fail(from_file.status());
  std::vector<std::string> lines;
  lines.reserve(from_file->size());
  for (RequestFileLine& line : *from_file) {
    lines.push_back(std::move(line.text));
  }

  const int num_connections = static_cast<int>(*connections);
  std::vector<ConnectionResult> results(num_connections);
  std::latch start(num_connections);
  std::vector<std::thread> workers;
  workers.reserve(num_connections);
  // The wall clock starts when the workers are launched and warmup is
  // amortized out by the latch: connections that finish warmup early
  // wait, so the timed region overlaps fully. The clock read here is a
  // slight over-estimate (it includes warmup when warmup > 0); with
  // --warmup 0 — how CI runs it — it is the timed region exactly.
  const auto wall_begin = std::chrono::steady_clock::now();
  for (int i = 0; i < num_connections; ++i) {
    workers.emplace_back(RunConnection, host, static_cast<int>(*port), http,
                         std::cref(lines), static_cast<int>(*warmup),
                         static_cast<int>(*repeat), std::cref(out_dir),
                         &start, &results[i]);
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall_begin)
          .count();

  Histogram merged;
  int64_t max_latency_ns = 0;
  uint64_t slowest_request_id = 0;
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t mined = 0;
  int64_t cache = 0;
  int64_t coalesced = 0;
  int broken_connections = 0;
  const std::string* first_fail_request = nullptr;
  const std::string* first_fail_status = nullptr;
  for (const ConnectionResult& result : results) {
    if (first_fail_request == nullptr && !result.first_fail_request.empty()) {
      first_fail_request = &result.first_fail_request;
      first_fail_status = &result.first_fail_status;
    }
    merged.MergeFrom(result.latency_ns);
    if (result.max_latency_ns > max_latency_ns) {
      max_latency_ns = result.max_latency_ns;
      slowest_request_id = result.max_latency_request_id;
    }
    sent += result.sent;
    failed += result.failed;
    mined += result.source_mined;
    cache += result.source_cache;
    coalesced += result.source_coalesced;
    if (!result.error.ok()) {
      ++broken_connections;
      std::fprintf(stderr, "connection error: %s\n",
                   result.error.ToString().c_str());
    }
  }

  const int64_t count = merged.TotalCount();
  const double mean_ms =
      count > 0 ? static_cast<double>(merged.sum()) / count / 1e6 : 0.0;
  std::string json = "{\"tool\": \"colossal_loadgen\"";
  json += ", \"mode\": \"";
  json += http ? "http" : "tcp";
  json += "\"";
  json += ", \"connections\": " + std::to_string(num_connections);
  json += ", \"repeat\": " + std::to_string(*repeat);
  json += ", \"warmup\": " + std::to_string(*warmup);
  json += ", \"requests_per_pass\": " + std::to_string(lines.size());
  json += ", \"requests_sent\": " + std::to_string(sent);
  json += ", \"warmup_requests\": " +
          std::to_string(*warmup * num_connections *
                         static_cast<int64_t>(lines.size()));
  json += ", \"requests_failed\": " + std::to_string(failed);
  json += ", \"wall_seconds\": ";
  AppendJsonDouble(&json, wall_seconds);
  json += ", \"qps\": ";
  AppendJsonDouble(&json,
                   wall_seconds > 0 ? static_cast<double>(sent) / wall_seconds
                                    : 0.0);
  json += ", \"latency_ms\": {\"p50\": ";
  AppendJsonDouble(&json,
                   static_cast<double>(merged.ValueAtPercentile(0.50)) / 1e6);
  json += ", \"p95\": ";
  AppendJsonDouble(&json,
                   static_cast<double>(merged.ValueAtPercentile(0.95)) / 1e6);
  json += ", \"p99\": ";
  AppendJsonDouble(&json,
                   static_cast<double>(merged.ValueAtPercentile(0.99)) / 1e6);
  json += ", \"mean\": ";
  AppendJsonDouble(&json, mean_ms);
  json += ", \"max\": ";
  AppendJsonDouble(&json, static_cast<double>(max_latency_ns) / 1e6);
  json += "}, \"slowest_request_id\": " + std::to_string(slowest_request_id);
  json += ", \"sources\": {\"mined\": " + std::to_string(mined);
  json += ", \"cache\": " + std::to_string(cache);
  json += ", \"coalesced\": " + std::to_string(coalesced);
  json += "}, \"host\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += ", \"simd\": ";
  AppendJsonString(&json, ActiveBitvectorKernels().name);
  json += ", \"cpu\": ";
  AppendJsonString(&json, CpuModelName());
  json += "}";
  if (first_fail_request != nullptr) {
    json += ", \"first_failure\": {\"request\": ";
    AppendJsonString(&json, *first_fail_request);
    json += ", \"status\": ";
    AppendJsonString(&json, *first_fail_status);
    json += "}";
  }
  json += "}\n";

  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      return Fail(Status::NotFound("cannot open for writing: " + out_path));
    }
    std::fputs(json.c_str(), out);
    std::fclose(out);
  }
  return (failed == 0 && broken_connections == 0) ? 0 : 1;
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
