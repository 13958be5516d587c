// perfbench_client — the benchmark's closed-loop load client.
//
// usage: perfbench_client --port N [--http] --requests FILE --seconds S
//            [--min-requests M] --payload-dir DIR [--host H]
//
// Opens one connection to a `colossal_serve listen` server (the counted
// TCP framing, or keep-alive `POST /mine` with --http), starts the clock,
// and sends each request only after the previous reply arrived (closed
// loop), walking the request file from its first line and wrapping
// around, until S seconds have passed and at least M requests have
// completed. A request in flight at the deadline completes and counts;
// the window ends at the last completion.
//
// Unlike colossal_loadgen it is bounded by time rather than by a request
// count, keeps every latency exactly (no histogram buckets), and keeps
// the served payloads: the first payload served for each request line is
// written to DIR/line_<i>.txt (after the window, so the clock never sees
// disk I/O), and every later payload for that line must equal it byte
// for byte. The report is one JSON object on stdout:
//
//   {"attempted": N, "failed": F, "mismatched": M, "window_s": W,
//    "latency_ms": {"p50": ..., "p90": ...},
//    "sources": {"mined": ..., "cache": ..., "coalesced": ...},
//    "served_lines": [i, ...], "first_failure": "..."}
//
// Exit status is nonzero when the connection broke; failed and
// mismatched requests are reported, and run.py decides.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/status.h"
#include "net/socket_io.h"
#include "service/dispatch.h"

namespace colossal {
namespace {

using Clock = std::chrono::steady_clock;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct Reply {
  bool ok = false;
  std::string source;
  std::string status;
  std::string payload;
};

// Reads one HTTP/1.1 response (status line, headers, Content-Length
// body) off a keep-alive connection.
StatusOr<Reply> ReadHttpReply(SocketReader& reader) {
  StatusOr<std::string> status_line = reader.ReadLine();
  if (!status_line.ok()) return status_line.status();
  if (!status_line->empty() && status_line->back() == '\r') {
    status_line->pop_back();
  }
  const size_t space = status_line->find(' ');
  if (space == std::string::npos || status_line->rfind("HTTP/", 0) != 0) {
    return Status::Internal("malformed HTTP status line: " + *status_line);
  }
  Reply reply;
  reply.status = *status_line;
  reply.ok = std::atoi(status_line->c_str() + space + 1) == 200;
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
    size_t value = colon + 1;
    while (value < line->size() && (*line)[value] == ' ') ++value;
    if (name == "content-length") {
      content_length = std::atoll(line->c_str() + value);
    } else if (name == "x-colossal-response") {
      const size_t at = line->find("source=", value);
      if (at != std::string::npos) {
        const size_t end = line->find(' ', at);
        reply.source = line->substr(
            at + 7, end == std::string::npos ? std::string::npos : end - at - 7);
      }
    }
  }
  if (content_length > 0) {
    StatusOr<std::string> body =
        reader.ReadExact(static_cast<size_t>(content_length));
    if (!body.ok()) return body.status();
    reply.payload = *std::move(body);
  }
  return reply;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (static_cast<double>(rank) < p * static_cast<double>(sorted.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  StatusOr<Args> parsed = Args::Parse(argc, argv, 1, {"http"});
  if (!parsed.ok()) return Fail(parsed.status());
  const Args& args = *parsed;
  Status known = args.CheckKnown({"port", "host", "http", "requests",
                                  "seconds", "min-requests", "payload-dir"});
  if (!known.ok()) return Fail(known);
  StatusOr<int64_t> port = args.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  StatusOr<double> seconds = args.GetDouble("seconds", 10.0);
  if (!seconds.ok()) return Fail(seconds.status());
  StatusOr<int64_t> min_requests = args.GetInt("min-requests", 0);
  if (!min_requests.ok()) return Fail(min_requests.status());
  const std::string host = args.GetString("host", "127.0.0.1");
  const std::string payload_dir = args.GetString("payload-dir");
  if (*port < 1 || *port > 65535 || *seconds <= 0 || *min_requests < 0 ||
      payload_dir.empty()) {
    return Fail(Status::InvalidArgument(
        "need --port in [1, 65535], --seconds > 0, --min-requests >= 0, "
        "--payload-dir DIR"));
  }
  StatusOr<std::vector<RequestFileLine>> file =
      ReadRequestFile(args.GetString("requests"));
  if (!file.ok()) return Fail(file.status());
  const bool http = args.Has("http");
  // Each request line framed for the wire up front, so the loop spends
  // no time building messages.
  std::vector<std::string> requests;
  for (const RequestFileLine& line : *file) {
    requests.push_back(http ? "POST /mine HTTP/1.1\r\nHost: " + host +
                                  "\r\nContent-Length: " +
                                  std::to_string(line.text.size()) +
                                  "\r\n\r\n" + line.text
                            : line.text + "\n");
  }
  StatusOr<int> dial = DialTcp(host, static_cast<int>(*port));
  if (!dial.ok()) return Fail(dial.status());
  const int fd = *dial;
  SocketReader reader(fd);

  std::vector<int64_t> nanos;  // wire latency of each completed request
  int64_t failed = 0, mined = 0, cache = 0, coalesced = 0, mismatched = 0;
  // The first payload served for each line; later ones must equal it.
  std::map<int, std::string> payloads;
  std::string first_failure;
  bool broken = false;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(*seconds));
  Clock::time_point end = start;
  for (size_t j = 0; Clock::now() < deadline ||
                     static_cast<int64_t>(nanos.size()) < *min_requests;
       ++j) {
    const int index = static_cast<int>(j % requests.size());
    const Clock::time_point begin = Clock::now();
    StatusOr<Reply> reply = [&]() -> StatusOr<Reply> {
      Status sent = WriteAll(fd, requests[static_cast<size_t>(index)]);
      if (!sent.ok()) return sent;
      if (http) return ReadHttpReply(reader);
      StatusOr<TcpFrame> frame = ReadTcpFrame(reader);
      if (!frame.ok()) return frame.status();
      return Reply{frame->ok, frame->source, frame->header,
                   std::move(frame->payload)};
    }();
    const Clock::time_point done = Clock::now();
    if (!reply.ok()) {
      broken = true;
      if (first_failure.empty()) first_failure = reply.status().ToString();
      break;
    }
    nanos.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(done - begin)
            .count());
    end = done;
    if (!reply->ok) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = reply->status + ": " + reply->payload;
      }
      continue;
    }
    if (reply->source == "mined") {
      ++mined;
    } else if (reply->source == "cache") {
      ++cache;
    } else if (reply->source == "coalesced") {
      ++coalesced;
    }
    auto [it, inserted] = payloads.try_emplace(index);
    if (inserted) {
      it->second = std::move(reply->payload);
    } else if (it->second != reply->payload) {
      ++mismatched;
    }
  }
  ::close(fd);
  for (const auto& [line, payload] : payloads) {
    const std::string path =
        payload_dir + "/line_" + std::to_string(line) + ".txt";
    std::ofstream out(path, std::ios::binary);
    out << payload;
    if (!out) return Fail(Status::Internal("cannot write " + path));
  }

  std::sort(nanos.begin(), nanos.end());
  const double window_s = std::chrono::duration<double>(end - start).count();
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"attempted\": %zu, \"failed\": %lld, \"mismatched\": %lld, "
      "\"window_s\": %.9f, \"latency_ms\": {\"p50\": %.6f, \"p90\": %.6f}, "
      "\"sources\": {\"mined\": %lld, \"cache\": %lld, \"coalesced\": %lld}",
      nanos.size(), static_cast<long long>(failed),
      static_cast<long long>(mismatched), window_s,
      Percentile(nanos, 0.50) / 1e6, Percentile(nanos, 0.90) / 1e6,
      static_cast<long long>(mined), static_cast<long long>(cache),
      static_cast<long long>(coalesced));
  std::string json = buffer;
  json += ", \"served_lines\": [";
  bool first = true;
  for (const auto& entry : payloads) {
    if (!first) json += ", ";
    first = false;
    json += std::to_string(entry.first);
  }
  json += "], \"first_failure\": " + JsonString(first_failure) + "}\n";
  std::fputs(json.c_str(), stdout);
  return broken ? 1 : 0;
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
