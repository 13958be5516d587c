#include "service/dispatch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/bitvector_kernels.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace colossal {

namespace {

std::string HexFingerprint(uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

int64_t NowUnixNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// An error message can quote request text — an unknown flag, a bad
// value, a path — as long as the line cap allows. The service's own
// wording around such text never comes near this.
constexpr size_t kMaxErrorMessageBytes = 1024;

Status CapErrorMessage(const Status& status) {
  const std::string& message = status.message();
  if (message.size() <= kMaxErrorMessageBytes) return status;
  return Status(status.code(),
                message.substr(0, kMaxErrorMessageBytes) +
                    "... (truncated from " + std::to_string(message.size()) +
                    " bytes)");
}

// Assembles the flight record for one finished request from what each
// layer knows: identity from the request/response, the phase breakdown
// and per-request observables from the trace, and the transport, bytes
// and wall time measured here. `request` is null for a line that failed
// to parse (no dataset identity).
FlightRecord BuildFlightRecord(uint64_t id, int64_t start_unix_nanos,
                               std::string_view transport,
                               const MineRequest* request,
                               const MiningResponse& response,
                               const RequestTrace& trace,
                               int64_t response_bytes, int64_t total_nanos) {
  FlightRecord record;
  record.id = id;
  record.start_unix_nanos = start_unix_nanos;
  SetFlightField(record.transport, transport);
  if (request != nullptr) {
    SetFlightField(record.dataset, request->dataset_path);
  }
  record.dataset_fingerprint = response.dataset_fingerprint;
  record.options_hash = response.options_hash;
  SetFlightField(record.source, ResponseSourceName(response.source));
  SetFlightField(record.status, StatusCodeName(response.status.code()));
  record.response_bytes = response_bytes;
  record.total_nanos = total_nanos;
  for (int i = 0; i < kNumTracePhases; ++i) {
    record.phase_nanos[i] = trace.nanos(static_cast<TracePhase>(i));
  }
  record.admission_wait_nanos =
      trace.admission_wait_nanos.load(std::memory_order_relaxed);
  record.arena_peak_bytes =
      trace.arena_peak_bytes.load(std::memory_order_relaxed);
  record.shards = response.shards;
  record.shard_parallelism =
      trace.shard_parallelism.load(std::memory_order_relaxed);
  return record;
}

// Mints a request id for a fault a transport detected before any
// request line reached DispatchServeLine, and records the fault in the
// flight recorder, so transport faults are correlatable like request
// errors.
uint64_t RecordTransportFault(MiningService& service,
                              std::string_view transport,
                              std::string_view status_name,
                              int64_t response_bytes) {
  const uint64_t id = service.flight_recorder().MintId();
  FlightRecord record;
  record.id = id;
  record.start_unix_nanos = NowUnixNanos();
  SetFlightField(record.transport, transport);
  SetFlightField(record.source, "failed");
  SetFlightField(record.status, status_name);
  record.response_bytes = response_bytes;
  service.RecordFlight(record);
  return id;
}

// "error code=<CODE> id=N bytes=B\n" then the B-byte "<message>\n"
// payload; request_id 0 omits the id= field.
std::string ErrorFrame(const Status& status, uint64_t request_id) {
  const std::string payload = status.message() + "\n";
  std::string frame =
      std::string("error code=") + StatusCodeName(status.code());
  if (request_id != 0) frame += " id=" + std::to_string(request_id);
  return frame + " bytes=" + std::to_string(payload.size()) + "\n" + payload;
}

// Parses the single numeric argument of `recent`/`trace` control words:
// decimal digits only, as ParseItemList takes item ids. strtoull alone
// would skip leading spaces, accept a '+' and wrap a '-'.
bool ParseControlNumber(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0) return false;
  *out = value;
  return true;
}

// "recent [n]": the n most recent flight records, newest first, as one
// JSON object — also what GET /debug/requests serves.
ServeOutcome DispatchRecent(MiningService& service, const std::string& arg) {
  ServeOutcome outcome;
  outcome.kind = ServeOutcome::Kind::kDebug;
  outcome.debug_word = "recent";
  const FlightRecorder& recorder = service.flight_recorder();
  // The bare word lists what fits; only an explicit n is held to the
  // capacity bound below.
  uint64_t n = std::min<uint64_t>(32, recorder.capacity());
  if (!arg.empty() && (!ParseControlNumber(arg, &n) || n == 0)) {
    outcome.debug_status =
        Status::InvalidArgument("usage: recent [n]  (n >= 1)");
    return outcome;
  }
  if (n > recorder.capacity()) {
    // Rejected, not clamped: a silently shrunk listing reads as "that
    // is all there ever was" to a dashboard. The error names the bound
    // so the caller can re-ask within it.
    outcome.debug_status = Status::InvalidArgument(
        "recent n=" + std::to_string(n) +
        " exceeds the flight recorder capacity (" +
        std::to_string(recorder.capacity()) + "); pass n <= capacity");
    return outcome;
  }
  const std::vector<FlightRecord> records =
      recorder.Recent(static_cast<size_t>(n));
  std::string& out = outcome.debug_text;
  out.reserve(64 + records.size() * 512);
  out += "{\"recorded\":" + std::to_string(recorder.recorded());
  out += ",\"dropped\":" + std::to_string(recorder.dropped());
  out += ",\"capacity\":" + std::to_string(recorder.capacity());
  out += ",\"requests\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ',';
    AppendFlightRecordJson(records[i], &out);
  }
  out += "]}\n";
  return outcome;
}

// "trace <id>": one flight record by request id — also what
// GET /debug/requests/<id> serves.
ServeOutcome DispatchTrace(MiningService& service, const std::string& arg) {
  ServeOutcome outcome;
  outcome.kind = ServeOutcome::Kind::kDebug;
  outcome.debug_word = "trace";
  uint64_t id = 0;
  if (!ParseControlNumber(arg, &id) || id == 0) {
    outcome.debug_status =
        Status::InvalidArgument("usage: trace <request id>");
    return outcome;
  }
  FlightRecord record;
  if (!service.flight_recorder().Find(id, &record)) {
    outcome.debug_status = Status::NotFound(
        "no flight record for request id " + std::to_string(id) +
        " (the recorder keeps the last " +
        std::to_string(service.flight_recorder().capacity()) + " requests)");
    return outcome;
  }
  outcome.debug_text = FlightRecordJson(record);
  outcome.debug_text += '\n';
  return outcome;
}

}  // namespace

StatusOr<std::vector<RequestFileLine>> ReadRequestFile(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open request file: " + path);
  }
  std::vector<RequestFileLine> lines;
  std::string line;
  int line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    lines.push_back({line_number, line});
  }
  if (lines.empty()) {
    return Status::InvalidArgument("request file has no requests: " + path);
  }
  return lines;
}

Status WriteResponseFile(const std::string& dir, size_t index,
                         const std::string& payload) {
  char name[48];
  std::snprintf(name, sizeof(name), "/response_%04zu.txt", index + 1);
  std::ofstream file(dir + name, std::ios::binary);
  file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!file) return Status::Internal("cannot write " + dir + name);
  return Status::Ok();
}

ServeOutcome DispatchServeLine(MiningService& service,
                               const std::string& line,
                               std::string_view transport) {
  ServeOutcome outcome;
  const size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos || line[start] == '#') {
    outcome.kind = ServeOutcome::Kind::kEmpty;
    return outcome;
  }
  // Control words may carry trailing whitespace (a '\r' from a telnet-style
  // client, say) but nothing else.
  const size_t end = line.find_last_not_of(" \t\r");
  const std::string command = line.substr(start, end - start + 1);
  if (command == "quit" || command == "exit") {
    outcome.kind = ServeOutcome::Kind::kQuit;
    return outcome;
  }
  if (command == "shutdown") {
    outcome.kind = ServeOutcome::Kind::kShutdown;
    return outcome;
  }
  if (command == "stats") {
    outcome.kind = ServeOutcome::Kind::kStats;
    outcome.stats_line = FormatStatsLine(service);
    return outcome;
  }
  if (command == "metrics") {
    outcome.kind = ServeOutcome::Kind::kMetrics;
    outcome.metrics_text = service.RenderMetrics();
    return outcome;
  }
  if (command == "recent" || command.rfind("recent ", 0) == 0) {
    return DispatchRecent(
        service, command == "recent" ? std::string() : command.substr(7));
  }
  if (command.rfind("trace ", 0) == 0 || command == "trace") {
    return DispatchTrace(
        service, command == "trace" ? std::string() : command.substr(6));
  }

  outcome.kind = ServeOutcome::Kind::kResponse;
  // Every request line gets a process-monotonic id and, when finished,
  // one flight record — errors included, so failures are correlatable.
  const int64_t start_unix_nanos = NowUnixNanos();
  Stopwatch request_watch;
  outcome.request_id = service.flight_recorder().MintId();
  // The request's trace starts here so grammar parsing counts toward
  // the parse phase; Mine adds its phases into the same trace and
  // flushes everything to the histograms when the response is final.
  RequestTrace trace;
  PhaseTimer parse_timer(&trace, TracePhase::kParse);
  StatusOr<MineRequest> request = ParseRequestLine(line);
  parse_timer.Stop();
  if (request.ok()) {
    outcome.response = service.Mine(*request, &trace);
  } else {
    outcome.response.status = request.status();
    outcome.response.source = ResponseSource::kFailed;
    service.NoteParseFailure();
    service.RecordPhaseNanos(TracePhase::kParse,
                             trace.nanos(TracePhase::kParse));
  }
  int64_t response_bytes = 0;
  if (outcome.response.status.ok()) {
    // Mine rendered the payload (or served a cached rendering), so every
    // transport ships the same bytes.
    outcome.patterns_payload = *outcome.response.payload;
    outcome.patterns_rendered = true;
    response_bytes = static_cast<int64_t>(outcome.patterns_payload.size());
  } else {
    // Capped once here, so every transport frames the same bounded
    // "<message>\n" payload and the flight record counts it.
    outcome.response.status = CapErrorMessage(outcome.response.status);
    response_bytes =
        static_cast<int64_t>(outcome.response.status.message().size()) + 1;
  }
  service.RecordFlight(BuildFlightRecord(
      outcome.request_id, start_unix_nanos, transport,
      request.ok() ? &*request : nullptr, outcome.response, trace,
      response_bytes,
      static_cast<int64_t>(request_watch.ElapsedSeconds() * 1e9)));
  return outcome;
}

std::vector<ServeOutcome> DispatchBatch(MiningService& service,
                                        const std::vector<std::string>& lines,
                                        int threads) {
  std::vector<ServeOutcome> outcomes(lines.size());
  ThreadPool pool(threads);
  pool.ParallelFor(static_cast<int64_t>(lines.size()), [&](int64_t i) {
    outcomes[static_cast<size_t>(i)] =
        DispatchServeLine(service, lines[static_cast<size_t>(i)], "batch");
  });
  return outcomes;
}

std::string FormatStatsLine(const MiningService& service) {
  // The legacy field layout, rendered from the MetricsRegistry the
  // whole stack now reports into — the `stats` line and the `metrics`
  // exposition can never disagree on a value.
  const MetricsRegistry& metrics = service.metrics();
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "stats cache_hits=%lld cache_misses=%lld cache_entries=%lld "
      "cache_evictions=%lld dataset_loads=%lld dataset_hits=%lld "
      "dataset_evictions=%lld dataset_stale_reloads=%lld "
      "sniff_cache_hits=%lld admission_waits=%lld "
      "admission_rejected=%lld slow_requests=%lld flight_dropped=%lld "
      "reap_pending=%lld "
      "resident_mb=%.1f peak_resident_mb=%.1f arena_peak_mb=%.1f simd=%s",
      static_cast<long long>(
          metrics.CounterValue("colossal_result_cache_hits_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_result_cache_misses_total")),
      static_cast<long long>(
          metrics.GaugeValue("colossal_result_cache_entries")),
      static_cast<long long>(
          metrics.CounterValue("colossal_result_cache_evictions_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_dataset_loads_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_dataset_hits_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_dataset_evictions_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_dataset_stale_reloads_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_sniff_cache_hits_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_admission_waits_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_admission_rejected_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_slow_requests_total")),
      static_cast<long long>(
          metrics.GaugeValue("colossal_flight_dropped_total")),
      static_cast<long long>(
          metrics.GaugeValue("colossal_dataset_reap_pending")),
      static_cast<double>(metrics.GaugeValue("colossal_dataset_resident_bytes")) /
          (1 << 20),
      static_cast<double>(
          metrics.GaugeValue("colossal_dataset_peak_resident_bytes")) /
          (1 << 20),
      static_cast<double>(metrics.GaugeValue("colossal_arena_peak_bytes")) /
          (1 << 20),
      ActiveBitvectorKernels().name);
  return buffer;
}

std::string FormatResponseHeader(const MiningResponse& response,
                                 uint64_t request_id) {
  char buffer[224];
  int n = std::snprintf(buffer, sizeof(buffer),
                        "ok source=%s patterns=%zu iterations=%d "
                        "fingerprint=%s ms=%.3f",
                        ResponseSourceName(response.source),
                        response.result ? response.result->patterns.size() : 0,
                        response.result ? response.result->iterations : 0,
                        HexFingerprint(response.dataset_fingerprint).c_str(),
                        response.seconds * 1e3);
  if (request_id != 0 && n > 0 && n < static_cast<int>(sizeof(buffer))) {
    // The id rides the header, never the payload — responses stay
    // byte-identical across transports and repeats.
    std::snprintf(buffer + n, sizeof(buffer) - static_cast<size_t>(n),
                  " id=%llu", static_cast<unsigned long long>(request_id));
  }
  return buffer;
}

ServerReply FrameTcpReply(const ServeOutcome& outcome, bool send_patterns) {
  ServerReply reply;
  switch (outcome.kind) {
    case ServeOutcome::Kind::kEmpty:
      break;  // comments and blank lines get no response
    case ServeOutcome::Kind::kQuit:
      reply.data = "ok bye bytes=0\n";
      reply.close = true;
      break;
    case ServeOutcome::Kind::kShutdown:
      reply.data = "ok bye bytes=0\n";
      reply.close = true;
      reply.shutdown_server = true;
      break;
    case ServeOutcome::Kind::kStats:
      reply.data = outcome.stats_line + " bytes=0\n";
      break;
    case ServeOutcome::Kind::kMetrics:
      reply.data = "metrics bytes=" +
                   std::to_string(outcome.metrics_text.size()) + "\n" +
                   outcome.metrics_text;
      break;
    case ServeOutcome::Kind::kDebug:
      if (!outcome.debug_status.ok()) {
        reply.data = ErrorFrame(outcome.debug_status, 0);
        break;
      }
      reply.data = outcome.debug_word +
                   " bytes=" + std::to_string(outcome.debug_text.size()) +
                   "\n" + outcome.debug_text;
      break;
    case ServeOutcome::Kind::kResponse: {
      if (!outcome.response.status.ok()) {
        reply.data = ErrorFrame(outcome.response.status, outcome.request_id);
        break;
      }
      const std::string payload =
          !send_patterns ? std::string()
          : outcome.patterns_rendered
              ? outcome.patterns_payload
              : RenderPatternsPayload(outcome.response);
      reply.data = FormatResponseHeader(outcome.response, outcome.request_id) +
                   " bytes=" + std::to_string(payload.size()) + "\n" +
                   payload;
      break;
    }
  }
  return reply;
}

ServerReply FrameTcpError(MiningService& service, const Status& status,
                          std::string_view transport) {
  const uint64_t id = RecordTransportFault(
      service, transport, StatusCodeName(status.code()),
      static_cast<int64_t>(status.message().size()) + 1);
  ServerReply reply;
  reply.data = ErrorFrame(status, id);
  reply.close = true;
  return reply;
}

int HttpStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

namespace {

HttpResponse PlainText(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  response.headers.emplace_back("Content-Type", "text/plain");
  return response;
}

// Renders a dispatch outcome as HTTP. The response body carries exactly
// what the TCP framing's counted payload carries — for a mining result
// the FIMI patterns, for an error the status message — and the TCP
// header line rides in X-Colossal-Response, so TCP and HTTP replies to
// the same request line are byte-comparable payload-for-payload.
HttpResponse HttpFromOutcome(const ServeOutcome& outcome,
                             bool send_patterns) {
  switch (outcome.kind) {
    case ServeOutcome::Kind::kEmpty:
      // The line transports skip comments/blank lines silently; HTTP
      // must answer every request.
      return PlainText(400, "empty request\n");
    case ServeOutcome::Kind::kQuit:
    case ServeOutcome::Kind::kShutdown: {
      HttpResponse response = PlainText(200, "");
      response.headers.emplace_back("X-Colossal-Response", "ok bye");
      response.close = true;
      response.shutdown_server =
          outcome.kind == ServeOutcome::Kind::kShutdown;
      return response;
    }
    case ServeOutcome::Kind::kStats:
      return PlainText(200, outcome.stats_line + "\n");
    case ServeOutcome::Kind::kMetrics:
      return PlainText(200, outcome.metrics_text);
    case ServeOutcome::Kind::kDebug: {
      if (!outcome.debug_status.ok()) {
        return PlainText(HttpStatusFromStatus(outcome.debug_status),
                         outcome.debug_status.message() + "\n");
      }
      HttpResponse response;
      response.status = 200;
      response.body = outcome.debug_text;
      response.headers.emplace_back("Content-Type", "application/json");
      return response;
    }
    case ServeOutcome::Kind::kResponse:
      break;
  }
  const MiningResponse& mined = outcome.response;
  if (!mined.status.ok()) {
    HttpResponse response = PlainText(HttpStatusFromStatus(mined.status),
                                      mined.status.message() + "\n");
    response.headers.emplace_back(
        "X-Colossal-Response",
        std::string("error code=") + StatusCodeName(mined.status.code()));
    if (outcome.request_id != 0) {
      response.headers.emplace_back("X-Colossal-Request-Id",
                                    std::to_string(outcome.request_id));
    }
    if (response.status == 429) {
      response.headers.emplace_back("Retry-After", "1");
    }
    return response;
  }
  HttpResponse response = PlainText(
      200, !send_patterns          ? std::string()
           : outcome.patterns_rendered ? outcome.patterns_payload
                                       : RenderPatternsPayload(mined));
  response.headers.emplace_back(
      "X-Colossal-Response", FormatResponseHeader(mined, outcome.request_id));
  if (outcome.request_id != 0) {
    response.headers.emplace_back("X-Colossal-Request-Id",
                                  std::to_string(outcome.request_id));
  }
  return response;
}

// Frames an HTTP-layer fault (bad route, wrong method, unsupported
// version) with a minted, recorded request id.
HttpResponse HttpFault(MiningService& service, int status, std::string body,
                       std::string_view status_name) {
  const uint64_t id = RecordTransportFault(
      service, "http", status_name, static_cast<int64_t>(body.size()));
  HttpResponse response = PlainText(status, std::move(body));
  response.headers.emplace_back("X-Colossal-Request-Id", std::to_string(id));
  return response;
}

}  // namespace

HttpResponse HandleHttpRequest(MiningService& service,
                               const HttpRequest& request,
                               bool send_patterns) {
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    HttpResponse response =
        HttpFault(service, 505, "only HTTP/1.0 and HTTP/1.1 are supported\n",
                  "INTERNAL");
    response.close = true;
    return response;
  }
  // Split the query string off the target so /debug/requests?n=5 routes
  // like /debug/requests.
  std::string path = request.target;
  std::string query;
  const size_t query_pos = path.find('?');
  if (query_pos != std::string::npos) {
    query = path.substr(query_pos + 1);
    path.resize(query_pos);
  }
  const bool get_like = request.method == "GET" || request.method == "HEAD";
  if (path == "/mine") {
    if (request.method != "POST") {
      HttpResponse response = HttpFault(
          service, 405, "use POST with the request line as the body\n",
          "INVALID_ARGUMENT");
      response.headers.emplace_back("Allow", "POST");
      return response;
    }
    // The body is one serve-grammar line; a trailing newline (curl
    // --data-binary @file, printf '...\n') is tolerated, embedded ones
    // are not — one request maps to one line, like the TCP framing.
    std::string line = request.body;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.find('\n') != std::string::npos) {
      return HttpFault(service, 400, "body must be a single request line\n",
                       "INVALID_ARGUMENT");
    }
    return HttpFromOutcome(DispatchServeLine(service, line, "http"),
                           send_patterns);
  }
  if (path == "/metrics" || path == "/stats") {
    if (!get_like) {
      HttpResponse response =
          HttpFault(service, 405, "use GET\n", "INVALID_ARGUMENT");
      response.headers.emplace_back("Allow", "GET, HEAD");
      return response;
    }
    // Through DispatchServeLine, not RenderText() directly, so both
    // transports trace and render these the same way.
    return HttpFromOutcome(
        DispatchServeLine(service, path == "/metrics" ? "metrics" : "stats",
                          "http"),
        send_patterns);
  }
  if (path == "/debug/requests" || path.rfind("/debug/requests/", 0) == 0) {
    if (!get_like) {
      HttpResponse response =
          HttpFault(service, 405, "use GET\n", "INVALID_ARGUMENT");
      response.headers.emplace_back("Allow", "GET, HEAD");
      return response;
    }
    // Both routes are sugar over the control words, so the TCP and
    // stdin transports expose the exact same JSON.
    std::string control;
    if (path == "/debug/requests") {
      control = "recent";
      if (!query.empty()) {
        // An empty n= would reach the dispatcher as "recent " and be
        // trimmed to the bare word, so it is refused here.
        if (query.rfind("n=", 0) != 0 || query.size() == 2) {
          return HttpFault(service, 400, "unsupported query; use ?n=K\n",
                           "INVALID_ARGUMENT");
        }
        control += " " + query.substr(2);
      }
    } else {
      control =
          "trace " + path.substr(std::string("/debug/requests/").size());
    }
    return HttpFromOutcome(DispatchServeLine(service, control, "http"),
                           send_patterns);
  }
  if (path == "/healthz") {
    if (!get_like) {
      HttpResponse response =
          HttpFault(service, 405, "use GET\n", "INVALID_ARGUMENT");
      response.headers.emplace_back("Allow", "GET, HEAD");
      return response;
    }
    return PlainText(200, "ok\n");
  }
  return HttpFault(service, 404,
                   "no such endpoint; serving POST /mine, GET /metrics, "
                   "GET /stats, GET /healthz, GET /debug/requests\n",
                   "NOT_FOUND");
}

}  // namespace colossal
