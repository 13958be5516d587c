#ifndef COLOSSAL_SERVICE_DISPATCH_H_
#define COLOSSAL_SERVICE_DISPATCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "net/http_server.h"
#include "net/tcp_server.h"
#include "service/mining_service.h"

namespace colossal {

// The one request-dispatch path shared by every interactive front end of
// colossal_serve — the stdin daemon, TCP and HTTP all feed raw request
// lines through DispatchServeLine and render the same ServeOutcome. The
// daemon and TCP also share one framing (FrameTcpReply), so a pipe
// transcript and a socket stream parse alike.

struct ServeOutcome {
  enum class Kind {
    kEmpty,     // blank line or '#' comment: no response
    kQuit,      // "quit" / "exit": end this client's session
    kShutdown,  // "shutdown": stop the whole front end (the TCP server;
                // the stdin daemon treats it like quit)
    kStats,     // "stats": counters in stats_line
    kMetrics,   // "metrics": full text exposition in metrics_text
    kDebug,     // "recent [n]" / "trace <id>": flight-recorder JSON in
                // debug_text (or debug_status on a failed lookup)
    kResponse,  // a request line; see response (response.status may be
                // an error from parsing or mining)
  };

  Kind kind = Kind::kEmpty;
  MiningResponse response;
  std::string stats_line;    // set for kStats, already formatted
  std::string metrics_text;  // set for kMetrics: Prometheus-style text

  // For kDebug: which control word ran (the TCP frame's header word),
  // the JSON it produced, and the failure when the query itself failed
  // (unknown id, bad argument).
  std::string debug_word;
  std::string debug_text;
  Status debug_status;

  // For kResponse: the process-monotonic request id minted for this
  // line (surfaced as `id=N` on header lines and as the
  // X-Colossal-Request-Id HTTP header — never inside the payload, so
  // response payloads stay byte-identical). 0 for control words.
  uint64_t request_id = 0;

  // For kResponse with an ok status: the FIMI payload, rendered (and
  // timed as the serialize trace phase) by DispatchServeLine so both
  // transports ship identical bytes without rendering twice.
  // patterns_rendered distinguishes "rendered, possibly empty" from
  // outcomes built outside DispatchServeLine (FrameTcpReply falls back
  // to rendering for those).
  std::string patterns_payload;
  bool patterns_rendered = false;
};

// One request line of a batch file, with its 1-based source line for
// diagnostics.
struct RequestFileLine {
  int line_number = 0;
  std::string text;
};

// Reads a request file — one request per line, blank lines and '#'
// comments skipped — the single grammar `colossal_serve batch` replays
// locally and `colossal_loadgen --requests` replays over the wire (the
// CI net-smoke byte-identity check depends on both reading the same
// set). Errors on an unreadable or request-free file.
StatusOr<std::vector<RequestFileLine>> ReadRequestFile(
    const std::string& path);

// Interprets one input line of the serve protocol against `service`:
// strips leading whitespace, recognizes the control words ("stats",
// "metrics", "recent [n]", "trace <id>", "quit"/"exit", "shutdown"),
// parses request lines with ParseRequestLine, and mines synchronously.
// Parse errors surface as kResponse with a failed status so callers
// have a single error-rendering path. Every request line is traced
// (parse, mining phases, and payload serialization land in the
// service's per-phase latency histograms), minted a request id, and
// recorded into the service's flight recorder — errors included.
// `transport` names the front end for the flight record ("tcp",
// "http", "stdin", ...).
ServeOutcome DispatchServeLine(MiningService& service,
                               const std::string& line,
                               std::string_view transport = "local");

// "stats cache_hits=... cache_misses=... cache_entries=...
//  cache_evictions=... dataset_loads=... dataset_hits=...
//  dataset_evictions=... dataset_stale_reloads=... resident_mb=...
//  peak_resident_mb=..." (no trailing newline). The daemon and TCP
// transports share this, so both report the full registry/cache
// counters. Rendered from the service's MetricsRegistry — the same
// values the `metrics` exposition reports, in the legacy field layout.
std::string FormatStatsLine(const MiningService& service);

// "ok source=... patterns=N iterations=I fingerprint=<16-hex> ms=F
// id=N" (no trailing newline). Requires response.status.ok().
// `request_id` 0 omits the id= field (responses produced outside the
// dispatch path have no id).
std::string FormatResponseHeader(const MiningResponse& response,
                                 uint64_t request_id = 0);

// The FIMI-format pattern payload for a successful response ("" when the
// result is null). Byte-identical to what batch mode's --out-dir writes
// for the same request, which is what the CI net-smoke job asserts.
std::string RenderPatternsPayload(const MiningResponse& response);

// --- Counted framing (TCP and the stdin daemon) -----------------------------
//
// Every outcome is one status line ending in " bytes=B\n", then exactly
// B payload bytes. Clients never have to scan payload content for a
// terminator, so arbitrarily large FIMI results stream safely.
//
//   ok source=... patterns=N iterations=I fingerprint=... ms=F id=N bytes=B
//   <B bytes of patterns>                  (B = 0 with --no-patterns)
//   error code=<CODE> id=N bytes=B
//   <B bytes of error message>
//   stats cache_hits=... ... bytes=0
//   metrics bytes=B
//   <B bytes of Prometheus-style exposition text>
//   recent bytes=B / trace bytes=B
//   <B bytes of flight-recorder JSON>
//   ok bye bytes=0                         (quit / shutdown)

// Frames one dispatch outcome. kEmpty produces no bytes (comments and
// blank lines get no response); kQuit closes the connection after the
// flush. `send_patterns` false suppresses the payload (bytes=0).
ServerReply FrameTcpReply(const ServeOutcome& outcome, bool send_patterns);

// Frames a transport-detected fault (oversized request line, connection
// limit) exactly like a request error, so clients have one parse path,
// and closes the session after the flush. The fault gets a minted
// request id on its error header and a flight record naming
// `transport` ("tcp", "stdin"), so it is correlatable like a request
// error.
ServerReply FrameTcpError(MiningService& service, const Status& status,
                          std::string_view transport);

// --- HTTP framing ----------------------------------------------------------
//
// The HTTP front end reuses DispatchServeLine verbatim — POST /mine
// carries one serve-grammar line as the body — so a mining result's
// response body is byte-identical to the TCP framing's counted payload
// for the same request (the CI http-smoke job diffs the two). The
// header line TCP clients parse moves into an X-Colossal-Response
// header; GET /metrics serves the same RenderText() exposition the
// `metrics` control word does.
//
//   POST /mine                 body: one request line or control word
//   GET  /metrics              Prometheus-style text exposition
//   GET  /stats                the legacy stats line
//   GET  /healthz              liveness probe, "ok"
//   GET  /debug/requests?n=K   the K most recent flight records (JSON)
//   GET  /debug/requests/<id>  one flight record by request id (JSON)
//
// HEAD is accepted wherever GET is. Control words through POST /mine
// keep their serve semantics ("shutdown" stops the front end). Every
// reply that went through the dispatch request path (and every 4xx/5xx
// fault) carries an X-Colossal-Request-Id header.

// Status code → HTTP status: OK→200, INVALID_ARGUMENT/OUT_OF_RANGE→400,
// NOT_FOUND→404, FAILED_PRECONDITION→409, RESOURCE_EXHAUSTED→429
// (admission control; answered with Retry-After), INTERNAL→500.
int HttpStatusFromStatus(const Status& status);

// Routes one parsed HTTP request. `send_patterns` false suppresses
// mining payload bodies (the --no-patterns mode), exactly like
// FrameTcpReply.
HttpResponse HandleHttpRequest(MiningService& service,
                               const HttpRequest& request,
                               bool send_patterns);

}  // namespace colossal

#endif  // COLOSSAL_SERVICE_DISPATCH_H_
