// colossal_serve — batch, stdin and network front ends to the mining
// service layer.
//
// Subcommands:
//   batch   --requests FILE [--out-dir DIR] [--threads N]
//           [--mining-threads N] [--shard-parallelism N]
//           [--cache-entries N] [--registry-mb N] [--csv]
//       Replays a file of request lines (one request per line, '#'
//       comments and blank lines ignored). Every line must parse first
//       (else FILE:LINE: and exit 1); then the lines are served through
//       the dispatch path every front end uses, on --threads workers,
//       and a per-request table (timing, cache source) plus a summary is
//       printed. With --out-dir, request i's payload (the FIMI patterns
//       a TCP reply carries) is written to DIR/response_<i>.txt; a
//       failed request writes no file and is not counted in the
//       `wrote N response file(s)` line.
//       Duplicates dedup as on a socket: at --threads 1 a repeat is a
//       cache hit; with more workers it may instead wait on the
//       identical mine still running (coalesced). Exits nonzero if any
//       request failed.
//   daemon  [--mining-threads N] [--shard-parallelism N]
//           [--cache-entries N] [--registry-mb N] [--no-patterns]
//       One session on stdin/stdout that behaves like one TCP connection
//       to `listen`: the same LineFramer splits stdin (1 MiB line cap)
//       and every reply is a counted frame, so a transcript parses like
//       a socket stream. A line over the cap answers
//       `error code=OUT_OF_RANGE` and ends the session with exit status
//       1; quit, shutdown and EOF end it with 0. A last line without its
//       newline is not answered, as on a socket.
//   listen  --port N [--host H] [--threads N] [--mining-threads N]
//           [--shard-parallelism N] [--cache-entries N] [--registry-mb N]
//           [--no-patterns] [--max-connections N] [--max-line-kb N]
//           [--http-port N] [--http-pipeline N]
//           [--max-inflight-mines N] [--max-inflight-mine-kb N]
//       The same protocol over TCP (net/tcp_server.h). --port 0 picks a
//       free port; the resolved one is printed as
//         listening host=H port=N
//       With --http-port (0 = auto again), an HTTP/1.1 front end
//       (net/http_server.h) serves beside it over the same MiningService:
//       POST /mine (a request line as the body; the response body is
//       byte-identical to the counted payload), GET /metrics, /stats,
//       /healthz, /debug/requests?n=K and /debug/requests/<id>. It is
//       printed as
//         listening http host=H port=N
//       --max-inflight-mines / --max-inflight-mine-kb bound admission:
//       over-limit mines fail RESOURCE_EXHAUSTED (HTTP 429 with
//       Retry-After) instead of queueing; cache hits always serve.
//
// The line protocol (daemon and TCP; service/dispatch.h has the frames):
// each input line is a request or a control word — stats, metrics,
// recent [n], trace <id>, quit/exit (end this session) or shutdown (also
// stop a listen server). Every reply is one status line ending in
// bytes=B, then exactly B payload bytes. A mined response's status line
// (one line, wrapped here) is
//   ok source=<mined|cache|coalesced> patterns=N iterations=I
//   fingerprint=<hex> ms=F id=N bytes=B
// followed by the FIMI patterns (none with --no-patterns). A failed
// request answers `error code=<CODE> id=N bytes=B` and its message. The
// id is process-monotonic and keys the flight recorder. colossal_loadgen
// replays request files over TCP or HTTP.
//
// Request line grammar (see service/request.h):
//   --in FILE [--format fimi|matrix|snapshot|manifest|auto]
//   (--sigma F | --min-support N) [--tau F] [--k N] [--pool-size N]
//   [--max-iterations N] [--attempts N] [--retain N] [--seed S]
//   [--threads N] [--shards exact|fuse] [--shard-parallelism N]
//   [--top-k N] [--include I1,I2,...] [--exclude I1,I2,...]
//   [--min-len N] [--max-len N]
// The initial pool is always mined by Apriori up to --pool-size.
//
// Cache semantics: results are keyed by (dataset content fingerprint,
// canonical options). Equivalent requests — e.g. --sigma 0.5 vs. the
// --min-support it denotes, or any --threads value — share one entry,
// and a repeated request is served from memory, bit-identical to a
// fresh mine.
//
// Sharded datasets: when FILE is a shard manifest (colossal_cli shard),
// the request mines shard by shard under the registry's memory budget.
// --shards exact (the default) is byte-identical to unsharded mining of
// the parent and shares its cache entries; --shards fuse runs the
// approximate cross-shard fusion under its own cache key. Phase-1
// per-shard mining fans out across --shard-parallelism concurrent shard
// jobs (request flag, or the service-level default set here; 0 = auto:
// up to the request's mining threads), capped by the residency governor
// so concurrently resident shards always fit --registry-mb; output is
// identical for any value.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/bitvector_kernels.h"
#include "common/table_printer.h"
#include "net/http_server.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "service/dispatch.h"
#include "service/mining_service.h"

namespace colossal {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

constexpr const char kUsage[] =
    "usage: colossal_serve batch --requests FILE [--out-dir DIR]\n"
    "           [--threads N] [--mining-threads N] [--shard-parallelism N]\n"
    "           [--cache-entries N] [--registry-mb N] [--csv]\n"
    "       colossal_serve daemon [--mining-threads N]\n"
    "           [--shard-parallelism N] [--cache-entries N]\n"
    "           [--registry-mb N] [--no-patterns]\n"
    "       colossal_serve listen --port N [--host H] [--threads N]\n"
    "           [--mining-threads N] [--shard-parallelism N]\n"
    "           [--cache-entries N] [--registry-mb N]\n"
    "           [--max-connections N] [--max-line-kb N] [--no-patterns]\n"
    "           [--http-port N] [--http-pipeline N]\n"
    "           [--max-inflight-mines N] [--max-inflight-mine-kb N]\n"
    "--threads N sizes batch's workers and listen's TCP/HTTP handler\n"
    "    pools (0 = one per core); --mining-threads N is the mining threads\n"
    "    of a request that sets no --threads of its own (default 1)\n"
    "all subcommands also take --slow-request-ms T (log requests slower\n"
    "    than T ms as JSON lines; 0 logs every request, default off) and\n"
    "    --slow-log-file PATH (append slow-request lines there instead\n"
    "    of stderr)\n"
    "request lines: --in FILE (--sigma F | --min-support N) [--tau F]\n"
    "    [--k N] [--pool-size N] [--max-iterations N] [--attempts N]\n"
    "    [--retain N] [--seed S] [--threads N]\n"
    "    [--format fimi|matrix|snapshot|manifest|auto]\n"
    "    [--shards exact|fuse] [--shard-parallelism N]   (shard manifests)\n"
    "    [--top-k N] [--include I1,I2,...] [--exclude I1,I2,...]\n"
    "    [--min-len N] [--max-len N]   (top-k / constrained mining)\n"
    "daemon/listen control words: stats (one-line counters), metrics\n"
    "    (Prometheus-style text exposition), recent [n] / trace <id>\n"
    "    (flight-recorder JSON), quit/exit, shutdown\n"
    "all subcommands take --force-scalar (pin the scalar Bitvector\n"
    "    kernels; same as COLOSSAL_FORCE_SCALAR=1 — output is identical\n"
    "    either way, this exists for byte-identity checks and benchmarks)\n"
    "see the header of tools/colossal_serve.cc for details\n";

// Shared service knobs for every subcommand. `threads_out` (null for
// the daemon, which takes no --threads) receives --threads, which sizes
// the front end's own pool — batch workers, or the TCP/HTTP handler
// threads — not the service.
StatusOr<MiningServiceOptions> ServiceOptionsFromArgs(const Args& args,
                                                      int* threads_out) {
  MiningServiceOptions options;
  StatusOr<int64_t> threads = args.GetInt("threads", 0);
  if (!threads.ok()) return threads.status();
  StatusOr<int64_t> mining_threads = args.GetInt("mining-threads", 1);
  if (!mining_threads.ok()) return mining_threads.status();
  StatusOr<int64_t> shard_parallelism = args.GetInt("shard-parallelism", 0);
  if (!shard_parallelism.ok()) return shard_parallelism.status();
  StatusOr<int64_t> cache_entries = args.GetInt("cache-entries", 256);
  if (!cache_entries.ok()) return cache_entries.status();
  StatusOr<int64_t> registry_mb = args.GetInt("registry-mb", 1024);
  if (!registry_mb.ok()) return registry_mb.status();
  StatusOr<int64_t> max_inflight_mines = args.GetInt("max-inflight-mines", 0);
  if (!max_inflight_mines.ok()) return max_inflight_mines.status();
  StatusOr<int64_t> max_inflight_mine_kb =
      args.GetInt("max-inflight-mine-kb", 0);
  if (!max_inflight_mine_kb.ok()) return max_inflight_mine_kb.status();
  StatusOr<int64_t> slow_request_ms = args.GetInt("slow-request-ms", -1);
  if (!slow_request_ms.ok()) return slow_request_ms.status();
  if (*threads < 0 || *threads > kMaxThreads || *mining_threads < 0 ||
      *mining_threads > kMaxThreads || *shard_parallelism < 0 ||
      *shard_parallelism > kMaxThreads || *cache_entries < 0 ||
      *registry_mb < 1 || *max_inflight_mines < 0 ||
      *max_inflight_mine_kb < 0) {
    return Status::InvalidArgument(
        "--threads/--mining-threads/--shard-parallelism must be in [0, " +
        std::to_string(kMaxThreads) +
        "], --cache-entries >= 0, --registry-mb >= 1, "
        "--max-inflight-mines/--max-inflight-mine-kb >= 0");
  }
  if (threads_out != nullptr) *threads_out = static_cast<int>(*threads);
  options.mining_threads = static_cast<int>(*mining_threads);
  options.shard_parallelism = static_cast<int>(*shard_parallelism);
  options.cache.max_entries = *cache_entries;
  options.registry.memory_budget_bytes = *registry_mb * (int64_t{1} << 20);
  options.max_inflight_mines = static_cast<int>(*max_inflight_mines);
  options.max_inflight_mine_bytes = *max_inflight_mine_kb * 1024;
  options.slow_request_ms = *slow_request_ms;
  options.slow_log_path = args.GetString("slow-log-file");
  return options;
}

int RunBatch(const Args& args) {
  Status known = args.CheckKnown({"requests", "out-dir", "threads",
                                  "mining-threads", "shard-parallelism",
                                  "cache-entries", "registry-mb", "csv",
                                  "force-scalar", "slow-request-ms",
                                  "slow-log-file"});
  if (!known.ok()) return Fail(known);
  const std::string requests_path = args.GetString("requests");
  if (requests_path.empty()) {
    return Fail(Status::InvalidArgument("batch requires --requests FILE"));
  }
  const std::string out_dir = args.GetString("out-dir");
  const bool csv = args.Has("csv");

  int threads = 0;
  StatusOr<MiningServiceOptions> service_options =
      ServiceOptionsFromArgs(args, &threads);
  if (!service_options.ok()) return Fail(service_options.status());

  StatusOr<std::vector<RequestFileLine>> file =
      ReadRequestFile(requests_path);
  if (!file.ok()) return Fail(file.status());

  // Every line must parse before anything mines, so a typo anywhere in
  // the file fails the run with its FILE:LINE: and no partial output.
  std::vector<std::string> lines;
  std::vector<std::string> datasets;
  for (const RequestFileLine& line : *file) {
    StatusOr<MineRequest> request = ParseRequestLine(line.text);
    if (!request.ok()) {
      return Fail(Status::InvalidArgument(
          requests_path + ":" + std::to_string(line.line_number) + ": " +
          request.status().message()));
    }
    lines.push_back(line.text);
    datasets.push_back(request->dataset_path);
  }

  MiningService service(*service_options);
  const std::vector<ServeOutcome> outcomes =
      DispatchBatch(service, lines, threads);

  TablePrinter table({"request", "dataset", "source", "registry", "patterns",
                      "iterations", "ms"});
  int64_t failed = 0;
  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const MiningResponse& response = outcomes[i].response;
    if (!response.status.ok()) ++failed;
    if (response.source == ResponseSource::kCache) ++cache_hits;
    if (response.source == ResponseSource::kCoalesced) ++coalesced;
    table.AddRow(
        {std::to_string(i + 1), datasets[i],
         ResponseSourceName(response.source),
         response.status.ok() ? (response.dataset_registry_hit ? "hit"
                                                               : "load")
                              : "-",
         response.result ? std::to_string(response.result->patterns.size())
                         : "-",
         response.result ? std::to_string(response.result->iterations) : "-",
         TablePrinter::FormatDouble(response.seconds * 1e3, 3)});
    if (!response.status.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", i + 1,
                   response.status.ToString().c_str());
    }
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }

  if (!out_dir.empty()) {
    size_t files = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].response.status.ok()) continue;
      Status written =
          WriteResponseFile(out_dir, i, outcomes[i].patterns_payload);
      if (!written.ok()) return Fail(written);
      ++files;
    }
    std::printf("wrote %zu response file(s) to %s\n", files,
                out_dir.c_str());
  }

  const MetricsRegistry& metrics = service.metrics();
  std::printf(
      "batch: %zu request(s), cache_hits=%lld coalesced=%lld failed=%lld "
      "cache_entries=%lld dataset_loads=%lld dataset_hits=%lld\n",
      outcomes.size(), static_cast<long long>(cache_hits),
      static_cast<long long>(coalesced), static_cast<long long>(failed),
      static_cast<long long>(
          metrics.GaugeValue("colossal_result_cache_entries")),
      static_cast<long long>(
          metrics.CounterValue("colossal_dataset_loads_total")),
      static_cast<long long>(
          metrics.CounterValue("colossal_dataset_hits_total")));
  return failed == 0 ? 0 : 1;
}

int RunDaemon(const Args& args) {
  Status known = args.CheckKnown({"mining-threads", "shard-parallelism",
                                  "cache-entries", "registry-mb",
                                  "no-patterns", "force-scalar",
                                  "max-inflight-mines",
                                  "max-inflight-mine-kb", "slow-request-ms",
                                  "slow-log-file"});
  if (!known.ok()) return Fail(known);
  StatusOr<MiningServiceOptions> service_options =
      ServiceOptionsFromArgs(args, /*threads_out=*/nullptr);
  if (!service_options.ok()) return Fail(service_options.status());
  const bool send_patterns = !args.Has("no-patterns");

  MiningService service(*service_options);
  LineFramer framer(TcpServerOptions().max_line_bytes);
  std::string inbuf;
  while (true) {
    std::optional<std::string> line;
    const Status framed = framer.Next(&inbuf, &line);
    if (framed.ok() && !line.has_value()) {
      char chunk[4096];
      const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        return Fail(Status::Internal(std::string("read stdin: ") +
                                     std::strerror(errno)));
      }
      if (n == 0) return 0;
      inbuf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    const ServerReply reply =
        framed.ok()
            ? FrameTcpReply(DispatchServeLine(service, *line, "stdin"),
                            send_patterns)
            : FrameTcpError(service, framed, "stdin");
    if (std::fwrite(reply.data.data(), 1, reply.data.size(), stdout) !=
            reply.data.size() ||
        std::fflush(stdout) != 0) {
      return 1;
    }
    if (reply.close) return framed.ok() ? 0 : 1;
  }
}

// SIGINT/SIGTERM → graceful stop (RequestStop is async-signal-safe).
TcpServer* g_listen_server = nullptr;
HttpServer* g_http_server = nullptr;

void HandleStopSignal(int) {
  if (g_listen_server != nullptr) g_listen_server->RequestStop();
  if (g_http_server != nullptr) g_http_server->RequestStop();
}

int RunListen(const Args& args) {
  Status known = args.CheckKnown({"port", "host", "threads",
                                  "mining-threads", "shard-parallelism",
                                  "cache-entries", "registry-mb",
                                  "no-patterns", "max-connections",
                                  "max-line-kb", "force-scalar",
                                  "http-port", "http-pipeline",
                                  "max-inflight-mines",
                                  "max-inflight-mine-kb", "slow-request-ms",
                                  "slow-log-file"});
  if (!known.ok()) return Fail(known);
  int threads = 0;
  StatusOr<MiningServiceOptions> service_options =
      ServiceOptionsFromArgs(args, &threads);
  if (!service_options.ok()) return Fail(service_options.status());
  const bool send_patterns = !args.Has("no-patterns");

  StatusOr<int64_t> port = args.GetInt("port", -1);
  if (!port.ok()) return Fail(port.status());
  StatusOr<int64_t> max_connections = args.GetInt("max-connections", 64);
  if (!max_connections.ok()) return Fail(max_connections.status());
  StatusOr<int64_t> max_line_kb = args.GetInt("max-line-kb", 1024);
  if (!max_line_kb.ok()) return Fail(max_line_kb.status());
  // --http-port absent → TCP only; present (0 = auto) → HTTP alongside.
  const bool http_enabled = args.Has("http-port");
  StatusOr<int64_t> http_port = args.GetInt("http-port", 0);
  if (!http_port.ok()) return Fail(http_port.status());
  StatusOr<int64_t> http_pipeline = args.GetInt("http-pipeline", 8);
  if (!http_pipeline.ok()) return Fail(http_pipeline.status());
  if (*port < 0 || *port > 65535 || *max_connections < 1 ||
      *max_line_kb < 1 || *http_port < 0 || *http_port > 65535 ||
      *http_pipeline < 1 || *http_pipeline > 256) {
    return Fail(Status::InvalidArgument(
        "listen requires --port/--http-port in [0, 65535] (0 = auto), "
        "--max-connections >= 1, --max-line-kb >= 1, "
        "--http-pipeline in [1, 256]"));
  }

  TcpServerOptions server_options;
  server_options.host = args.GetString("host", "127.0.0.1");
  server_options.port = static_cast<int>(*port);
  // The handler pool is the request-level fan-out, exactly like batch
  // --threads; mining threads per request come from the service.
  server_options.num_threads = threads;
  server_options.max_connections = static_cast<int>(*max_connections);
  server_options.max_line_bytes = *max_line_kb * 1024;

  MiningService service(*service_options);
  // Both front ends register their transport counters in the service
  // registry so the `metrics` control word / GET /metrics exposition
  // covers colossal_tcp_* and colossal_http_* alongside the service.
  server_options.metrics = &service.metrics();
  TcpServer server(
      server_options,
      [&service, send_patterns](const std::string& line) {
        return FrameTcpReply(DispatchServeLine(service, line, "tcp"),
                             send_patterns);
      },
      [&service](const Status& status) {
        return FrameTcpError(service, status, "tcp");
      });

  std::unique_ptr<HttpServer> http_server;
  if (http_enabled) {
    HttpServerOptions http_options;
    http_options.host = server_options.host;
    http_options.port = static_cast<int>(*http_port);
    http_options.num_threads = threads;
    http_options.max_connections = static_cast<int>(*max_connections);
    http_options.max_pipeline = static_cast<int>(*http_pipeline);
    http_options.metrics = &service.metrics();
    http_server = std::make_unique<HttpServer>(
        http_options,
        [&service, send_patterns](const HttpRequest& request) {
          return HandleHttpRequest(service, request, send_patterns);
        });
  }

  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  if (http_server != nullptr) {
    Status http_started = http_server->Start();
    if (!http_started.ok()) {
      server.Shutdown();
      return Fail(http_started);
    }
  }

  g_listen_server = &server;
  g_http_server = http_server.get();
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::printf("listening host=%s port=%d\n", server_options.host.c_str(),
              server.port());
  if (http_server != nullptr) {
    std::printf("listening http host=%s port=%d\n",
                server_options.host.c_str(), http_server->port());
  }
  std::fflush(stdout);

  // A `shutdown` can arrive over either front end; whichever server
  // stops first takes the other down with it.
  std::thread http_waiter;
  if (http_server != nullptr) {
    HttpServer* http = http_server.get();
    TcpServer* tcp = &server;
    http_waiter = std::thread([http, tcp]() {
      http->Wait();
      tcp->RequestStop();
    });
  }
  server.Wait();
  if (http_server != nullptr) {
    http_server->RequestStop();
    http_waiter.join();
  }

  const MetricsRegistry& metrics = service.metrics();
  auto count = [&metrics](const char* name) {
    return static_cast<long long>(metrics.CounterValue(name));
  };
  std::printf(
      "stopped accepted=%lld rejected=%lld lines=%lld oversized=%lld\n",
      count("colossal_tcp_accepted_total"),
      count("colossal_tcp_rejected_total"),
      count("colossal_tcp_lines_dispatched_total"),
      count("colossal_tcp_oversized_lines_total"));
  if (http_server != nullptr) {
    std::printf(
        "stopped http accepted=%lld rejected=%lld requests=%lld "
        "framing_errors=%lld\n",
        count("colossal_http_accepted_total"),
        count("colossal_http_rejected_total"),
        count("colossal_http_lines_dispatched_total"),
        count("colossal_http_oversized_lines_total"));
  }
  g_http_server = nullptr;
  g_listen_server = nullptr;
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  StatusOr<Args> args =
      Args::Parse(argc, argv, 2, {"csv", "no-patterns", "force-scalar"});
  if (!args.ok()) return Fail(args.status());
  if (args->HelpRequested()) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  // Kernel backend pin, for byte-identity smoke checks: the flag and
  // the COLOSSAL_FORCE_SCALAR env var are equivalent.
  if (args->Has("force-scalar")) SetBitvectorForceScalar(true);
  if (command == "batch") return RunBatch(*args);
  if (command == "daemon") return RunDaemon(*args);
  if (command == "listen") return RunListen(*args);
  return Fail(Status::InvalidArgument("unknown command '" + command +
                                      "' (want batch|daemon|listen)"));
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
