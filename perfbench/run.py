#!/usr/bin/env python3
"""The repository benchmark: Pattern-Fusion served over TCP/HTTP.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the serving tools and the
benchmark's own programs from source (Release, into .bench_build/),
generates the workload's datasets with `colossal_cli` from --seed, starts
`colossal_serve listen`, primes it with an untimed `colossal_loadgen`
pass, drives it closed-loop for --seconds with `perfbench_client`, checks
every served payload, and prints one JSON result as the last line of
stdout. --trace 1 adds the traced per-layer run and reports the per-layer
metrics instead of the end-to-end ones. See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import multiprocessing
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TOOLS = BUILD / "colossal"
RUNS = ROOT / ".bench_build" / "perfbench-runs"
NPROC = os.cpu_count() or 1

# Setups per run; setup_s is their median.
SETUP_REPEATS = 3
# Seconds every CPU busy-loops before the first set-up: after the host
# has idled, set-ups and mines run up to 2.5x slower for about two
# seconds, and a spin removes that.
WAKE_SECONDS = 1.5
# Served payloads perfbench_probe scores for quality: the first 48 lines
# of the file (kQualityLines there). The client completes at least this
# many requests, so the score is fixed by the seed however fast the
# server is.
QUALITY_LINES = 48
# Served cold lines re-mined by the batch oracle and compared byte for byte.
ORACLE_SAMPLE = 16
# Request lines written per second of run time for the cold workloads:
# every line is a distinct request, and a run must never wrap around.
COLD_LINES_PER_SECOND = 400
# Lines the traced run replays in-process.
REPLAY_LINES = {"all_cold": 6, "replace_shard_cold": 6, "warm_hits": 16}

TRACE_PHASES = ["parse", "cache_lookup", "registry", "pool_mine", "stitch",
                "fusion", "serialize"]


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result (exit code 2)."""


# --- metric catalogue --------------------------------------------------------

def load_catalogue():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec


def result_line(correct, attempted, failed, values, catalogue):
    """The final stdout line: every catalogue metric with its unit.

    `values` maps metric name to number; a metric missing from it is an
    error, so a run can never silently drop a metric.
    """
    metrics = {}
    for metric in catalogue:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# --- parsing -----------------------------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')


def parse_exposition(text):
    """Prometheus-style text exposition -> {name or name{labels}: value}."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match is None:
            continue
        name, labels, value = match.groups()
        try:
            values[name + (labels or "")] = float(value)
        except ValueError:
            continue
    return values


def build_info(exposition_text):
    """Labels of colossal_build_info (simd, compiler)."""
    match = re.search(r'^colossal_build_info\{([^}]*)\}', exposition_text,
                      re.MULTILINE)
    if match is None:
        return {}
    return dict(re.findall(r'(\w+)="([^"]*)"', match.group(1)))


def phase_means_ms(before, after):
    """Mean milliseconds per request that touched each trace phase between
    two scrapes (0 for a phase no request touched)."""
    means = {}
    for phase in TRACE_PHASES:
        def delta(field):
            name = f"colossal_phase_{phase}_seconds_{field}"
            return after.get(name, 0.0) - before.get(name, 0.0)
        count = delta("count")
        means[f"obs.phase_{phase}_ms"] = 1e3 * delta("sum") / count \
            if count else 0.0
    return means


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("no JSON report in output:\n" + text[-2000:])


# --- build -------------------------------------------------------------------

def run_tool(args, timeout, **kwargs):
    done = subprocess.run([str(a) for a in args], capture_output=True,
                          text=True, timeout=timeout, **kwargs)
    if done.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} failed "
                         f"({done.returncode}):\n{done.stdout[-2000:]}"
                         f"{done.stderr[-2000:]}")
    return done.stdout


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no colossal sources to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_tool(["cmake", "-S", BENCH, "-B", BUILD, *generator,
                  "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_tool(["cmake", "--build", BUILD, "-j", NPROC, "--target",
              "colossal_cli", "colossal_serve", "colossal_loadgen",
              "perfbench_client", "perfbench_probe"], timeout=900)
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.MULTILINE)
    if build_type is None or build_type.group(1) != "Release":
        raise BenchError("refusing to measure a non-Release build")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    ticks = [int(f) for f in fields[:8]]
    return ticks[7], sum(ticks)


def provenance(server_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
                        *(ROOT / "tools").rglob("*")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": NPROC, "simd": server_info.get("simd", "unknown"),
            "compiler": server_info.get("compiler", "unknown"),
            "build_type": "Release", "google_benchmark": "not used",
            "cpu": cpu, "commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


# --- workloads ---------------------------------------------------------------

def generate_datasets(workload, seed, run_dir):
    """Writes the datasets with colossal_cli, seeded by the run's seed.

    Every workload gets the ALL-like and Replace-like data (the traced
    run's shard and data probes use the Replace-like files); warm_hits
    adds DiagPlus. Returns {request path: "KIND:DB"} for the verifier,
    DB being the unsharded database the path denotes.
    """
    def cli(*args):
        run_tool([TOOLS / "colossal_cli", *args], 60, cwd=run_dir)

    cli("generate", "--dataset", "microarray", "--seed", seed, "--out",
        "all.fimi")
    cli("snapshot", "--in", "all.fimi", "--out", "all.snap")
    cli("generate", "--dataset", "trace", "--seed", seed, "--out", "rep.fimi")
    cli("snapshot", "--in", "rep.fimi", "--out", "rep.snap")
    (run_dir / "rep_shards").mkdir()  # colossal_cli shard needs it to exist
    cli("shard", "--in", "rep.fimi", "--out-dir", "rep_shards", "--shards", 4,
        "--name", "rep")
    datasets = {"all.snap": "microarray:all.snap",
                "rep.snap": "trace:rep.snap",
                "rep_shards/rep.manifest": "trace:rep.snap"}
    if workload == "warm_hits":
        cli("generate", "--dataset", "diagplus", "--n", 40, "--extra", 20,
            "--out", "diag.fimi")
        datasets["diag.fimi"] = "diagplus:diag.fimi"
    return datasets


def request_lines(workload, seed, seconds):
    """(priming lines, timed lines) of a run; each line its own --seed.

    Paths are relative to the run directory, where every tool runs.
    Mining seeds are seed * 10^6 + i: i = 0 primes the cold workloads, so
    the priming request is never one of the timed ones.
    """
    base = seed * 1_000_000
    all_line = "--in all.snap --min-support 30 --k 30 --pool-size 2"
    if workload == "warm_hits":
        rep_line = "--in rep.snap --sigma 0.03 --k 100 --pool-size 3"
        diag_line = "--in diag.fimi --min-support 20 --k 100 --pool-size 2"
        lines = ([f"{all_line} --seed {base + i}" for i in range(1, 5)] +
                 [f"{rep_line} --seed {base + i}" for i in range(5, 9)] +
                 [f"{diag_line} --seed {base + i}" for i in range(9, 17)])
        return lines, lines
    template = all_line if workload == "all_cold" else (
        "--in rep_shards/rep.manifest --shards exact --sigma 0.03 --k 100 "
        "--pool-size 3")
    count = COLD_LINES_PER_SECOND * max(int(seconds), 1)
    timed = [f"{template} --seed {base + i}" for i in range(1, count + 1)]
    return [f"{template} --seed {base}"], timed


WORKLOADS = {
    # (transport, expected source of every timed response). The client
    # drives one connection: a cold mine already uses every core, and more
    # hit connections than cores queue threads on the CPUs, which turns
    # hypervisor steal into multi-millisecond tails.
    "all_cold": ("tcp", "mined"),
    "replace_shard_cold": ("tcp", "mined"),
    "warm_hits": ("http", "cache"),
}


# --- the server --------------------------------------------------------------

class Server:
    """One `colossal_serve listen` process, stopped and reaped on exit."""

    def __init__(self, run_dir, tag):
        # stdout goes to a file that is polled for the two "listening"
        # lines: no pipe to drain, and a crash shows as an early exit.
        self.stdout_path = run_dir / f"server-{tag}.out"
        self.stdout = open(self.stdout_path, "w")
        self.stderr = open(run_dir / f"server-{tag}.err", "w")
        self.proc = subprocess.Popen(
            [str(TOOLS / "colossal_serve"), "listen", "--port", "0",
             "--http-port", "0", "--mining-threads", str(NPROC)],
            stdout=self.stdout, stderr=self.stderr, cwd=run_dir)
        self.port = self.http_port = None
        deadline = time.monotonic() + 30
        while self.port is None or self.http_port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("colossal_serve did not start listening")
            time.sleep(0.002)
            text = self.stdout_path.read_text()
            tcp = re.search(r"^listening host=\S+ port=(\d+)$", text, re.M)
            web = re.search(r"^listening http host=\S+ port=(\d+)$", text,
                            re.M)
            self.port = int(tcp.group(1)) if tcp else None
            self.http_port = int(web.group(1)) if web else None

    def get(self, target):
        connection = http.client.HTTPConnection("127.0.0.1", self.http_port,
                                                timeout=30)
        try:
            connection.request("GET", target)
            response = connection.getresponse()
            body = response.read().decode()
            if response.status != 200:
                raise BenchError(f"GET {target}: {response.status}")
            return body
        finally:
            connection.close()

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def pin(self, cpu):
        """Moves every thread of the server onto one CPU."""
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            os.sched_setaffinity(int(task.name), {cpu})

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stdout.close()
        self.stderr.close()


def _spin(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def wake_cpus():
    workers = [multiprocessing.Process(target=_spin, args=(WAKE_SECONDS,))
               for _ in range(NPROC)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def set_up(run_dir, tag, expected_mined):
    """Spawn + prime; returns (server, seconds until primed)."""
    begin = time.perf_counter()
    server = Server(run_dir, tag)
    try:
        report = json.loads(run_tool(
            [TOOLS / "colossal_loadgen", "--port", server.port, "--requests",
             "prime.txt", "--connections", 1], 120, cwd=run_dir))
        elapsed = time.perf_counter() - begin
        if (report["requests_failed"] != 0 or
                report["sources"]["mined"] != expected_mined):
            raise BenchError(f"priming pass went wrong: {report}")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


# --- one run -----------------------------------------------------------------

def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def oracle_check(run_dir, timed_lines, served):
    """Re-mines a sample of served lines with `colossal_serve batch`.

    Returns (sampled, mismatched line indices).
    """
    if len(served) <= ORACLE_SAMPLE:
        sample = list(served)
    else:
        step = (len(served) - 1) / (ORACLE_SAMPLE - 1)
        sample = sorted({served[round(i * step)] for i in range(ORACLE_SAMPLE)})
    (run_dir / "oracle").mkdir()
    write_lines(run_dir / "oracle.txt", [timed_lines[i] for i in sample])
    run_tool([TOOLS / "colossal_serve", "batch", "--requests", "oracle.txt",
              "--out-dir", "oracle", "--threads", NPROC, "--mining-threads",
              1], 150, cwd=run_dir)
    mismatched = []
    for position, line in enumerate(sample, start=1):
        expected = (run_dir / "oracle" /
                    f"response_{position:04d}.txt").read_bytes()
        served = (run_dir / "payloads" / f"line_{line}.txt").read_bytes()
        if served != expected:
            mismatched.append(line)
    return sample, mismatched


def run(workload, seed, seconds, trace):
    transport, expected_source = WORKLOADS[workload]
    run_dir = RUNS / f"{workload}-{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    datasets = generate_datasets(workload, seed, run_dir)
    prime, timed = request_lines(workload, seed, seconds)
    write_lines(run_dir / "prime.txt", prime)
    write_lines(run_dir / "timed.txt", timed)
    (run_dir / "payloads").mkdir()
    problems = []

    setups = []
    primed_rss_mb = []  # VmHWM of each server once primed
    server = None
    try:
        wake_cpus()
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = set_up(run_dir, repeat, len(prime))
            setups.append(elapsed)
            primed_rss_mb.append(server.peak_rss_mb())
        log(f"{workload}: setup {[round(s, 3) for s in setups]} s; "
            f"driving one {transport} connection for {seconds} s")
        port = server.http_port if transport == "http" else server.port
        primed_text = server.get("/metrics")
        # A window that only hits the cache runs the server on CPU 1 and
        # the client on CPU 0: each request then hands off between threads
        # on one CPU instead of waking idle ones, whose wake-up time
        # varies with the host's load. Mining windows need every CPU.
        pinned = expected_source == "cache" and NPROC > 1
        if pinned:
            server.pin(1)
        steal_before, total_before = cpu_ticks()
        client = last_json_line(run_tool(
            [BUILD / "perfbench_client", "--port", port, "--requests",
             "timed.txt", "--seconds", seconds, "--min-requests",
             QUALITY_LINES, "--payload-dir", "payloads",
             *(["--http"] if transport == "http" else [])],
            seconds + 60, cwd=run_dir,
            preexec_fn=(lambda: os.sched_setaffinity(0, {0})) if pinned
            else None))
        steal_after, total_after = cpu_ticks()
        window_rss_mb = server.peak_rss_mb()
        metrics_text = server.get("/metrics")
        records = []
        if trace:
            records = json.loads(server.get(
                f"/debug/requests?n={max(1, min(client['attempted'], 1000))}"))
            records = records["requests"]
    finally:
        if server is not None:
            server.stop()

    exposition = parse_exposition(metrics_text)
    info = build_info(metrics_text)
    attempted = client["attempted"]
    failed = client["failed"]
    if failed:
        problems.append(f"{failed} failed request(s): "
                        f"{client['first_failure']}")
    if client["mismatched"]:
        problems.append(f"{client['mismatched']} payload(s) differ from the "
                        "first payload served for the same line")
    # Source mix: every timed response from the expected path, on both
    # sides of the wire.
    if client["sources"][expected_source] != attempted - failed:
        problems.append(f"source mix {client['sources']}: expected every "
                        f"response to be {expected_source}")
    server_counts = {
        source: exposition.get(f"colossal_responses_{source}_total", 0)
        for source in ("mined", "cache", "coalesced")}
    expected_server = {"mined": len(prime), "cache": 0, "coalesced": 0}
    expected_server[expected_source] += attempted - failed
    if server_counts != expected_server:
        problems.append(f"server counted {server_counts}, expected "
                        f"{expected_server}")

    served = client["served_lines"]
    sample, oracle_mismatch = oracle_check(run_dir, timed, served)
    if oracle_mismatch:
        problems.append(f"served payloads of lines {oracle_mismatch} differ "
                        "from colossal_serve batch")
    verify = last_json_line(run_tool(
        [BUILD / "perfbench_probe", "verify", "--requests", "timed.txt",
         "--payload-dir", "payloads", "--lines", ",".join(map(str, served)),
         "--datasets", ",".join(f"{k}={v}" for k, v in datasets.items()),
         "--seed", seed], 120, cwd=run_dir))
    if verify["bad"]:
        problems.append(f"{verify['bad']} payload(s) fail the support "
                        f"check: {verify['first_bad']}")
    scored = min(QUALITY_LINES, len(set(timed)))
    if verify["quality_lines"] != scored:
        problems.append(f"quality scored over {verify['quality_lines']} "
                        f"lines, expected the first {scored}")

    # Peak memory once the server has done all its mining: after the window
    # on the cold workloads; on warm_hits, whose window only hits the
    # cache, after priming, as the median over the set-ups (which
    # handler thread mined which line moves a single server's peak).
    if expected_source == "cache":
        peak_rss_mb = statistics.median(primed_rss_mb[:-1] + [window_rss_mb])
    else:
        peak_rss_mb = window_rss_mb
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "transport": transport,
        "samples": attempted, "setup_runs_s": setups,
        "primed_rss_mb": primed_rss_mb, "window_rss_mb": window_rss_mb,
        "client": client,
        "oracle_lines": sample, "verify": verify, "problems": problems,
        "provenance": provenance(info),
        # CPU time the hypervisor gave to other guests during the window:
        # on a shared host it moves every timing metric.
        "cpu_steal_share": (steal_after - steal_before) /
                           max(total_after - total_before, 1),
    }
    values = {
        "p50_ms": client["latency_ms"]["p50"],
        "p90_ms": client["latency_ms"]["p90"],
        "throughput_rps": attempted / client["window_s"],
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "planted_recall": verify["planted_recall"],
        "approx_error": verify["approx_error"],
    }
    if trace:
        values = traced_metrics(workload, run_dir, client,
                                parse_exposition(primed_text), exposition,
                                records, len(prime), report)
        if values.pop("trace.payload_mismatch"):
            problems.append("the in-process replay rendered payloads that "
                            "differ from the served ones")
    report["values"] = values
    (RUNS / f"{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2))
    if not problems:  # a failed run keeps its inputs and payloads
        shutil.rmtree(run_dir)
    return report, values, problems, attempted, failed


def traced_metrics(workload, run_dir, client, primed_exposition, exposition,
                   records, primed, report):
    """The per-layer metrics: the in-process probe plus the server scrape."""
    probe = last_json_line(run_tool(
        [BUILD / "perfbench_probe", "layers", "--workload", workload,
         "--requests", "timed.txt", "--replay", REPLAY_LINES[workload],
         "--threads", NPROC, "--trace-snap", "rep.snap", "--trace-fimi",
         "rep.fimi", "--trace-manifest", "rep_shards/rep.manifest",
         "--payload-dir", "payloads"], 170, cwd=run_dir))
    report["probe"] = probe
    values = {k: v for k, v in probe.items()
              if k not in ("trace.spans", "trace.replayed")}
    # The window's requests only: the scrape taken once the server was
    # primed is subtracted.
    values.update(phase_means_ms(primed_exposition, exposition))
    served = {s: exposition.get(f"colossal_responses_{s}_total", 0) -
              primed_exposition.get(f"colossal_responses_{s}_total", 0)
              for s in ("mined", "cache", "coalesced")}
    total = sum(served.values())
    values["service.cache_hit_share"] = served["cache"] / total if total \
        else 0.0
    values["service.coalesced_share"] = served["coalesced"] / total if total \
        else 0.0
    # Server-side request time of the timed window: flight records past
    # the priming requests (ids are minted in arrival order from 1).
    window = [r["total_ms"] for r in records if r["id"] > primed]
    server_p50 = statistics.median(window) if window else 0.0
    client_p50 = client["latency_ms"]["p50"]
    values["net.wire_overhead_us"] = 1e3 * (client_p50 - server_p50)
    values["trace.server_p50_ms"] = server_p50
    # What the blocking-path spans of the in-process replay do not explain
    # of the server-side request time.
    unexplained = server_p50 - probe["trace.blocking_self_ms"]
    values["trace.unexplained_ms"] = unexplained
    values["trace.unexplained_share"] = (unexplained / server_p50
                                         if server_p50 else 0.0)
    return values


def run_and_report(spec, workload, seed, seconds, trace):
    """One run: prints its provenance and result lines, returns its exit
    code (0 ok, 1 a check failed, 2 no result)."""
    try:
        report, values, problems, attempted, failed = run(
            workload, seed, seconds, trace)
        catalogue = spec["per_layer" if trace else "end_to_end"]
        line = result_line(not problems, attempted, failed, values, catalogue)
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as error:
        log(f"{workload}: error: {error}")
        return 2
    for problem in problems:
        log(f"{workload}: check failed: {problem}")
    print(json.dumps({"workload": workload,
                      "provenance": report["provenance"],
                      "samples": report["samples"],
                      "cpu_steal_share": report["cpu_steal_share"]}))
    print(line, flush=True)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every server gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_catalogue()
        build()
    except (BenchError, OSError, subprocess.TimeoutExpired,
            ValueError) as error:
        log(f"error: {error}")
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max([run_and_report(spec, workload, args.seed, args.seconds,
                               args.trace) for workload in workloads])

if __name__ == "__main__":
    sys.exit(main())
