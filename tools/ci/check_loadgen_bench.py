#!/usr/bin/env python3
"""Bench regression gate for the colossal_loadgen JSON report.

Usage: check_loadgen_bench.py BASELINE.json CANDIDATE.json

Compares a CI loadgen run against the checked-in baseline
(BENCH_loadgen.json). Shared CI runners are far too noisy for tight
latency/QPS bounds, so the one performance check is a bound no runner
noise explains; speed is measured by perfbench/run.py instead.

Failures (exit 1):
  - requests_failed > 0 in the candidate
  - requests_sent != connections * repeat * requests_per_pass
    (the server dropped or duplicated requests)
  - a required field is missing or non-numeric
  - latency p99 above baseline*HARD_FACTOR
"""

import json
import sys

# Runner noise is routinely 2-5x; a p99 two orders of magnitude over
# the baseline is a real regression.
HARD_FACTOR = 100.0

REQUIRED = [
    "connections",
    "repeat",
    "requests_per_pass",
    "requests_sent",
    "requests_failed",
    "qps",
]


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} BASELINE.json CANDIDATE.json")
    baseline = load(sys.argv[1])
    candidate = load(sys.argv[2])

    for field in REQUIRED:
        if not isinstance(candidate.get(field), (int, float)):
            fail(f"candidate report is missing numeric field '{field}'")

    if candidate["requests_failed"] > 0:
        first = candidate.get("first_failure", {})
        detail = ""
        if first:
            detail = (
                f" (first failure: request {first.get('request')!r}"
                f" -> {first.get('status')!r})"
            )
        fail(f"{candidate['requests_failed']} request(s) failed{detail}")

    expected = (
        candidate["connections"]
        * candidate["repeat"]
        * candidate["requests_per_pass"]
    )
    if candidate["requests_sent"] != expected:
        fail(
            f"requests_sent={candidate['requests_sent']} but "
            f"connections*repeat*requests_per_pass={expected} — "
            "requests were dropped or duplicated"
        )

    base_p99 = baseline.get("latency_ms", {}).get("p99", 0)
    cand_p99 = candidate.get("latency_ms", {}).get("p99", 0)
    if base_p99 > 0 and cand_p99 > base_p99 * HARD_FACTOR:
        fail(
            f"latency p99 {cand_p99:.3f} ms is more than {HARD_FACTOR:g}x the "
            f"baseline {base_p99:.3f} ms"
        )

    print(
        f"OK: sent={candidate['requests_sent']} failed=0 "
        f"qps={candidate['qps']:.1f} "
        f"p99={cand_p99:.3f}ms (baseline {base_p99:.3f}ms)"
    )


if __name__ == "__main__":
    main()
