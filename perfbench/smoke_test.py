"""Smoke test of the benchmark: all four workloads, briefly, in both modes.

Run from the root of the checkout:

    python3 perfbench/smoke_test.py

Each run must exit 0, pass its correctness gate, print the host header,
and end with one JSON line holding every end-to-end metric (--trace 0)
or every per-layer metric (--trace 1) that BENCHMARK.json names, each
with its unit and a finite value.  End-to-end runs must print their
latency sample count; traced runs their tracing overhead.
"""

import json
import math
import subprocess
import sys


def check_run(cmd, workload, trace, expected):
    args = cmd + ["--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=300)
    problems = []
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()[-400:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("correctness gate failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    text = "\n".join(lines[:-1])
    if "host: nproc" not in text:
        problems.append("no host header")
    if trace == 0 and "rtt samples" not in text:
        problems.append("no latency sample count")
    if trace == 1 and "trace overhead" not in text:
        problems.append("no tracing overhead line")
    return problems


# Run by hand and as ladder stages, but not listed in BENCHMARK.json.
IN_PROCESS = ["fabric-solo", "service-combine"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failed = False
    for name in IN_PROCESS + [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_run(spec["command"], name, trace, spec[key])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{name} --trace {trace}: {status}", flush=True)
            failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
