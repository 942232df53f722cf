"""Benchmark entry point: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout holding ``src/repro``.  With
``--trace 0`` it prints the end-to-end metrics, pooled over three worker
processes that each set up afresh and measure a third of ``--seconds``:
``setup_s`` is the median of their set-ups, and process-level effects
(memory layout, the CPU it lands on) average out.  With ``--trace 1`` one
worker prints the per-layer metrics of a run whose second half records
spans.  Every metric is printed as a table with its unit,
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is non-zero, with no JSON line, when the program under
test is missing or the run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from summary import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMPDIR = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("point_read", "adhoc", "read_write", "out_of_core")
#: Worker processes per ``--trace 0`` run.
PROCESSES = 3
#: Every run must finish within this many seconds.
DEADLINE_S = 170


def worker(args, deadline: float, seconds: float, *extra: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--tmpdir", TMPDIR,
        *extra,
    ]
    done = subprocess.run(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: tiny instances, for the benchmark's own tests",
    )
    parser.add_argument(
        "--inject-wrong-read", type=int, default=-1, metavar="N",
        help="corrupt the answer of the N-th read before it is checked",
    )
    parser.add_argument("--spans-out", help="write the traced spans as JSON here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    extra = ["--inject-wrong-read", str(args.inject_wrong_read)]
    if args.spans_out:
        extra += ["--spans-out", os.path.abspath(args.spans_out)]
    try:
        if args.trace:
            result = worker(args, deadline, args.seconds, *extra)
        else:
            parts = [
                worker(args, deadline, args.seconds / PROCESSES, "--part", str(i), *extra)
                for i in range(PROCESSES)
            ]
            result = pool(parts)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMPDIR, ignore_errors=True)
    report(args, result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["failures"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


def pool(parts: list[dict]) -> dict:
    """One result from the worker processes of a ``--trace 0`` run."""
    median = statistics.median
    reads = [sample for part in parts for sample in part["reads"]]
    result = {
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "failures": [f for part in parts for f in part["failures"]],
        "read_samples": len(reads),
        "ops": sum(part["ops"] for part in parts),
        "factors": [f for part in parts for f in part["factors"]],
        "raw_rates": [r for part in parts for r in part["raw_rates"]],
        "repeat_frac": median(part["repeat_frac"] for part in parts),
        "setups": [part["setup_s"] for part in parts],
        "metrics": {
            "setup_s": (median(part["setup_s"] for part in parts), "s"),
            "ops_per_s": (median(r for part in parts for r in part["rates"]), "1/s"),
            "read_p50_us": (percentile(reads, 50), "us"),
            "read_p99_us": (
                median(c for part in parts for c in part["read_p99_chunks"]), "us"
            ),
            "tuples_per_read": (median(part["tuples_per_read"] for part in parts), "tuples"),
            "peak_rss_mb": (median(part["peak_rss_mb"] for part in parts), "MB"),
        },
    }
    if "db_file_mb" in parts[0]:
        result["db_file_mb"] = parts[0]["db_file_mb"]
    return result


def report(args, result: dict) -> None:
    """The human-readable table printed before the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<42} {value:>14.4f} {unit}")
    print(f"  {'failed_frac':<42} {failed / max(1, attempted):>14.4f} frac")
    print(f"  read latency samples: {result['read_samples']}; ops timed: {result['ops']}")
    if result["factors"]:
        print(
            f"  machine speed factor: {statistics.median(result['factors']):.3f} "
            f"(unscaled ops_per_s {statistics.median(result['raw_rates']):.1f})"
        )
    print(f"  repeated (text, parameter) requests: {result['repeat_frac']:.1%}")
    if "setups" in result:
        print("  set-ups (s): " + ", ".join(f"{s:.3f}" for s in result["setups"]))
    if "db_file_mb" in result:
        print(f"  SQLite file: {result['db_file_mb']:.1f} MiB")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
