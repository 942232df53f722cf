"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracing import Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, *extra: str) -> dict:
    return result_of(
        bench(
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke", *extra,
        )
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_a_wrong_answer_is_counted_as_failed():
    result = smoke("point_read", 0, "--inject-wrong-read", "5")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", ["adhoc", "read_write"])
def test_traced_spans_nest_with_non_negative_self_time(workload, tmp_path):
    spans_file = tmp_path / "spans.json"
    result = smoke(workload, 1, "--spans-out", str(spans_file))
    spans = [tuple(span) for span in json.loads(spans_file.read_text())]
    assert spans
    totals, calls, problems = self_times(spans)
    assert problems == []
    assert all(ns >= 0 for ns in totals.values())
    # Every op's root span is recorded, and the layers cover its time.
    assert sum(n for name, n in calls.items() if name.startswith("bench.op")) > 0
    gap = result["metrics"]["bench.self_time_gap_frac"]["value"]
    assert 0 <= gap <= 0.10


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        inner()
        time.sleep(0.001)

    outer = tracer.wrap("outer", outer_body)
    tracer.begin_op("read")
    outer()
    tracer.end_op()
    outer()  # inactive: no spans outside an op
    totals, calls, problems = self_times(tracer.spans)
    assert problems == []
    assert calls == {"inner": 2, "outer": 1, "bench.op.read": 1}
    assert totals["inner"] >= 4_000_000
    assert 1_000_000 <= totals["outer"] < totals["inner"]


def test_spans_escaping_their_parent_are_reported():
    spans = [(0, "bench.op.read", 0, 10, -1, 0), (1, "child", 5, 20, 0, 0)]
    assert any("escapes" in p for p in self_times(spans)[2])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
