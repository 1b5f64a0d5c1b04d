"""Self-check of the benchmark: every workload runs, passes the correctness
gate and reports every metric ``BENCHMARK.json`` names.  No timing is
asserted.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_gate_and_reports_every_metric(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_layers_absent_from_a_workload_read_zero():
    metrics = _result(_run("sweep-bungalow", 1))["metrics"]
    assert metrics["qub.trace_render.bytes"]["value"] == 0
    assert metrics["doe.sweep.cells"]["value"] == 1600
    assert metrics["qub.simulate.calls"]["value"] >= 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep-bungalow", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_optimum_reference_is_the_seed_answer():
    text = (workloads.REFS / "optimum-house.txt").read_text(encoding="utf-8")
    assert text.startswith("ph_W=3000.0 t_qub_s=19095.65217391304 ")


def test_gate_rejects_changed_outputs():
    check_grid = workloads.WORKLOADS["sweep-bungalow"].check
    with gzip.open(workloads.REFS / "sweep-bungalow.csv.gz", "rt", encoding="utf-8") as fh:
        grid = fh.read()
    line = grid.splitlines(keepends=True)[5]
    fields = line.split(",")

    def with_field(index: int, value: str) -> dict[str, str]:
        return {"stdout.0": grid.replace(line, ",".join(
            fields[:index] + [value] + fields[index + 1:]))}

    assert check_grid({"stdout.0": grid}) == []
    assert check_grid(with_field(5, repr(float(fields[5]) * (1 + 1e-14)))) == []
    assert check_grid(with_field(5, repr(float(fields[5]) * (1 + 1e-10))))
    assert check_grid(with_field(5, "nan"))
    assert check_grid(with_field(7, "0\n"))

    check_optimum = workloads.WORKLOADS["optimum-house"].check
    optimum = (workloads.REFS / "optimum-house.txt").read_text(encoding="utf-8")
    assert check_optimum({"stdout.0": optimum}) == []
    assert check_optimum({"stdout.0": optimum.replace("ph_W=3000.0", "ph_W=2800.0")})


def test_trace_gate_checks_every_row():
    check_trace = workloads.WORKLOADS["trace-bungalow"].check
    with gzip.open(workloads.REFS / "trace-bungalow.csv.gz", "rt", encoding="utf-8") as fh:
        trace = fh.read()
    estimate = json.loads((workloads.REFS / "trace-bungalow.json")
                          .read_text(encoding="utf-8"))["estimate"]
    lines = trace.splitlines(keepends=True)
    row = 12346  # inside the heating phase, away from both ends
    t, dT, power, phase = lines[row].rstrip("\n").split(",")

    def with_row(*fields: str) -> dict[str, str]:
        changed = lines[:row] + [",".join(fields) + "\n"] + lines[row + 1:]
        return {"trace.csv": "".join(changed), "stdout.1": estimate}

    assert check_trace({"trace.csv": trace, "stdout.1": estimate}) == []
    assert check_trace(with_row(t, repr(float(dT) * (1 + 1e-14)), power, phase)) == []
    assert check_trace(with_row(t, repr(float(dT) * (1 + 1e-10)), power, phase))
    assert check_trace(with_row(t, dT, power, "cooling" if phase == "heating" else "heating"))
    assert check_trace({"trace.csv": "".join(lines[:-1]), "stdout.1": estimate})


def test_seeded_inputs_are_reproducible_and_equivalent():
    source = ROOT / "src" / "qubdoe" / "data" / "house.json"
    a, b = workloads.seeded_building(source, 1), workloads.seeded_building(source, 2)
    assert a == workloads.seeded_building(source, 1)
    assert a != b
    assert json.loads(a) == json.loads(b) == json.loads(source.read_text(encoding="utf-8"))


def test_tracer_skips_missing_names_and_restores_originals():
    sys.path.insert(0, str(ROOT / "src"))
    import qubdoe.doe as doe

    assert tracing._resolve("qubdoe.doe:no_such_function") is None
    assert tracing._resolve("no_such_module:f") is None
    original = doe.simulate_qub
    tracer = tracing.Tracer()
    tracer.install()
    assert doe.simulate_qub is not original
    tracer.uninstall()
    assert doe.simulate_qub is original
    assert set(tracer.snapshot()) == set(tracing.metric_names())
