"""Run the benchmark over seeds 1..10 on every workload and summarise,
optionally into a ``BENCH_*.json`` trajectory point.

    python3 bench/baseline.py [--out bench/BENCH_x.json]

Each workload runs once per seed with ``--trace 0`` (seeds outermost, so
the workloads interleave in time), then once with ``--trace 1`` on the
first seed.  Seeds and workloads are fixed so that trajectory points
stay comparable.  For every end-to-end metric it prints the median over
seeds and the spread, the distance between the first and third quartile
as a share of the median, next to the metric's bound from
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, TMP_ROOT
from tracing import LAYERS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        report = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--report", str(report)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads(report.read_text(encoding="utf-8"))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {details['info']['problems']}")
    return details


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(WORKLOADS)

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(_run(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[name][-1]["metrics"].items()),
                flush=True)

    summary = {}
    for name in names:
        traced = _run(name, SEEDS[0], spec["run_seconds"], 1)
        info = runs[name][0]["info"]
        end_to_end = {}
        for metric in bounds:
            values = [run["metrics"][metric]["value"] for run in runs[name]]
            end_to_end[metric] = {"unit": runs[name][0]["metrics"][metric]["unit"],
                                  "bound": bounds[metric], **_summary(values)}
            stats = end_to_end[metric]
            print(f"{name:15s} {metric:12s} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f} (bound {bounds[metric]})")
        summary[name] = {
            "why": WORKLOADS[name].why,
            "runs": len(runs[name]),
            "samples_per_run": [run["info"]["samples"] for run in runs[name]],
            "wall_tail_percentile": [run["info"]["wall_tail_percentile"] for run in runs[name]],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "env": info["env"],
        }

    if args.out is not None:
        point = {
            "command": spec["command"],
            "run_seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "workloads": summary,
            "layer_map": [{"layer": layer.name, "metrics": list(layer.metrics),
                           "functions": list(layer.targets), "moves": layer.moves}
                          for layer in LAYERS],
        }
        args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
