"""qubdoe benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]

Run from the repository root; the package is imported from ``src/``.
The workload's command chain (see ``workloads.py``) runs in-process
through ``qubdoe.cli.main(argv)`` with stdout captured in memory, in a
closed loop: one invocation after another, for ``--seconds`` after a
warm-up.  Every invocation's outputs pass the correctness gate: the first
against the stored reference, each later one byte for byte against the
first.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: mean wall time of one invocation of the chain over the
  timed loop (a shared host's speed can switch between levels for
  seconds at a time; a median of such samples jumps from one level to
  another, while the mean follows the share of time spent at each);
* ``wall_tail_s``: the highest-ranked sample with at least 10 samples
  beyond it (its percentile and the sample count are printed on the
  ``info`` line);
* ``setup_s``: median, over fresh interpreters, of the time from spawn to
  the first simulate or sweep call (import, parse, reduce and, for a
  sweep, the reference H and the axes);
* ``peak_rss_mb``: peak resident memory of a fresh process running the
  chain once.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``tracing.py`` (medians over traced invocations)
and the tracing overhead (from the mean traced and untraced walls).

BLAS thread variables that are unset are set to 1, so a run keeps no
more busy threads than the sweep's own workers; ``QUBDOE_THREADS`` is
left unset.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
share of invocations (in-process and probe processes) that raised,
exited non-zero or failed the gate.  Without the ``src/qubdoe`` sources
the script exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

from workloads import WORKLOADS, seeded_building  # noqa: E402

SETUP_SAMPLES = 9          # fresh interpreters timed per run, after one untimed
RSS_SAMPLES = 1            # fresh processes whose peak memory is read
WARMUP_SECONDS = 2.5       # untimed warm-up, at least
MIN_WARMUP = 3             # untimed invocations, at least
TAIL_BEYOND = 10           # samples required beyond the tail sample
SETUP_STOP = ("sweep", "simulate_qub")  # first call that ends set-up
PROBE_TIMEOUT_S = 60
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class InvocationError(Exception):
    """A command of the chain exited with a non-zero status."""


def invoke(cli, chain: list[list[str]]) -> list[str]:
    """Run each command line through ``cli.main``; return their stdouts."""
    stdouts = []
    for argv in chain:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            raise InvocationError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        stdouts.append(out.getvalue())
    return stdouts


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def prepare_environment() -> dict:
    """Record the machine and thread settings; cap ``os.cpu_count`` at the
    usable CPUs so the sweep starts no more threads than cores, pin unset
    BLAS thread variables to 1 (before numpy is imported), and leave
    ``QUBDOE_THREADS`` unset as users do."""
    usable = len(os.sched_getaffinity(0))
    reported = os.cpu_count()
    record = {
        "usable_cpus": usable,
        "os_cpu_count": reported,
        "cpu_count_capped": bool(reported and reported > usable),
        "qubdoe_threads_unset": os.environ.pop("QUBDOE_THREADS", None),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "git_sha": _git_sha(),
    }
    record["blas_pinned"] = [name for name in BLAS_VARIABLES if name not in os.environ]
    for name in record["blas_pinned"]:
        os.environ[name] = "1"
    if record["cpu_count_capped"]:
        os.cpu_count = lambda: usable
    return record


def complete_environment(record: dict) -> None:
    """Add what needs the package imported: numpy version and the
    sweep's resolved worker count (None once the sweep has no pool)."""
    import numpy
    import qubdoe.doe as doe

    record["numpy"] = numpy.__version__
    thread_count = getattr(doe, "_thread_count", None)
    record["sweep_workers"] = thread_count(None, 10**9) if thread_count else None


# ---------------------------------------------------------------------------
# fresh-process probes
# ---------------------------------------------------------------------------

class Probes:
    """Fresh-process probes (``probe.py``): set-up time and peak memory.

    Set-up probes are spread over the timed loop, so that their median
    sees the same machine as the in-process samples."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.setup: list[float] = []
        self.rss: list[float] = []
        self.attempted = self.timed = 0
        self.problems: list[str] = []  # one entry per failed probe

    def _run(self, mode: str) -> tuple[dict | None, int]:
        self.attempted += 1
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), mode,
                               json.dumps(self.spec)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            self.problems.append(f"{mode} probe exited {proc.returncode}: "
                                 f"{proc.stderr.strip()}")
            return None, spawn_ns
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawn_ns

    def start(self) -> None:
        """An untimed set-up probe (it compiles bytecode and fills file
        caches), then the memory probes."""
        self._run("setup")
        for _ in range(RSS_SAMPLES):
            result, _ = self._run("rss")
            if result is not None:
                self.rss.append(result["maxrss_kb"] / 1024.0)

    def keep_pace(self, fraction: float) -> None:
        """Run the timed set-up probes due once ``fraction`` of the loop
        is done."""
        while self.timed < min(SETUP_SAMPLES, SETUP_SAMPLES * fraction):
            self.timed += 1
            result, spawn_ns = self._run("setup")
            if result is not None:
                self.setup.append((result["ready_ns"] - spawn_ns) * 1e-9)


# ---------------------------------------------------------------------------
# in-process loop
# ---------------------------------------------------------------------------

class Loop:
    """Closed-loop invocations of one chain with the correctness gate."""

    def __init__(self, cli, workload, chain, tmp: Path, tracer=None) -> None:
        self.cli, self.workload, self.chain, self.tmp = cli, workload, chain, tmp
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] | None = None
        self.first_problems: list[str] = []

    def once(self, traced: bool = False):
        """One gated invocation: (wall seconds, layer metrics or None), or
        None when it failed."""
        gc.collect()
        self.attempted += 1
        layers = None
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            stdouts = invoke(self.cli, self.chain)
            wall = time.perf_counter() - start
        except (Exception, SystemExit) as exc:
            self.problems.append(f"invocation raised {exc!r}")
            self.failed += 1
            return None
        finally:
            if traced:
                self.tracer.uninstall()
                layers = self.tracer.snapshot()
        outputs = self.workload.collect(stdouts, self.tmp)
        if self.first is None:
            self.first, self.first_problems = outputs, self.workload.check(outputs)
            problems = self.first_problems
        elif outputs != self.first:
            problems = ["output differs from the run's first invocation"]
        else:
            problems = self.first_problems
        if problems:
            self.problems.extend(problems)
            self.failed += 1
            return None
        return wall, layers

    def run(self, seconds: float, between=None) -> list[tuple[bool, float, dict | None]]:
        """Warm up, then invoke for ``seconds``; traced and untraced
        invocations alternate when a tracer is given.  ``between`` is
        called after each timed invocation with the share of the loop
        done; its own time does not count."""
        tracing = self.tracer is not None
        start, count = time.perf_counter(), 0
        while count < MIN_WARMUP or time.perf_counter() - start < WARMUP_SECONDS:
            self.once(traced=tracing and count % 2 == 1)
            count += 1
        samples = []
        spent, count = 0.0, 0
        while len(samples) < (2 if tracing else 1) or spent < seconds:
            traced = tracing and count % 2 == 1
            start = time.perf_counter()
            result = self.once(traced)
            spent += time.perf_counter() - start
            count += 1
            if result is not None:
                samples.append((traced, *result))
            elif count > 3 and self.failed > count // 2:
                break  # failing throughout: no point in spending the time
            if between is not None:
                between(spent / seconds)
        return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest-ranked sample with ``TAIL_BEYOND`` samples beyond it,
    and its percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[rank], (100.0 * rank / (n - 1) if n > 1 else 100.0)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None,
                        help="also write samples and details as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "qubdoe" / "cli.py").is_file():
        print(f"error: qubdoe sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = prepare_environment()
    tmp = TMP_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        building = tmp / workload.building
        building.write_text(seeded_building(SRC / "qubdoe" / "data" / workload.building,
                                            args.seed), encoding="utf-8")
        chain = workload.argv_chain(building, tmp)
        spec = {"src": str(SRC), "chain": chain, "stop": SETUP_STOP,
                "cpu_count": len(os.sched_getaffinity(0)) if env["cpu_count_capped"] else None}
        return _measure(args, workload, chain, tmp, spec, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def _measure(args, workload, chain, tmp: Path, spec: dict, env: dict) -> int:
    probes = None if args.trace else Probes(spec)
    if probes is not None:
        probes.start()

    sys.path.insert(0, str(SRC))
    import qubdoe.cli as cli
    complete_environment(env)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    loop = Loop(cli, workload, chain, tmp, tracer)
    samples = loop.run(args.seconds, probes.keep_pace if probes is not None else None)
    if probes is not None:
        probes.keep_pace(1.0)
    failed, attempted, problems = loop.failed, loop.attempted, loop.problems
    if probes is not None:
        failed += len(probes.problems)
        attempted += probes.attempted
        problems += probes.problems

    untraced = [wall for traced, wall, _ in samples if not traced]
    info = {"workload": workload.name, "seed": args.seed, "env": env,
            "invocations": loop.attempted, "probes": attempted - loop.attempted}
    if args.trace:
        from tracing import UNITS, metric_names
        traced = [(wall, layers) for is_traced, wall, layers in samples if is_traced]
        metrics = {name: {"value": _median(layers[name] for _, layers in traced),
                          "unit": UNITS[name.rsplit(".", 1)[1]][0]}
                   for name in metric_names()}
        traced_wall = _mean(wall for wall, _ in traced)
        untraced_wall = _mean(untraced)
        metrics.update({
            "trace.wall_s": {"value": traced_wall, "unit": "s"},
            "trace.untraced_wall_s": {"value": untraced_wall, "unit": "s"},
            "trace.overhead_s": {"value": traced_wall - untraced_wall, "unit": "s"},
            "trace.overhead_frac": {"value": (traced_wall / untraced_wall - 1.0
                                              if untraced_wall else 0.0), "unit": "ratio"},
        })
        info["traced_samples"] = len(traced)
        info["untraced_samples"] = len(untraced)
    else:
        tail_value, percentile = tail(untraced) if untraced else (0.0, 0.0)
        metrics = {
            "wall_s": {"value": _mean(untraced), "unit": "s"},
            "wall_tail_s": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": _median(probes.setup), "unit": "s"},
            "peak_rss_mb": {"value": _median(probes.rss), "unit": "MB"},
        }
        info.update(samples=len(untraced), wall_tail_percentile=percentile,
                    setup_samples=len(probes.setup), rss_samples=len(probes.rss))
    info["fail_frac"] = failed / attempted
    info["problems"] = problems[:10]
    print("info " + json.dumps(info))
    if args.report is not None:
        report = {"info": info, "metrics": metrics,
                  "walls": [[traced, wall] for traced, wall, _ in samples],
                  "setup": probes.setup if probes else [], "rss": probes.rss if probes else []}
        args.report.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
