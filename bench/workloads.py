"""The benchmark's workloads: seeded inputs, command chains and the
correctness gate.

A workload is a chain of ``qubdoe`` command lines.  Its building
document is generated from ``--seed``: the bundled document is re-emitted
with its object keys shuffled and its indentation varied, so every seed
describes the same building and must give the same output bytes.  The
gate compares those outputs with references generated once from the
seed commit and stored under ``refs/`` (see ``make_refs.py``).
"""
from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

#: numeric fields must agree with the reference to this relative error
REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    building: str
    chain: tuple[tuple[str, ...], ...]
    why: str
    check: Callable[[dict[str, str]], list[str]]
    files: tuple[str, ...] = ()  # written by the chain under {tmp}

    def argv_chain(self, building_path: Path, tmp: Path) -> list[list[str]]:
        """Command lines with ``{building}`` and ``{tmp}`` filled in."""
        return [[arg.format(building=building_path, tmp=tmp) for arg in argv]
                for argv in self.chain]

    def collect(self, stdouts: list[str], tmp: Path) -> dict[str, str]:
        """The outputs the gate checks: ``stdout.<i>`` of each command and
        the files it wrote."""
        outputs = {f"stdout.{i}": text for i, text in enumerate(stdouts)}
        outputs.update({name: (tmp / name).read_text(encoding="utf-8")
                        for name in self.files})
        return outputs


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _shuffled(obj, rng: random.Random):
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {key: _shuffled(value, rng) for key, value in items}
    if isinstance(obj, list):
        return [_shuffled(value, rng) for value in obj]
    return obj


def seeded_building(source: Path, seed: int) -> str:
    """The building document at ``source`` re-emitted for ``seed``: same
    content, shuffled key order, seed-chosen indentation."""
    rng = random.Random(f"{source.name}:{seed}")
    doc = _shuffled(json.loads(source.read_text(encoding="utf-8")), rng)
    return json.dumps(doc, indent=rng.choice([None, 1, 2, 4])) + "\n"


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _same_number(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_rows(actual: list[list[str]], expected: list[list[str]],
                 exact_columns: set[str], what: str) -> list[str]:
    """Compare CSV rows with a header: columns in ``exact_columns`` must
    match as text, every other field numerically to ``REL_TOL`` with nan
    in the same places."""
    if not actual or actual[0] != expected[0]:
        return [f"{what}: header {actual[:1]} != {expected[0]}"]
    if len(actual) != len(expected):
        return [f"{what}: {len(actual) - 1} rows, expected {len(expected) - 1}"]
    header = expected[0]
    problems = []
    for i, (row, ref) in enumerate(zip(actual[1:], expected[1:]), start=2):
        if len(row) != len(header):
            problems.append(f"{what} line {i}: {len(row)} fields")
            continue
        for col, a, b in zip(header, row, ref):
            ok = a == b if col in exact_columns else _same_number(a, b)
            if not ok:
                problems.append(f"{what} line {i} {col}: {a} != {b}")
        if len(problems) >= 5:
            break
    return problems


def _key_values(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def _check_sweep(outputs: dict[str, str]) -> list[str]:
    with gzip.open(REFS / "sweep-bungalow.csv.gz", "rt", encoding="utf-8") as fh:
        expected = fh.read()
    if outputs["stdout.0"] == expected:
        return []
    return compare_rows(_rows(outputs["stdout.0"]), _rows(expected), {"valid"}, "grid")


def _check_optimum(outputs: dict[str, str]) -> list[str]:
    expected = (REFS / "optimum-house.txt").read_text(encoding="utf-8")
    if outputs["stdout.0"] == expected:
        return []
    try:
        got, ref = _key_values(outputs["stdout.0"]), _key_values(expected)
    except ValueError:
        return [f"optimum: unreadable output {outputs['stdout.0']!r}"]
    if got.keys() != ref.keys():
        return [f"optimum: fields {sorted(got)} != {sorted(ref)}"]
    problems = [f"optimum: chosen {key}={got[key]}, expected {ref[key]}"
                for key in ("ph_W", "t_qub_s") if float(got[key]) != float(ref[key])]
    problems += [f"optimum: {key}={got[key]}, expected {ref[key]}"
                 for key in sorted(ref.keys() - {"ph_W", "t_qub_s"})
                 if not _same_number(got[key], ref[key])]
    return problems


def _check_trace(outputs: dict[str, str]) -> list[str]:
    ref = json.loads((REFS / "trace-bungalow.json").read_text(encoding="utf-8"))
    problems = []
    text = outputs["trace.csv"]
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != ref["trace_sha256"]:
        with gzip.open(REFS / "trace-bungalow.csv.gz", "rt", encoding="utf-8") as fh:
            expected = fh.read()
        problems += compare_rows(_rows(text), _rows(expected), {"phase"}, "trace")
    if outputs["stdout.1"] != ref["estimate"]:
        problems += compare_rows(_rows(outputs["stdout.1"]), _rows(ref["estimate"]),
                                 set(), "estimate")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-bungalow",
        building="bungalow.json",
        chain=(("sweep", "{building}"),),
        why="default 40x40 sweep: per-cell call overhead, thread pool, fits "
            "and error budget; no trace CSV work",
        check=_check_sweep,
    ),
    Workload(
        name="trace-bungalow",
        building="bungalow.json",
        chain=(("simulate", "{building}", "--ph", "1500", "--tqub", "43200",
                "--dt", "1", "--out", "{tmp}/trace.csv"),
               ("estimate", "--trace", "{tmp}/trace.csv")),
        why="86,401-sample simulate -> CSV -> estimate round trip: trace "
            "render/parse and label validation; no sweep",
        check=_check_trace,
        files=("trace.csv",),
    ),
    Workload(
        name="optimum-house",
        building="house.json",
        chain=(("optimum", "{building}", "--set", "T_g=14", "--pc", "300",
                "--dt", "60", "--ph-range", "200:3000:24",
                "--t-range", "3600:43200:24", "--max-temp", "10"),),
        why="two-zone 24x24 sweep with long per-cell traces, 96 invalid "
            "cells and a binding temperature limit in select_optimum",
        check=_check_optimum,
    ),
)}
