"""The example-building generator reproduces the bundled buildings and
its tuning report runs.  The script is imported by path; its ``main()``
is never called, because it overwrites the bundled data."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import qubdoe as q

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gen_example_buildings.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("gen_example_buildings", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, bundled", [("bungalow", q.bungalow_json),
                                           ("house", q.house_json)])
def test_builds_the_bundled_json(generator, name, bundled, capsys):
    circuit = getattr(generator, f"build_{name}")()
    assert q.circuit_to_json(circuit) == bundled()
    generator.report(circuit)
    out = capsys.readouterr().out
    assert out.startswith(f"== {circuit.name}:") and "H_ref = " in out
