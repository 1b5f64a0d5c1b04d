"""The public surface: the names the package exports, pinned, so that
growing or shrinking it is a visible edit of this list, how the records
among them compare, and the one runtime dependency, numpy."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import qubdoe as q

PUBLIC = [
    "Branch", "DesignConstraints", "DoeCell", "DoeGrid", "EigenBasis",
    "ErrorBudget", "ErrorPolicy", "FlowSource", "GRID_HEADER",
    "MeasurementErrors", "ModalDecomposition", "ModelError", "Node",
    "NumericalError", "QubEstimate", "QubPartials", "QubProtocol", "QubTrace",
    "QubdoeError", "SchemaError", "SlopeFit", "StateSpaceModel",
    "ThermalCircuit", "Zone", "__version__", "assemble_budget",
    "bungalow_json", "circuit_to_json", "classify_modes", "default_axes",
    "eigendecompose", "estimate_C", "estimate_H", "estimate_from_trace",
    "fit_slope", "grid_to_csv", "house_json", "initial_state",
    "load_bungalow", "load_house", "measurement_error", "modal_decomposition",
    "parse_building", "partials", "recover_C", "reference_H", "select_optimum",
    "simulate_qub", "slope_standard_error", "state_at", "static_gains",
    "step_response", "sweep", "to_state_space", "trace_from_csv",
    "trace_to_csv",
]


def submodules():
    return [importlib.import_module(f"qubdoe.{info.name}")
            for info in pkgutil.iter_modules(q.__path__)]


def test_root_exports_exactly_the_public_names():
    assert sorted(q.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in q.__all__:
        assert hasattr(q, name), name


def test_submodule_exports_are_re_exported_at_the_root():
    for module in submodules():
        exported = getattr(module, "__all__", [])
        assert set(exported) <= set(q.__all__), module.__name__
        for name in exported:
            assert getattr(q, name) is getattr(module, name), (module.__name__, name)


def _model():
    return q.to_state_space(q.load_bungalow())


def _decomposition():
    model = _model()
    return q.modal_decomposition(model, np.zeros(len(model.input_names)),
                                 np.ones(model.n_states))


def _protocol():
    return q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=3600.0)


def _grid():
    return q.sweep(_model(), _protocol(), [500.0, 1000.0], [3600.0], q.ErrorPolicy())


def _column_fit():
    # the sweep's form: one entry per grid cell in every field but t0
    return q.SlopeFit(alpha=np.array([2.0e-4, 3.0e-4]), dT0=np.array([4.0, 6.0]),
                      t0=None, r2=np.array([0.99, 0.98]), n_samples=np.array([60, 60]))


RECORDS_HOLDING_ARRAYS = {
    "model": _model,
    "basis": lambda: q.eigendecompose(_model()),
    "decomposition": _decomposition,
    "trace": lambda: q.simulate_qub(_model(), _protocol()),
    "grid": _grid,
    "slope-fit": _column_fit,
    "partials": lambda: q.partials(np.array([2.0e-4, 3.0e-4]),
                                   np.array([-1.0e-4, -1.5e-4]),
                                   np.array([500.0, 1000.0]), 0.0,
                                   np.array([4.0, 6.0]), np.array([8.0, 12.0])),
    "measurement-errors": lambda: q.ErrorPolicy().resolve(
        np.array([500.0, 1000.0]), _column_fit(), _column_fit()),
    "budget": lambda: q.assemble_budget(np.array([51.0, 52.0]), 50.0,
                                        np.array([0.5, 0.7])),
}


@pytest.mark.parametrize("build", RECORDS_HOLDING_ARRAYS.values(),
                         ids=RECORDS_HOLDING_ARRAYS.keys())
def test_records_holding_arrays_compare_by_identity(build):
    # value equality would compare arrays elementwise, whose truth is
    # ambiguous, and arrays are unhashable
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, second}) == 2


#: every public record, and how it compares: by value (``==`` and
#: ``hash`` over its fields) or by identity (``object.__eq__``)
RECORDS = {
    "Node": "value", "Branch": "value", "FlowSource": "value", "Zone": "value",
    "ThermalCircuit": "value", "QubProtocol": "value", "QubEstimate": "value",
    "DoeCell": "value", "DesignConstraints": "value", "ErrorPolicy": "value",
    "StateSpaceModel": "identity", "EigenBasis": "identity",
    "ModalDecomposition": "identity", "QubTrace": "identity",
    "SlopeFit": "identity", "MeasurementErrors": "identity",
    "QubPartials": "identity", "ErrorBudget": "identity", "DoeGrid": "identity",
}


def test_every_public_record_compares_as_declared():
    records = {name for name in q.__all__ if dataclasses.is_dataclass(getattr(q, name))}
    assert records == set(RECORDS)
    for name, kind in RECORDS.items():
        assert (getattr(q, name).__eq__ is object.__eq__) == (kind == "identity"), name


def _boundary_protocol():
    circuit = q.load_bungalow()
    return q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=3600.0,
                         boundary_temperatures={circuit.temperature_sources[-1]: 5.0})


VALUE_RECORDS = {
    "Node": lambda: q.load_bungalow().nodes[0],
    "Branch": lambda: q.load_bungalow().branches[0],
    "FlowSource": lambda: q.load_bungalow().flow_sources[0],
    "Zone": lambda: q.load_bungalow().zones[0],
    "ThermalCircuit": q.load_bungalow,
    "QubProtocol": _boundary_protocol,
    "QubEstimate": lambda: q.estimate_from_trace(q.simulate_qub(_model(), _protocol())),
    "DoeCell": lambda: _grid().cells[0][1],
    "DesignConstraints": lambda: q.DesignConstraints(
        max_power=2000.0, max_indoor_temperature=35.0, max_total_duration=57600.0),
    "ErrorPolicy": lambda: q.ErrorPolicy(eps_alpha=1.0e-6),
}


def test_every_value_record_has_a_builder():
    assert set(VALUE_RECORDS) == {name for name, kind in RECORDS.items()
                                  if kind == "value"}


@pytest.mark.parametrize("build", VALUE_RECORDS.values(), ids=VALUE_RECORDS.keys())
def test_value_records_hash_and_compare_by_value(build):
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)


def test_protocol_keeps_its_own_boundary_temperatures():
    given = {"T_o": 5.0}
    protocol = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=3600.0,
                             boundary_temperatures=given)
    given["T_o"] = float("nan")
    assert protocol.boundary_temperatures == {"T_o": 5.0}
    with pytest.raises(TypeError):
        protocol.boundary_temperatures["T_o"] = 6.0


def test_runtime_imports_only_numpy_and_the_standard_library():
    outside = set()
    for path in Path(q.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update((path.name, name) for name in names
                           if name.split(".")[0] not in {"numpy", *sys.stdlib_module_names})
    assert not outside


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == ["numpy>=1.24"]
