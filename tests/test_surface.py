"""The public surface: the names the package exports, pinned, so that
growing or shrinking it is a visible edit of this list, and how the
records among them compare."""
from __future__ import annotations

import importlib
import pkgutil

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


RECORDS_HOLDING_ARRAYS = {
    "model": _model,
    "basis": lambda: q.eigendecompose(_model()),
    "decomposition": _decomposition,
    "trace": lambda: q.simulate_qub(_model(), _protocol()),
    "grid": lambda: q.sweep(_model(), _protocol(), [500.0, 1000.0], [3600.0],
                            q.ErrorPolicy()),
}


@pytest.mark.parametrize("build", RECORDS_HOLDING_ARRAYS.values(),
                         ids=RECORDS_HOLDING_ARRAYS.keys())
def test_records_holding_arrays_compare_by_identity(build):
    # value equality would compare arrays elementwise, whose truth is
    # ambiguous, and arrays are unhashable
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, second}) == 2
