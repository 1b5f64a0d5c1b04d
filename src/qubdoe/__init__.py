"""Design two-pulse overnight heat-loss experiments on RC building models.

The package turns a JSON description of a thermal RC network into a
linear state-space model, simulates the two-pulse protocol (a constant
heating pulse followed by an equal-length cooling phase), estimates the
heat-loss coefficient and thermal capacity from late-window slopes,
decomposes the response into exponential modes, attaches an error
budget to the estimate, and sweeps power/duration grids to find the
design with the smallest expected error.
"""
from .buildings import bungalow_json, house_json, load_bungalow, load_house
from .conductance import reference_H, static_gains
from .doe import (GRID_HEADER, DesignConstraints, DoeCell, DoeGrid,
                  default_axes, grid_to_csv, select_optimum, sweep)
from .error_budget import (ErrorBudget, ErrorPolicy, MeasurementErrors,
                           QubPartials, assemble_budget, measurement_error,
                           partials, slope_standard_error)
from .exceptions import ModelError, NumericalError, QubdoeError, SchemaError
from .modal import (EigenBasis, ModalDecomposition, classify_modes,
                    eigendecompose, initial_state, modal_decomposition,
                    state_at, step_response)
from .network import (Branch, FlowSource, Node, StateSpaceModel,
                      ThermalCircuit, Zone, circuit_to_json, parse_building,
                      to_state_space)
from .qub import (QubEstimate, QubProtocol, QubTrace, SlopeFit, estimate_C,
                  estimate_H, estimate_from_trace, fit_slope, recover_C,
                  simulate_qub, trace_from_csv, trace_to_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QubdoeError", "SchemaError", "ModelError", "NumericalError",
    # network
    "Node", "Branch", "FlowSource", "Zone", "ThermalCircuit",
    "parse_building", "circuit_to_json", "StateSpaceModel", "to_state_space",
    # modal
    "EigenBasis", "eigendecompose", "initial_state", "state_at",
    "step_response", "ModalDecomposition", "modal_decomposition",
    "classify_modes",
    # conductance
    "static_gains", "reference_H",
    # qub
    "QubProtocol", "QubTrace", "SlopeFit", "QubEstimate", "simulate_qub",
    "fit_slope", "estimate_H", "estimate_C", "recover_C",
    "estimate_from_trace", "trace_to_csv", "trace_from_csv",
    # error budget
    "MeasurementErrors", "ErrorPolicy", "slope_standard_error",
    "QubPartials", "partials", "measurement_error", "ErrorBudget",
    "assemble_budget",
    # doe
    "GRID_HEADER", "DoeCell", "DoeGrid", "DesignConstraints", "sweep",
    "select_optimum", "default_axes", "grid_to_csv",
    # bundled models
    "bungalow_json", "house_json", "load_bungalow", "load_house",
]
