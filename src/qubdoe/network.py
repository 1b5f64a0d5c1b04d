"""Lumped RC thermal networks and their reduction to state space.

A building is described as a directed graph of thermal conductances
(branches) between temperature nodes.  Nodes may carry a heat capacity;
a branch may carry a series temperature source (e.g. the outdoor air
seen through a wall surface film); a node may receive an injected heat
flow (e.g. an electric heater).  The distinguished node ``REF`` is the
zero-temperature datum against which all sources are expressed.

With incidence matrix ``A`` (branches x nodes), branch conductances
``G``, branch temperature sources ``b`` and nodal flow sources ``f``,
energy balance at the nodes reads

    C dθ/dt = -Aᵀ G A θ + Aᵀ G b + f

Zero-capacity nodes contribute algebraic equations only; they are
eliminated exactly (Schur complement on the conductance matrix), which
turns the network into the standard linear system

    dx/dt = A x + B u,    y = C x + D u

where ``x`` are the temperatures of the capacitive nodes, ``u`` stacks
every declared temperature source followed by every flow source, and
``y`` are the temperatures of requested nodes (eliminated nodes appear
through a nonzero direct-transmission ``D``).
"""
from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Container, Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelError, NumericalError, SchemaError

REF = "REF"

__all__ = [
    "Node",
    "Branch",
    "FlowSource",
    "Zone",
    "ThermalCircuit",
    "StateSpaceModel",
    "parse_building",
    "circuit_to_json",
    "to_state_space",
]


# ---------------------------------------------------------------------------
# circuit description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    """A temperature node. ``capacity`` is in J/K; zero marks a massless
    (purely algebraic) node such as a surface or a radiant star point."""

    id: str
    capacity: float


@dataclass(frozen=True)
class Branch:
    """A thermal conductance between two nodes, in W/K.

    ``from_node`` may be ``REF``.  ``temperature_source`` names an ideal
    temperature source acting in series with the branch, oriented so a
    positive source raises ``to_node`` relative to ``from_node``; only a
    branch from ``REF`` may carry one.
    """

    id: str
    from_node: str
    to_node: str
    conductance: float
    temperature_source: str | None = None


@dataclass(frozen=True)
class FlowSource:
    """An ideal heat-flow source injecting into ``node`` (W, positive in)."""

    node: str
    source_name: str


@dataclass(frozen=True)
class Zone:
    """An occupied zone: its air node, floor area (m²) and air mass (kg)."""

    id: str
    air_node: str
    floor_area: float
    air_mass: float


def _add_new(seen: set[str], value: str, path: str, what: str) -> None:
    if value in seen:
        raise SchemaError(f"{path}: duplicate {what} '{value}'")
    seen.add(value)


def _known(nodes: Container[str], node: str, path: str) -> None:
    if node not in nodes:
        raise SchemaError(f"{path}: unknown node '{node}'")


@dataclass(frozen=True)
class ThermalCircuit:
    """A validated RC network.

    Construction checks every structural invariant and raises
    :class:`SchemaError` naming the offending element, so any circuit
    instance in hand is usable by every operation in this package.
    """

    nodes: tuple[Node, ...]
    branches: tuple[Branch, ...]
    flow_sources: tuple[FlowSource, ...] = ()
    zones: tuple[Zone, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        for key in _RECORDS:
            object.__setattr__(self, key, tuple(getattr(self, key)))
        self._validate()

    # -- derived views ------------------------------------------------

    @property
    def node_index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    @property
    def temperature_sources(self) -> tuple[str, ...]:
        """Temperature source names in order of first appearance."""
        seen: list[str] = []
        for br in self.branches:
            if br.temperature_source is not None and br.temperature_source not in seen:
                seen.append(br.temperature_source)
        return tuple(seen)

    @property
    def flow_source_names(self) -> tuple[str, ...]:
        return tuple(fs.source_name for fs in self.flow_sources)

    def capacities(self) -> np.ndarray:
        return np.array([n.capacity for n in self.nodes], dtype=float)

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise SchemaError("nodes: at least one node is required")
        if not self.branches:
            raise SchemaError("branches: at least one branch is required")

        seen_nodes: set[str] = set()
        for i, node in enumerate(self.nodes):
            if node.id == REF:
                raise SchemaError(f"nodes[{i}].id: '{REF}' is reserved for the datum")
            _add_new(seen_nodes, node.id, f"nodes[{i}].id", "node")
            if not math.isfinite(node.capacity) or node.capacity < 0.0:
                raise SchemaError(f"nodes[{i}].capacity: must be finite and >= 0, "
                                  f"got {node.capacity!r}")

        seen_branches: set[str] = set()
        for i, br in enumerate(self.branches):
            _add_new(seen_branches, br.id, f"branches[{i}].id", "branch")
            if br.from_node != REF:
                _known(seen_nodes, br.from_node, f"branches[{i}].from")
            if br.to_node == REF:
                raise SchemaError(f"branches[{i}].to: must be a node id, not '{REF}' "
                                  "(orient the branch the other way)")
            _known(seen_nodes, br.to_node, f"branches[{i}].to")
            if br.from_node == br.to_node:
                raise SchemaError(f"branches[{i}]: connects node '{br.to_node}' to itself")
            if not math.isfinite(br.conductance) or br.conductance <= 0.0:
                raise SchemaError(f"branches[{i}].conductance: must be finite and > 0, "
                                  f"got {br.conductance!r}")
            if br.temperature_source is not None and br.from_node != REF:
                raise SchemaError(f"branches[{i}].temperature_source: a source branch must "
                                  f"run from '{REF}', not from '{br.from_node}'")

        flow_names: set[str] = set()
        for i, fs in enumerate(self.flow_sources):
            _known(seen_nodes, fs.node, f"flow_sources[{i}].node")
            _add_new(flow_names, fs.source_name, f"flow_sources[{i}].source_name", "source")
        clash = flow_names & set(self.temperature_sources)
        if clash:
            raise SchemaError("flow_sources: source names also used by temperature "
                              "sources: " + ", ".join(sorted(clash)))

        capacity = {n.id: n.capacity for n in self.nodes}
        seen_zones: set[str] = set()
        seen_air: set[str] = set()
        for i, zone in enumerate(self.zones):
            _add_new(seen_zones, zone.id, f"zones[{i}].id", "zone")
            _known(capacity, zone.air_node, f"zones[{i}].air_node")
            if capacity[zone.air_node] <= 0.0:
                raise SchemaError(f"zones[{i}].air_node: node '{zone.air_node}' must "
                                  "carry a positive capacity")
            if zone.air_node in seen_air:
                raise SchemaError(f"zones[{i}].air_node: node '{zone.air_node}' already "
                                  "belongs to another zone")
            seen_air.add(zone.air_node)
            if not math.isfinite(zone.floor_area) or zone.floor_area <= 0.0:
                raise SchemaError(f"zones[{i}].floor_area: must be > 0")
            if not math.isfinite(zone.air_mass) or zone.air_mass <= 0.0:
                raise SchemaError(f"zones[{i}].air_mass: must be > 0")

        self._check_connected()

    def _check_connected(self) -> None:
        # every node must see the datum through some conductance path,
        # otherwise its temperature is indeterminate
        adjacency: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        adjacency[REF] = set()
        for br in self.branches:
            adjacency[br.from_node].add(br.to_node)
            adjacency[br.to_node].add(br.from_node)
        reached = {REF}
        stack = [REF]
        while stack:
            for neighbour in adjacency[stack.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    stack.append(neighbour)
        stranded = [n.id for n in self.nodes if n.id not in reached]
        if stranded:
            raise SchemaError("branches: no conductance path from the datum to "
                              "node(s) " + ", ".join(stranded))


# ---------------------------------------------------------------------------
# the building document
# ---------------------------------------------------------------------------

_AIR_DENSITY = 1.2  # kg/m³, used when a zone gives volume instead of air mass
_VOLUME = "volume"  # a zone's alternative to its air mass key


def _text(item: dict, path: str, key: str) -> str:
    if key not in item:
        raise SchemaError(f"{path}.{key}: required field is missing")
    value = item[key]
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}: expected a non-empty string")
    return value


def _optional_text(item: dict, path: str, key: str) -> str | None:
    value = item.get(key)
    if value is not None and (not isinstance(value, str) or not value):
        raise SchemaError(f"{path}.{key}: expected a non-empty string")
    return value


def _number(item: dict, path: str, key: str) -> float:
    if key not in item:
        raise SchemaError(f"{path}.{key}: required field is missing")
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path}.{key}: must be finite, got an integer too large "
                          "for a float") from None


def _air_mass(item: dict, path: str, key: str) -> float:
    """The zone's air mass: given under ``key``, or derived from its volume."""
    if _VOLUME not in item:
        if key not in item:
            raise SchemaError(f"{path}: one of '{key}' or '{_VOLUME}' is required")
        return _number(item, path, key)
    if key in item:
        raise SchemaError(f"{path}: give one of '{key}' or '{_VOLUME}', not both")
    return _AIR_DENSITY * _number(item, path, _VOLUME)


#: The building document's record lists: the class each builds and, in
#: that class's field order, each field's JSON key and reader.
_RECORDS = {
    "nodes": (Node, (("id", _text), ("capacity", _number))),
    "branches": (Branch, (("id", _text), ("from", _text), ("to", _text),
                          ("conductance", _number),
                          ("temperature_source", _optional_text))),
    "flow_sources": (FlowSource, (("node", _text), ("source_name", _text))),
    "zones": (Zone, (("id", _text), ("air_node", _text), ("floor_area", _number),
                     ("air_mass", _air_mass))),
}
#: the keys each record may carry: its fields', and a zone's volume
_KEYS = {name: {key for key, _ in fields} for name, (_, fields) in _RECORDS.items()}
_KEYS["zones"].add(_VOLUME)
_DOCUMENT_KEYS = {"name", *_RECORDS}


def _expect(obj: object, path: str, kind: type, kind_name: str) -> None:
    if not isinstance(obj, kind):
        raise SchemaError(f"{path}: expected {kind_name}, got {type(obj).__name__}")


def parse_building(text: str) -> ThermalCircuit:
    """Parse a building description document into a validated circuit.

    Parameters
    ----------
    text : str
        JSON document with top-level keys ``nodes``, ``branches`` and
        optionally ``name``, ``flow_sources`` and ``zones``.  All units
        are SI: capacities J/K, conductances W/K, areas m², masses kg.

    Returns
    -------
    ThermalCircuit

    Raises
    ------
    SchemaError
        On the first violation found, naming the offending path.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"document: not valid JSON ({exc})") from None
    _expect(raw, "document", dict, "an object")
    for key in raw:
        if key not in _DOCUMENT_KEYS:
            raise SchemaError(f"document: unexpected field '{key}'")
    name = raw.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("document.name: expected a string")

    lists = {}
    for list_name, (record, fields) in _RECORDS.items():
        items = raw.get(list_name, [])
        _expect(items, list_name, list, "a list")
        allowed = _KEYS[list_name]
        records = []
        for i, item in enumerate(items):
            path = f"{list_name}[{i}]"
            _expect(item, path, dict, "an object")
            for key in item:
                if key not in allowed:
                    raise SchemaError(f"{path}: unexpected field '{key}'")
            records.append(record(*[read(item, path, key) for key, read in fields]))
        lists[list_name] = tuple(records)
    return ThermalCircuit(**lists, name=name)


def circuit_to_json(circuit: ThermalCircuit) -> str:
    """Serialize a circuit to its canonical document form.

    ``parse_building(circuit_to_json(c)) == c`` holds exactly: floats go
    through JSON's shortest round-trip representation.  A branch without
    a temperature source omits the key.
    """
    doc: dict = {"name": circuit.name} if circuit.name else {}
    for list_name, (_, fields) in _RECORDS.items():
        doc[list_name] = [
            {key: value for (key, _), value in zip(fields, vars(record).values())
             if value is not None}
            for record in getattr(circuit, list_name)
        ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# nodal assembly
# ---------------------------------------------------------------------------

def _assemble(circuit: ThermalCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Build the nodal conductance matrix K = AᵀGA and the source-injection
    matrix W such that the balance reads C θ' = -K θ + W u, with u stacking
    temperature sources (declaration order) then flow sources."""
    index = circuit.node_index
    n = len(circuit.nodes)
    n_b = len(circuit.branches)
    temp_sources = circuit.temperature_sources
    temp_index = {name: j for j, name in enumerate(temp_sources)}

    incidence = np.zeros((n_b, n))
    conductances = np.empty(n_b)
    selector = np.zeros((n_b, len(temp_sources)))
    for k, br in enumerate(circuit.branches):
        if br.from_node != REF:
            incidence[k, index[br.from_node]] = -1.0
        incidence[k, index[br.to_node]] = 1.0
        conductances[k] = br.conductance
        if br.temperature_source is not None:
            selector[k, temp_index[br.temperature_source]] = 1.0

    weighted = conductances[:, None] * incidence
    K = incidence.T @ weighted
    W_temp = weighted.T @ selector

    W_flow = np.zeros((n, len(circuit.flow_sources)))
    for j, fs in enumerate(circuit.flow_sources):
        W_flow[index[fs.node], j] = 1.0

    return K, np.hstack([W_temp, W_flow])


# ---------------------------------------------------------------------------
# state-space reduction
# ---------------------------------------------------------------------------

def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


def _weights(weights, count: int, what: str) -> np.ndarray:
    """Validated read-only relative weights: ``count`` ones when None,
    else ``count`` non-negative values with a positive sum."""
    if weights is None:
        return _frozen_array(np.ones(count))
    w = _frozen_array(weights)
    if w.shape != (count,):
        raise ModelError(f"{what}: expected {count} weights, got shape {w.shape}")
    if np.any(w < 0.0) or w.sum() <= 0.0:
        raise ModelError(f"{what}: weights must be non-negative with positive sum")
    return w


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Linear model dx/dt = A x + B u, y = C x + D u.

    States are the capacitive node temperatures; the inputs are the
    ``temperature_inputs`` followed by the ``flow_inputs``, and
    ``input_names`` is their concatenation, the column order of ``B``
    and ``D``; outputs are the requested node temperatures.  ``D`` is
    nonzero only for outputs that sit on eliminated (massless) nodes.
    ``state_capacities`` keeps the nodal heat capacities (J/K): the
    matrix diag(c)·(-A) is symmetric positive definite, which is what
    makes the spectrum real and stable.

    The model carries the weights of the experiments run on it:
    ``output_weights`` average the outputs into the indoor temperature,
    ``flow_weights`` split a total power across the flow inputs.  Only
    their ratios matter; each is all ones when not given.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_names: tuple[str, ...]
    temperature_inputs: tuple[str, ...]
    flow_inputs: tuple[str, ...]
    output_names: tuple[str, ...]
    state_capacities: np.ndarray | None = None
    output_weights: np.ndarray | None = None
    flow_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        for key in ("state_names", "temperature_inputs", "flow_inputs", "output_names"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        repeated = sorted({x for x in self.input_names if self.input_names.count(x) > 1})
        if repeated:
            raise ModelError(f"input names appear more than once: {repeated}")
        n = len(self.state_names)
        m = len(self.input_names)
        p = len(self.output_names)
        object.__setattr__(self, "A", _frozen_array(self.A, (n, n)))
        object.__setattr__(self, "B", _frozen_array(self.B, (n, m)))
        object.__setattr__(self, "C", _frozen_array(self.C, (p, n)))
        object.__setattr__(self, "D", _frozen_array(self.D, (p, m)))
        if self.state_capacities is not None:
            object.__setattr__(
                self, "state_capacities", _frozen_array(self.state_capacities, (n,))
            )
        if n == 0:
            raise ModelError("model has no state (no capacitive node)")
        if p == 0:
            raise ModelError("model has no output")
        object.__setattr__(self, "output_weights",
                           _weights(self.output_weights, p, "output_weights"))
        object.__setattr__(self, "flow_weights", _weights(
            self.flow_weights, len(self.flow_inputs), "flow_weights"))
        # every transient and steady formula below divides by A
        if not np.all(np.isfinite(self.A)):
            raise NumericalError("state matrix contains non-finite entries")
        if 1.0 / np.linalg.cond(self.A) < 1e3 * np.finfo(float).eps:
            raise NumericalError("state matrix is numerically singular")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def input_names(self) -> tuple[str, ...]:
        return self.temperature_inputs + self.flow_inputs


def _indoor_weights(circuit: ThermalCircuit
                    ) -> tuple[list[str], np.ndarray | None, np.ndarray | None]:
    """The indoor outputs of a circuit and their output and flow weights
    (None for uniform), as :func:`to_state_space` picks them."""
    if not circuit.zones:
        heated = list(dict.fromkeys(fs.node for fs in circuit.flow_sources))
        capacitive = [n.id for n in circuit.nodes if n.capacity > 0.0]
        return heated or capacitive[:1], None, None
    mass_at = {z.air_node: z.air_mass for z in circuit.zones}
    heaters_at = Counter(fs.node for fs in circuit.flow_sources)
    flow_weights = np.array([mass_at.get(fs.node, 0.0) / heaters_at[fs.node]
                             for fs in circuit.flow_sources])
    return (list(mass_at), np.array(list(mass_at.values())),
            flow_weights if flow_weights.sum() > 0.0 else None)


def to_state_space(circuit: ThermalCircuit,
                   outputs: Sequence[str] | None = None) -> StateSpaceModel:
    """Reduce a circuit to a state-space model with the given output nodes.

    Massless nodes are eliminated through the Schur complement of the
    conductance matrix, so the reduction is exact: the model's response
    at any time equals the full differential-algebraic system's.

    Parameters
    ----------
    circuit : ThermalCircuit
    outputs : sequence of node ids, optional
        May include massless nodes; those outputs gain a direct
        input-to-output term in ``D``.  Given outputs, and the power
        split across the heaters, are weighted uniformly.  When omitted,
        the outputs are the zone air nodes weighted by air mass, each
        zone's share of the power split evenly among the heaters at its
        air node (a zone without a heater gets none; with no heater at a
        zone air node, every heater gets an even share).  Without zones
        they are the heated nodes, or else the first capacitive node,
        weighted uniformly.

    Raises
    ------
    ModelError
        If no node carries capacity, there is no output, or an output
        id is unknown.
    """
    output_weights = flow_weights = None
    if outputs is None:
        outputs, output_weights, flow_weights = _indoor_weights(circuit)
    index = circuit.node_index
    unknown = [name for name in outputs if name not in index]
    if unknown:
        raise ModelError("unknown output node(s): " + ", ".join(unknown))

    capacities = circuit.capacities()
    state_idx = [i for i, c in enumerate(capacities) if c > 0.0]
    algebraic_idx = [i for i, c in enumerate(capacities) if c == 0.0]
    if not state_idx:
        raise ModelError("circuit has no capacitive node; nothing evolves in time")

    K, W = _assemble(circuit)
    K_ss = K[np.ix_(state_idx, state_idx)]
    W_s = W[state_idx, :]

    if algebraic_idx:
        K_sz = K[np.ix_(state_idx, algebraic_idx)]
        K_zz = K[np.ix_(algebraic_idx, algebraic_idx)]
        try:
            # temperatures of massless nodes: θ_z = K_zz⁻¹ (W_z u - K_zs θ_s)
            elim_states = np.linalg.solve(K_zz, K_sz.T)   # K_zz⁻¹ K_zs
            elim_inputs = np.linalg.solve(K_zz, W[algebraic_idx, :])
        except np.linalg.LinAlgError:
            stranded = ", ".join(circuit.nodes[i].id for i in algebraic_idx)
            raise NumericalError(
                f"cannot eliminate massless node(s) {stranded}: "
                "their conductance block is singular"
            ) from None
        K_red = K_ss - K_sz @ elim_states
        W_red = W_s - K_sz @ elim_inputs
    else:
        elim_states = np.zeros((0, len(state_idx)))
        elim_inputs = np.zeros((0, W.shape[1]))
        K_red = K_ss
        W_red = W_s

    inv_c = 1.0 / capacities[state_idx]
    A = -inv_c[:, None] * K_red
    B = inv_c[:, None] * W_red

    state_pos = {node: k for k, node in enumerate(state_idx)}
    algebraic_pos = {node: k for k, node in enumerate(algebraic_idx)}
    C = np.zeros((len(outputs), len(state_idx)))
    D = np.zeros((len(outputs), W.shape[1]))
    for row, name in enumerate(outputs):
        i = index[name]
        if i in state_pos:
            C[row, state_pos[i]] = 1.0
        else:
            k = algebraic_pos[i]
            C[row, :] = -elim_states[k, :]
            D[row, :] = elim_inputs[k, :]

    return StateSpaceModel(
        A=A, B=B, C=C, D=D,
        state_names=tuple(circuit.nodes[i].id for i in state_idx),
        temperature_inputs=circuit.temperature_sources,
        flow_inputs=circuit.flow_source_names,
        output_names=tuple(outputs),
        state_capacities=capacities[state_idx],
        output_weights=output_weights,
        flow_weights=flow_weights,
    )
