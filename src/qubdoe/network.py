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
from collections.abc import Sequence
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
    positive source raises ``to_node`` relative to ``from_node``.
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
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "flow_sources", tuple(self.flow_sources))
        object.__setattr__(self, "zones", tuple(self.zones))
        self._validate()

    # -- derived views ------------------------------------------------

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

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

    @property
    def source_names(self) -> tuple[str, ...]:
        """All source names, temperature sources first (the input order
        of every model derived from this circuit)."""
        return self.temperature_sources + self.flow_source_names

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
            if node.id in seen_nodes:
                raise SchemaError(f"nodes[{i}].id: duplicate node '{node.id}'")
            seen_nodes.add(node.id)
            if not np.isfinite(node.capacity) or node.capacity < 0.0:
                raise SchemaError(
                    f"nodes[{i}].capacity: must be finite and >= 0, got {node.capacity!r}"
                )

        seen_branches: set[str] = set()
        for i, br in enumerate(self.branches):
            if br.id in seen_branches:
                raise SchemaError(f"branches[{i}].id: duplicate branch '{br.id}'")
            seen_branches.add(br.id)
            if br.from_node != REF and br.from_node not in seen_nodes:
                raise SchemaError(
                    f"branches[{i}].from: unknown node '{br.from_node}'"
                )
            if br.to_node == REF:
                raise SchemaError(
                    f"branches[{i}].to: must be a node id, not '{REF}' "
                    "(orient the branch the other way)"
                )
            if br.to_node not in seen_nodes:
                raise SchemaError(f"branches[{i}].to: unknown node '{br.to_node}'")
            if br.from_node == br.to_node:
                raise SchemaError(
                    f"branches[{i}]: connects node '{br.to_node}' to itself"
                )
            if not np.isfinite(br.conductance) or br.conductance <= 0.0:
                raise SchemaError(
                    f"branches[{i}].conductance: must be finite and > 0, "
                    f"got {br.conductance!r}"
                )

        flow_names: set[str] = set()
        for i, fs in enumerate(self.flow_sources):
            if fs.node not in seen_nodes:
                raise SchemaError(f"flow_sources[{i}].node: unknown node '{fs.node}'")
            if fs.source_name in flow_names:
                raise SchemaError(
                    f"flow_sources[{i}].source_name: duplicate source "
                    f"'{fs.source_name}'"
                )
            flow_names.add(fs.source_name)
        clash = flow_names & set(self.temperature_sources)
        if clash:
            raise SchemaError(
                "flow_sources: source names also used by temperature sources: "
                + ", ".join(sorted(clash))
            )

        capacity = {n.id: n.capacity for n in self.nodes}
        seen_zones: set[str] = set()
        seen_air: set[str] = set()
        for i, zone in enumerate(self.zones):
            if zone.id in seen_zones:
                raise SchemaError(f"zones[{i}].id: duplicate zone '{zone.id}'")
            seen_zones.add(zone.id)
            if zone.air_node not in capacity:
                raise SchemaError(f"zones[{i}].air_node: unknown node '{zone.air_node}'")
            if capacity[zone.air_node] <= 0.0:
                raise SchemaError(
                    f"zones[{i}].air_node: node '{zone.air_node}' must carry "
                    "a positive capacity"
                )
            if zone.air_node in seen_air:
                raise SchemaError(
                    f"zones[{i}].air_node: node '{zone.air_node}' already "
                    "belongs to another zone"
                )
            seen_air.add(zone.air_node)
            if not np.isfinite(zone.floor_area) or zone.floor_area <= 0.0:
                raise SchemaError(f"zones[{i}].floor_area: must be > 0")
            if not np.isfinite(zone.air_mass) or zone.air_mass <= 0.0:
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
            raise SchemaError(
                "branches: no conductance path from the datum to node(s) "
                + ", ".join(stranded)
            )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        branches = []
        for br in self.branches:
            entry: dict = {
                "id": br.id,
                "from": br.from_node,
                "to": br.to_node,
                "conductance": br.conductance,
            }
            if br.temperature_source is not None:
                entry["temperature_source"] = br.temperature_source
            branches.append(entry)
        doc: dict = {}
        if self.name:
            doc["name"] = self.name
        doc.update({
            "nodes": [{"id": n.id, "capacity": n.capacity} for n in self.nodes],
            "branches": branches,
            "flow_sources": [
                {"node": fs.node, "source_name": fs.source_name}
                for fs in self.flow_sources
            ],
            "zones": [
                {
                    "id": z.id,
                    "air_node": z.air_node,
                    "floor_area": z.floor_area,
                    "air_mass": z.air_mass,
                }
                for z in self.zones
            ],
        })
        return doc


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_AIR_DENSITY = 1.2  # kg/m³, used when a zone gives volume instead of air mass


def _require(obj: object, path: str, kind: type, kind_name: str):
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise SchemaError(f"{path}: expected {kind_name}, got {type(obj).__name__}")
    return obj


def _number(obj: dict, path: str, key: str, *, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise SchemaError(f"{path}.{key}: required field is missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    return float(value)


def _string(obj: dict, path: str, key: str) -> str:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: required field is missing")
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}: expected a non-empty string")
    return value


def _reject_unknown(obj: dict, path: str, allowed: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}: unexpected field '{key}'")


def parse_building(text: str) -> ThermalCircuit:
    """Parse a building description document into a validated circuit.

    Parameters
    ----------
    text : str
        JSON document with top-level keys ``nodes``, ``branches`` and
        optionally ``flow_sources`` and ``zones``.  All units are SI:
        capacities J/K, conductances W/K, areas m², masses kg.

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
    except json.JSONDecodeError as exc:
        raise SchemaError(f"document: not valid JSON ({exc})") from None
    _require(raw, "document", dict, "an object")
    _reject_unknown(raw, "document",
                    {"name", "nodes", "branches", "flow_sources", "zones"})
    name = raw.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("document.name: expected a string")

    nodes = []
    for i, item in enumerate(_require(raw.get("nodes", []), "nodes", list, "a list")):
        path = f"nodes[{i}]"
        _require(item, path, dict, "an object")
        _reject_unknown(item, path, {"id", "capacity"})
        nodes.append(Node(id=_string(item, path, "id"),
                          capacity=_number(item, path, "capacity")))

    branches = []
    for i, item in enumerate(_require(raw.get("branches", []), "branches", list, "a list")):
        path = f"branches[{i}]"
        _require(item, path, dict, "an object")
        _reject_unknown(item, path, {"id", "from", "to", "conductance", "temperature_source"})
        source = item.get("temperature_source")
        if source is not None and (not isinstance(source, str) or not source):
            raise SchemaError(f"{path}.temperature_source: expected a non-empty string")
        branches.append(Branch(
            id=_string(item, path, "id"),
            from_node=_string(item, path, "from"),
            to_node=_string(item, path, "to"),
            conductance=_number(item, path, "conductance"),
            temperature_source=source,
        ))

    flow_sources = []
    for i, item in enumerate(_require(raw.get("flow_sources", []),
                                      "flow_sources", list, "a list")):
        path = f"flow_sources[{i}]"
        _require(item, path, dict, "an object")
        _reject_unknown(item, path, {"node", "source_name"})
        flow_sources.append(FlowSource(node=_string(item, path, "node"),
                                       source_name=_string(item, path, "source_name")))

    zones = []
    for i, item in enumerate(_require(raw.get("zones", []), "zones", list, "a list")):
        path = f"zones[{i}]"
        _require(item, path, dict, "an object")
        _reject_unknown(item, path, {"id", "air_node", "floor_area", "air_mass", "volume"})
        if "air_mass" in item:
            air_mass = _number(item, path, "air_mass")
        elif "volume" in item:
            air_mass = _AIR_DENSITY * _number(item, path, "volume")
        else:
            raise SchemaError(f"{path}: one of 'air_mass' or 'volume' is required")
        zones.append(Zone(
            id=_string(item, path, "id"),
            air_node=_string(item, path, "air_node"),
            floor_area=_number(item, path, "floor_area"),
            air_mass=air_mass,
        ))

    return ThermalCircuit(nodes=tuple(nodes), branches=tuple(branches),
                          flow_sources=tuple(flow_sources), zones=tuple(zones),
                          name=name)


def circuit_to_json(circuit: ThermalCircuit) -> str:
    """Serialize a circuit to its canonical document form.

    ``parse_building(circuit_to_json(c)) == c`` holds exactly: floats go
    through JSON's shortest round-trip representation.
    """
    return json.dumps(circuit.to_dict(), indent=2) + "\n"


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


@dataclass(frozen=True)
class StateSpaceModel:
    """Linear model dx/dt = A x + B u, y = C x + D u.

    States are the capacitive node temperatures; inputs stack every
    temperature source (declaration order) then every flow source;
    outputs are the requested node temperatures.  ``D`` is nonzero only
    for outputs that sit on eliminated (massless) nodes.
    ``state_capacities`` keeps the nodal heat capacities (J/K): the
    matrix diag(c)·(-A) is symmetric positive definite, which is what
    makes the spectrum real and stable.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    input_kinds: tuple[str, ...]
    output_names: tuple[str, ...]
    state_capacities: np.ndarray | None = None

    def __post_init__(self) -> None:
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
        if len(self.input_kinds) != m:
            raise ModelError("input_kinds must match input_names")
        for kind in self.input_kinds:
            if kind not in ("temperature", "flow"):
                raise ModelError(f"unknown input kind '{kind}'")
        if n == 0:
            raise ModelError("model has no state (no capacitive node)")
        # every transient and steady formula below divides by A
        if not np.all(np.isfinite(self.A)):
            raise NumericalError("state matrix contains non-finite entries")
        if 1.0 / np.linalg.cond(self.A) < 1e3 * np.finfo(float).eps:
            raise NumericalError("state matrix is numerically singular")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def temperature_inputs(self) -> tuple[str, ...]:
        return tuple(name for name, kind in zip(self.input_names, self.input_kinds)
                     if kind == "temperature")

    @property
    def flow_inputs(self) -> tuple[str, ...]:
        return tuple(name for name, kind in zip(self.input_names, self.input_kinds)
                     if kind == "flow")


def to_state_space(circuit: ThermalCircuit,
                   outputs: Sequence[str]) -> StateSpaceModel:
    """Reduce a circuit to a state-space model with the given output nodes.

    Massless nodes are eliminated through the Schur complement of the
    conductance matrix, so the reduction is exact: the model's response
    at any time equals the full differential-algebraic system's.

    Parameters
    ----------
    circuit : ThermalCircuit
    outputs : sequence of node ids
        May include massless nodes; those outputs gain a direct
        input-to-output term in ``D``.

    Raises
    ------
    ModelError
        If no node carries capacity, or an output id is unknown.
    """
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

    input_names = circuit.source_names
    kinds = (("temperature",) * len(circuit.temperature_sources)
             + ("flow",) * len(circuit.flow_sources))
    return StateSpaceModel(
        A=A, B=B, C=C, D=D,
        state_names=tuple(circuit.nodes[i].id for i in state_idx),
        input_names=input_names,
        input_kinds=kinds,
        output_names=tuple(outputs),
        state_capacities=capacities[state_idx],
    )
