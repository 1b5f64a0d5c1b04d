#!/usr/bin/env python3
"""Regenerate the bundled example buildings in src/qubdoe/data/.

Two models ship with the package:

* ``bungalow.json`` — a single-zone lightweight test cell: sandwich-panel
  walls and ceiling, a screed floor on insulation, double glazing, a
  plasterboard partition, a boxed-in storage mass, and a zero-capacity
  radiant star node coupling the interior surfaces.  Sized so the
  overall heat-loss coefficient lands near 52 W/K and the slowest mode
  is a few hours.

* ``house.json`` — a two-storey, two-zone dwelling with a ground slab on
  its own boundary temperature, an interzone floor, per-zone envelope,
  glazing, infiltration and heaters.

Run from the repository root:

    python3 scripts/gen_example_buildings.py [--report]

With ``--report`` the script also prints a diagnostic summary (overall
H, time constants, mode classes, estimator bias versus pulse length)
used to tune the constructions.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qubdoe import (QubProtocol, ThermalCircuit, circuit_to_json,
                    classify_modes, eigendecompose, estimate_from_trace,
                    initial_state, modal_decomposition, parse_building,
                    reference_H, simulate_qub, to_state_space)
from qubdoe.network import Branch, FlowSource, Node, Zone
from qubdoe.qub import _protocol_setup

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qubdoe" / "data"

AIR_RHO_CP = 1.2 * 1005.0  # J/(m³·K)


class _Builder:
    """Accumulates nodes/branches with auto-numbered branch ids."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.branches: list[Branch] = []
        self.flow_sources: list[FlowSource] = []
        self.zones: list[Zone] = []

    def node(self, node_id: str, capacity: float) -> str:
        self.nodes.append(Node(id=node_id, capacity=float(capacity)))
        return node_id

    def link(self, a: str, b: str, conductance: float, source: str | None = None) -> None:
        ident = f"{a}-{b}" if a != "REF" else f"{source}-{b}"
        self.branches.append(Branch(id=ident, from_node=a, to_node=b,
                                    conductance=float(conductance),
                                    temperature_source=source))

    def build(self, name: str) -> ThermalCircuit:
        return ThermalCircuit(nodes=tuple(self.nodes), branches=tuple(self.branches),
                              flow_sources=tuple(self.flow_sources),
                              zones=tuple(self.zones), name=name)


def build_bungalow() -> ThermalCircuit:
    """Single-zone lightweight test cell, overall H ≈ 52 W/K."""
    b = _Builder()

    # geometry
    volume = 33.75          # m³ (4.5 m × 3.0 m × 2.5 m)
    a_floor = 13.5          # m², same for the ceiling
    a_wall = 37.6           # m² net external wall
    a_win = 3.88            # m² double glazing
    a_furniture = 12.0      # m² exposed furniture surface
    a_partition = 8.0       # m² per plasterboard leaf

    # surface films, W/(m²·K)
    h_conv = 3.0            # interior convective, surface <-> air
    h_rad = 5.0             # interior radiative, surface <-> star
    h_out = 25.0            # exterior film
    h_under = 10.0          # sheltered film under the suspended floor

    # sandwich panel: 0.6 mm steel skins on a 35 mm PU core
    c_skin = 0.0006 * 7800.0 * 460.0          # J/(m²·K) per skin
    c_core = 0.035 * 40.0 * 1400.0            # J/(m²·K)
    g_half_core = 0.024 / (0.035 / 2.0)       # W/(m²·K), half-thickness slab

    air = b.node("air", volume * AIR_RHO_CP)
    star = b.node("star", 0.0)                # radiant exchange hub
    b.link("REF", air, 5.6531, source="T_o")  # infiltration, 0.5 air changes/h

    fur = b.node("furniture", 9.0e4)
    b.link(air, fur, h_conv * a_furniture)

    def sandwich(prefix: str, area: float, inner: str = air,
                 outer_film: float = h_out, inner_c: float | None = None) -> None:
        """inner/star -> skin -> core -> skin -> outdoor."""
        sin = b.node(f"{prefix}_in", (inner_c if inner_c is not None else c_skin) * area)
        mid = b.node(f"{prefix}_core", c_core * area)
        out = b.node(f"{prefix}_out", c_skin * area)
        b.link(inner, sin, h_conv * area)
        b.link(star, sin, h_rad * area)
        b.link(sin, mid, g_half_core * area)
        b.link(mid, out, g_half_core * area)
        b.link("REF", out, outer_film * area, source="T_o")

    sandwich("wall", a_wall)
    sandwich("ceiling", a_floor)

    # floor: 28 mm screed over the PU core and a chipboard deck,
    # ventilated crawl space underneath
    scr = b.node("floor_screed", a_floor * 0.028 * 2000.0 * 880.0)
    fcore = b.node("floor_core", a_floor * c_core)
    deck = b.node("floor_deck", a_floor * 0.018 * 600.0 * 1700.0)
    b.link(air, scr, h_conv * a_floor)
    b.link(star, scr, h_rad * a_floor)
    b.link(scr, fcore, g_half_core * a_floor)
    b.link(fcore, deck, g_half_core * a_floor)
    b.link("REF", deck, h_under * a_floor, source="T_o")

    # double glazing: two 4 mm panes around a gas gap
    c_pane = 0.004 * 2500.0 * 840.0
    pin = b.node("pane_in", c_pane * a_win)
    pout = b.node("pane_out", c_pane * a_win)
    b.link(air, pin, h_conv * a_win)
    b.link(star, pin, h_rad * a_win)
    b.link(pin, pout, 6.0 * a_win)
    b.link("REF", pout, h_out * a_win, source="T_o")

    # symmetric plasterboard partition: 12.5 mm leaves around a cavity
    c_leaf = a_partition * 0.0125 * 700.0 * 1000.0
    pa = b.node("partition_a", c_leaf)
    pb = b.node("partition_b", c_leaf)
    for leaf in (pa, pb):
        b.link(air, leaf, h_conv * a_partition)
        b.link(star, leaf, h_rad * a_partition)
    b.link(pa, pb, 3.0 * a_partition)

    # boxed-in storage mass, weakly coupled through a closed cupboard
    tank = b.node("store", 5.0e4)
    b.link(air, tank, 5.5)

    b.flow_sources.append(FlowSource(node=air, source_name="P_heat"))
    b.zones.append(Zone(id="main", air_node=air, floor_area=a_floor,
                        air_mass=volume * 1.2))
    return b.build("bungalow test cell")


def build_house() -> ThermalCircuit:
    """Two-storey, two-zone timber-frame dwelling, H ≈ 100 W/K."""
    b = _Builder()

    volume = 251.0          # m³ per storey
    a_floor = 93.3          # m² per storey
    a_wall = 60.0           # m² external wall per zone
    a_win = 5.0             # m² glazing per zone
    h_in = 8.0              # combined interior film, W/(m²·K)
    h_out = 25.0

    # timber-frame wall: plasterboard lining, filled stud bay, sheathing
    c_lining = 0.0125 * 700.0 * 1000.0        # J/(m²·K)
    c_sheath = 0.012 * 600.0 * 1700.0         # J/(m²·K)
    g_half_bay = 0.038 / (0.14 / 2.0)         # W/(m²·K), half-thickness fill

    air1 = b.node("air_z1", volume * AIR_RHO_CP)
    air2 = b.node("air_z2", volume * AIR_RHO_CP)

    for zone, air in (("z1", air1), ("z2", air2)):
        b.link("REF", air, 0.25 * volume * AIR_RHO_CP / 3600.0, source="T_o")

        win = b.node(f"window_{zone}", a_win * 0.008 * 2500.0 * 840.0)
        b.link(air, win, h_in * a_win)
        b.link("REF", win, 1.0 / (1.0 / 1.6 + 1.0 / h_out) * a_win, source="T_o")

        lining = b.node(f"wall_{zone}_in", c_lining * a_wall)
        sheath = b.node(f"wall_{zone}_out", c_sheath * a_wall)
        b.link(air, lining, h_in * a_wall)
        b.link(lining, sheath, g_half_bay * a_wall / 2.0)
        b.link("REF", sheath, a_wall / (0.14 / 2.0 / 0.038 + 1.0 / h_out),
               source="T_o")

        mass = b.node(f"mass_{zone}", 2.0e5)
        b.link(air, mass, h_in * 25.0)

    # suspended timber ground floor over a ventilated crawl space; the
    # crawl space exchanges with the ground (its own boundary) and with
    # outdoor air through the vents
    deck = b.node("floor_deck", a_floor * 0.018 * 600.0 * 1700.0)
    crawl = b.node("crawl_air", 45.0 * AIR_RHO_CP)
    b.link(air1, deck, h_in * a_floor)
    b.link(deck, crawl, a_floor / (0.15 / 0.038 + 1.0 / 6.0))
    b.link("REF", crawl, 2.2 * a_floor, source="T_g")
    b.link("REF", crawl, 12.0, source="T_o")

    # interzone floor: plasterboard ceiling below, chipboard deck above
    iz_a = b.node("interfloor_lo", a_floor * c_lining)
    iz_b = b.node("interfloor_hi", a_floor * 0.018 * 600.0 * 1700.0)
    b.link(air1, iz_a, h_in * a_floor)
    b.link(iz_a, iz_b, 3.0 * a_floor)
    b.link(air2, iz_b, h_in * a_floor)

    # insulated lightweight roof over zone 2
    roof = b.node("roof", a_floor * c_lining)
    b.link(air2, roof, h_in * a_floor)
    b.link("REF", roof, a_floor / (0.20 / 0.04 + 1.0 / h_out), source="T_o")

    b.flow_sources.append(FlowSource(node=air1, source_name="P_z1"))
    b.flow_sources.append(FlowSource(node=air2, source_name="P_z2"))
    b.zones.append(Zone(id="z1", air_node=air1, floor_area=a_floor,
                        air_mass=volume * 1.2))
    b.zones.append(Zone(id="z2", air_node=air2, floor_area=a_floor,
                        air_mass=volume * 1.2))
    return b.build("two-zone house")


# ---------------------------------------------------------------------------
# diagnostics used while tuning the constructions
# ---------------------------------------------------------------------------

def report(circuit: ThermalCircuit) -> None:
    model = to_state_space(circuit)
    print(f"== {circuit.name}: {model.n_states} states, "
          f"inputs {model.input_names}")

    H = reference_H(model)
    print(f"   H_ref = {H:.2f} W/K")

    basis = eigendecompose(model)
    taus = basis.time_constants
    print("   tau (h):", " ".join(f"{t / 3600.0:.3f}" for t in sorted(taus)))

    # mode classes for a three-hour, 1 kW pulse split across the heaters
    t_qub = 3.0 * 3600.0
    setup = _protocol_setup(model, 0.0, {})
    decomp = modal_decomposition(model, setup.inputs(1000.0),
                                 initial_state(model, setup.inputs(0.0)))
    labels = classify_modes(decomp, t_qub)
    amp = decomp.mode_amplitudes()
    by_class: dict[str, list[int]] = {}
    for idx, label in labels:
        by_class.setdefault(label, []).append(idx)
    for label in sorted(by_class):
        modes = ", ".join(f"tau={taus[i] / 3600.0:.3f}h amp={amp[i]:.3g}"
                          for i in by_class[label])
        print(f"   class {label}: {modes}")

    # estimator bias versus pulse length (heating at ~2x steady maintenance
    # for a 10 K rise, trailing-third fit)
    print("   bias vs t_qub (P_h = %.0f W):" % (20.0 * H))
    for hours in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0):
        proto = QubProtocol(T_o=0.0, P0=0.0, P_h=20.0 * H, P_c=0.0,
                            t_qub=hours * 3600.0)
        est = estimate_from_trace(simulate_qub(model, proto))
        print(f"     t={hours:5.1f} h  H_qub={est.H_qub:8.3f}  "
              f"bias={100.0 * (est.H_qub - H) / H:+7.3f} %")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", action="store_true",
                        help="print tuning diagnostics after writing")
    args = parser.parse_args()

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for build in (build_bungalow, build_house):
        circuit = build()
        text = circuit_to_json(circuit)
        parse_building(text)  # round-trip sanity
        stem = "bungalow" if "bungalow" in circuit.name else "house"
        path = DATA_DIR / f"{stem}.json"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
        if args.report:
            report(circuit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
