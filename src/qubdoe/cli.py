"""Command-line front end.

Every subcommand reads a building document (or a trace CSV) and runs
its simulation, sweep or fit to the end before it writes anything — to
stdout or to ``--out`` — so a run that fails on its input or its
numerics never leaves a file behind.  An ``--out`` whose directory is
missing or not writable, or that names a directory, fails before the
work starts.  The output is then written in pieces, never as one string:
a trace CSV a chunk of rows at a time, a sweep grid a duration's rows.
All output is plain CSV/text with shortest-round-trip floats: identical
arguments and inputs give byte-identical output.

``_COMMANDS`` is the one list of the commands and of the flags each
takes, which ``_FLAGS`` declares.  ``sweep`` and ``optimum`` take the same
grid flags; an ``optimum`` limit left unset is none, and its limits are
checked before the sweep runs.

Exit codes: 0 success, 2 usage, 3 malformed input, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import __version__
from .conductance import _H_from_gains, static_gains
from .doe import (DesignConstraints, DoeGrid, _fmt, _grid_chunks, default_axes,
                  select_optimum, sweep)
from .error_budget import ErrorPolicy
from .exceptions import ModelError, NumericalError, SchemaError
from .modal import classify_modes, initial_state, modal_decomposition
from .network import StateSpaceModel, ThermalCircuit, parse_building, to_state_space
from .qub import (_WINDOW_FRACTION, QubProtocol, _check_P0, _check_t_qub,
                  _csv_chunks, _protocol_setup, estimate_from_trace, simulate_qub,
                  trace_from_csv)

# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _range_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected A:B:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B:N, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("N must be >= 1")
    return lo, hi, n


def _assignment(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}") from None


_FLAGS = {
    "building": dict(help="building JSON document"),
    "--trace": dict(required=True, metavar="PATH", help="trace CSV"),
    "--to": dict(type=float, default=0.0, metavar="C",
                 help="outdoor temperature (default 0)"),
    "--p0": dict(type=float, default=0.0, metavar="W",
                 help="pre-experiment power (default 0)"),
    "--ph": dict(type=float, default=1000.0, metavar="W",
                 help="heating power (default 1000)"),
    "--pc": dict(type=float, default=0.0, metavar="W",
                 help="cooling-phase power (default 0)"),
    "--tqub": dict(type=float, default=10800.0, metavar="S",
                   help="duration of each phase in seconds (default 10800)"),
    "--window": dict(type=float, default=_WINDOW_FRACTION, metavar="F",
                     help="trailing fraction of each phase fitted (default 1/3)"),
    "--dt": dict(type=float, metavar="S", help="sampling step (default t_qub/120)"),
    "--set": dict(dest="boundary", type=_assignment, action="append",
                  default=[], metavar="NAME=VALUE",
                  help="hold a named temperature source at a value other "
                       "than --to (repeatable)"),
    "--eps-dt": dict(type=float, default=ErrorPolicy.eps_dT, metavar="K",
                     help="temperature-difference uncertainty (default %(default)s)"),
    "--eps-p-rel": dict(type=float, default=ErrorPolicy.eps_P_rel, metavar="F",
                        help="power uncertainty as a fraction of P_h "
                             "(default %(default)s)"),
    "--eps-alpha": dict(type=float, metavar="K_PER_S",
                        help="slope uncertainty (default: from each fit's r²)"),
    "--ph-range": dict(type=_range_spec, metavar="A:B:N",
                       help="heating powers, N log-spaced points over [A, B] W "
                            "(default: maintenance power to 4x, 40 points)"),
    "--t-range": dict(type=_range_spec, metavar="A:B:N",
                      help="phase durations, N linear points over [A, B] s "
                           "(default: 1 h to 12 h, 40 points)"),
    "--max-power": dict(type=float, default=math.inf, metavar="W",
                        help="heater limit (default: none)"),
    "--max-temp": dict(type=float, default=math.inf, metavar="C",
                       help="peak indoor temperature limit (default: none)"),
    "--max-duration": dict(type=float, default=math.inf, metavar="S",
                           help="whole-experiment limit, 2*t_qub (default: none)"),
    "--out": dict(metavar="PATH", help="write the result here instead of stdout"),
}


# ---------------------------------------------------------------------------
# shared model assembly
# ---------------------------------------------------------------------------

def _load_circuit(path: str) -> ThermalCircuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_building(fh.read())


def _protocol(args, P_h: float, t_qub: float) -> QubProtocol:
    return QubProtocol(
        T_o=args.to, P0=args.p0, P_h=P_h, P_c=args.pc, t_qub=t_qub,
        sample_dt=args.dt, boundary_temperatures=dict(args.boundary),
    )


def _setup(args, model: StateSpaceModel):
    return _protocol_setup(model, args.to, dict(args.boundary))


def _axes(args, model: StateSpaceModel) -> tuple[np.ndarray, np.ndarray]:
    if args.ph_range is None or args.t_range is None:
        # mean indoor temperature of the pre-experiment steady state
        setup = _setup(args, model)
        gains = static_gains(model)
        theta0 = float(setup.indoor_mean(gains @ setup.inputs(args.p0)))
        H_ref = _H_from_gains(model, gains)
        ph_default, t_default = default_axes(H_ref, H_ref * (theta0 - args.to))
    ph_values = (_axis(args.ph_range, "--ph-range", "powers", np.geomspace)
                 if args.ph_range is not None else ph_default)
    t_values = (_axis(args.t_range, "--t-range", "durations", np.linspace)
                if args.t_range is not None else t_default)
    return ph_values, t_values


def _axis(spec: tuple[float, float, int], flag: str, what: str,
          spacing) -> np.ndarray:
    """The ``spacing`` points of an A:B:N range whose ends must both be
    finite and positive."""
    lo, hi, n = spec
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ModelError(f"{flag}: {what} must be finite and positive, "
                         f"got {lo!r} to {hi!r}")
    return spacing(lo, hi, n)


def _sweep(args) -> DoeGrid:
    """The grid of the sweep ``args`` ask for.

    The protocol template sits at the grid's largest power and duration,
    so it rejects only a setting that voids every cell: ``--pc`` at or
    above every power, or ``--dt`` above every duration/20."""
    model = to_state_space(_load_circuit(args.building))
    policy = ErrorPolicy(eps_dT=args.eps_dt, eps_P_rel=args.eps_p_rel,
                         eps_alpha=args.eps_alpha)
    # the default axes start from the steady state under --p0
    _check_P0(args.p0)
    ph_values, t_values = _axes(args, model)
    template = _protocol(args, float(ph_values.max()), float(t_values.max()))
    return sweep(model, template, ph_values, t_values, policy,
                 window_fraction=args.window)


# ---------------------------------------------------------------------------
# subcommands (each returns its output as text pieces)
# ---------------------------------------------------------------------------

def _cmd_check(args) -> Iterable[str]:
    circuit = _load_circuit(args.building)
    return [f"OK: {len(circuit.nodes)} nodes, {len(circuit.branches)} branches\n"]


def _cmd_eig(args) -> Iterable[str]:
    model = to_state_space(_load_circuit(args.building))
    setup = _setup(args, model)
    _check_P0(args.p0)
    # no P_c: a pulse of any power, even none, is a response to decompose
    if not math.isfinite(args.ph):
        raise SchemaError(f"P_h must be finite, got {args.ph}")
    _check_t_qub(args.tqub)
    decomp = modal_decomposition(model, setup.inputs(args.ph),
                                 initial_state(model, setup.inputs(args.p0)))
    labels = dict(classify_modes(decomp, args.tqub))
    init_eq = setup.indoor_mean(decomp.init_amplitudes.T)
    input_eq = setup.indoor_mean(decomp.input_amplitudes.T)
    lines = ["mode_index,tau_s,lambda_per_s,init_amp,input_amp,class"]
    for i, lam in enumerate(decomp.eigenvalues):
        lines.append(",".join((
            str(i), _fmt(decomp.time_constants[i]), _fmt(lam),
            _fmt(init_eq[i]), _fmt(input_eq[i]), labels[i],
        )))
    return ["\n".join(lines) + "\n"]


def _cmd_gains(args) -> Iterable[str]:
    model = to_state_space(_load_circuit(args.building))
    _check_P0(args.p0)
    setup = _setup(args, model)
    gains = static_gains(model)
    H = _H_from_gains(model, gains)
    temp_sums = gains[:, :len(model.temperature_inputs)].sum(axis=1)
    lines = ["record,output,input,value"]
    for i, out in enumerate(model.output_names):
        for j, inp in enumerate(model.input_names):
            lines.append(f"gain,{out},{inp},{_fmt(gains[i, j])}")
    for i, out in enumerate(model.output_names):
        lines.append(f"temp_gain_sum,{out},,{_fmt(temp_sums[i])}")
    # the reference H that sweep measures its intrinsic error against
    lines.append(f"H,,,{_fmt(H)}")
    lines.append(f"R,,,{_fmt(1.0 / H)}")
    steady = gains @ setup.inputs(args.p0)
    lines.append(f"mean_temperature,,,{_fmt(setup.indoor_mean(steady))}")
    return ["\n".join(lines) + "\n"]


def _cmd_simulate(args) -> Iterable[str]:
    model = to_state_space(_load_circuit(args.building))
    trace = simulate_qub(model, _protocol(args, args.ph, args.tqub))
    return _csv_chunks(trace)


def _cmd_estimate(args) -> Iterable[str]:
    with open(args.trace, "r", encoding="utf-8") as fh:
        trace = trace_from_csv(fh)
    est = estimate_from_trace(trace, window_fraction=args.window)
    header = "H_qub_W_per_K,C_star_J_per_K,C_J_per_K,alpha_h,alpha_c,r2_h,r2_c"
    row = ",".join(_fmt(v) for v in (est.H_qub, est.C_star, est.C,
                                     est.alpha_h, est.alpha_c, est.r2_h, est.r2_c))
    return [header + "\n" + row + "\n"]


def _cmd_sweep(args) -> Iterable[str]:
    return _grid_chunks(_sweep(args))


def _cmd_optimum(args) -> Iterable[str]:
    constraints = DesignConstraints(args.max_power, args.max_temp, args.max_duration)
    best = select_optimum(_sweep(args), constraints)
    return [f"ph_W={_fmt(best.ph)} t_qub_s={_fmt(best.t_qub)} "
            f"eps_H_pct={_fmt(best.eps_H_pct)}\n"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# a sweep sets P_h and t_qub per cell from its axes
_GRID_FLAGS = ("building --to --p0 --pc --window --dt --set "
               "--eps-dt --eps-p-rel --eps-alpha --ph-range --t-range")

# each command's help line, its flags in --help order, and its handler
_COMMANDS = {
    "check": ("validate a building document", "building", _cmd_check),
    "eig": ("time constants, modal amplitudes and classes",
            "building --to --p0 --ph --tqub --set --out", _cmd_eig),
    "gains": ("static gain matrix and overall H",
              "building --to --p0 --set --out", _cmd_gains),
    "simulate": ("run the two-pulse protocol, emit a trace CSV",
                 "building --to --p0 --ph --pc --tqub --dt --set --out", _cmd_simulate),
    "estimate": ("fit a trace CSV and report H and C",
                 "--trace --window --out", _cmd_estimate),
    "sweep": ("error map over a (P_h x t_qub) grid",
              _GRID_FLAGS + " --out", _cmd_sweep),
    "optimum": ("best admissible design of a sweep",
                _GRID_FLAGS + " --max-power --max-temp --max-duration --out",
                _cmd_optimum),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubdoe",
        description="Design two-pulse building heat-loss experiments on RC "
                    "network models.",
    )
    parser.add_argument("--version", action="version", version=f"qubdoe {__version__}")
    # whole flag names only, so that `sweep --ph` is not read as `--ph-range`
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))
    for command, (help_text, flags, handler) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=handler)
    return parser


def _check_out(path: str) -> None:
    """Raise the OSError that writing ``path`` would meet in its directory,
    without creating the file, so a bad ``--out`` fails before the work."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    # abspath would turn an empty path, which names no file, into the working directory
    parent = os.path.dirname(os.path.abspath(path)) if path else path
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)
    if not os.access(parent, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), parent)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None:
            _check_out(out)
        pieces = args.func(args)
        if out is None:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader stopped early (`| head`) and wants no more;
                # point stdout at devnull so the exit flush cannot fail
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        else:
            # the result is computed before the file is touched
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
    except (SchemaError, ModelError, OSError, UnicodeDecodeError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, MemoryError) as exc:
        print(f"error: numerical: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
