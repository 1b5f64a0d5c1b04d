"""Eigenstructure of RC models and exact step responses.

The state matrix of a reduced RC network is similar to a symmetric
negative-definite matrix (congruence through the square root of the
capacity diagonal), so its spectrum is real, stable and diagonalizable.
Every constant-input response can therefore be written as a finite sum
of decaying exponentials

    y(t) = Σ_i (m_i + n_i) e^{λ_i t} + y_ss

where the m_i come from the initial state, the n_i from the input step,
and y_ss is the stationary value.  This module computes those pieces
exactly (no time stepping) and sorts every mode into the amplitude /
time-constant classes used to judge how long a two-pulse experiment
must run.

Because the modal sum gives the response at any instant on its own,
:func:`step_response` evaluates long time axes in blocks of rows and
bounds its own temporaries by :data:`_BLOCK_ELEMENTS`: its working
memory grows with the number of samples times the number of outputs,
not times the number of states.  The bound is in bytes, 128 KiB per
stacked temporary, glibc's default mmap and trim threshold, so a
block's freed memory serves the next block instead of going back to the
OS and being faulted in again (a fresh default sweep of the bungalow
took 17,751 minor faults with 400 KB blocks, 400 with these).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .network import StateSpaceModel

__all__ = [
    "EigenBasis",
    "ModalDecomposition",
    "eigendecompose",
    "initial_state",
    "state_at",
    "step_response",
    "modal_decomposition",
    "classify_modes",
]

#: eigenvector-matrix condition number beyond which the basis is rejected
COND_LIMIT = 1e10

#: |Im λ| / |Re λ| beyond which an eigenvalue is no longer considered real
_REALNESS_TOL = 1e-9

#: float64 elements per stacked (..., rows, n_states) temporary of
#: :func:`step_response`; sets how many sample instants one block holds.
#: 16,384 floats are 128 KiB, glibc's default mmap and trim threshold: a
#: larger temporary goes back to the OS when it is freed and is faulted
#: in zero-filled by the next block (50,000 floats cost a default sweep
#: of the bungalow 17,751 minor faults, against 400 at this size)
_BLOCK_ELEMENTS = 16_384

# mode-class boundaries of :func:`classify_modes`
_AMPLITUDE_CUTOFF = 0.01  # negligible below this fraction of the largest coefficient
_SETTLE_FACTOR = 4.0      # time constants until a mode has settled
_FAST_FRACTION = 0.2      # fast: settled within this fraction of t_qub
_SLOW_MULTIPLE = 4.0      # slow: still alive after this multiple of t_qub
_SPLIT_MULTIPLE = 2.0     # negligible medium modes: b up to this multiple, d beyond


@dataclass(frozen=True)
class EigenBasis:
    """Sorted eigendecomposition A = V Λ V⁻¹ of a state matrix.

    Eigenvalues are real (enforced), sorted by descending magnitude so
    the fastest mode comes first.  ``time_constants`` is -1/λ.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inv_vectors: np.ndarray

    @property
    def time_constants(self) -> np.ndarray:
        return -1.0 / self.eigenvalues


def eigendecompose(model: StateSpaceModel) -> EigenBasis:
    """Diagonalize the state matrix.

    Raises
    ------
    NumericalError
        If an eigenvalue has a significant imaginary part (the model is
        not an RC-type network) or the eigenvector matrix is too badly
        conditioned to invert reliably (condition number above 1e10).
    """
    lam, V = np.linalg.eig(model.A)
    scale = np.maximum(np.abs(lam.real), np.finfo(float).tiny)
    if np.any(np.abs(lam.imag) > _REALNESS_TOL * scale):
        worst = lam[np.argmax(np.abs(lam.imag) / scale)]
        raise NumericalError(
            f"state matrix has a significantly complex eigenvalue {worst}; "
            "not a reciprocal RC network"
        )
    lam = lam.real
    V = V.real
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    V = V[:, order]
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(
            f"eigenvector basis is ill-conditioned (cond = {cond:.3e} > "
            f"{COND_LIMIT:.0e}); modal form is unreliable"
        )
    return EigenBasis(eigenvalues=lam, vectors=V, inv_vectors=np.linalg.inv(V))


def initial_state(model: StateSpaceModel, u0: np.ndarray) -> np.ndarray:
    """Stationary state under constant input ``u0``: x = -A⁻¹ B u0."""
    u0 = np.asarray(u0, dtype=float)
    return np.linalg.solve(model.A, -(model.B @ u0))


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for a vector or a stack of vectors (..., n).  Written as a
    stacked ``@`` so each member is the same BLAS call as a lone vector."""
    return (M @ v[..., None])[..., 0]


def _modal_coordinates(model: StateSpaceModel, u: np.ndarray, x0: np.ndarray,
                       basis: EigenBasis) -> tuple[np.ndarray, np.ndarray]:
    """Start state and input in the eigenbasis: V⁻¹x0 and V⁻¹Bu."""
    return (_apply(basis.inv_vectors, x0),
            _apply(basis.inv_vectors, _apply(model.B, u)))


def _state_trajectory(basis: EigenBasis, w0: np.ndarray, wu: np.ndarray,
                      times: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """States at the given times for a constant input:
    x(t) = V [e^{Λt} w0 + Λ⁻¹(e^{Λt} - I) wu] with w0 = V⁻¹x0, wu = V⁻¹Bu.

    ``w0`` and ``wu`` (..., n_states) may be stacks that broadcast against
    each other and against the leading axes of ``times`` (..., nt); the
    result is (..., nt, n_states) and every member equals the trajectory
    computed for it alone, bit for bit.  With ``starts`` (nt,), ``w0`` is
    a stack (..., m, n_states) of m start coordinates, and instant j runs
    from w0[..., starts[j], :].
    """
    lam = basis.eigenvalues
    phase = times[..., None] * lam
    # expm1 keeps t -> 0 and slow modes accurate
    decay, forced = (np.exp(phase), w0), (np.expm1(phase) / lam, wu)
    w0_stack = w0.shape[:-1] if starts is None else w0.shape[:-2]
    states = np.empty(np.broadcast_shapes(w0_stack, wu.shape[:-1], times.shape[:-1])
                      + phase.shape[-2:])
    # one stacked temporary besides the result: the result is filled with
    # the coordinates of the larger stack and multiplied in place, and the
    # product of the smaller, (rows, n_states) when it is unstacked, is
    # added; the two products add to the same in either order
    if starts is None:
        (table, small), (big_table, big) = sorted((decay, forced),
                                                  key=lambda term: term[1].size)
        states[...] = big[..., None, :]
    else:
        # each instant's own start ("clip" keeps np.take from buffering)
        (big_table, big), (table, small) = decay, forced
        np.take(np.broadcast_to(big, states.shape[:-2] + big.shape[-2:]), starts,
                axis=-2, out=states, mode="clip")
    states *= big_table
    states += table * small[..., None, :]
    return states @ basis.vectors.T


def step_response(model: StateSpaceModel, u: np.ndarray, x0: np.ndarray,
                  times: np.ndarray, basis: EigenBasis | None = None, *,
                  starts: np.ndarray | None = None) -> np.ndarray:
    """Exact response to a constant input from an arbitrary start state.

    Parameters
    ----------
    model : StateSpaceModel
    u : ndarray, shape (n_inputs,) or (..., n_inputs)
        Input held constant over the whole horizon.
    x0 : ndarray, shape (n_states,) or (..., n_states)
        State at t = 0.  Stacks of inputs and start states broadcast
        against each other; each member of the result is identical to
        its own unstacked call.
    times : ndarray, shape (nt,)
        Evaluation instants (s); need not be uniform.
    basis : EigenBasis, optional
        Reuse a precomputed eigendecomposition (the decomposition does
        not depend on u or x0, so sweeps share one).
    starts : ndarray of int, shape (nt,), optional
        Per-instant start states: ``x0`` is then a stack (..., m, n_states)
        of m start states, and ``times[j]`` counts from
        ``x0[..., starts[j], :]``.  Each row equals the row of the call
        from that start state alone.

    Returns
    -------
    ndarray, shape (..., nt, n_outputs)
        y(t) = C[e^{At}x0 + A⁻¹(e^{At} - I)Bu] + Du, evaluated through
        the eigenbasis, so accuracy is uniform in t.  The instants are
        evaluated in blocks whose state temporaries hold at most
        :data:`_BLOCK_ELEMENTS` floats (four rows at the least); the
        result is the same, bit for bit, whatever the block size.

        Every block holds a multiple of four rows, the last block padded
        by repeating the last instant (and start): BLAS kernels may
        round the last one to three rows of a product apart from the
        rest, and without such a remainder a row's bits depend on its own
        data alone, never on its block or its neighbours.  The promises
        for stacks and per-instant starts rest on that too.
    """
    u = np.asarray(u, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if basis is None:
        basis = eigendecompose(model)
    w0, wu = _modal_coordinates(model, u, x0, basis)
    feedthrough = _apply(model.D, u)[..., None, :]
    stack = np.broadcast_shapes(w0.shape[:-1] if starts is None else w0.shape[:-2],
                                wu.shape[:-1])
    rows = max(4, _BLOCK_ELEMENTS // (max(1, math.prod(stack)) * model.n_states) // 4 * 4)
    nt = times.size
    out = np.empty(stack + (nt, model.C.shape[0]))
    for start in range(0, nt, rows):
        # the last block repeats the last instant up to a multiple of four rows
        at = (slice(start, start + rows) if start + rows <= nt
              else np.minimum(np.arange(start, nt + -nt % 4), nt - 1))
        # no name holds a block's states, so they are freed before the next
        y = _state_trajectory(basis, w0, wu, times[at],
                              None if starts is None else starts[at]) @ model.C.T
        np.add(y[..., :nt - start, :], feedthrough, out=out[..., start:start + rows, :])
    return out


def state_at(model: StateSpaceModel, u: np.ndarray, x0: np.ndarray,
             t, basis: EigenBasis | None = None) -> np.ndarray:
    """State vector after holding input ``u`` for ``t`` seconds from
    ``x0``; stacks broadcast as in :func:`step_response`.  A vector of
    times (D,) gives the state at each, on a last stack axis
    (..., D, n_states); each is the same one-row product as for its
    lone ``t``."""
    u = np.asarray(u, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    if basis is None:
        basis = eigendecompose(model)
    w0, wu = _modal_coordinates(model, u, x0, basis)
    if t.ndim:
        w0, wu = w0[..., None, :], wu[..., None, :]
    return _state_trajectory(basis, w0, wu, t[..., None])[..., 0, :]


@dataclass(frozen=True)
class ModalDecomposition:
    """Per-mode split of a constant-input response.

    For output o:  y_o(t) = Σ_i [init_amplitudes[o,i] +
    input_amplitudes[o,i]] e^{λ_i t} + steady_value[o].
    """

    eigenvalues: np.ndarray          # (n,)
    time_constants: np.ndarray       # (n,)
    init_amplitudes: np.ndarray      # (n_outputs, n)
    input_amplitudes: np.ndarray     # (n_outputs, n)
    steady_value: np.ndarray         # (n_outputs,)
    output_names: tuple[str, ...]

    def mode_amplitudes(self) -> np.ndarray:
        """|initial + input| coefficient of each mode, worst output."""
        return np.max(np.abs(self.init_amplitudes + self.input_amplitudes), axis=0)


def modal_decomposition(model: StateSpaceModel, u: np.ndarray, x0: np.ndarray,
                        basis: EigenBasis | None = None) -> ModalDecomposition:
    """Split the constant-input response into its exponential modes.

    The initial-state part carries coefficients CV·diag(V⁻¹x0), the
    forced part CA⁻¹V·diag(V⁻¹Bu), and the stationary value is
    (-CA⁻¹B + D)u; their sum at t = 0 reproduces y(0) = Cx0 + Du.
    """
    u = np.asarray(u, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if basis is None:
        basis = eigendecompose(model)
    V = basis.vectors
    CV = model.C @ V
    CAinvV = model.C @ np.linalg.solve(model.A, V)
    w0 = basis.inv_vectors @ x0
    wu = basis.inv_vectors @ (model.B @ u)
    steady = -model.C @ np.linalg.solve(model.A, model.B @ u) + model.D @ u
    return ModalDecomposition(
        eigenvalues=basis.eigenvalues,
        time_constants=basis.time_constants,
        init_amplitudes=CV * w0[None, :],
        input_amplitudes=CAinvV * wu[None, :],
        steady_value=steady,
        output_names=model.output_names,
    )


def classify_modes(decomposition: ModalDecomposition,
                   t_qub: float) -> list[tuple[int, str]]:
    """Assign each mode one of the design classes a-e.

    A mode settles after four time constants.  It is fast when it
    settles within 0.2·t_qub, slow when it is still alive after
    4·t_qub, medium in between.  Its coefficient is negligible below 1%
    of the largest; negligible medium modes split at 2·t_qub.

    a : settles early in the pulse and shapes the response — harmless.
    b : quick but with a negligible coefficient.
    c : significant and settling on the experiment's own scale — these
        force the pulse to be long enough.
    d : negligible coefficient, sluggish.
    e : barely decays within the experiment, any amplitude — these bias
        late-window slopes and drive the intrinsic estimation error.

    The partition is exhaustive and exclusive for every mode.
    """
    if not t_qub > 0.0:
        raise NumericalError(f"t_qub must be positive, got {t_qub}")
    taus = decomposition.time_constants
    if np.any(taus <= 0.0):
        raise NumericalError("unstable mode (non-positive time constant); "
                             "classes are undefined")
    amps = decomposition.mode_amplitudes()
    largest = amps.max(initial=0.0)
    cut = _AMPLITUDE_CUTOFF * largest
    labels: list[tuple[int, str]] = []
    for i, tau in enumerate(taus):
        settle = _SETTLE_FACTOR * tau
        significant = largest > 0.0 and amps[i] >= cut
        if settle > _SLOW_MULTIPLE * t_qub:
            label = "e"
        elif settle <= _FAST_FRACTION * t_qub:
            label = "a" if significant else "b"
        elif significant:
            label = "c"
        else:
            label = "b" if settle <= _SPLIT_MULTIPLE * t_qub else "d"
        labels.append((i, label))
    return labels
