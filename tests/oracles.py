"""Independent reference implementations used to check the library.

Everything here is deliberately written by a different route than the
package: dense per-branch stamping instead of incidence assembly,
implicit Euler stepping instead of matrix exponentials, ``np.polyfit``
instead of hand-rolled normal equations, the quadratic formula instead
of a general eigensolver, a fit window as a mask over every sample
instead of a binary search for its start, brute-force Monte Carlo instead of
first-order propagation, the two-zone aggregate H straight from the
2x2 conductance matrix, the kept-node conductance matrix as a Schur
complement of the stamped one, the modal sum re-added one mode at a
time, one-node slopes and degree-day integrals in closed form or by a
hand-summed trapezoid rule, the design sweep's stacked rows of powers
cell by cell through the public single-record chain, the optimum's
column masks as a loop over cells, and the trace CSV rendered and
parsed one row at a time from whole lists.
"""
from __future__ import annotations

import warnings
from dataclasses import replace
from math import nan

import numpy as np

import qubdoe as q
from qubdoe.qub import _WINDOW_FRACTION


def stamped_steady_state(circuit, source_values):
    """Steady node temperatures by per-branch conductance stamping.

    Walks the branch list one conductance at a time, accumulating the
    nodal balance equations in plain dictionaries before a dense solve.
    """
    index = {node.id: k for k, node in enumerate(circuit.nodes)}
    n = len(index)
    K = np.zeros((n, n))
    rhs = np.zeros(n)
    for br in circuit.branches:
        g = br.conductance
        offset = (source_values[br.temperature_source]
                  if br.temperature_source is not None else 0.0)
        if br.from_node == "REF":
            j = index[br.to_node]
            K[j, j] += g
            rhs[j] += g * offset
        else:
            i, j = index[br.from_node], index[br.to_node]
            K[i, i] += g
            K[j, j] += g
            K[i, j] -= g
            K[j, i] -= g
            rhs[j] += g * offset
            rhs[i] -= g * offset
    for fs in circuit.flow_sources:
        rhs[index[fs.node]] += source_values[fs.source_name]
    theta = np.linalg.solve(K, rhs)
    return {node.id: theta[index[node.id]] for node in circuit.nodes}


def stamped_matrices(circuit):
    """(K, W, C_diag, node_ids, input_names) for the full network,
    including zero-capacity nodes, by the same stamping walk."""
    index = {node.id: k for k, node in enumerate(circuit.nodes)}
    n = len(index)
    temp_names: list[str] = []
    for br in circuit.branches:
        if br.temperature_source is not None and br.temperature_source not in temp_names:
            temp_names.append(br.temperature_source)
    flow_names = [fs.source_name for fs in circuit.flow_sources]
    inputs = temp_names + flow_names
    col = {name: j for j, name in enumerate(inputs)}

    K = np.zeros((n, n))
    W = np.zeros((n, len(inputs)))
    for br in circuit.branches:
        g = br.conductance
        if br.from_node == "REF":
            j = index[br.to_node]
            K[j, j] += g
            if br.temperature_source is not None:
                W[j, col[br.temperature_source]] += g
        else:
            i, j = index[br.from_node], index[br.to_node]
            K[i, i] += g
            K[j, j] += g
            K[i, j] -= g
            K[j, i] -= g
            if br.temperature_source is not None:
                W[j, col[br.temperature_source]] += g
                W[i, col[br.temperature_source]] -= g
    for fs in circuit.flow_sources:
        W[index[fs.node], col[fs.source_name]] += 1.0
    C_diag = np.array([node.capacity for node in circuit.nodes])
    return K, W, C_diag, [node.id for node in circuit.nodes], inputs


def nodal_conductance_matrix(circuit, keep):
    """Conductance matrix between the ``keep`` nodes and the datum: every
    other node of the stamped K eliminated by its Schur complement
    (temperature sources at the datum).  Row/column order follows
    ``keep``; K_kept θ_kept = f relates steady injected powers to steady
    temperatures."""
    K, _, _, node_ids, _ = stamped_matrices(circuit)
    kept = [node_ids.index(name) for name in keep]
    others = [i for i in range(len(node_ids)) if i not in kept]
    K_ko = K[np.ix_(kept, others)]
    return K[np.ix_(kept, kept)] - K_ko @ np.linalg.solve(K[np.ix_(others, others)], K_ko.T)


def modal_sum(decomp, times):
    """y(t) of a ModalDecomposition re-added one mode at a time onto the
    steady value; shape (nt, n_outputs)."""
    times = np.asarray(times, dtype=float)
    coeff = decomp.init_amplitudes + decomp.input_amplitudes
    y = np.tile(decomp.steady_value, (times.size, 1))
    for lam, c in zip(decomp.eigenvalues, coeff.T):
        y += np.exp(lam * times)[:, None] * c[None, :]
    return y


def implicit_euler(A, B, u, x0, dt, n_steps):
    """Backward-Euler trajectory of dx/dt = Ax + Bu, constant input.

    Returns states at times 0, dt, ..., n_steps*dt (shape
    ``(n_steps+1, n)``).  The step matrix is factorized once.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    M = np.linalg.inv(np.eye(n) - dt * A)
    forcing = M @ (dt * (np.asarray(B) @ np.asarray(u, dtype=float)))
    out = np.empty((n_steps + 1, n))
    out[0] = x0
    x = np.asarray(x0, dtype=float)
    for k in range(n_steps):
        x = M @ x + forcing
        out[k + 1] = x
    return out


def implicit_euler_richardson(A, B, u, x0, dt, n_steps):
    """Implicit Euler at steps dt and dt/2, Richardson-extrapolated.

    Backward Euler alone carries a first-order global error of roughly
    dt/(2τ) per mode, so at dt = τ_min/100 it can only certify ~1e-3.
    Combining the two runs cancels the leading error term and leaves a
    second-order residual, two to three decades smaller, while the
    stepping itself stays plain backward Euler.
    """
    coarse = implicit_euler(A, B, u, x0, dt, n_steps)
    fine = implicit_euler(A, B, u, x0, dt / 2.0, 2 * n_steps)
    return 2.0 * fine[::2] - coarse


def implicit_euler_dae(K, W, C_diag, u, theta0, dt, n_steps):
    """Backward Euler on the full network balance, zero-capacity rows
    kept as algebraic constraints: (C/dt + K) θ⁺ = (C/dt) θ + W u."""
    C_diag = np.asarray(C_diag, dtype=float)
    lhs = np.diag(C_diag / dt) + np.asarray(K, dtype=float)
    M = np.linalg.inv(lhs)
    forcing = M @ (np.asarray(W) @ np.asarray(u, dtype=float))
    scale = C_diag / dt
    out = np.empty((n_steps + 1, len(C_diag)))
    out[0] = theta0
    theta = np.asarray(theta0, dtype=float)
    for k in range(n_steps):
        theta = M @ (scale * theta) + forcing
        out[k + 1] = theta
    return out


def eig_2x2(A):
    """Eigenvalues of a 2x2 matrix by the quadratic formula, as a
    complex pair sorted by ascending real part."""
    a, b = A[0]
    c, d = A[1]
    tr = a + d
    disc = complex(tr * tr - 4.0 * (a * d - b * c))
    root = np.sqrt(disc)
    lam = np.array([(tr - root) / 2.0, (tr + root) / 2.0])
    return lam[np.argsort(lam.real)]


def window_mask(times, window_fraction, phase, origin=0.0):
    """The trailing ``window_fraction`` of a phase sampled at ``times`` as a
    mask over all its samples, each clock value ``times - origin``
    compared with (1 − f)·span − 1e-9·span; raises the ModelError of a
    fraction outside (0, 1] or of a window under three samples."""
    if not 0.0 < window_fraction <= 1.0:
        raise q.ModelError("window_fraction must lie in (0, 1]")
    t_rel = times - origin
    span = t_rel[-1]
    selected = t_rel >= (1.0 - window_fraction) * span - 1e-9 * span
    count = np.count_nonzero(selected)
    if count < 3:
        raise q.ModelError(f"{phase} window holds only {count} samples; need at least 3")
    return selected


def polyfit_slope(t, y):
    """(slope, value at t[0]) from numpy's least-squares polyfit."""
    coeffs = np.polyfit(t, y, 1)
    return coeffs[0], np.polyval(coeffs, t[0])


def mc_measurement_sigma(P_h, P_c, dT_h, dT_c, alpha_h, alpha_c,
                         eps, n_samples, seed):
    """Monte-Carlo standard deviation of the two-phase H quotient under
    independent Gaussian perturbations of its six inputs.

    ``eps`` maps each input to its standard deviation:
    keys ``alpha``, ``P``, ``dT`` (shared per pair, like the
    propagation formula assumes).
    """
    rng = np.random.default_rng(seed)
    ah = alpha_h + eps["alpha"] * rng.standard_normal(n_samples)
    ac = alpha_c + eps["alpha"] * rng.standard_normal(n_samples)
    ph = P_h + eps["P"] * rng.standard_normal(n_samples)
    pc = P_c + eps["P"] * rng.standard_normal(n_samples)
    th = dT_h + eps["dT"] * rng.standard_normal(n_samples)
    tc = dT_c + eps["dT"] * rng.standard_normal(n_samples)
    H = (ph * ac - pc * ah) / (th * ac - tc * ah)
    return float(np.std(H))


def first_order_delta_T(G, C, P, t, dT_start=0.0):
    """Closed-form indoor rise of a single-capacity model under
    constant power: ΔT(t) = P/G + (ΔT₀ − P/G)·e^(−Gt/C)."""
    tau = C / G
    return P / G + (dT_start - P / G) * np.exp(-np.asarray(t) / tau)


def analytic_slopes(G, C, P_h, P_c, dT0_h, dT0_c, t0):
    """Tangent slopes (α_h, α_c) at time t0 of each phase of the one-node
    building: the derivative of :func:`first_order_delta_T` from the
    phase-start rises ΔT0_h, ΔT0_c."""
    tau = C / G

    def slope(P, dT_start):
        return -(dT_start - P / G) / tau * np.exp(-t0 / tau)

    return slope(P_h, dT0_h), slope(P_c, dT0_c)


def degree_day_H(times, powers, delta_T):
    """Long-horizon integral estimate H = ∫P dt / ∫ΔT dt, each integral a
    hand-summed trapezoid rule.  It equals the true H only on a
    (quasi-)stationary series."""
    dt = np.diff(np.asarray(times, dtype=float))

    def integral(y):
        y = np.asarray(y, dtype=float)
        return float(np.sum(dt * (y[1:] + y[:-1]) / 2.0))

    return integral(powers) / integral(delta_T)


def first_order_degree_day_integrals(G, C, P, horizon, dT_start=0.0):
    """Exact time integrals (∫P dt, ∫ΔT dt) for the first-order model."""
    tau = C / G
    ss = P / G
    integral_dT = ss * horizon + (dT_start - ss) * tau * (1.0 - np.exp(-horizon / tau))
    return P * horizon, integral_dT


def H_from_K(K, masses, temperatures):
    """Two-zone aggregate H from the 2x2 nodal conductance matrix.

    H = [(K11+K12)θ1 + (K12+K22)θ2] / [(m1θ1 + m2θ2)/(m1+m2)]

    with θ measured relative to the (single) boundary temperature.  The
    numerator is the total steady power leaving through the boundary;
    the denominator is the mass-weighted mean rise.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (2, 2):
        raise q.ModelError(f"K must be 2x2, got {K.shape}")
    m1, m2 = (float(m) for m in masses)
    t1, t2 = (float(t) for t in temperatures)
    if m1 <= 0.0 or m2 <= 0.0:
        raise q.ModelError("masses must be positive")
    mean = (m1 * t1 + m2 * t2) / (m1 + m2)
    if mean == 0.0:
        raise q.NumericalError("mass-weighted mean rise is zero; H undefined")
    flux = (K[0, 0] + K[0, 1]) * t1 + (K[0, 1] + K[1, 1]) * t2
    return float(flux / mean)


def evaluate_cell(model, basis, template, ph, t_qub, H_ref, policy,
                  window_fraction=_WINDOW_FRACTION):
    """One design-sweep cell through the public single-record chain:
    simulate_qub → fit_slope → estimate_H → partials → error policy →
    measurement_error → assemble_budget, any QubdoeError or a non-finite
    budget marking the cell invalid (theta_max is kept once the
    simulation succeeded)."""
    theta_max = nan
    try:
        sample_dt = template.sample_dt
        if sample_dt is not None and sample_dt > t_qub / 20.0:
            sample_dt = None
        protocol = replace(template, P_h=ph, t_qub=t_qub, sample_dt=sample_dt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sub-maintenance cells are expected
            trace = q.simulate_qub(model, protocol, basis=basis)
        theta_max = protocol.T_o + float(trace.delta_T.max())
        fit_h = q.fit_slope(trace, "heating", window_fraction)
        fit_c = q.fit_slope(trace, "cooling", window_fraction)
        P_h = float(trace.power[trace.heating].mean())
        P_c = float(trace.power[trace.cooling].mean())
        H_qub = q.estimate_H(fit_h.alpha, fit_c.alpha, fit_h.dT0, fit_c.dT0, P_h, P_c)
        sens = q.partials(fit_h.alpha, fit_c.alpha, P_h, P_c, fit_h.dT0, fit_c.dT0)
        errors = policy.resolve(P_h, fit_h, fit_c)
        budget = q.assemble_budget(H_qub, H_ref, q.measurement_error(sens, errors))
        if not (np.isfinite(budget.eps_Hm) and np.isfinite(budget.eps_H_pct)):
            raise q.NumericalError("error budget is not finite")
        return q.DoeCell(ph=ph, t_qub=t_qub, H_qub=H_qub,
                         eps_qub_pct=budget.eps_qub_pct, eps_Hm=budget.eps_Hm,
                         eps_H_pct=budget.eps_H_pct, theta_max=theta_max, valid=True)
    except q.QubdoeError:
        return q.DoeCell(ph=ph, t_qub=t_qub, H_qub=nan, eps_qub_pct=nan,
                         eps_Hm=nan, eps_H_pct=nan, theta_max=theta_max, valid=False)


def reference_sweep(model, template, ph_values, t_values, policy,
                    window_fraction=_WINDOW_FRACTION):
    """The sweep grid evaluated one cell at a time by :func:`evaluate_cell`,
    against the reference H of the same model."""
    H_ref = q.reference_H(model)
    basis = q.eigendecompose(model)
    rows = [[evaluate_cell(model, basis, template, float(ph), float(t), H_ref,
                           policy, window_fraction)
             for ph in ph_values]
            for t in t_values]
    return grid_from_cells(rows, ph_values, t_values)


def grid_from_cells(cells_by_row, ph_values, t_values):
    """The DoeGrid whose ``cells[i][j]`` is ``cells_by_row[i][j]``, on the
    given axes: each column gathered field by field from the cells."""
    columns = {name: [[getattr(cell, name) for cell in row] for row in cells_by_row]
               for name in ("H_qub", "eps_qub_pct", "eps_Hm", "eps_H_pct", "theta_max",
                            "valid")}
    return q.DoeGrid(ph_values=np.asarray(ph_values, dtype=float),
                     t_values=np.asarray(t_values, dtype=float), **columns)


def reference_select(grid, constraints):
    """:func:`qubdoe.select_optimum` as a loop over the grid's cells in
    export order: each constraint counts the valid cells the ones before
    it let through, and the admissible cell with the smallest
    (|eps_H_pct|, t_qub, ph) wins, the first of equal keys kept."""
    best = best_key = None
    n_invalid = n_power = n_temp = n_duration = 0
    for row in grid.cells:
        for cell in row:
            if not cell.valid:
                n_invalid += 1
                continue
            if cell.ph > constraints.max_power:
                n_power += 1
                continue
            if cell.theta_max > constraints.max_indoor_temperature:
                n_temp += 1
                continue
            if 2.0 * cell.t_qub > constraints.max_total_duration:
                n_duration += 1
                continue
            key = (abs(cell.eps_H_pct), cell.t_qub, cell.ph)
            if best_key is None or key < best_key:
                best, best_key = cell, key
    if best is None:
        total = sum(len(row) for row in grid.cells)
        raise q.NumericalError(
            f"no admissible design among {total} cells: {n_invalid} degenerate, "
            f"{n_power} above max_power, {n_temp} above max_indoor_temperature, "
            f"{n_duration} above max_total_duration"
        )
    return best


def row_trace_to_csv(trace):
    """Trace CSV built as one list of row strings."""
    lines = ["t_s,dT_K,power_W,phase"]
    n = trace.n_heating
    rows = zip(trace.times.tolist(), trace.delta_T.tolist(), trace.power.tolist())
    for i, (t, dT, p) in enumerate(rows):
        lines.append(f"{t!r},{dT!r},{p!r},{'heating' if i < n else 'cooling'}")
    return "\n".join(lines) + "\n"


def row_trace_from_csv(text):
    """Trace CSV parsed from the list of all its non-blank lines, with the
    phase column validated on the list of all its labels."""
    header = "t_s,dT_K,power_W,phase"
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != header:
        raise q.SchemaError(f"trace: first line must be '{header}'")
    times, delta_T, power, phase = [], [], [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise q.SchemaError(f"trace line {i}: expected 4 fields, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            delta_T.append(float(parts[1]))
            power.append(float(parts[2]))
        except ValueError as exc:
            raise q.SchemaError(f"trace line {i}: {exc}") from None
        phase.append(parts[3].strip())
    unknown = set(phase) - {"heating", "cooling"}
    if unknown:
        raise q.SchemaError(f"unknown phase label(s): {sorted(unknown)}")
    if not phase or phase[0] != "heating" or phase[-1] != "cooling":
        raise q.SchemaError("trace must start with heating and end with cooling")
    n_heating = phase.index("cooling")
    if phase.count("heating") != n_heating:
        raise q.SchemaError("phase must switch exactly once")
    return q.QubTrace(times=np.array(times), delta_T=np.array(delta_T),
                      power=np.array(power), n_heating=n_heating)
