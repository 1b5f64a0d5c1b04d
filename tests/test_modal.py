"""Eigendecomposition, exact trajectories, mode shapes and classes."""
from __future__ import annotations

import numpy as np
import pytest

import qubdoe as q
import qubdoe.modal as modal
from conftest import input_vector, make_bridged, make_ladder, rng
from oracles import eig_2x2, implicit_euler_richardson, modal_sum


def two_state_model(seed=1):
    """Random well-conditioned stable 2x2 model."""
    r = rng(seed)
    while True:
        K = r.uniform(5.0, 50.0, size=(2, 2))
        K = K + K.T + np.diag([60.0, 80.0])
        C = r.uniform(1.0e5, 9.0e5, size=2)
        A = -K / C[:, None]
        if np.all(np.isreal(np.linalg.eigvals(A))):
            break
    return q.StateSpaceModel(
        A=A, B=np.array([[1.0 / C[0]], [0.0]]), C=np.eye(2),
        D=np.zeros((2, 1)), state_names=("x0", "x1"), input_names=("P",),
        input_kinds=("flow",), output_names=("x0", "x1"),
        state_capacities=C,
    )


class TestEigendecompose:
    def test_matches_quadratic_formula(self):
        for seed in range(20):
            model = two_state_model(seed)
            basis = q.eigendecompose(model)
            want = eig_2x2(model.A).real
            assert np.sort(basis.eigenvalues) == pytest.approx(np.sort(want),
                                                               rel=1e-12)

    def test_sorted_fastest_first(self, bundled_models):
        for model in bundled_models.values():
            basis = q.eigendecompose(model)
            lam = basis.eigenvalues
            assert np.all(np.diff(np.abs(lam)) <= 1e-12 * np.abs(lam[:-1]))
            assert np.all(lam < 0.0)
            assert np.all(basis.time_constants > 0.0)

    def test_time_constants_are_reciprocal_rates(self):
        model = two_state_model(3)
        basis = q.eigendecompose(model)
        assert basis.time_constants == pytest.approx(-1.0 / basis.eigenvalues)

    def test_complex_modes_rejected(self):
        rotor = q.StateSpaceModel(
            A=np.array([[-1.0, 5.0], [-5.0, -1.0]]),
            B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 1)),
            state_names=("x", "y"), input_names=("P",), input_kinds=("flow",),
            output_names=("x", "y"),
        )
        with pytest.raises(q.NumericalError, match="[Cc]omplex|imaginary"):
            q.eigendecompose(rotor)

    def test_near_defective_rejected(self):
        jordan = q.StateSpaceModel(
            A=np.array([[-1.0, 1.0], [0.0, -1.0 + 1.0e-14]]),
            B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 1)),
            state_names=("x", "y"), input_names=("P",), input_kinds=("flow",),
            output_names=("x", "y"),
        )
        with pytest.raises(q.NumericalError, match="condition"):
            q.eigendecompose(jordan)


class TestTrajectories:
    def test_initial_state_is_steady(self):
        model = two_state_model(5)
        u = np.array([640.0])
        x0 = q.initial_state(model, u)
        assert model.A @ x0 + model.B @ u == pytest.approx(np.zeros(2), abs=1e-12)

    def test_semigroup_property(self):
        model = two_state_model(7)
        u = np.array([300.0])
        x0 = np.array([4.0, -2.0])
        t1, t2 = 1234.5, 4321.0
        direct = q.state_at(model, u, x0, t1 + t2)
        staged = q.state_at(model, u, q.state_at(model, u, x0, t1), t2)
        assert staged == pytest.approx(direct, rel=1e-12)

    def test_step_response_at_zero_and_infinity(self):
        model = two_state_model(9)
        u = np.array([500.0])
        x0 = np.array([1.0, 2.0])
        y = q.step_response(model, u, x0, np.array([0.0, 5.0e7]))
        assert y[0] == pytest.approx(model.C @ x0 + model.D @ u, rel=1e-12)
        x_inf = np.linalg.solve(model.A, -model.B @ u)
        assert y[-1] == pytest.approx(model.C @ x_inf + model.D @ u, rel=1e-9)

    @pytest.mark.parametrize("make", [make_bridged, make_ladder])
    def test_matches_implicit_euler(self, make):
        circuit = make()
        outputs = [n.id for n in circuit.nodes if n.capacity > 0.0]
        model = q.to_state_space(circuit, outputs)
        u = input_vector(model, {name: (3.0 if kind == "temperature" else 900.0)
                                 for name, kind in zip(model.input_names,
                                                       model.input_kinds)})
        basis = q.eigendecompose(model)
        tau_min = basis.time_constants.min()
        dt = tau_min / 100.0
        n_steps = 4000
        times = dt * np.arange(n_steps + 1)
        y = q.step_response(model, u, np.zeros(model.n_states), times)
        x_ie = implicit_euler_richardson(model.A, model.B, u,
                                         np.zeros(model.n_states), dt, n_steps)
        y_ie = x_ie @ model.C.T + model.D @ u
        scale = np.abs(y_ie).max()
        assert np.abs(y - y_ie).max() <= 1e-4 * scale

    def test_decay_is_monotone_in_energy_norm(self):
        """Free response: the capacity-weighted square norm never grows."""
        model = two_state_model(11)
        caps = np.asarray(model.state_capacities)
        x = np.array([5.0, -3.0])
        u = np.array([0.0])
        energies = []
        for t in np.linspace(0.0, 2.0e4, 30):
            xt = q.state_at(model, u, x, t)
            energies.append(float(xt @ (caps * xt)))
        assert np.all(np.diff(energies) <= 1e-9 * energies[0])

    def test_stacked_members_equal_lone_calls(self, bundled_models):
        r = rng(23)
        times = np.linspace(0.0, 3.0e4, 61)
        for model in bundled_models.values():
            basis = q.eigendecompose(model)
            U = r.uniform(0.0, 900.0, (5, len(model.input_names)))
            X = r.uniform(-2.0, 2.0, (5, model.n_states))
            x0, u = X[0], U[0]
            for stacked, lone in (
                (q.step_response(model, U, X, times, basis=basis),
                 [q.step_response(model, uk, xk, times, basis=basis)
                  for uk, xk in zip(U, X)]),
                (q.step_response(model, U, x0, times, basis=basis),
                 [q.step_response(model, uk, x0, times, basis=basis) for uk in U]),
                (q.step_response(model, u, X, times, basis=basis),
                 [q.step_response(model, u, xk, times, basis=basis) for xk in X]),
                (q.state_at(model, U, X, 7200.0, basis=basis),
                 [q.state_at(model, uk, xk, 7200.0, basis=basis)
                  for uk, xk in zip(U, X)]),
            ):
                assert np.array_equal(stacked, np.stack(lone))


class TestTimeBlocks:
    @pytest.mark.parametrize("name", ["bungalow", "house", "mixed-output"])
    @pytest.mark.parametrize("nt", [0, 1, 2, 3, 40, 43])
    def test_blocks_equal_one_block(self, bundled_models, mixed_output_model, name, nt,
                                    monkeypatch):
        # the mixed output's C row reads eight states, so each block ends in
        # a matrix-vector product over all of them
        model = {**bundled_models, "mixed-output": mixed_output_model}[name]
        basis = q.eigendecompose(model)
        r = rng(29)
        n_in, n = len(model.input_names), model.n_states
        times = np.linspace(0.0, 3.0e4, nt)
        cases = {
            "lone": (r.uniform(0.0, 900.0, n_in), r.uniform(-2.0, 2.0, n)),
            "stacked inputs": (r.uniform(0.0, 900.0, (3, n_in)), r.uniform(-2.0, 2.0, n)),
            "stacked states": (r.uniform(0.0, 900.0, n_in), r.uniform(-2.0, 2.0, (3, n))),
            "both stacked": (r.uniform(0.0, 900.0, (2, 1, n_in)), r.uniform(-2.0, 2.0, (3, n))),
        }
        # the default block holds every instant
        whole = {case: q.step_response(model, u, x0, times, basis=basis)
                 for case, (u, x0) in cases.items()}
        # and each row is the call at its instant alone
        for case, (u, x0) in cases.items():
            for j in range(nt):
                alone = q.step_response(model, u, x0, times[j:j + 1], basis=basis)
                assert np.array_equal(whole[case][..., j:j + 1, :], alone), (case, j)
        # blocks of 4 or 12 rows for a lone record and of 4 for a stack of 3
        # or 6; 1, 2, 3 and 43 instants then leave 1 to 3 rows past a
        # multiple of four in the last block
        for rows in (7, 13):
            monkeypatch.setattr(modal, "_BLOCK_ELEMENTS", rows * n)
            for case, (u, x0) in cases.items():
                blocked = q.step_response(model, u, x0, times, basis=basis)
                assert blocked.shape == whole[case].shape, case
                assert np.array_equal(blocked, whole[case]), (case, rows)

    @pytest.mark.parametrize("u_stack, x0_stack", [((0,), ()), ((), (0,)), ((0,), (0,))])
    def test_empty_stack(self, u_stack, x0_stack):
        model = two_state_model(3)
        u = np.zeros(u_stack + (len(model.input_names),))
        x0 = np.zeros(x0_stack + (model.n_states,))
        y = q.step_response(model, u, x0, np.linspace(0.0, 100.0, 11))
        assert y.shape == (0, 11, model.C.shape[0])


class TestDurationGroups:
    """The kernel entries of a sweep's group of durations: a vector of
    switch times for ``state_at``, and per-instant start states for
    ``step_response``.  Every row equals the call for its duration alone,
    bit for bit, with blocks cut across the durations."""

    @pytest.mark.parametrize("name", ["bungalow", "house"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
    def test_vector_of_switch_times(self, bundled_models, name, stacked):
        model = bundled_models[name]
        basis = q.eigendecompose(model)
        r = rng(31)
        u = r.uniform(0.0, 900.0, (4,) * stacked + (len(model.input_names),))
        x0 = r.uniform(-2.0, 2.0, model.n_states)
        t = np.array([3600.0, 4500.0, 7200.0, 43200.0, 10.0])
        states = q.state_at(model, u, x0, t, basis=basis)
        assert states.shape == u.shape[:-1] + (t.size, model.n_states)
        for d, t_d in enumerate(t):
            assert np.array_equal(states[..., d, :], q.state_at(model, u, x0, t_d, basis=basis))

    @pytest.mark.parametrize("name", ["bungalow", "house"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
    def test_per_instant_starts(self, bundled_models, name, stacked, monkeypatch):
        model = bundled_models[name]
        basis = q.eigendecompose(model)
        r = rng(37)
        n_in, n = len(model.input_names), model.n_states
        u = r.uniform(0.0, 900.0, n_in)
        # three start states per member, and ragged instants from each
        x0 = r.uniform(-2.0, 2.0, (3,) * stacked + (3, n))
        times = [np.linspace(0.0, 3.0e4, m) for m in (7, 2, 12)]
        starts = np.repeat(np.arange(3), [t.size for t in times])
        # blocks of 5 rows for a lone record and of 2 for a stack of 3:
        # both cut across the durations
        monkeypatch.setattr(modal, "_BLOCK_ELEMENTS", 5 * n)
        y = q.step_response(model, u, x0, np.concatenate(times), basis=basis, starts=starts)
        assert y.shape == x0.shape[:-2] + (starts.size, model.C.shape[0])
        for d, t in enumerate(times):
            lone = q.step_response(model, u, x0[..., d, :], t, basis=basis)
            assert np.array_equal(y[..., starts == d, :], lone)


class TestModalDecomposition:
    def test_reconstructs_step_response(self, bundled_models):
        r = rng(17)
        for model in bundled_models.values():
            u = input_vector(model, {name: (0.0 if kind == "temperature" else 800.0)
                                     for name, kind in zip(model.input_names,
                                                           model.input_kinds)})
            x0 = r.uniform(-2.0, 2.0, model.n_states)
            decomp = q.modal_decomposition(model, u, x0)
            times = r.uniform(0.0, 8.0e4, 10)
            want = q.step_response(model, u, x0, times)
            got = modal_sum(decomp, times)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e-8 * scale

    def test_amplitudes_sum_to_initial_value(self):
        model = two_state_model(13)
        u = np.array([420.0])
        x0 = np.array([2.5, -0.5])
        decomp = q.modal_decomposition(model, u, x0)
        y0 = (decomp.init_amplitudes + decomp.input_amplitudes).sum(axis=1) \
            + decomp.steady_value
        assert y0 == pytest.approx(model.C @ x0 + model.D @ u, rel=1e-10)

    def test_steady_value(self):
        model = two_state_model(15)
        u = np.array([777.0])
        decomp = q.modal_decomposition(model, u, np.zeros(2))
        x_inf = np.linalg.solve(model.A, -model.B @ u)
        assert decomp.steady_value == pytest.approx(model.C @ x_inf + model.D @ u)

    def test_mode_amplitudes_max_over_outputs(self):
        model = two_state_model(19)
        decomp = q.modal_decomposition(model, np.array([100.0]), np.zeros(2))
        total = decomp.init_amplitudes + decomp.input_amplitudes
        assert decomp.mode_amplitudes() == pytest.approx(
            np.abs(total).max(axis=0))


def synthetic_decomposition(taus, amps):
    """Hand-built decomposition with one output per construction."""
    taus = np.asarray(taus, dtype=float)
    amps = np.asarray(amps, dtype=float)
    return q.ModalDecomposition(
        eigenvalues=-1.0 / taus,
        time_constants=taus,
        init_amplitudes=np.zeros((1, len(taus))),
        input_amplitudes=amps[None, :],
        steady_value=np.array([amps.sum()]),
        output_names=("y",),
    )


class TestClassification:
    def test_reference_grouping(self):
        """Mode families of a three-hour pulse on a light test cell:
        fast/significant, fast/negligible, mid/significant,
        mid/negligible-but-lingering, and slower-than-the-test."""
        t_qub = 3.0 * 3600.0
        decomp = synthetic_decomposition(
            taus=[120.0, 300.0, 2900.0, 9000.0, 26400.0],
            amps=[5.0, 0.001, 2.0, 0.02, 8.0],
        )
        labels = dict(q.classify_modes(decomp, t_qub))
        assert labels == {0: "a", 1: "b", 2: "c", 3: "d", 4: "e"}

    def test_slow_wins_regardless_of_amplitude(self):
        decomp = synthetic_decomposition([50000.0], [1.0e-9])
        assert dict(q.classify_modes(decomp, 10800.0)) == {0: "e"}

    def test_medium_negligible_split_by_settle_time(self):
        # same tiny amplitude relative to the dominant mode; the faster
        # one settles within twice the pulse, the slower one lingers
        t_qub = 10800.0
        decomp = synthetic_decomposition([120.0, 4000.0, 7000.0],
                                         [5.0, 1.0e-4, 1.0e-4])
        labels = dict(q.classify_modes(decomp, t_qub))
        assert labels == {0: "a", 1: "b", 2: "d"}

    def test_fixed_boundaries(self):
        """At t_qub = 3 h a mode settles in four time constants: fast up to
        τ = 540 s, slow beyond τ = t_qub; a coefficient below 1% of the
        largest is negligible, and negligible medium modes split at
        τ = 5400 s."""
        decomp = synthetic_decomposition(
            taus=[539.0, 541.0, 10799.0, 10801.0, 5399.0, 5401.0, 3000.0, 3000.0],
            amps=[100.0, 100.0, 100.0, 100.0, 0.99, 0.99, 1.0, 0.99],
        )
        labels = dict(q.classify_modes(decomp, 10800.0))
        assert labels == {0: "a", 1: "c", 2: "c", 3: "e", 4: "b", 5: "d",
                          6: "c", 7: "b"}

    def test_bad_t_qub(self):
        decomp = synthetic_decomposition([100.0], [1.0])
        with pytest.raises(q.QubdoeError):
            q.classify_modes(decomp, 0.0)

    def test_bungalow_has_all_classes_at_three_hours(self, bungalow_model):
        model = bungalow_model
        u0 = input_vector(model, {"T_o": 0.0, "P_heat": 0.0})
        u_h = input_vector(model, {"T_o": 0.0, "P_heat": 1000.0})
        decomp = q.modal_decomposition(model, u_h, q.initial_state(model, u0))
        labels = dict(q.classify_modes(decomp, 3.0 * 3600.0))
        assert set(labels.values()) == {"a", "b", "c", "d", "e"}
