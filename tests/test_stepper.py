"""Time integration: initial data, per-step structure, energy behavior."""

import numpy as np
import pytest

from degenwave import (
    GainSet,
    assemble_operators,
    build_mesh,
    default_gamma,
    make_coefficient,
    make_delay,
)
from degenwave.analysis import energy
from degenwave.delay_channel import delta_trap_weights
from degenwave.errors import IncompatibleInitialData, NonFiniteState
from degenwave.stepper import (
    COLUMNS,
    StepWorkspace,
    bc_residual,
    init_state,
    run,
    step,
)

SPEC = make_coefficient("power", {"alpha": 0.5})
DELAY = make_delay("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": 0.4})


def make_ops(n=64, alpha=0.5, gamma=None):
    spec = make_coefficient("power", {"alpha": alpha})
    mesh = build_mesh(n, gamma or default_gamma(alpha))
    bc = "dirichlet_left" if alpha < 1 else "natural_left"
    return spec, mesh, assemble_operators(spec, mesh, bc)


class TestInitState:
    def test_zero_preset(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, warns = init_state(mesh, ops, g, DELAY, preset="zero")
        assert energy(state, mesh, ops, g, DELAY) == 0.0
        assert warns == []

    def test_ramp_energy_limit(self):
        # E(0) -> (2/3 + 1)/2 = 5/6 for u0 = x, a = sqrt(x), beta = 1, f0 = 0
        spec, mesh, ops = make_ops(n=512, gamma=4.0 / 3.0)
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(mesh, ops, g, DELAY, preset="ramp")
        assert abs(energy(state, mesh, ops, g, DELAY) - 5.0 / 6.0) < 1e-3

    def test_nonzero_history_adds_delay_term(self):
        # with f0 = const the initial energy gains mu1 a(1) tau(0) trap(w^2)/2,
        # and the trapezoid is exact on constants
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        ref, _ = init_state(mesh, ops, g, DELAY, preset="ramp", f0_preset="zero")
        state, warns = init_state(mesh, ops, g, DELAY, preset="ramp",
                                  f0_preset="constant", f0_amplitude=0.8)
        extra = energy(state, mesh, ops, g, DELAY) - energy(ref, mesh, ops, g, DELAY)
        expected = 0.5 * g.mu1 * ops.a1 * float(DELAY.tau(0.0)) * 0.8**2
        assert abs(extra - expected) < 1e-14
        assert any("splice" in w for w in warns)

    def test_incompatible_dirichlet_data(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        with pytest.raises(IncompatibleInitialData):
            init_state(mesh, ops, g, DELAY, u0=lambda x: 1.0 + x,
                       u1=lambda x: np.zeros_like(x))

    def test_initial_data_copied(self):
        # the step updates u in place, so a u0 returning the mesh's own
        # nodes must not let stepping move the mesh
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        nodes = mesh.nodes.copy()
        state, _ = init_state(mesh, ops, g, DELAY, u0=lambda x: x,
                              u1=lambda x: np.sin(np.pi * x))
        ws = StepWorkspace.build(ops, g, 1e-3)
        for _ in range(20):
            step(state, 1e-3, g, DELAY, ops, workspace=ws)
        assert not np.array_equal(state.u, nodes)
        assert np.array_equal(mesh.nodes, nodes)

    def test_sine_bump_respects_left_bc(self):
        for alpha in [0.5, 1.5]:
            spec, mesh, ops = make_ops(alpha=alpha)
            g = GainSet(2.0, 0.2, 1.0)
            state, _ = init_state(mesh, ops, g, DELAY, preset="sine-bump")
            assert state.u[0] == 0.0


class TestStep:
    def test_zero_state_is_equilibrium(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(mesh, ops, g, DELAY, preset="zero")
        ws = StepWorkspace.build(ops, g, 1e-3)
        for _ in range(5):
            state = step(state, 1e-3, g, DELAY, ops, workspace=ws)
        assert np.all(state.u == 0.0)
        assert np.all(state.v == 0.0)
        res, _ = bc_residual(state, g, DELAY, mesh, ops)
        assert res == 0.0

    def test_updates_state_in_place(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(mesh, ops, g, DELAY, preset="velocity-kick")
        u, v = state.u, state.v
        ws = StepWorkspace.build(ops, g, 1e-3)
        assert step(state, 1e-3, g, DELAY, ops, workspace=ws) is state
        assert state.u is u and state.v is v
        assert state.t == 1e-3 and state.buffer.last == 1

    def test_coupling_invariant_exact(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(mesh, ops, g, DELAY, preset="velocity-kick")
        ws = StepWorkspace.build(ops, g, 1e-3)
        for _ in range(200):
            state = step(state, 1e-3, g, DELAY, ops, workspace=ws)
            assert state.w[0] == state.v[-1]

    def test_monotone_energy_without_delayed_gain(self):
        # mu2 = 0: boundary damping cannot pump; the channel grid must
        # resolve the inflow history for the per-step tolerance to hold
        spec, mesh, ops = make_ops(n=128)
        g = GainSet(2.0, 0.0, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=5.0, dt=5e-4, record_every=1,
                   preset="velocity-kick", n_delta=256)
        e = traj.E
        tol = 1e-10 * e[0] + 1e-14
        assert np.max(np.diff(e)) <= tol

    def test_conservative_limit_drift(self):
        # mu1 = mu2 = 0 with elastic boundary: midpoint near-conservation
        spec, mesh, ops = make_ops(n=256)
        g = GainSet(0.0, 0.0, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=10.0, dt=1e-3, record_every=20,
                   preset="velocity-kick", n_delta=64)
        e = traj.E
        assert np.max(np.abs(e - e[0])) < 1e-6 * e[0]

    def test_dt_refinement_order(self):
        # terminal state differences shrink at least first order under dt
        # halving (midpoint is second order; the delay coupling may reduce it)
        spec, mesh, ops = make_ops(n=64)
        g = GainSet(2.0, 0.2, 1.0)
        finals = []
        for dt in [4e-3, 2e-3, 1e-3]:
            traj = run(mesh, ops, g, DELAY, t_final=2.0, dt=dt,
                       record_every=10**9, preset="velocity-kick", n_delta=64)
            st = traj.final_state
            finals.append(np.concatenate([st.u, st.v]))
        d1 = np.max(np.abs(finals[1] - finals[0]))
        d2 = np.max(np.abs(finals[2] - finals[1]))
        assert np.log2(d1 / d2) >= 1.0

    def test_bc_residual_scaling(self):
        # residual <= C (dt + 1/N) with C stable under refinement
        g = GainSet(2.0, 0.2, 1.0)
        coeffs = []
        for n, dt in [(64, 2e-3), (128, 1e-3), (256, 5e-4)]:
            spec, mesh, ops = make_ops(n=n)
            traj = run(mesh, ops, g, DELAY, t_final=2.0, dt=dt, record_every=5,
                       preset="velocity-kick", n_delta=64)
            coeffs.append(traj.bc_residual_coeff)
        assert all(np.isfinite(c) for c in coeffs)
        assert max(coeffs) <= 3.0 * min(coeffs) + 1.0


class TestRun:
    def test_zero_horizon_single_sample(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=0.0, dt=1e-3,
                   preset="velocity-kick", n_delta=16)
        assert traj.t.size == 1
        assert traj.t[0] == 0.0

    def test_final_time_exact(self):
        # t = n dt from the step counter, not a running sum of dt
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=2.0, dt=1e-3, record_every=50,
                   preset="velocity-kick", n_delta=16)
        assert traj.t[-1] == 2.0
        assert traj.final_state.t == 2.0

    def test_non_finite_state_raises(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        u1 = lambda x: np.where(x > 0.5, np.nan, 0.0)
        with pytest.raises(NonFiniteState, match="t = 0.0"):
            run(mesh, ops, g, DELAY, t_final=0.1, dt=1e-3, u0=lambda x: 0 * x,
                u1=u1, n_delta=16)

    def test_sample_times_strictly_increasing(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=0.3, dt=1e-3, record_every=3,
                   preset="velocity-kick", n_delta=16)
        assert np.all(np.diff(traj.t) > 0.0)

    def test_columns_cover_a_partial_last_stride(self):
        # 300 steps recorded every 7th: 43 strided rows plus the final one
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=0.3, dt=1e-3, record_every=7,
                   preset="velocity-kick", n_delta=16)
        for name in COLUMNS:
            col = getattr(traj, name)
            assert col.shape == (44,)
            assert np.all(np.isfinite(col))
        assert traj.t[-2] == pytest.approx(0.294)
        assert traj.t[-1] == pytest.approx(0.3)

    def test_splice_mismatch_recorded_run_completes(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=0.5, dt=1e-3,
                   preset="velocity-kick", f0_preset="cosine", n_delta=16)
        assert any("splice" in w for w in traj.warnings)
        assert traj.t[-1] == pytest.approx(0.5)

    def test_determinism(self):
        _, mesh, ops = make_ops(n=32)
        g = GainSet(2.0, 0.2, 1.0)
        kw = dict(t_final=1.0, dt=1e-3, record_every=7,
                  preset="velocity-kick", n_delta=32)
        t1 = run(mesh, ops, g, DELAY, **kw)
        t2 = run(mesh, ops, g, DELAY, **kw)
        assert np.array_equal(t1.E, t2.E)
        assert np.array_equal(t1.final_state.u, t2.final_state.u)

    def test_energy_is_half_sum_of_parts(self):
        # additivity of the recorded energy against weighted_norms plus the
        # channel term, to machine precision
        from degenwave import weighted_norms

        _, mesh, ops = make_ops(n=32)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run(mesh, ops, g, DELAY, t_final=0.5, dt=1e-3, record_every=100,
                   preset="velocity-kick", n_delta=32)
        st = traj.final_state
        parts = weighted_norms(st.u, st.v, mesh, ops, beta=g.beta, a1=ops.a1)
        wq = delta_trap_weights(st.w.size - 1)
        delay_term = g.mu1 * ops.a1 * float(DELAY.tau(st.t)) * float(
            wq @ (st.w**2)
        )
        e = energy(st, mesh, ops, g, DELAY)
        assert e == pytest.approx(
            0.5 * (sum(parts.values()) + delay_term), rel=1e-15, abs=1e-300
        )
