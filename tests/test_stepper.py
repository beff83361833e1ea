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
from degenwave.analysis import lyapunov_raw
from degenwave.delay_channel import delta_trap_weights
from degenwave.errors import (
    IncompatibleInitialData,
    NonFiniteState,
    ShapeMismatch,
    SolveFailure,
)
from degenwave.stepper import (
    COLUMNS,
    StepWorkspace,
    bc_residual,
    init_state,
    run,
    step,
    step_count,
)

from conftest import initial, run_one

SPEC = make_coefficient("power", {"alpha": 0.5})
DELAY = make_delay("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": 0.4})


def state_energy(state, ops, g, delay):
    """E of a SimState at its own time (`lyapunov_raw`'s first entry)."""
    return lyapunov_raw(state.u, state.v, state.w, delay.tau(state.t), ops,
                        g)[0]


def make_ops(n=64, alpha=0.5, gamma=None):
    spec = make_coefficient("power", {"alpha": alpha})
    mesh = build_mesh(n, gamma or default_gamma(alpha))
    return spec, mesh, assemble_operators(spec, mesh)


class TestInitState:
    def test_zero_preset(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, warns = init_state(ops, DELAY, initial(ops, "zero"))
        assert state_energy(state, ops, g, DELAY) == 0.0
        assert warns == []

    def test_ramp_energy_limit(self):
        # E(0) -> (2/3 + 1)/2 = 5/6 for u0 = x, a = sqrt(x), beta = 1, f0 = 0
        spec, mesh, ops = make_ops(n=512, gamma=4.0 / 3.0)
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(ops, DELAY, initial(ops, "ramp"))
        assert abs(state_energy(state, ops, g, DELAY) - 5.0 / 6.0) < 1e-3

    def test_nonzero_history_adds_delay_term(self):
        # with f0 = const the initial energy gains mu1 a(1) tau(0) trap(w^2)/2,
        # and the trapezoid is exact on constants
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        ref, _ = init_state(ops, DELAY, initial(ops, "ramp", "zero"))
        state, warns = init_state(ops, DELAY,
                                  initial(ops, "ramp", "constant", 0.8))
        extra = (state_energy(state, ops, g, DELAY)
                 - state_energy(ref, ops, g, DELAY))
        expected = 0.5 * g.mu1 * ops.a1 * float(DELAY.tau(0.0)) * 0.8**2
        assert abs(extra - expected) < 1e-14
        assert any("splice" in w for w in warns)

    def test_incompatible_dirichlet_data(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        with pytest.raises(IncompatibleInitialData):
            init_state(ops, DELAY, (1.0 + mesh.nodes,
                                    np.zeros_like(mesh.nodes), lambda s: 0.0))

    def test_nonzero_dirichlet_velocity_is_rejected(self):
        # u(t, 0) = 0 forces u_t(t, 0) = 0: a v0(0) beyond 1e-12 is an
        # error naming v0(0), as u0(0) is, and one within it is zeroed
        _, mesh, ops = make_ops()
        zero, v0 = np.zeros_like(mesh.nodes), np.zeros_like(mesh.nodes)
        v0[0] = 0.5
        with pytest.raises(IncompatibleInitialData, match=r"^v0\(0\) = 0\.5"):
            init_state(ops, DELAY, (zero, v0, lambda s: 0.0))
        v0[0] = 1e-13
        state, _ = init_state(ops, DELAY, (zero, v0, lambda s: 0.0))
        assert state.v[0] == 0.0
        # no constrained node in the strong regime: v0(0) is kept
        _, mesh, ops = make_ops(alpha=1.5)
        v0 = np.zeros_like(mesh.nodes)
        v0[0] = 0.5
        state, _ = init_state(ops, DELAY, (v0 * 0.0, v0, lambda s: 0.0))
        assert state.v[0] == 0.5

    def test_data_off_the_mesh_is_a_shape_mismatch(self):
        # u0 or v0 with other than mesh.nodes' shape is named before the
        # batch tiles it, in init_state and through run
        _, mesh, ops = make_ops()
        short, nodes = np.zeros(10), np.zeros_like(mesh.nodes)
        for data in [(short, nodes), (nodes, short)]:
            with pytest.raises(ShapeMismatch, match=r"\(10,\).*\(65,\)"):
                init_state(ops, DELAY, data + (lambda s: 0.0,))
        with pytest.raises(ShapeMismatch, match=r"\(10,\).*\(65,\)"):
            run(ops, [GainSet(2.0, 0.2, 1.0)], DELAY, t_final=0.01,
                dt=1e-3, initial=(short, short, lambda s: 0.0))

    def test_initial_data_copied(self):
        # the step updates u in place, so a u0 that is the mesh's own
        # nodes must not let stepping move the mesh
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        nodes = mesh.nodes.copy()
        state, _ = init_state(ops, DELAY, (mesh.nodes,
                                           np.sin(np.pi * mesh.nodes),
                                           lambda s: 0.0))
        ws = StepWorkspace.build(ops, g, 1e-3)
        for _ in range(20):
            step(state, g, DELAY, ops, workspace=ws)
        assert not np.array_equal(state.u, nodes)
        assert np.array_equal(mesh.nodes, nodes)

    def test_sine_bump_respects_left_bc(self):
        for alpha in [0.5, 1.5]:
            spec, mesh, ops = make_ops(alpha=alpha)
            g = GainSet(2.0, 0.2, 1.0)
            state, _ = init_state(ops, DELAY, initial(ops, "sine-bump"))
            assert state.u[0] == 0.0


class TestStep:
    def test_zero_state_is_equilibrium(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(ops, DELAY, initial(ops, "zero"))
        ws = StepWorkspace.build(ops, g, 1e-3)
        for _ in range(5):
            state = step(state, g, DELAY, ops, workspace=ws)
        assert np.all(state.u == 0.0)
        assert np.all(state.v == 0.0)
        w_del = state.buffer.sample(state.t - DELAY.tau(state.t))
        res = bc_residual(state.u, state.v, w_del, g, ops)
        assert res == 0.0

    def test_updates_state_in_place(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(ops, DELAY, initial(ops, "velocity-kick"))
        u, v = state.u, state.v
        ws = StepWorkspace.build(ops, g, 1e-3)
        assert step(state, g, DELAY, ops, workspace=ws) is state
        assert state.u is u and state.v is v
        assert state.t == 1e-3 and state.buffer.last == 1

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("mu2", [0.0, 0.2])
    def test_solve_matches_the_midpoint_equations(self, alpha, mu2):
        # one step satisfies every active row of the midpoint equation
        # M (v' - v) = -dt K ubar - dt a(1) e_N (mu1 vbar_N + mu2 w_mid
        #                                        + beta ubar_N),
        # w_mid the history at t_mid - tau(t_mid); the cosine history makes
        # w_mid nonzero, and 20 steps first make u (so dt K u) nonzero
        _, mesh, ops = make_ops(alpha=alpha)
        g = GainSet(2.0, mu2, 1.0)
        dt = 1e-3
        ws = StepWorkspace.build(ops, g, dt)
        state, _ = init_state(ops, DELAY,
                              initial(ops, "velocity-kick", "cosine"),
                              dt=dt)
        for _ in range(20):
            step(state, g, DELAY, ops, workspace=ws)
        u0, v0 = state.u.copy(), state.v.copy()
        t_mid = state.t + 0.5 * dt
        w_mid = state.buffer.sample(t_mid - float(DELAY.tau(np.array(t_mid))))
        assert w_mid != 0.0
        step(state, g, DELAY, ops, workspace=ws)
        ubar, vbar = 0.5 * (u0 + state.u), 0.5 * (v0 + state.v)
        res = ops.mass * (state.v - v0) + dt * ops.stiffness_matvec(ubar)
        res[-1] += dt * ops.a1 * (g.mu1 * vbar[-1] + g.mu2 * w_mid
                                  + g.beta * ubar[-1])
        start = ops.first_active
        assert start == (1 if alpha < 1 else 0)
        scale = np.max(np.abs(ops.mass * v0)) + dt * np.max(
            np.abs(ops.stiffness_matvec(ubar)))
        assert np.max(np.abs(res[start:])) <= 1e-13 * scale
        if start:
            assert state.u[0] == 0.0 and state.v[0] == 0.0

    def test_dt_must_match_grid_and_workspace(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(ops, DELAY, initial(ops, "velocity-kick"),
                              dt=1e-3)
        # the step size is the workspace's, and the ring must sit on it
        other = StepWorkspace.build(ops, g, 2e-3)
        with pytest.raises(ValueError, match="differs from"):
            step(state, g, DELAY, ops, workspace=other)
        assert state.t == 0.0 and state.buffer.last == 0

    def test_nan_gain_raises_solve_failure(self):
        # GainSet rejects a NaN gain itself; the factorization's pivot check
        # is the second guard, reached here by bypassing the constructor
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.0, 1.0)
        object.__setattr__(g, "mu1", float("nan"))
        with pytest.raises(SolveFailure, match="^midpoint system"):
            StepWorkspace.build(ops, g, 1e-3)

    def test_coupling_invariant_exact(self):
        _, mesh, ops = make_ops()
        g = GainSet(2.0, 0.2, 1.0)
        state, _ = init_state(ops, DELAY, initial(ops, "velocity-kick"))
        ws = StepWorkspace.build(ops, g, 1e-3)
        for _ in range(200):
            state = step(state, g, DELAY, ops, workspace=ws)
            assert state.w[0] == state.v[-1]

    def test_monotone_energy_without_delayed_gain(self):
        # mu2 = 0: boundary damping cannot pump; the channel grid must
        # resolve the inflow history for the per-step tolerance to hold
        spec, mesh, ops = make_ops(n=128)
        g = GainSet(2.0, 0.0, 1.0)
        traj = run_one(ops, g, DELAY, t_final=5.0, dt=5e-4,
                       record_every=1,
                       initial=initial(ops, "velocity-kick"),
                       n_delta=256)
        e = traj.E
        tol = 1e-10 * e[0] + 1e-14
        assert np.max(np.diff(e)) <= tol

    def test_conservative_limit_drift(self):
        # mu1 = mu2 = 0 with elastic boundary: midpoint near-conservation
        spec, mesh, ops = make_ops(n=256)
        g = GainSet(0.0, 0.0, 1.0)
        traj = run_one(ops, g, DELAY, t_final=10.0, dt=1e-3,
                       record_every=20,
                       initial=initial(ops, "velocity-kick"),
                       n_delta=64)
        e = traj.E
        assert np.max(np.abs(e - e[0])) < 1e-6 * e[0]

    def test_dt_refinement_order(self):
        # terminal state differences shrink at least first order under dt
        # halving (midpoint is second order; the delay coupling may reduce it)
        spec, mesh, ops = make_ops(n=64)
        g = GainSet(2.0, 0.2, 1.0)
        finals = []
        for dt in [4e-3, 2e-3, 1e-3]:
            traj = run_one(ops, g, DELAY, t_final=2.0, dt=dt,
                           record_every=10**9,
                           initial=initial(ops, "velocity-kick"),
                           n_delta=64)
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
            traj = run_one(ops, g, DELAY, t_final=2.0, dt=dt,
                           record_every=5,
                           initial=initial(ops, "velocity-kick"),
                           n_delta=64)
            coeffs.append(float(np.max(traj.bc_residual)
                                / (dt + 1.0 / mesh.N)))
        assert all(np.isfinite(c) for c in coeffs)
        assert max(coeffs) <= 3.0 * min(coeffs) + 1.0


class TestRun:
    def test_zero_horizon_single_sample(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run_one(ops, g, DELAY, t_final=0.0, dt=1e-3,
                       initial=initial(ops, "velocity-kick"), n_delta=16)
        assert traj.t.size == 1
        assert traj.t[0] == 0.0

    def test_final_time_exact(self):
        # t = n dt from the step counter, not a running sum of dt
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run_one(ops, g, DELAY, t_final=2.0, dt=1e-3,
                       record_every=50,
                       initial=initial(ops, "velocity-kick"),
                       n_delta=16)
        assert traj.t[-1] == 2.0
        assert traj.final_state.t == 2.0

    def test_non_finite_state_raises(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        x = mesh.nodes
        u1 = np.where(x > 0.5, np.nan, 0.0)
        with pytest.raises(NonFiniteState, match="t = 0.0"):
            run_one(ops, g, DELAY, t_final=0.1, dt=1e-3,
                    initial=(0 * x, u1, lambda s: 0.0), n_delta=16)

    def test_sample_times_strictly_increasing(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run_one(ops, g, DELAY, t_final=0.3, dt=1e-3,
                       record_every=3,
                       initial=initial(ops, "velocity-kick"),
                       n_delta=16)
        assert np.all(np.diff(traj.t) > 0.0)

    def test_columns_cover_a_partial_last_stride(self):
        # 300 steps recorded every 7th: 43 strided rows plus the final one
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run_one(ops, g, DELAY, t_final=0.3, dt=1e-3,
                       record_every=7,
                       initial=initial(ops, "velocity-kick"),
                       n_delta=16)
        for name in COLUMNS:
            col = getattr(traj, name)
            assert col.shape == (44,)
            assert np.all(np.isfinite(col))
        assert traj.t[-2] == pytest.approx(0.294)
        assert traj.t[-1] == pytest.approx(0.3)

    def test_splice_mismatch_recorded_run_completes(self):
        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run_one(ops, g, DELAY, t_final=0.5, dt=1e-3,
                       initial=initial(ops, "velocity-kick", "cosine"),
                       n_delta=16)
        assert any("splice" in w for w in traj.warnings)
        assert traj.t[-1] == pytest.approx(0.5)

    def test_determinism(self):
        _, mesh, ops = make_ops(n=32)
        g = GainSet(2.0, 0.2, 1.0)
        kw = dict(t_final=1.0, dt=1e-3, record_every=7,
                  initial=initial(ops, "velocity-kick"), n_delta=32)
        t1 = run_one(ops, g, DELAY, **kw)
        t2 = run_one(ops, g, DELAY, **kw)
        assert np.array_equal(t1.E, t2.E)
        assert np.array_equal(t1.final_state.u, t2.final_state.u)

    @pytest.mark.parametrize("scenario", ["baseline", "strong-degeneracy"])
    def test_setup_runs_twice_alike_and_keeps_its_initial_data(self,
                                                              scenario):
        # a run starts from its own copies of the setup's read-only u0 and
        # v0: baseline pins their Dirichlet node, which would raise on the
        # setup's arrays, and a second run of the setup repeats the first
        from degenwave import config

        cfg = config.apply_overrides(config.load_config(scenario), [
            "mesh.n=32", "channel.n_delta=16", "integrator.t_final=0.5",
            "initial.preset=ramp", "initial.f0=cosine"])
        setup = config.build_setup(cfg)
        assert setup.ops.first_active == (scenario == "baseline")
        u0, v0, f0 = setup.initial
        assert not u0.flags.writeable and not v0.flags.writeable
        kept = u0.copy(), v0.copy()
        (one,) = config.run_from_setup([setup])
        (two,) = config.run_from_setup([setup])
        for name in COLUMNS:
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
        for part in ("u", "v", "w"):
            assert np.array_equal(getattr(one.final_state, part),
                                  getattr(two.final_state, part))
        assert setup.initial[0] is u0 and setup.initial[1] is v0
        assert setup.initial[2] is f0
        assert np.array_equal(u0, kept[0]) and np.array_equal(v0, kept[1])
        assert not np.array_equal(one.final_state.u, u0)

    def test_energy_is_half_sum_of_parts(self):
        # additivity of the recorded energy against the u and v blocks
        # (the mesh's quadratic forms and the boundary term) plus an
        # independently summed channel term, to machine precision
        _, mesh, ops = make_ops(n=32)
        g = GainSet(2.0, 0.2, 1.0)
        traj = run_one(ops, g, DELAY, t_final=0.5, dt=1e-3,
                       record_every=100,
                       initial=initial(ops, "velocity-kick"),
                       n_delta=32)
        st = traj.final_state
        uv = (ops.mass_quadform(st.v) + ops.stiffness_quadform(st.u)
              + g.beta * ops.a1 * st.u[-1] ** 2)
        wq = delta_trap_weights(st.w.size - 1)
        delay_term = g.mu1 * ops.a1 * float(DELAY.tau(st.t)) * float(
            wq @ (st.w**2)
        )
        e = state_energy(st, ops, g, DELAY)
        assert e == pytest.approx(
            0.5 * (uv + delay_term), rel=1e-15, abs=1e-300
        )


class TestRecorder:
    @pytest.mark.parametrize("scenario", ["baseline", "strong-degeneracy"])
    def test_columns_match_a_from_scratch_evaluation(self, scenario):
        # every recorded E, E~ and bc_residual against the formulas of the
        # analysis module docstring, evaluated from fresh mesh widths,
        # midpoints and trapezoid weights, with the delayed trace
        # interpolated from the recorded traces and the prescribed history
        from degenwave import config
        from degenwave.analysis import choose_epsilon
        from degenwave.config import history_presets

        cfg = config.apply_overrides(config.load_config(scenario), [
            "integrator.t_final=1.5", "integrator.record_every=1"])
        setup = config.build_setup(cfg)
        spec, ops, g, delay, dt = (setup.spec, setup.ops, setup.gains,
                                   setup.delay, setup.dt)
        lyap = choose_epsilon(spec, g, delay)
        assert lyap.epsilon > 0.0
        (traj,) = config.run_from_setup([setup], lyap=[lyap], snapshots=True)
        snaps = list(zip(traj.t, *traj.snapshots))

        nodes = setup.mesh.nodes
        h = np.diff(nodes)
        xmid = 0.5 * (nodes[:-1] + nodes[1:])
        mass = np.concatenate([[0.0], h]) / 2 + np.concatenate([h, [0.0]]) / 2
        k = np.asarray(spec.a(xmid)) / h
        m = cfg.channel_n_delta
        delta = np.arange(m + 1) / m
        trap = np.full(m + 1, 1.0 / m)
        trap[[0, -1]] = 0.5 / m
        f0 = history_presets(cfg.initial_f0_amplitude)[cfg.initial_f0]
        past = np.arange(-int(np.ceil(1.0 / dt)), 1)
        grid_t = np.concatenate([past * dt, traj.t[1:]])
        grid_v = np.concatenate([[f0(s) for s in past * dt], traj.trace_v[1:]])

        e0 = traj.E[0]
        assert len(snaps) == traj.t.size
        for row, (t, u, v, w) in enumerate(snaps):
            assert traj.t[row] == t
            tau = float(delay.tau(np.array(t)))
            du = np.diff(u)
            reservoir = g.mu1 * ops.a1 * tau * np.sum(trap * w * w)
            e = 0.5 * (np.sum(mass * v * v) + np.sum(k * du * du)
                       + g.beta * ops.a1 * u[-1] ** 2 + reservoir)
            block = (np.sum(h * 2.0 * xmid * (du / h) * 0.5 * (v[:-1] + v[1:]))
                     + 0.5 * ops.mu_a * np.sum(mass * u * v)
                     + g.mu1 * ops.a1 * tau * np.sum(
                         trap * np.exp(-2.0 * delta * tau) * w * w))
            w_del = np.interp(t - tau, grid_t, grid_v)
            res = abs(g.mu1 * v[-1] + g.mu2 * w_del + du[-1] / h[-1]
                      + g.beta * u[-1])
            assert abs(traj.E[row] - e) <= 1e-13 * e0
            assert abs(traj.E_tilde[row] - (e + lyap.epsilon * block)) <= 1e-13 * e0
            assert abs(traj.bc_residual[row] - res) <= 1e-13 * e0

    def test_snapshots_do_not_change_the_run(self):
        # keeping the snapshots leaves every column and the final state
        # bit for bit as they are; the last snapshot is the final state,
        # also when the last instant falls off the record_every stride
        from degenwave import config

        cfg = config.apply_overrides(config.load_config("baseline"), [
            "integrator.t_final=0.5", "integrator.record_every=7"])
        setup = config.build_setup(cfg)
        (plain,) = config.run_from_setup([setup])
        (kept,) = config.run_from_setup([setup], snapshots=True)
        assert plain.snapshots is None
        for name in COLUMNS:
            assert np.array_equal(getattr(kept, name), getattr(plain, name))
        for part, snap in zip("uvw", kept.snapshots):
            final = getattr(kept.final_state, part)
            assert np.array_equal(final, getattr(plain.final_state, part))
            assert snap.shape == (kept.t.size, final.size)
            assert np.array_equal(snap[-1], final)


def _blocked_setup(record_every, n=32, n_delta=16, t_final=0.6):
    from degenwave import config
    from degenwave.analysis import choose_epsilon

    cfg = config.apply_overrides(config.load_config("baseline"), [
        f"mesh.n={n}", f"channel.n_delta={n_delta}",
        f"integrator.t_final={t_final}", f"integrator.record_every={record_every}"])
    setup = config.build_setup(cfg)
    lyap = choose_epsilon(setup.spec, setup.gains, setup.delay)
    return cfg, setup, lyap


def _step_by_step(cfg, setup, record_every):
    """(t, u, v, w) at every recorded instant of `run`, from step() calls."""
    state, _ = init_state(setup.ops, setup.delay, setup.initial,
                          n_delta=cfg.channel_n_delta, dt=setup.dt)
    ws = StepWorkspace.build(setup.ops, setup.gains, setup.dt)
    n_steps = int(round(cfg.integrator_t_final / setup.dt))
    snaps = [(state.t, state.u.copy(), state.v.copy(), state.w.copy())]
    for n in range(1, n_steps + 1):
        step(state, setup.gains, setup.delay, setup.ops, workspace=ws)
        if n % record_every == 0 or n == n_steps:
            snaps.append((state.t, state.u.copy(), state.v.copy(), state.w.copy()))
    return [np.array(c) for c in zip(*snaps)]


class TestBlockedRun:
    @pytest.mark.parametrize("record_every", [1, 3, 25])
    def test_record_block_size_does_not_change_columns(self, monkeypatch,
                                                       record_every):
        # blocks of one step, with the channel bands built one step at a
        # time (the block budget set to one double, and no minimum block
        # length), against the default blocks: every column bit for bit; at
        # stride 3 and 25 most blocks record no instant at all.
        from degenwave import config, stepper

        cfg, setup, lyap = _blocked_setup(record_every)
        (ref,) = config.run_from_setup([setup], lyap=[lyap])
        assert stepper.BLOCK_DOUBLES // setup.ops.n_nodes > 10
        monkeypatch.setattr(stepper, "BLOCK_DOUBLES", 1)
        monkeypatch.setattr(stepper, "MIN_BLOCK_STEPS", 1)
        (one,) = config.run_from_setup([setup], lyap=[lyap])
        for name in COLUMNS:
            assert np.array_equal(getattr(one, name), getattr(ref, name)), name
        for part in ("u", "v", "w"):
            assert np.array_equal(getattr(one.final_state, part),
                                  getattr(ref.final_state, part))

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_snapshots_match_a_step_by_step_reference(self, tmp_path,
                                                      record_every):
        # the --snapshots arrays of a blocked run against step() calls: u, v
        # and w bit for bit (one wave kernel and one channel kernel), and the
        # recomputed energies equal the recorded ones
        import json

        from degenwave.cli import main

        cfg, setup, _ = _blocked_setup(record_every, n=32, n_delta=64,
                                       t_final=0.5)
        out = tmp_path / "snap"
        argv = ["simulate", "--config", "baseline", "--snapshots",
                "--out", str(out)]
        for key in ("mesh.n", "channel.n_delta", "integrator.t_final",
                    "integrator.record_every"):
            argv += ["--set", f"{key}={getattr(cfg, key.replace('.', '_'))}"]
        assert main(argv) == 0
        report = json.loads(out.with_suffix(".json").read_text())
        assert report["audits"]["snapshot_energy_max_rel_err"] == 0.0
        snaps = np.load(out.with_suffix(".snapshots.npz"))
        t, u, v, w = _step_by_step(cfg, setup, record_every)
        assert np.array_equal(snaps["t"], t)
        assert np.array_equal(snaps["u"], u)
        assert np.array_equal(snaps["v"], v)
        assert np.array_equal(snaps["w"], w)

    @pytest.mark.parametrize("every", [3, 50])
    def test_mid_run_non_finite_state_names_the_instants(self, every):
        # a history that is NaN on a window between the channel nodes: the
        # initial state is finite, and the wave turns non-finite when the
        # delayed sample reaches the window.  The message names the step a
        # step-by-step evaluation finds first non-finite, and the last
        # finite recorded instant before it.  At stride 3 that
        # step is recorded; at stride 50 it is not, and the next recorded
        # instant lies past its block.
        import math

        _, mesh, ops = make_ops(n=16)
        g = GainSet(2.0, 0.2, 1.0)
        dt = 1e-3
        f0 = lambda s: math.nan if -0.245 < s < -0.225 else 0.0
        kw = dict(initial=(*initial(ops, "velocity-kick")[:2], f0),
                  n_delta=16)

        state, _ = init_state(ops, DELAY, dt=dt, **kw)
        ws = StepWorkspace.build(ops, g, dt)
        seen = [0.0]
        assert np.isfinite(state_energy(state, ops, g, DELAY))
        while True:
            step(state, g, DELAY, ops, workspace=ws)
            if not np.isfinite(state_energy(state, ops, g, DELAY)):
                break
            if round(state.t / dt) % every == 0:
                seen.append(state.t)
        assert 0.1 < state.t < 0.4
        recorded = round(state.t / dt) % every == 0
        assert recorded == (every == 3)

        with pytest.raises(NonFiniteState) as info:
            run_one(ops, g, DELAY, t_final=0.5, dt=dt,
                    record_every=every, **kw)
        msg = str(info.value)
        if recorded:
            assert msg.startswith(
                f"state is not finite at t = {state.t!r} (energy nan); ")
            assert msg.endswith(f"the last finite one was at t = {seen[-1]!r}")
        else:
            assert msg == (
                f"state is not finite at t = {state.t!r} (energy not finite: "
                f"boundary velocity nan); the last finite one recorded was "
                f"at t = {seen[-1]!r}")


def _step_loop_columns(mesh, ops, g, delay, t_final, dt, record_every, lyap,
                       **init):
    """The COLUMNS of `run` and its final state from step() calls, with each
    recorded instant evaluated on its own."""
    state, _ = init_state(ops, delay, dt=dt, **init)
    ws = StepWorkspace.build(ops, g, dt)
    eps = 0.0 if lyap is None else lyap.epsilon
    rows = []

    def record():
        tau = delay.tau(state.t)
        e, et = lyapunov_raw(state.u, state.v, state.w, tau, ops, g, eps)
        w_buf = state.buffer.sample(state.t - tau)
        rows.append((state.t, e, et, state.v[-1], state.w[-1],
                     bc_residual(state.u, state.v, w_buf, g, ops),
                     state.w[-1] - w_buf))

    record()
    n_steps = step_count(t_final, dt)[0]
    for n in range(1, n_steps + 1):
        step(state, g, delay, ops, workspace=ws)
        if n % record_every == 0 or n == n_steps:
            record()
    return dict(zip(COLUMNS, np.array(rows).T)), state


def _channel_solves(monkeypatch):
    """The shape of the right-hand side of every channel solve `run` makes
    from here on."""
    from degenwave import stepper

    real, shapes = stepper.upwind_solve, []

    def spy(band, b):
        shapes.append(b.shape)
        return real(band, b)

    monkeypatch.setattr(stepper, "upwind_solve", spy)
    return shapes


class TestLookahead:
    def test_shortest_lookahead_is_the_step_loop(self, monkeypatch):
        # tau0 = 0.6 dt: a block reads its delayed samples before its first
        # step, so each block is one step (and one channel solve), and every
        # column and the final state equal a loop of step() calls bit for bit
        _, mesh, ops = make_ops(n=32)
        g = GainSet(2.0, 0.3, 1.0)
        dt = 1e-3
        delay = make_delay("constant", {"tau": 0.6 * dt})
        from degenwave.analysis import choose_epsilon

        lyap = choose_epsilon(SPEC, g, delay)
        kw = dict(initial=initial(ops, "velocity-kick", "cosine"),
                  n_delta=16)
        cols, state = _step_loop_columns(mesh, ops, g, delay, 0.3, dt, 3,
                                         lyap, **kw)
        solves = _channel_solves(monkeypatch)
        traj = run_one(ops, g, delay, t_final=0.3, dt=dt, record_every=3,
                       lyap=lyap, **kw)
        assert solves == [(17, 1)] * 300
        for name in COLUMNS:
            assert np.array_equal(getattr(traj, name), cols[name]), name
        for part in ("u", "v", "w"):
            assert np.array_equal(getattr(traj.final_state, part),
                                  getattr(state, part))

    def test_baseline_blocks_against_the_step_loop(self, monkeypatch):
        # the shipped baseline's blocks (62 steps, with one bidiagonal
        # channel solve per step): every column and the final state are the
        # step loop's bit for bit
        from degenwave import config
        from degenwave.analysis import choose_epsilon

        cfg = config.apply_overrides(config.load_config("baseline"), [
            "integrator.t_final=0.9"])
        setup = config.build_setup(cfg)
        lyap = choose_epsilon(setup.spec, setup.gains, setup.delay)
        cols, state = _step_loop_columns(
            setup.mesh, setup.ops, setup.gains, setup.delay, 0.9, setup.dt,
            cfg.integrator_record_every, lyap, initial=setup.initial,
            n_delta=cfg.channel_n_delta)
        solves = _channel_solves(monkeypatch)
        (traj,) = config.run_from_setup([setup], lyap=[lyap])
        assert solves == [(cfg.channel_n_delta + 1, 1)] * 900
        for name in COLUMNS:
            assert np.array_equal(getattr(traj, name), cols[name]), name
        for part in ("u", "v", "w"):
            assert np.array_equal(getattr(traj.final_state, part),
                                  getattr(state, part))


class TestBatchRun:
    def test_rows_equal_their_runs_alone(self):
        # a batch of three rows, one without Lyapunov parameters, against
        # three runs alone: every column and the final states bit for bit
        from degenwave.analysis import choose_epsilon

        _, mesh, ops = make_ops(n=32)
        rows = [GainSet(2.0, mu2, 1.0) for mu2 in (0.0, 0.3, -0.2)]
        lyaps = [choose_epsilon(SPEC, rows[0], DELAY), None,
                 choose_epsilon(SPEC, rows[2], DELAY)]
        kw = dict(t_final=0.8, dt=1e-3, record_every=3,
                  initial=initial(ops, "velocity-kick", "cosine"),
                  n_delta=16)
        batch = run(ops, rows, DELAY, lyap=lyaps, **kw)
        for g, lyap, traj in zip(rows, lyaps, batch):
            alone = run_one(ops, g, DELAY, lyap=lyap, **kw)
            for name in COLUMNS:
                assert np.array_equal(getattr(traj, name),
                                      getattr(alone, name)), name
            for part in ("u", "v", "w"):
                assert np.array_equal(getattr(traj.final_state, part),
                                      getattr(alone.final_state, part))
            assert traj.warnings == alone.warnings
        assert np.array_equal(batch[1].E_tilde, batch[1].E)
        assert not np.array_equal(batch[0].E, batch[1].E)

    def test_final_states_step_on_as_a_longer_run(self):
        # each row's final state has its own ring: k step() calls from it
        # give the final state of the run k steps longer, bit for bit.  At
        # t = 1.5 > tau(t) the delayed samples come from the run, where
        # the rows' traces differ
        from degenwave import config

        cfg = config.load_config("baseline")
        setup = config.build_setup(cfg)
        rows = [GainSet(2.0, 0.2, 1.0), GainSet(1.5, -0.3, 0.5)]
        n, k = round(1.5 / setup.dt), 37
        kw = dict(dt=setup.dt, initial=setup.initial,
                  n_delta=cfg.channel_n_delta, record_every=10**9)
        short = run(setup.ops, rows, setup.delay, t_final=n * setup.dt, **kw)
        longer = run(setup.ops, rows, setup.delay,
                     t_final=(n + k) * setup.dt, **kw)
        for g, got, want in zip(rows, short, longer):
            state = got.final_state
            ws = StepWorkspace.build(setup.ops, g, setup.dt)
            for _ in range(k):
                step(state, g, setup.delay, setup.ops, ws)
            assert state.t == want.final_state.t == (n + k) * setup.dt
            for part in ("u", "v", "w"):
                assert np.array_equal(getattr(state, part),
                                      getattr(want.final_state, part))

    @pytest.mark.parametrize("case", ["nan-history", "overflow"])
    def test_non_finite_row_stops_alone(self, case):
        # nan-history: the NaN window of the mid-run test reaches every row
        # (0 * NaN is NaN), mid-way through a block.
        # overflow: only the mu2 = 1e300 row blows up.  Each row stops with
        # the message of its run alone, or equals its run alone
        import math

        _, mesh, ops = make_ops(n=16)
        u0, v0, f0 = initial(ops, "velocity-kick", "cosine")
        if case == "nan-history":
            mu2s = (0.2, 0.5)
            f0 = lambda s: math.nan if -0.245 < s < -0.225 else 0.0
        else:
            mu2s = (0.2, 1e300, 0.0)
        kw = dict(t_final=0.8, dt=1e-3, initial=(u0, v0, f0), record_every=3,
                  n_delta=16)
        rows = [GainSet(2.0, mu2, 1.0) for mu2 in mu2s]
        out = run(ops, rows, DELAY, **kw)
        failed = []
        for g, got in zip(rows, out):
            try:
                alone = run_one(ops, g, DELAY, **kw)
            except NonFiniteState as exc:
                assert isinstance(got, NonFiniteState)
                assert str(got) == str(exc)
                failed.append(g.mu2)
                continue
            for name in COLUMNS:
                assert np.array_equal(getattr(got, name), getattr(alone, name))
        assert failed == ([0.2, 0.5] if case == "nan-history" else [1e300])

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [0, 2, 1, 3, 4]],
                             ids=["apart", "side-by-side"])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_mixed_gain_rows_equal_their_runs_alone(self, alpha, order):
        # rows that differ in mu1, mu2 and beta, in both boundary regimes:
        # the two rows of each (mu1, beta) sit apart in batch order, or side
        # by side, one row has no Lyapunov parameters and the mu2 = 1e300
        # row blows up.  Each row, its snapshots included, equals its run
        # alone bit for bit, or stops with the message of its run alone
        from degenwave.analysis import choose_epsilon

        spec, mesh, ops = make_ops(n=32, alpha=alpha)
        rows = [GainSet(2.0, 0.0, 1.0), GainSet(3.0, 0.3, 0.5),
                GainSet(2.0, 1e300, 1.0), GainSet(3.0, -0.2, 0.5),
                GainSet(1.5, 0.2, 2.0)]
        lyaps = [None if k in (2, 3) else choose_epsilon(spec, g, DELAY)
                 for k, g in enumerate(rows)]
        rows, lyaps = [rows[k] for k in order], [lyaps[k] for k in order]
        kw = dict(t_final=0.8, dt=1e-3, record_every=3,
                  initial=initial(ops, "velocity-kick", "cosine"),
                  n_delta=16)
        batch = run(ops, rows, DELAY, lyap=lyaps, snapshots=True, **kw)
        for g, lyap, got in zip(rows, lyaps, batch):
            try:
                alone = run_one(ops, g, DELAY, lyap=lyap, snapshots=True,
                                **kw)
            except NonFiniteState as exc:
                assert g.mu2 == 1e300
                assert isinstance(got, NonFiniteState)
                assert str(got) == str(exc)
                alone = None
            if alone is not None:
                for name in COLUMNS:
                    assert np.array_equal(getattr(got, name),
                                          getattr(alone, name)), name
                for part in ("u", "v", "w"):
                    assert np.array_equal(getattr(got.final_state, part),
                                          getattr(alone.final_state, part))
                assert got.warnings == alone.warnings
                for mine, theirs in zip(got.snapshots, alone.snapshots):
                    assert np.array_equal(mine, theirs)
        blown, no_lyap = order.index(2), order.index(3)
        assert [isinstance(got, NonFiniteState) for got in batch] == [
            b == blown for b in range(5)]
        assert np.array_equal(batch[no_lyap].E_tilde, batch[no_lyap].E)
        assert not np.array_equal(batch[0].E_tilde, batch[0].E)


    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_energy_only_run_records_the_full_runs_energy(self, alpha):
        # two (mu1, beta) systems and a row without Lyapunov parameters, in
        # both boundary regimes: t, E, the final states and the warnings of
        # an energy-only run are the full run's bit for bit, and its other
        # columns are None
        from degenwave.analysis import choose_epsilon

        spec, mesh, ops = make_ops(n=32, alpha=alpha)
        rows = [GainSet(2.0, 0.0, 1.0), GainSet(3.0, 0.3, 0.5),
                GainSet(2.0, -0.2, 1.0)]
        lyaps = [choose_epsilon(spec, rows[0], DELAY),
                 choose_epsilon(spec, rows[1], DELAY), None]
        kw = dict(t_final=0.8, dt=1e-3, record_every=3, lyap=lyaps,
                  initial=initial(ops, "velocity-kick", "cosine"),
                  n_delta=16)
        full = run(ops, rows, DELAY, **kw)
        energy = run(ops, rows, DELAY, energy_only=True, **kw)
        for got, want in zip(energy, full):
            assert np.array_equal(got.t, want.t)
            assert np.array_equal(got.E, want.E)
            for part in ("u", "v", "w"):
                assert np.array_equal(getattr(got.final_state, part),
                                      getattr(want.final_state, part))
            assert got.warnings == want.warnings
            for name in COLUMNS[2:]:
                assert getattr(got, name) is None, name
                assert getattr(want, name) is not None, name
        assert not np.array_equal(full[0].E_tilde, full[0].E)

    @pytest.mark.parametrize("energy_only", [False, True])
    @pytest.mark.parametrize("n_lyap", [1, 3])
    def test_lyap_needs_one_entry_per_row(self, monkeypatch, n_lyap,
                                          energy_only):
        # a short or a long `lyap` is a ValueError naming both lengths,
        # raised before the first step
        from degenwave.analysis import choose_epsilon

        _, mesh, ops = make_ops(n=16)
        rows = [GainSet(2.0, 0.2, 1.0), GainSet(1.5, -0.3, 0.5)]
        lyap = [choose_epsilon(SPEC, rows[0], DELAY)] * n_lyap
        solves = _channel_solves(monkeypatch)
        with pytest.raises(ValueError, match=f"^lyap has {n_lyap} entries "
                                             "for a batch of 2 rows$"):
            run(ops, rows, DELAY, t_final=0.1, dt=1e-3, lyap=lyap,
                initial=initial(ops, "velocity-kick"), n_delta=16,
                energy_only=energy_only)
        assert solves == []

    def test_blocks_are_sized_by_the_whole_batch(self, monkeypatch):
        # 6 rows at N = 256: the (instants, B, n) stacks of a block that
        # reach lyapunov_raw hold the MIN_BLOCK_STEPS floor of 16 steps, 8
        # instants at record_every = 2 (the first block also the initial
        # instant), where a block sized by N alone would hold 31
        from degenwave import analysis, config, stepper

        cfg = config.apply_overrides(config.load_config("baseline"), [
            "integrator.t_final=0.2", "integrator.record_every=2"])
        setup = config.build_setup(cfg)
        assert setup.ops.n_nodes == 257
        assert stepper.BLOCK_DOUBLES // (257 * 6) * 2 < stepper.MIN_BLOCK_STEPS
        real, instants = analysis.lyapunov_raw, []

        def spy(u, *args):
            instants.append(u.shape[0])
            return real(u, *args)

        monkeypatch.setattr(analysis, "lyapunov_raw", spy)
        rows = [GainSet(2.0, mu2, beta) for mu2 in (0.0, 0.2, 0.4)
                for beta in (0.5, 2.0)]
        out = run(setup.ops, rows, setup.delay, t_final=0.2, dt=setup.dt,
                  initial=setup.initial, record_every=2,
                  n_delta=cfg.channel_n_delta)
        assert all(traj.t.size == 101 for traj in out)
        assert instants[0] == stepper.MIN_BLOCK_STEPS // 2 + 1
        assert max(instants[1:]) == stepper.MIN_BLOCK_STEPS // 2
        assert sum(instants) == 101


class TestStepCount:
    def test_horizon_off_the_step_grid_warns(self, tmp_path, capsys):
        # 0.5 / 0.0007 = 714.3 steps: the run ends at 714 dt and says so
        from degenwave.cli import main

        rc = main(["simulate", "--config", "baseline", "--set", "mesh.n=16",
                   "--set", "integrator.t_final=0.5",
                   "--set", "integrator.dt=0.0007",
                   "--out", str(tmp_path / "off")])
        assert rc == 0
        out = capsys.readouterr().out
        assert ("warning: t_final = 0.5 is not a whole number of steps "
                "dt = 0.0007; the run ends at t = 0.4998") in out

    def test_certificate_probes_the_time_the_run_ends_at(self):
        # the embedded certificate's times are [0, T/2, T] of the run's
        # last recorded time, not of the off-grid t_final
        from degenwave import config
        from degenwave.cli import simulate_config

        cfg = config.apply_overrides(config.load_config("baseline"), [
            "mesh.n=16", "integrator.t_final=0.5", "integrator.dt=0.0007"])
        _, traj, report = simulate_config(cfg)
        assert traj.t[-1] == 714 * 0.0007
        cert = report["operator_certificate"]
        for claim in ("claim1", "claim2", "dAdt"):
            assert list(cert[claim]) == ["t=0", "t=0.2499", "t=0.4998"]

    def test_whole_horizons_do_not_warn(self):
        assert step_count(2.0, 1e-3) == (2000, None)
        assert step_count(5.0, 1e-3 / 8) == (40000, None)
        assert step_count(0.0, 1e-3) == (0, None)
        n, note = step_count(0.5, 7e-4)
        assert n == 714 and "ends at t = 0.4998" in note

    def test_no_shipped_scenario_or_bench_workload_warns(self, tmp_path,
                                                         monkeypatch):
        # every shipped horizon is a whole number of steps, and so is every
        # run of the benchmark's workloads (perfbench/workloads.py, run here
        # with the sweep in this process so that the spy sees its rows: 12
        # rows in 2 lockstep batches, and converge's levels as well)
        import importlib.util
        from pathlib import Path

        from degenwave import cli, config, stepper

        for name in config.SCENARIO_NAMES:
            cfg = config.load_config(name)
            dt = config.build_setup(cfg).dt
            assert step_count(cfg.integrator_t_final, dt)[1] is None, name

        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        monkeypatch.setattr(workloads, "SWEEP_JOBS", 1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        real_run, notes, calls = stepper.run, [], []

        def spy(*args, **kwargs):
            trajs = real_run(*args, **kwargs)
            calls.append(len(trajs))
            notes.extend(traj.warnings for traj in trajs)
            return trajs

        monkeypatch.setattr(stepper, "run", spy)
        ran = [cls.name for cls in workloads.WORKLOADS.values() if cls.steps]
        for name in ran:
            workloads.WORKLOADS[name](tmp_path).run(seed=1)
        assert sorted(ran) == ["converge-refine", "simulate-baseline",
                               "sweep-grid"]
        assert calls == [1] + [1] * 3 + [6] * 2
        assert len(notes) == 1 + 3 + 12
        assert not [w for ws in notes for w in ws if "whole number" in w]
