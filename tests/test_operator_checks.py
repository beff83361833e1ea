"""Generator probes: dissipativity, resolvent residuals, norm ratios."""

import math

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
from degenwave import operator_checks
from degenwave.analysis import lyapunov_raw
from degenwave.delay_channel import (
    delta_grid,
    delta_trap_weights,
    transport_speed,
    transport_step,
)
from degenwave.errors import DomainViolation, SolveFailure
from degenwave.mesh import SPDTridiagonal
from degenwave.operator_checks import (
    BLOCK_DOUBLES,
    ProbeContext,
    Resolvent,
    _claim1,
    _claim2,
    _claim3,
    _transport_block,
    dadt_bound,
    generator_apply,
    iota,
    project_to_domain,
    quadratic_form,
    run_certificate,
)

from conftest import full_stiffness

DELAY = make_delay("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": 0.4})
# tau'' changes sign at the middle of the rise
PIECEWISE = make_delay("piecewise_smooth", {"tau0": 0.5, "tau1": 0.9,
                                            "rise_start": 1.0, "rise_end": 3.0})


def norm_sq(U, tau, ctx):
    """||U||^2 as the certificate takes it: twice the energy of U with the
    delay weight tau (tau(t) for ||U||_t^2, 1 for ||U||_H^2)."""
    return 2.0 * lyapunov_raw(*U, tau, ctx.ops, ctx.gains)[0]


def make_ctx(n=64, n_delta=32, gains=GainSet(2.0, 0.2, 1.0), delay=DELAY,
             alpha=0.5, scale=1.0):
    spec = make_coefficient("power", {"alpha": alpha, "scale": scale})
    mesh = build_mesh(n, default_gamma(alpha))
    ops = assemble_operators(spec, mesh)
    return ProbeContext(mesh=mesh, ops=ops, gains=gains, delay=delay,
                        n_delta=n_delta)


ROWS_AT_64 = BLOCK_DOUBLES // 65
# a(1) and the gains away from 1, so that a reordered product shows
ORACLE_CTX = {
    "weak": dict(scale=1.3, gains=GainSet(1.7, 0.3, 1.1)),
    "strong": dict(alpha=1.5, scale=0.9, gains=GainSet(2.0, 0.2, 0.7)),
    "violating": dict(scale=1.1, gains=GainSet(2.0, 6.0, 1.3)),
}


class TestGeneratorApply:
    def test_zero_maps_to_zero(self):
        ctx = make_ctx()
        z = (np.zeros(65), np.zeros(65), np.zeros(33))
        for block in generator_apply(project_to_domain(z, ctx), 1.0, ctx):
            assert np.all(block == 0.0)

    def test_transport_block_on_linear_profile(self):
        # constant tau: the block is -(1/tau) d/d delta, exact on linears
        ctx = make_ctx(delay=make_delay("constant", {"tau": 0.8}))
        w = 2.0 - 3.0 * np.linspace(0.0, 1.0, 33)
        v = np.zeros(65)
        v[-1] = w[0]  # satisfy the coupling constraint without projection
        _, _, aw = generator_apply((np.zeros(65), v, w), 5.0, ctx)
        assert np.max(np.abs(aw - 3.0 / 0.8)) < 1e-12

    def test_iota_at_unit_constant_delay(self):
        assert iota(make_delay("constant", {"tau": 1.0}), 2.0) == 0.5

    def test_domain_violation_without_projection(self):
        ctx = make_ctx()
        rng = np.random.default_rng(0)
        U = (rng.standard_normal(65), rng.standard_normal(65),
             rng.standard_normal(33))
        with pytest.raises(DomainViolation):
            generator_apply(U, 0.0, ctx)

    def test_norm_equivalence(self):
        # min{tau0,1} ||U||_H^2 <= ||U||_t^2 <= max{tau1,1} ||U||_H^2
        ctx = make_ctx()
        rng = np.random.default_rng(1)
        c1 = min(DELAY.tau0, 1.0)
        c2 = max(DELAY.tau1, 1.0)
        for _ in range(100):
            U = (rng.standard_normal(65), rng.standard_normal(65),
                 rng.standard_normal(33))
            h = norm_sq(U, 1.0, ctx)
            for t in [0.0, 1.0, 7.5]:
                nt = norm_sq(U, DELAY.tau(t), ctx)
                assert c1 * h - 1e-12 <= nt <= c2 * h + 1e-12


def unit_trace_state(ctx, x, y):
    """The domain state whose only nonzero unknowns are v_N = w_0 = x and
    w_M = y, as a stack of one."""
    n, m = ctx.ops.n_nodes, ctx.n_delta + 1
    u, v, w = np.zeros((1, n)), np.zeros((1, n)), np.zeros((1, m))
    v[0, -1] = w[0, 0] = x
    w[0, -1] = y
    return u, v, w


def form_ratio(U, t, ctx):
    """quadratic_form over ||U||_t^2, row by row, at one time."""
    form, norm = quadratic_form(U, [t], ctx)
    return form[0] / norm[0]


def pencil_top_state(ctx, t):
    """The top eigenvector of the 2x2 pencil of the unshifted form against
    ||.||_t^2 on (v_N, w_M), as the state it spans: numpy's eigh on the
    form's matrix (by polarization of the states (1, 0), (0, 1) and
    (1, 1)) scaled by the diagonal norm, apart from _claim1's closed-form
    eigenvalue."""
    shift = iota(ctx.delay, np.array([[t]]))
    U = [np.concatenate(z) for z in zip(*(unit_trace_state(ctx, x, y)
                                          for x, y in [(1, 0), (0, 1),
                                                       (1, 1)]))]
    form, norm = quadratic_form(U, [t], ctx)
    a, c, both = (form + shift * norm)[0]
    b = 0.5 * (both - a - c)
    weights = np.sqrt(norm[0, :2])
    _, vec = np.linalg.eigh(np.array([[a, b], [b, c]])
                              / np.outer(weights, weights))
    return unit_trace_state(ctx, *(vec[:, -1] / weights))


def scenario_ctx(name, *overrides):
    from degenwave import config

    cfg = config.apply_overrides(config.load_config(name), list(overrides))
    setup = config.build_setup(cfg)
    return ProbeContext(mesh=setup.mesh, ops=setup.ops, gains=setup.gains,
                        delay=setup.delay, n_delta=cfg.channel_n_delta)


class TestDissipativity:
    TIMES = [0.0, 0.7, 2.0, 8.0]

    def test_pass_under_gain_condition(self):
        # inside the gain condition the supremum is 0 - iota(t), from a
        # state of u alone, bit for bit
        ctx = make_ctx()
        reps = _claim1([0.0, 2.0, 8.0], ctx)
        assert reps == [{"max_form_ratio": -float(iota(DELAY, t)),
                         "pass": True} for t in (0.0, 2.0, 8.0)]

    def test_violating_gains_found(self):
        # threefold violation of the gain condition: the supremum is
        # positive, and the claim fails
        ctx = make_ctx(gains=GainSet(2.0, 6.0, 1.0))
        [rep] = _claim1([0.0], ctx)
        assert set(rep) == {"max_form_ratio", "pass"}
        assert rep["max_form_ratio"] > 1.0
        assert not rep["pass"]

    def test_pass_monotone_in_mu2(self):
        # the value depends on |mu2| alone, grows with it, and the pass set
        # is one interval around 0
        mags = [0.0, 0.2, 1.0, 1.5, 1.8, 1.85, 1.9, 3.0, 6.0]
        for alpha in (0.5, 1.5):
            values, passes = [], []
            for mu2 in mags:
                pos, neg = (_claim1([0.0], make_ctx(
                    alpha=alpha, gains=GainSet(2.0, x, 1.0)))[0]
                    for x in (mu2, -mu2))
                assert pos["pass"] == neg["pass"]
                # equal up to the rounding of the pencil's entries
                assert pos["max_form_ratio"] == pytest.approx(
                    neg["max_form_ratio"], rel=1e-12)
                values.append(pos["max_form_ratio"])
                passes.append(pos["pass"])
            assert values == sorted(values)
            assert passes == sorted(passes, reverse=True)
            assert passes[0] and not passes[-1]

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("scenario", ["baseline", "strong-degeneracy"])
    def test_threshold_is_just_above_the_gain_gate(self, scenario, n):
        # at t = 0 the claim passes at the paper's gate mu2 = mu1 sqrt(1 -
        # d), 1.7889, and fails at 1.9: the discrete threshold lies between
        # (1.8086 to 1.8357 over these meshes), and tends to the gate
        ctx = scenario_ctx(scenario, f"mesh.n={n}")
        gate = ctx.gains.mu1 * math.sqrt(1.0 - ctx.delay.d)
        assert gate == pytest.approx(1.7889, abs=1e-4)
        for mu2, ok in [(gate, True), (-gate, True), (1.9, False),
                        (-1.9, False)]:
            at = scenario_ctx(scenario, f"mesh.n={n}", f"gains.mu2={mu2!r}")
            assert _claim1([0.0], at)[0]["pass"] is ok, mu2

    @pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["weak", "strong"])
    def test_value_is_attained(self, alpha):
        # mu2 = 6: the pencil's top eigenvector; the shipped gains: a state
        # of u alone.  quadratic_form's ratio on that state is the value.
        rng = np.random.default_rng(2)
        for mu2, attained in [(6.0, None), (0.2, "u")]:
            ctx = make_ctx(alpha=alpha, gains=GainSet(2.0, mu2, 1.0))
            reps = _claim1(self.TIMES, ctx)
            for t, rep in zip(self.TIMES, reps):
                if attained == "u":
                    U = (rng.standard_normal((1, 65)), np.zeros((1, 65)),
                         np.zeros((1, 33)))
                    U = project_to_domain(U, ctx)
                else:
                    U = pencil_top_state(ctx, t)
                generator_apply(U, t, ctx)  # asserts that U is in the domain
                [ratio] = form_ratio(U, t, ctx)
                assert ratio == pytest.approx(rep["max_form_ratio"],
                                              rel=1e-12)
            assert all(r["pass"] for r in reps) == (mu2 < 1.0)

    def test_violating_value_on_the_shipped_scenario(self):
        # margin-violation at t = 0: 500 states of the sampled search
        # (oracle_dissipativity, seed 12345) reach 231.54; the supremum is
        # 232.19...
        ctx = scenario_ctx("margin-violation")
        [rep] = _claim1([0.0], ctx)
        assert rep["max_form_ratio"] == pytest.approx(232.19376850890825,
                                                      rel=1e-13)
        [ratio] = form_ratio(pencil_top_state(ctx, 0.0), 0.0, ctx)
        assert ratio == pytest.approx(rep["max_form_ratio"], rel=1e-12)

    def test_no_instantaneous_gain(self):
        # mu1 = 0 leaves the channel without norm weight: with mu2 = 0 the
        # form vanishes on it and the value is -iota(t); with mu2 != 0 the
        # form grows without bound on w_M against a fixed trace
        for mu2, value in [(0.0, None), (0.3, math.inf), (-0.3, math.inf)]:
            ctx = make_ctx(gains=GainSet(0.0, mu2, 1.0))
            reps = _claim1(self.TIMES, ctx)
            for t, rep in zip(self.TIMES, reps):
                expected = -float(iota(DELAY, t)) if value is None else value
                assert rep == {"max_form_ratio": expected,
                               "pass": value is None}
        ctx = make_ctx(gains=GainSet(0.0, 0.3, 1.0))
        ratios = [form_ratio(unit_trace_state(ctx, 1.0, -y), 0.0, ctx)[0]
                  for y in (1.0, 1e3, 1e6)]
        assert ratios == sorted(ratios) and ratios[-1] > 1e5


class TestResolvent:
    def test_zero_rhs(self):
        ctx = make_ctx()
        u, _, w, residual, _ = Resolvent(1.0, ctx).solve(
            np.zeros((1, 65)), np.zeros((1, 65)), np.zeros((1, 33)), 1.0)
        assert np.max(np.abs(u)) == 0.0
        assert np.max(np.abs(w)) == 0.0
        assert residual[0] == 0.0

    def test_channel_weight_converges_to_exponential(self):
        # tau' = 0: A_d, the outflow of the unit channel profile, tends to
        # e^{-tau}
        delay = make_delay("constant", {"tau": 0.8})
        errs = []
        for m in [32, 64, 128, 256]:
            res = Resolvent(1.0, make_ctx(n_delta=m, delay=delay))
            assert res.a_d == res.w1[-1] and res.w1[0] == 1.0
            errs.append(abs(res.a_d - math.exp(-0.8)))
        assert errs[-1] < 1e-3
        assert all(a / b > 1.8 for a, b in zip(errs, errs[1:]))

    def test_pure_velocity_rhs_gives_exponential_channel(self):
        # f = h = 0: w is the discrete exponential decay of v(1) along delta
        ctx = make_ctx(delay=make_delay("constant", {"tau": 0.8}))
        rng = np.random.default_rng(3)
        g = rng.standard_normal((1, 65))
        res = Resolvent(1.0, ctx)
        _, v, w, _, _ = res.solve(np.zeros((1, 65)), g, np.zeros((1, 33)), 1.0)
        m = ctx.n_delta
        assert (res.tau, res.taup) == (0.8, 0.0)
        rho = (1.0 / 0.8) / (1.0 / m + 1.0 / 0.8)
        assert res.a_d == pytest.approx(rho ** m, rel=1e-14)
        v1 = v[0, -1]
        expected = v1 * rho ** np.arange(m + 1)
        assert np.max(np.abs(w[0] - expected)) < 1e-12 * max(1.0, abs(v1))

    def test_inverts_the_generator(self):
        # G = U - A(t) U from generator_apply for random domain states U:
        # the resolvent returns U, in both boundary regimes, at a time
        # where tau' != 0
        t = 0.7
        assert DELAY.tau_prime(t) > 0.0
        rng = np.random.default_rng(19)
        for alpha in (0.5, 1.5):
            ctx = make_ctx(alpha=alpha)
            U = project_to_domain((rng.standard_normal((5, 65)),
                                   rng.standard_normal((5, 65)),
                                   rng.standard_normal((5, 33))), ctx)
            G = [x - ax for x, ax in zip(U, generator_apply(U, t, ctx))]
            got = Resolvent(t, ctx).solve(*G, 1.0)
            for x, y in zip(got[:3], U):
                assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    def test_random_rhs_residuals(self):
        for taup_case in ["constant-delay", "varying"]:
            delay = (make_delay("constant", {"tau": 0.8})
                     if taup_case == "constant-delay" else DELAY)
            ctx = make_ctx(delay=delay)
            [rep] = _claim2([0.5], ctx, 50, 21)
            assert rep["max_residual"] <= 1e-8
            assert rep["max_boundary_identity"] <= 1e-8

    def test_stack_equals_single_solves(self):
        # a (3, n) stack against three (1, n) solves: every output bit for
        # bit, in both boundary regimes
        rng = np.random.default_rng(11)
        for alpha in (0.5, 1.5):
            ctx = make_ctx(alpha=alpha)
            res = Resolvent(0.7, ctx)
            f, g = rng.standard_normal((2, 3, 65))
            h = rng.standard_normal((3, 33))
            scale = np.maximum(1.0, np.sqrt(norm_sq((f, g, h), 1.0, ctx)))
            stacked = res.solve(f, g, h, scale)
            for i in range(3):
                row = slice(i, i + 1)
                one = res.solve(f[row], g[row], h[row], scale[row])
                for a, b in zip(stacked, one):
                    assert np.array_equal(a[row], b)

    def test_indefinite_system_raises(self):
        # far outside the gain condition the boundary weight
        # mu1 + mu2 A_d + beta is so negative that the u system is indefinite
        ctx = make_ctx(gains=GainSet(2.0, -50.0, 1.0))
        with pytest.raises(SolveFailure, match="^resolvent system"):
            Resolvent(1.0, ctx)


def pure_channel(ctx, w):
    """The pure-channel domain state u = v = 0 with channel w, w_0 = 0."""
    zero = np.zeros(ctx.mesh.N + 1)
    return zero, zero.copy(), np.concatenate([[0.0], w])


class TestNormRatio:
    PAIRS = [(0.0, 0.7), (0.7, 6.0), (0.0, 6.0), (6.0, 0.0), (2.0, 2.0)]

    @pytest.mark.parametrize("case", sorted(ORACLE_CTX))
    def test_rows_are_the_closed_form(self, case):
        # both regimes and a gain-violating case: the row is
        # sqrt(max(1, tau(t)/tau(s))), which reverse and equal pairs cap at 1
        ctx = make_ctx(**ORACLE_CTX[case])
        d, tau0 = DELAY.d, DELAY.tau0
        assert _claim3(self.PAIRS, ctx) == [{
            "max_ratio": math.sqrt(max(1.0, float(DELAY.tau(t))
                                       / float(DELAY.tau(s)))),
            "bound_stated": math.exp(d / (2.0 * tau0) * abs(t - s)),
            "bound_proof": math.exp(d / tau0 * abs(t - s)),
            "excess": 0.0, "pass": True} for s, t in self.PAIRS]

    def test_constant_delay_ratio_one(self):
        ctx = make_ctx(delay=make_delay("constant", {"tau": 0.7}))
        rows = _claim3([(1.0, 3.0), (0.0, 20.0)], ctx)
        assert [r["max_ratio"] for r in rows] == [1.0, 1.0]
        assert [r["excess"] for r in rows] == [0.0, 0.0]

    def test_no_channel_weight_ratio_one(self):
        # mu1 = 0 gives the channel no weight in ||.||_t
        ctx = make_ctx(gains=GainSet(0.0, 0.0, 1.0))
        assert [r["max_ratio"] for r in _claim3(self.PAIRS, ctx)] == [1.0] * 5

    def test_baseline_value_and_its_state(self):
        from degenwave import config

        cfg = config.load_config("baseline")
        setup = config.build_setup(cfg)
        ctx = ProbeContext(mesh=setup.mesh, ops=setup.ops, gains=setup.gains,
                           delay=setup.delay, n_delta=cfg.channel_n_delta)
        [row] = _claim3([(0.0, 20.0)], ctx)
        assert row["max_ratio"] == 1.4140949534497667
        U = pure_channel(ctx, np.ones(ctx.n_delta))
        assert math.sqrt(norm_sq(U, ctx.delay.tau(20.0), ctx)
                         / norm_sq(U, ctx.delay.tau(0.0), ctx)) == \
            row["max_ratio"]

    @pytest.mark.parametrize("case", sorted(ORACLE_CTX))
    def test_random_states_stay_below_it(self, case):
        # domain states whose wave part is scaled by 1e-8 to 1e4 against
        # the channel: the ratio nears the supremum at either end
        ctx = make_ctx(**ORACLE_CTX[case])
        rng = np.random.default_rng(5)
        u, v, w = project_to_domain(
            (rng.standard_normal((400, 65)), rng.standard_normal((400, 65)),
             rng.standard_normal((400, 33))), ctx)
        scale = 10.0 ** rng.uniform(-8.0, 4.0, (400, 1))
        u, v = u * scale, v * scale
        v[:, -1] = w[:, 0] = 0.0
        for (s, t), r in zip(self.PAIRS, _claim3(self.PAIRS, ctx)):
            ratio = np.sqrt(norm_sq((u, v, w), ctx.delay.tau(t), ctx)
                            / norm_sq((u, v, w), ctx.delay.tau(s), ctx))
            assert np.max(ratio) <= r["max_ratio"] * (1.0 + 1e-12)
            assert np.max(ratio) == pytest.approx(r["max_ratio"], rel=1e-6)

    def test_rows_draw_nothing(self):
        # claim 3 does not read the seed or any trial count
        ctx = make_ctx(n=16, n_delta=8)
        rows = [run_certificate(ctx, [0.0, 1.0, 6.0], seed=seed,
                                diss_trials=diss, res_trials=res,
                                ratio_trials=ratio)["claim3"]
                for seed, diss, res, ratio in [(0, 9, 3, 9), (7, 2, 5, 0),
                                               (123, 40, 1, -5)]]
        assert rows[0] == rows[1] == rows[2]
        assert rows[0] == dict(zip(
            ["s=0,t=1", "s=1,t=6", "s=0,t=6"],
            _claim3([(0.0, 1.0), (1.0, 6.0), (0.0, 6.0)], ctx)))

    def test_bound_past_the_float_range_is_inf(self):
        # baseline's d / (2 tau0) = 0.2: e^{0.2 |t - s|} overflows a float
        # at |t - s| = 5000, and so does the proof's e^{0.4 |t - s|}; an
        # infinite bound holds trivially
        ctx = make_ctx()
        assert DELAY.d / (2.0 * DELAY.tau0) == 0.2
        rows = _claim3([(0.0, 5000.0), (5000.0, 0.0), (0.0, 1e200)], ctx)
        for (s, t), row in zip([(0.0, 5000.0), (5000.0, 0.0), (0.0, 1e200)],
                               rows):
            assert row == {
                "max_ratio": math.sqrt(max(1.0, float(DELAY.tau(t))
                                           / float(DELAY.tau(s)))),
                "bound_stated": math.inf, "bound_proof": math.inf,
                "excess": 0.0, "pass": True}
        # the last pair whose stated bound is finite
        [row] = _claim3([(0.0, 3500.0)], ctx)
        assert row["bound_stated"] == math.exp(700.0)
        assert row["bound_proof"] == math.inf

    def test_channel_free_state_ratio_one(self):
        ctx = make_ctx()
        rng = np.random.default_rng(8)
        U = (rng.standard_normal(65), rng.standard_normal(65), np.zeros(33))
        assert norm_sq(U, DELAY.tau(4.0), ctx) == norm_sq(U, DELAY.tau(1.0),
                                                          ctx)

    def test_stated_bound_with_margin(self):
        ctx = make_ctx()
        [rep] = _claim3([(0.5, 1.5)], ctx)
        assert rep["excess"] == 0.0
        assert rep["max_ratio"] > 1.0
        assert rep["bound_proof"] >= rep["bound_stated"] >= rep["max_ratio"]

    def test_pure_channel_state_saturates_tau_ratio(self):
        # u = v = 0 and w_0 = 0: a domain state whose squared norm is tau(t)
        # times the channel block, so its ratio is sqrt(tau(t)/tau(s)); it
        # attains every row above 1, and a channel-free state (ratio 1,
        # test_channel_free_state_ratio_one) the others
        rng = np.random.default_rng(3)
        for case in sorted(ORACLE_CTX):
            ctx = make_ctx(**ORACLE_CTX[case])
            U = pure_channel(ctx, rng.standard_normal(ctx.n_delta))
            generator_apply(U, 0.0, ctx)  # asserts that U is in the domain
            for (s, t), r in zip(self.PAIRS, _claim3(self.PAIRS, ctx)):
                ratio = math.sqrt(norm_sq(U, ctx.delay.tau(t), ctx)
                                  / norm_sq(U, ctx.delay.tau(s), ctx))
                assert max(1.0, ratio) == pytest.approx(r["max_ratio"],
                                                        rel=1e-15)


def test_norm_of_a_recorded_state_is_twice_its_energy():
    # the certificate's ||U||_t^2 of a state that simulate recorded is
    # twice the recorded E, bit for bit, at instants where the channel is
    # empty and where it carries the delayed trace
    from degenwave import config

    cfg = config.apply_overrides(config.load_config("baseline"), [
        "mesh.n=64", "channel.n_delta=16", "integrator.t_final=0.5"])
    setup = config.build_setup(cfg)
    (traj,) = config.run_from_setup([setup], snapshots=True)
    snaps = list(zip(traj.t, *traj.snapshots))
    ctx = ProbeContext(mesh=setup.mesh, ops=setup.ops, gains=setup.gains,
                       delay=setup.delay, n_delta=cfg.channel_n_delta)
    assert len(snaps) == traj.t.size
    for i in (0, 1, len(snaps) // 2, len(snaps) - 1):
        t, u, v, w = snaps[i]
        assert t == traj.t[i]
        [[norm]] = quadratic_form((u[None], v[None], w[None]), [t], ctx)[1]
        assert norm == 2.0 * traj.E[i] > 0.0
    assert np.any(w != 0.0)


class TestGeneratorDrift:
    def test_finite_and_stable(self):
        # the saturating delay's bound is tau'/tau at delta = 0, which
        # decays; a constant delay leaves A(t) constant, and the bound is 0
        ctx = make_ctx()
        bounds = [dadt_bound(t, ctx) for t in (0.0, 2.0, 10.0, 20.0)]
        assert bounds[0] == 0.2 / 0.5
        assert bounds == sorted(bounds, reverse=True) and bounds[-1] > 0.0
        const = make_ctx(delay=make_delay("constant", {"tau": 0.7}))
        assert dadt_bound(3.0, const) == 0.0

    @pytest.mark.parametrize("delay, times", [
        (DELAY, [0.0, 2.0, 10.0]),
        (PIECEWISE, [0.5, 1.6, 2.0, 2.7, 4.0]),
    ], ids=["saturating", "piecewise"])
    def test_bound_is_the_limit_of_the_transport_quotient(self, delay, times):
        # on the linear profile w = delta, node i of the transport block is
        # -c(delta_i, t) times a difference that does not depend on t, so
        # the block's central difference quotient over the block tends to
        # d/dt log c(delta_i, t) node by node (error O(h^2)), and the bound
        # is its largest modulus; the times keep clear of the rise's kinks
        ctx = make_ctx(delay=delay)
        delta = delta_grid(ctx.n_delta)
        h = 1e-5
        for t in times:
            rate = (_transport_block(delta, t + h, ctx)
                    - _transport_block(delta, t - h, ctx)) / (
                2.0 * h * _transport_block(delta, t, ctx))
            tau, taup, taupp = (float(f(t)) for f in (
                delay.tau, delay.tau_prime, delay.tau_second))
            # d/dt log c with c = (1 - delta tau')/tau
            exact = -taup / tau - delta * taupp / (1.0 - delta * taup)
            assert np.allclose(rate, exact, rtol=1e-7, atol=1e-9), t
            assert dadt_bound(t, ctx) == np.max(np.abs(exact))
            assert dadt_bound(t, ctx) == pytest.approx(
                np.max(np.abs(rate)), rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("t", [0.0, 10.0, 20.0])
    def test_a_channel_state_attains_the_bound(self, t):
        # baseline at n_delta = 64, where d/dt log c is largest at delta = 0:
        # u = v = 0 and w alternating on the two nodes beside it, so that
        # A U is nearly all channel block at the largest rates, reaches
        # 99 % of the bound through the finite-difference quotient
        from degenwave import config

        cfg = config.load_config("baseline")
        setup = config.build_setup(cfg)
        ctx = ProbeContext(mesh=setup.mesh, ops=setup.ops, gains=setup.gains,
                           delay=setup.delay, n_delta=64)
        zero = np.zeros(ctx.mesh.N + 1)
        w = np.zeros(ctx.n_delta + 1)
        w[1:3] = (1.0, -1.0)
        ratio = oracle_drift(zero, zero, w, t, ctx, 1e-7)
        assert 0.98 * dadt_bound(t, ctx) <= ratio <= dadt_bound(t, ctx)


# -- the one-trial-at-a-time algorithm, as the oracle of the stacked probes --
# Every function below handles one state with 1-d arrays and Python floats;
# claim 2 must reproduce its maxima bit for bit, and no sampled state may
# exceed claim 1's supremum.


def oracle_norm_sq(u, v, w, tau, ctx):
    ops, g = ctx.ops, ctx.gains
    du = u[1:] - u[:-1]
    return (float((ops.mass * v) @ v) + float((ops.k_cell * du) @ du)
            + g.beta * ops.a1 * float(u[-1]) ** 2
            + g.mu1 * ops.a1 * tau * float(
                delta_trap_weights(w.size - 1) @ (w * w)))


def oracle_stiffness_matvec(u, ctx):
    flux = ctx.ops.k_cell * (u[1:] - u[:-1])
    out = np.zeros_like(u)
    out[:-1] -= flux
    out[1:] += flux
    return out


def oracle_project(u, v, w, ctx):
    u, v, w = u.copy(), v.copy(), w.copy()
    if ctx.ops.first_active:
        u[0] = 0.0
        v[0] = 0.0
    mean = 0.5 * (v[-1] + w[0])
    v[-1] = mean
    w[0] = mean
    return u, v, w


def oracle_draw(seed, ctx, trials):
    """The trials one at a time: trial k is the k-th (u, v, w) chunk of
    the one stream default_rng([seed]) that every probe draws from."""
    rng = np.random.default_rng([seed])
    n = ctx.mesh.N + 1
    return [(rng.standard_normal(n), rng.standard_normal(n),
             rng.standard_normal(ctx.n_delta + 1)) for _ in range(trials)]


def oracle_dissipativity(t, ctx, trials, seed, tol=1e-8):
    ops, g, delay = ctx.ops, ctx.gains, ctx.delay
    tau, taup = float(delay.tau(t)), float(delay.tau_prime(t))
    worst, npos = -math.inf, 0
    for k, (u, v, w) in enumerate(oracle_draw(seed, ctx, trials)):
        if k % 4 == 3:
            u *= 0.0
            v[:-1] *= 1e-3
            w[1:-1] *= 1e-3
        u, v, w = oracle_project(u, v, w, ctx)
        den = oracle_norm_sq(u, v, w, tau, ctx)
        if den == 0.0:
            continue
        kcross = float(np.dot(ops.k_cell * np.diff(u), np.diff(v)))
        val = kcross + g.beta * ops.a1 * v[-1] * u[-1]
        val -= kcross + ops.a1 * v[-1] * (g.mu1 * v[-1] + g.mu2 * w[-1]
                                          + g.beta * u[-1])
        delta = delta_grid(w.size - 1)
        half = 0.5 * (delta[1:] + delta[:-1])
        val += g.mu1 * ops.a1 * float(np.dot(
            -tau * transport_speed(half, tau, taup),
            0.5 * (w[1:] + w[:-1]) * (w[1:] - w[:-1])))
        ratio = (val - iota(delay, t) * den) / den
        worst = max(worst, ratio)
        npos += ratio > tol
    return worst, npos


def oracle_resolvent(t, ctx, trials, seed):
    ops, g = ctx.ops, ctx.gains
    tau, taup = float(ctx.delay.tau(t)), float(ctx.delay.tau_prime(t))
    # the unit channel profile: inflow 1, load 0; its outflow is A_d
    w1 = transport_step(np.zeros(ctx.n_delta + 1), tau, taup, 1.0, 1.0)
    a_d = float(w1[-1])
    start = ops.first_active
    # the diagonals from the dense stiffness, apart from DiscreteOperators
    K = full_stiffness(ops)[start:, start:]
    main = np.diag(K) + ops.mass[start:]
    off = np.diag(K, 1).copy()
    main[-1] += ops.a1 * (g.mu1 + g.mu2 * a_d + g.beta)
    worst_res = worst_ident = 0.0
    for f, gg, h in oracle_draw(seed, ctx, trials):
        if ctx.ops.first_active:
            f[0] = 0.0
        # the channel's response to the load h, inflow 0
        wh = transport_step(h, tau, taup, 1.0, 0.0)
        rhs = (ops.mass * (f + gg))[start:]
        rhs[-1] += ops.a1 * ((g.mu1 + g.mu2 * a_d) * f[-1] - g.mu2 * wh[-1])
        u = np.zeros(f.size)
        u[start:] = rhs
        SPDTridiagonal(main, off, "oracle").solve_in_place(u[start:])
        v = u - f
        if start:
            v[0] = 0.0
        w = wh + v[-1] * w1
        au, av, aw = oracle_apply(u, v, w, t, ctx)
        res_v = v - av - gg
        scale = max(1.0, math.sqrt(oracle_norm_sq(f, gg, h, 1.0, ctx)))
        residual = max(float(np.max(np.abs(u - au - f))),
                       float(np.max(np.abs(res_v[start:]))),
                       float(np.max(np.abs((w - aw - h)[1:])))) / scale
        ident = ops.mass[-1] * abs(res_v[-1]) / ops.a1 / scale
        worst_res = max(worst_res, residual)
        worst_ident = max(worst_ident, ident)
    return worst_res, worst_ident


def oracle_apply(u, v, w, t, ctx):
    ops, g = ctx.ops, ctx.gains
    av = -oracle_stiffness_matvec(u, ctx)
    av[-1] -= ops.a1 * (g.mu1 * v[-1] + g.mu2 * w[-1] + g.beta * u[-1])
    av /= ops.mass
    if ctx.ops.first_active:
        av[0] = 0.0
    m = w.size - 1
    c = transport_speed(delta_grid(m), float(ctx.delay.tau(t)),
                        float(ctx.delay.tau_prime(t)))
    dw = np.diff(w) * m
    aw = np.empty_like(w)
    aw[1:] = -c[1:] * dw
    aw[0] = -c[0] * dw[0]
    return v.copy(), av, aw


def oracle_drift(u, v, w, t, ctx, h):
    """||(A(t + h) - A(t)) U||_H / (h ||U||_graph) of one domain state."""
    zero = np.zeros(ctx.mesh.N + 1)
    a0 = oracle_apply(u, v, w, t, ctx)
    a1 = oracle_apply(u, v, w, t + h, ctx)
    graph = math.sqrt(oracle_norm_sq(u, v, w, 1.0, ctx)
                      + oracle_norm_sq(*a0, 1.0, ctx))
    return math.sqrt(oracle_norm_sq(zero, zero, (a1[2] - a0[2]) / h, 1.0,
                                    ctx)) / graph


class TestStackedAgainstPerTrial:
    # N = 64: a block holds ROWS_AT_64 trials; one count spills into a
    # partial block, the other fits in a single short one
    TIMES = [0.0, 0.7, 6.0]
    PAIRS = [(0.0, 0.7), (0.7, 6.0), (0.0, 6.0)]

    @pytest.mark.parametrize("trials", [2 * ROWS_AT_64 + 11, 37])
    @pytest.mark.parametrize("case", sorted(ORACLE_CTX))
    def test_probes_equal_the_oracle(self, case, trials):
        # claim 1: a sampled search that puts every fourth state's mass on
        # the boundary traces never exceeds the supremum, and finds
        # positive states only where it is positive; claim 2: the oracle's
        # maxima, bit for bit
        assert trials % ROWS_AT_64 != 0 and 37 < ROWS_AT_64
        ctx = make_ctx(**ORACLE_CTX[case])
        seed = 4
        reps = _claim1(self.TIMES, ctx)
        npos = 0
        for t, rep in zip(self.TIMES, reps):
            worst, n_positive = oracle_dissipativity(t, ctx, trials, seed)
            value = rep["max_form_ratio"]
            assert worst <= value + 1e-12 * abs(value)
            assert rep["pass"] == (value <= 1e-8)
            npos += n_positive
        assert (npos > 0) == (case == "violating") == (not reps[0]["pass"])
        res_trials = trials // 3
        reps = _claim2(self.TIMES, ctx, res_trials, seed)
        for t, rep in zip(self.TIMES, reps):
            assert (rep["max_residual"], rep["max_boundary_identity"]) == \
                oracle_resolvent(t, ctx, res_trials, seed)

    @pytest.mark.parametrize("case", sorted(ORACLE_CTX))
    def test_drift_stays_below_the_bound(self, case):
        ctx = make_ctx(**ORACLE_CTX[case])
        states = [oracle_project(*U, ctx) for U in oracle_draw(4, ctx, 50)]
        for t in self.TIMES:
            worst = max(oracle_drift(*U, t, ctx, 1e-7) for U in states)
            assert 0.0 < worst <= dadt_bound(t, ctx) * (1.0 + 1e-6)

    @pytest.mark.parametrize("case", sorted(ORACLE_CTX))
    def test_certificate_equals_the_probes_alone(self, case):
        # each claim's rows equal those of the claim alone: claim 1's and
        # claim 3's closed forms, claim 2's sample of res_trials trials, and
        # dAdt holds the bound at each time
        ctx = make_ctx(**ORACLE_CTX[case])
        seed = 4
        res = 37
        cert = run_certificate(ctx, self.TIMES, seed=seed, res_trials=res)
        assert list(cert["claim1"].values()) == _claim1(self.TIMES, ctx)
        assert list(cert["claim2"].values()) == _claim2(
            self.TIMES, ctx, res, seed)
        assert list(cert["claim3"].values()) == _claim3(self.PAIRS, ctx)
        assert list(cert["dAdt"].values()) == [
            {"bound": dadt_bound(t, ctx)} for t in self.TIMES]
        assert cert["pass"] == (case != "violating")

    @pytest.mark.parametrize("res", [40, 100])
    def test_claim2_does_not_read_diss_trials(self, res):
        # claim 2's rows are the one-trial-at-a-time oracle's, bit for bit,
        # whatever diss_trials is: it no longer sets how many trials the
        # stream draws
        ctx = make_ctx(**ORACLE_CTX["weak"])
        certs = [run_certificate(ctx, self.TIMES, seed=4, diss_trials=diss,
                                 res_trials=res)["claim2"]
                 for diss in (1, res, 3000, 0, -5)]
        assert all(cert == certs[0] for cert in certs)
        for t, rep in zip(self.TIMES, certs[0].values()):
            assert rep["trials"] == res and rep["seed"] == 4
            assert (rep["max_residual"], rep["max_boundary_identity"]) == \
                oracle_resolvent(t, ctx, res, 4)

    def test_norm_stack_equals_rows(self):
        # the certificate's (T, B) norms: a (B, n) stack against a column
        # of T delays gives each entry the bits of its own 1-d call, which
        # is half the sum of the four blocks taken row by row
        ctx = make_ctx()
        ops, g = ctx.ops, ctx.gains
        rng = np.random.default_rng(17)
        u, v = rng.standard_normal((2, 9, 65))
        w = rng.standard_normal((9, 33))
        taus = np.array([0.5, 0.83, 1.0])
        stacked = lyapunov_raw(u, v, w, taus[:, None], ops, g)[0]
        assert stacked.shape == (3, 9)
        for j, tau in enumerate(taus.tolist()):
            for i in range(9):
                du = u[i, 1:] - u[i, :-1]
                one = lyapunov_raw(u[i], v[i], w[i], tau, ops, g)[0]
                assert stacked[j, i] == one == 0.5 * (
                    float((ops.mass * v[i]) @ v[i])
                    + float((ops.k_cell * du) @ du)
                    + g.beta * ops.a1 * float(u[i, -1]) ** 2
                    + g.mu1 * ops.a1 * tau * float(
                        delta_trap_weights(32) @ (w[i] * w[i])))

        # the boundary block is the float u(1) ** 2 (libm pow), which differs
        # from u(1) * u(1) in about one value in a thousand: check many
        # constant states, whose energy is that block alone
        small = make_ctx(n=8, n_delta=4)
        x = rng.standard_normal(20000)
        u = np.repeat(x[:, None], 9, axis=1)
        e = lyapunov_raw(u, np.zeros_like(u), np.zeros((20000, 5)), 1.0,
                         small.ops, g)[0]
        assert e.tolist() == [0.5 * (g.beta * small.ops.a1 * y ** 2)
                              for y in x.tolist()]


class TestTrialStream:
    # the arrays of a probe at N = 64, n_delta = 32
    SIZES = (65, 65, 33)

    def draws(self, trials, seed=4):
        # the trials as three (trials, n) arrays, block by block
        blocks = [arrays for _, arrays in
                  operator_checks._trial_blocks(trials, seed, self.SIZES)]
        return [np.concatenate(part) for part in zip(*blocks)]

    def test_block_size_does_not_change_the_trials(self, monkeypatch):
        trials = 2 * ROWS_AT_64 + 11
        default = self.draws(trials)
        for budget in (3 * 65, 65, 1):
            monkeypatch.setattr(operator_checks, "BLOCK_DOUBLES", budget)
            starts = [k0 for k0, _ in operator_checks._trial_blocks(
                trials, 4, self.SIZES)]
            assert starts == list(range(0, trials, max(1, budget // 65)))
            for small, big in zip(self.draws(trials), default):
                assert np.array_equal(small, big)

    def test_fewer_trials_are_a_prefix(self):
        k = ROWS_AT_64 + 5
        for short, long in zip(self.draws(k), self.draws(2 * k)):
            assert np.array_equal(short, long[:k])

    def test_blocks_are_read_only(self):
        # every claim reads the same block, so none may write into it
        for _, arrays in operator_checks._trial_blocks(9, 4, self.SIZES):
            for part, n in zip(arrays, self.SIZES):
                assert part.shape == (9, n) and not part.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    part[0, 0] = 0.0

    def test_one_generator_per_certificate_one_fill_per_block(
            self, monkeypatch):
        # N = 16, n_delta = 8: a block holds BLOCK_DOUBLES // 17 trials
        rows = BLOCK_DOUBLES // 17
        ctx = make_ctx(n=16, n_delta=8)
        real = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.seed, self.rng, self.fills = seed, real(seed), 0

            def standard_normal(self, *args, **kwargs):
                self.fills += 1
                return self.rng.standard_normal(*args, **kwargs)

        def counted(run):
            made = []

            def make(seed):
                made.append(Counted(seed))
                return made[-1]

            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", make)
                out = run()
            assert out == run()
            return [(c.seed, c.fills) for c in made]

        # claim 2 alone draws, res_trials trials: diss_trials and
        # ratio_trials draw nothing, as claims 1 and 3 are exact
        for diss, res, ratio in [(9, 9, 9), (2 * rows + 1, 3, rows + 2),
                                 (7, rows + 1, 2), (7, 2, 5 * rows)]:
            made = counted(lambda: run_certificate(
                ctx, [0.0, 1.0, 2.0], seed=3, diss_trials=diss,
                res_trials=res, ratio_trials=ratio))
            assert made == [([3], -(-res // rows))]
        assert counted(lambda: _claim2([0.0], ctx, rows + 1, 3)) == [([3], 2)]
        assert counted(lambda: _claim1([0.0, 1.0], ctx)) == []


# claim 2 is the one sampled claim
@pytest.mark.parametrize("claim, entries", [(_claim2, [0.0])],
                         ids=["resolvent"])
@pytest.mark.parametrize("trials", [0, -3])
def test_no_trials_is_an_error_not_a_pass(claim, entries, trials):
    ctx = make_ctx(n=16, n_delta=8)
    with pytest.raises(ValueError, match="need at least one trial"):
        claim(entries, ctx, trials, 0)


class TestRunCertificate:
    # run_certificate builds each claim once, and takes dadt_bound once
    # per time, counted here under the function's name
    CLAIMS = ("_claim1", "_claim2", "_claim3")
    TIME_CLAIMS = ("_claim1", "_claim2", "dadt_bound")

    def count(self, monkeypatch):
        seen = {name: [] for name in (*self.CLAIMS, "dadt_bound")}
        for name in self.CLAIMS:
            real = getattr(operator_checks, name)

            def counted(entries, ctx, *args, _real=real, _name=name, **kw):
                seen[_name].extend(entries)
                return _real(entries, ctx, *args, **kw)

            monkeypatch.setattr(operator_checks, name, counted)

        def bound(t, ctx, _real=operator_checks.dadt_bound):
            seen["dadt_bound"].append(t)
            return _real(t, ctx)

        monkeypatch.setattr(operator_checks, "dadt_bound", bound)
        return seen

    def cert(self, t_list):
        return run_certificate(make_ctx(n=16, n_delta=8), t_list, seed=3,
                               res_trials=3)

    def test_each_distinct_time_and_pair_once(self, monkeypatch):
        seen = self.count(monkeypatch)
        cert = self.cert([0.0, 20.0])
        # the closing pair (first, last) repeats the only consecutive pair
        assert seen["_claim3"] == [(0.0, 20.0)]
        assert list(cert["claim3"]) == ["s=0,t=20"]
        for name in self.TIME_CLAIMS:
            assert seen[name] == [0.0, 20.0]

    def test_repeated_times_add_no_work(self, monkeypatch):
        once = self.cert([0.0, 20.0, 5.0])
        seen = self.count(monkeypatch)
        cert = self.cert([0.0, 20.0, 20.0, 5.0, 0.0, 5.0])
        for name in self.TIME_CLAIMS:
            assert seen[name] == [0.0, 20.0, 5.0]
        assert seen["_claim3"] == [
            (0.0, 20.0), (20.0, 20.0), (20.0, 5.0), (5.0, 0.0), (0.0, 5.0)]
        for claim in ("claim1", "claim2", "dAdt"):
            assert cert[claim] == once[claim]
        assert cert["claim3"]["s=0,t=20"] == once["claim3"]["s=0,t=20"]

    def test_single_time_has_no_pairs(self, monkeypatch):
        seen = self.count(monkeypatch)
        cert = self.cert([2.0])
        assert seen["_claim1"] == [2.0]
        assert seen["_claim3"] == [] and cert["claim3"] == {}

    def test_one_repeated_time_is_one_pair(self, monkeypatch):
        # the consecutive pair and the closing pair coincide
        seen = self.count(monkeypatch)
        cert = self.cert([2.0, 2.0])
        assert seen["_claim1"] == [2.0]
        assert seen["_claim3"] == [(2.0, 2.0)]
        assert cert["claim3"]["s=2,t=2"]["max_ratio"] == 1.0

    def test_times_that_print_alike_keep_their_rows(self, monkeypatch):
        # 1 and 1.0000001 share the 6-digit key "1": both get repr keys,
        # and every other time keeps its short one
        seen = self.count(monkeypatch)
        cert = self.cert([0.0, 1.0, 1.0000001, 20.0])
        assert seen["_claim1"] == [0.0, 1.0, 1.0000001, 20.0]
        keys = ["t=0", "t=1.0", "t=1.0000001", "t=20"]
        for claim in ("claim1", "claim2", "dAdt"):
            assert list(cert[claim]) == keys
        assert list(cert["claim3"]) == [
            "s=0,t=1.0", "s=1.0,t=1.0000001", "s=1.0000001,t=20", "s=0,t=20"]
        assert len(seen["_claim3"]) == 4
        two = self.cert([1.0, 1.0000001])
        assert list(two["claim1"]) == ["t=1.0", "t=1.0000001"]
        assert list(two["claim3"]) == ["s=1.0,t=1.0000001"]
        assert two["claim1"]["t=1.0"] == cert["claim1"]["t=1.0"]

    @pytest.mark.parametrize("field", ["res_trials"])
    def test_a_claim_without_trials_is_an_error(self, field):
        with pytest.raises(ValueError, match="need at least one trial, got 0"):
            run_certificate(make_ctx(n=16, n_delta=8), [0.0, 1.0],
                            **{field: 0})

    def test_no_times_is_an_error(self):
        with pytest.raises(ValueError, match="at least one probe time"):
            self.cert([])
