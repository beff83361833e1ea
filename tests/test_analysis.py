"""Functionals, epsilon selection, audits, elliptic estimates, decay fits."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from degenwave import (
    GainSet,
    assemble_operators,
    build_mesh,
    choose_epsilon,
    decay_certificate,
    default_gamma,
    dissipation_audit,
    make_coefficient,
    make_delay,
    solve_auxiliary_elliptic,
    structural_constants,
)
from degenwave.analysis import (
    certified_decay_time,
    elliptic_exact,
    empirical_integral_gain,
    fit_decay_rate,
    lyapunov_raw,
    sandwich_coefficient,
)
from degenwave.errors import NoStrictDamping
from degenwave.model import full_constants


SPEC = make_coefficient("power", {"alpha": 0.5})
DELAY = make_delay("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": 0.4})
GAINS = GainSet(2.0, 0.2, 1.0)


def assemble(n=64, alpha=0.5):
    spec = make_coefficient("power", {"alpha": alpha})
    mesh = build_mesh(n, default_gamma(alpha))
    return spec, mesh, assemble_operators(spec, mesh)


class TestEnergy:
    def test_channel_only_state(self):
        # u = v = 0, w = 1, mu1 = 1, a(1) = 1, tau = 0.8 -> E = 0.4 exactly
        spec, mesh, ops = assemble()
        delay = make_delay("constant", {"tau": 0.8})
        gains = GainSet(1.0, 0.0, 1.0)
        n = mesh.N + 1
        e, _ = lyapunov_raw(np.zeros(n), np.zeros(n), np.ones(33),
                            delay.tau(0.0), ops, gains)
        assert e == pytest.approx(0.4, abs=1e-15)

    def test_epsilon_zero_collapses_to_energy(self):
        spec, mesh, ops = assemble()
        lyap = choose_epsilon(spec, GAINS, DELAY)
        lyap0 = lyap.__class__(**{**lyap.__dict__, "epsilon": 0.0})
        rng = np.random.default_rng(0)
        u = rng.standard_normal(65)
        v = rng.standard_normal(65)
        w = rng.standard_normal(33)
        e, et = lyapunov_raw(u, v, w, DELAY.tau(1.0), ops, GAINS,
                             lyap0.epsilon)
        assert e == et


class TestChooseEpsilon:
    def test_sandwich_branch_formula(self):
        # mu_a = 0, a(1) = 1, beta = 1: coefficient max is 1, so the sandwich
        # branch pins eps_sandwich = 1/4 (lower constant 1/2 at that eps)
        spec = make_coefficient("power", {"alpha": 0.0})
        lyap = choose_epsilon(spec, GainSet(1.0, 0.0, 1.0),
                              make_delay("constant", {"tau": 1.0}))
        assert lyap.eps_sandwich == pytest.approx(0.25, abs=1e-15)
        coeff = sandwich_coefficient(
            spec.mu_a, spec.a_of_1, 1.0,
            structural_constants(spec, 1.0).poincare_const)
        assert 1.0 - 2.0 * lyap.eps_sandwich * coeff == \
            pytest.approx(0.5, abs=1e-15)
        assert lyap.equiv_lower == pytest.approx(1.0 - 2 * lyap.epsilon, abs=1e-15)

    def test_damping_branch_formula(self):
        # mu2 = 0, mu1 = 1, d = 0, a(1) = 1: damping margin 1/2 and trace
        # budget 1 + 5/2 + 1 give eps_damping = 1/9
        spec = make_coefficient("power", {"alpha": 0.0})
        lyap = choose_epsilon(spec, GainSet(1.0, 0.0, 1.0),
                              make_delay("constant", {"tau": 1.0}))
        assert lyap.eps_damping == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert lyap.epsilon == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert lyap.damping_slack >= -1e-15

    def test_no_strict_damping(self):
        with pytest.raises(NoStrictDamping):
            choose_epsilon(SPEC, GainSet(1.0, 2.0, 1.0),
                           make_delay("constant", {"tau": 1.0}))

    def test_equivalence_constants_sum_to_two(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            alpha = float(rng.uniform(0.0, 1.9))
            beta = float(rng.uniform(0.3, 2.0))
            mu1 = float(rng.uniform(0.5, 3.0))
            spec = make_coefficient("power", {"alpha": alpha})
            lyap = choose_epsilon(spec, GainSet(mu1, 0.0, beta),
                                  make_delay("constant", {"tau": 0.7}))
            assert lyap.equiv_lower + lyap.equiv_upper == pytest.approx(2.0, abs=1e-14)
            assert lyap.equiv_lower > 0.0

    def test_boundary_const_formula(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        lyap = choose_epsilon(spec, GAINS, DELAY)
        assert lyap.boundary_const == pytest.approx(
            1.0 * (1.0 - 0.5 + 1.0) + (2.0 - 0.25) ** 2, abs=1e-15
        )


class TestSandwich:
    def test_random_states_zero_slack(self):
        spec, mesh, ops = assemble(n=96)
        lyap = choose_epsilon(SPEC, GAINS, DELAY)
        rng = np.random.default_rng(17)
        for _ in range(300):
            u = rng.uniform(-1, 1, 97) * 10.0 ** rng.integers(-2, 3)
            v = rng.uniform(-1, 1, 97) * 10.0 ** rng.integers(-2, 3)
            w = rng.uniform(-1, 1, 33) * 10.0 ** rng.integers(-2, 3)
            u[0] = v[0] = 0.0
            t = float(rng.uniform(0.0, 10.0))
            e, et = lyapunov_raw(u, v, w, DELAY.tau(t), ops, GAINS,
                                 lyap.epsilon)
            assert lyap.equiv_lower * e <= et <= lyap.equiv_upper * e


class TestStackedLyapunov:
    @pytest.mark.parametrize("eps", [False, True])
    def test_rows_equal_single_calls(self, eps):
        # a stack of states with one tau per row gives each row the bits of
        # its own 1-d call, for E and for E~
        spec, mesh, ops = assemble(n=96)
        eps = choose_epsilon(SPEC, GAINS, DELAY).epsilon if eps else 0.0
        rng = np.random.default_rng(23)
        rows = 37
        u = rng.standard_normal((rows, 97))
        v = rng.standard_normal((rows, 97))
        w = rng.standard_normal((rows, 33))
        u[:, 0] = v[:, 0] = 0.0
        tau = np.array([DELAY.tau(t) for t in rng.uniform(0.0, 10.0, rows)])
        e, et = lyapunov_raw(u, v, w, tau, ops, GAINS, eps)
        assert e.shape == et.shape == (rows,)
        for i in range(rows):
            e1, et1 = lyapunov_raw(u[i], v[i], w[i], float(tau[i]), ops,
                                   GAINS, eps)
            assert e[i] == e1 and et[i] == et1

    def test_batch_rows_with_own_epsilon(self):
        # a (rows, B) stack with one tau per row and one epsilon per batch
        # column: each entry gets the bits of its own 1-d call, and a column
        # whose epsilon is 0 gets E~ = E
        spec, mesh, ops = assemble(n=96)
        eps = np.array([choose_epsilon(SPEC, GAINS, DELAY).epsilon, 0.0, 1e-3])
        rng = np.random.default_rng(29)
        u = rng.standard_normal((11, 3, 97))
        v = rng.standard_normal((11, 3, 97))
        w = rng.standard_normal((11, 3, 33))
        u[..., 0] = v[..., 0] = 0.0
        tau = DELAY.tau(rng.uniform(0.0, 10.0, 11))
        e, et = lyapunov_raw(u, v, w, tau[:, None], ops, GAINS, eps)
        assert e.shape == et.shape == (11, 3)
        assert np.array_equal(et[:, 1], e[:, 1])
        for i in range(11):
            for b in range(3):
                e1, et1 = lyapunov_raw(u[i, b], v[i, b], w[i, b],
                                       float(tau[i]), ops, GAINS, eps[b])
                assert e[i, b] == e1 and et[i, b] == et1


class TestDissipationAudit:
    def test_zero_trajectory(self):
        traj = SimpleNamespace(
            t=np.linspace(0, 1, 11), E=np.zeros(11),
            trace_v=np.zeros(11), trace_v_delayed=np.zeros(11),
        )
        assert dissipation_audit(traj, 0.5, 1.0) == 0.0

    def test_decaying_synthetic_clean(self):
        t = np.linspace(0, 5, 501)
        traj = SimpleNamespace(t=t, E=np.exp(-2 * t),
                               trace_v=np.zeros(501),
                               trace_v_delayed=np.zeros(501))
        assert dissipation_audit(traj, 0.5, 1.0) == 0.0

    def test_needs_three_samples(self):
        traj = SimpleNamespace(t=np.array([0.0, 1.0]), E=np.array([1.0, 0.5]),
                               trace_v=np.zeros(2), trace_v_delayed=np.zeros(2))
        with pytest.raises(ValueError):
            dissipation_audit(traj, 0.5, 1.0)


class TestEllipticProblem:
    def test_weak_closed_form(self):
        # a = sqrt(x), beta = 1, lam = 1: z = (2/3) sqrt(x), energy norm 2/3
        spec = make_coefficient("power", {"alpha": 0.5})
        mesh = build_mesh(256, default_gamma(0.5))
        res = solve_auxiliary_elliptic(spec, 1.0, 1.0, mesh)
        assert abs(res.z[-1] - 2.0 / 3.0) < 1e-3
        assert abs(res.energy_norm_sq - 2.0 / 3.0) < 1e-3
        assert res.energy_norm_sq <= res.energy_bound
        assert res.l2_error_vs_exact < 1e-3

    def test_strong_degeneracy_constant(self):
        # natural boundary at 0: z = lam / beta exactly, any resolution
        spec = make_coefficient("power", {"alpha": 1.5})
        for beta in [0.5, 2.0]:
            mesh = build_mesh(32, default_gamma(1.5))
            res = solve_auxiliary_elliptic(spec, beta, -1.0, mesh)
            assert np.max(np.abs(res.z + 1.0 / beta)) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_strong_regime_does_not_exceed_the_attained_bound(self, beta):
        # z = lam/beta attains |||z|||^2 = a(1) lam^2 / beta exactly; at
        # n = 1024 one L D L^T solve overshot it by up to 6.4e-12, inside
        # the bound check's tolerance only by a rounding margin
        spec = make_coefficient("power", {"alpha": 1.5})
        mesh = build_mesh(1024, default_gamma(spec.mu_a))
        for lam in [-1.0, 1.0]:
            res = solve_auxiliary_elliptic(spec, beta, lam, mesh)
            assert res.energy_norm_sq <= res.energy_bound * (1 + 1e-15)

    def test_zero_load(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        res = solve_auxiliary_elliptic(spec, 1.0, 0.0, build_mesh(64, 1.5))
        assert np.max(np.abs(res.z)) == 0.0

    def test_discrete_variational_identity(self):
        # testing the solution against itself: |||z|||^2 = lam a(1) z(1)
        spec = make_coefficient("power", {"alpha": 0.75})
        res = solve_auxiliary_elliptic(spec, 2.0, 1.0, build_mesh(128, 1.6))
        assert res.energy_norm_sq == pytest.approx(1.0 * res.z[-1], rel=1e-12)

    def test_first_order_convergence(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        errs = [
            solve_auxiliary_elliptic(
                spec, 1.0, 1.0, build_mesh(n, default_gamma(0.5))
            ).l2_error_vs_exact
            for n in [32, 64, 128, 256]
        ]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(orders) >= 1.0

    def test_scale_invariance_of_solution(self):
        # the closed form is independent of the coefficient scale
        for scale in [0.5, 2.0]:
            spec = make_coefficient("power", {"alpha": 0.5, "scale": scale})
            ex = elliptic_exact(spec, 1.0, 1.0)
            assert float(ex(1.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
            res = solve_auxiliary_elliptic(spec, 1.0, 1.0,
                                           build_mesh(128, 4.0 / 3.0))
            assert abs(res.z[-1] - 2.0 / 3.0) < 1e-2


class TestInverseIntegral:
    def test_quadrature_against_closed_form(self):
        # the quadrature path of power_times_factor against closed forms of
        # int 1/a: a = 1 + x, and a = x (2 - x), whose integral diverges at 0
        for alpha, factor, closed in [
            (0.0, "one_plus_x", lambda x0, x1: np.log((1 + x1) / (1 + x0))),
            (1.0, "two_minus_x",
             lambda x0, x1: 0.5 * np.log(x1 * (2 - x0) / (x0 * (2 - x1)))),
        ]:
            spec = make_coefficient("power_times_factor",
                                    {"alpha": alpha, "factor": factor})
            for x0, x1 in [(1e-3, 0.125), (0.125, 0.5), (0.5, 1.0)]:
                assert spec.inv_integral(x0, x1) == pytest.approx(
                    closed(x0, x1), rel=1e-12)
            first = spec.inv_integral(0.0, 0.125)
            if alpha >= 1.0:
                assert first == np.inf
            else:
                assert first == pytest.approx(np.log(1.125), rel=1e-12)
            mesh = build_mesh(64, default_gamma(spec.mu_a))
            for beta in [0.5, 2.0]:
                res = solve_auxiliary_elliptic(spec, beta, 1.0, mesh)
                assert res.bounds_ok


    def test_arrays_equal_the_scalar_closed_form(self):
        # the cells of a graded mesh in one call against the closed form of
        # each cell in Python floats, bit for bit (numpy's own pow differs
        # in the last bit on some of these cells); the first cell diverges
        # for alpha >= 1, and an empty interval gives 0
        def closed(al, s, x0, x1):
            if x0 <= 0.0 and al >= 1.0:
                return np.inf
            if al == 0.0:
                return (x1 - x0) / s
            if al == 1.0:
                return math.log(x1 / x0) / s
            p = 1.0 - al
            return (x1**p - (0.0 if x0 <= 0.0 else x0**p)) / (p * s)

        nodes = build_mesh(1024, 4.0).nodes
        for alpha, scale in [(0.0, 1.0), (0.5, 1.3), (1.0, 1.0), (1.5, 0.9)]:
            spec = make_coefficient("power", {"alpha": alpha, "scale": scale})
            assert spec.inv_integral(nodes[:-1], nodes[1:]).tolist() == [
                closed(alpha, scale, a, b)
                for a, b in zip(nodes[:-1].tolist(), nodes[1:].tolist())]
            empty = spec.inv_integral(0.7, 0.7)
            assert isinstance(empty, float) and empty == 0.0
        # quadrature: each entry is its scalar call, a float
        spec = make_coefficient("power_times_factor",
                                {"alpha": 0.5, "factor": "exp"})
        x0, x1 = np.array([0.0, 0.125, 0.5]), np.array([0.125, 0.5, 1.0])
        one = [spec.inv_integral(a, b) for a, b in zip(x0, x1)]
        assert all(isinstance(x, float) for x in one)
        assert spec.inv_integral(x0, x1).tolist() == one


class TestDecayCertificate:
    def _params(self):
        consts = full_constants(SPEC, GAINS, DELAY)
        lyap = choose_epsilon(SPEC, GAINS, DELAY)
        return consts, lyap

    def test_rate_fit_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 10_001)
        assert fit_decay_rate(t, np.exp(-2.0 * t)) == pytest.approx(2.0, abs=1e-6)

    def test_integral_gain_limit(self):
        t = np.linspace(0.0, 10.0, 100_001)
        gain = empirical_integral_gain(t, np.exp(-2.0 * t))
        assert gain == pytest.approx(0.5, abs=1e-5)

    def test_growing_trajectory_fails_envelope(self):
        consts, lyap = self._params()
        m = certified_decay_time(SPEC.mu_a, DELAY.tau1, GAINS.beta,
                                 consts.coercivity_const, consts.damping_const,
                                 lyap)
        t = np.linspace(0.0, 3.0 * m, 2001)
        traj = SimpleNamespace(t=t, E=np.exp(t / m))
        cert = decay_certificate(traj, lyap, consts, SPEC.mu_a, GAINS.beta,
                                 DELAY.tau1)
        assert not cert.envelope_ok
        assert cert.horizon_ok

    def test_short_horizon_vacuous_envelope_flagged(self):
        consts, lyap = self._params()
        t = np.linspace(0.0, 5.0, 101)
        traj = SimpleNamespace(t=t, E=np.exp(-t))
        cert = decay_certificate(traj, lyap, consts, SPEC.mu_a, GAINS.beta,
                                 DELAY.tau1)
        assert cert.envelope_ok        # no recorded t beyond the bound
        assert not cert.horizon_ok     # and the shortfall is flagged

    def test_certified_time_requires_damping(self):
        consts, lyap = self._params()
        with pytest.raises(NoStrictDamping):
            certified_decay_time(SPEC.mu_a, DELAY.tau1, GAINS.beta,
                                 consts.coercivity_const, -0.1, lyap)


class TestSandwichCoefficient:
    def test_matches_direct_max(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            mu_a = float(rng.uniform(0.0, 1.9))
            a1 = float(rng.uniform(0.4, 2.5))
            beta = float(rng.uniform(0.3, 2.0))
            cp = structural_constants(
                make_coefficient("power", {"alpha": mu_a, "scale": a1}), beta
            ).poincare_const
            direct = max(1 + mu_a / 4, 1 / a1 + mu_a * cp / 4,
                         mu_a / (2 * beta * a1))
            assert sandwich_coefficient(mu_a, a1, beta, cp) == direct
