"""Functionals, epsilon selection, audits, elliptic estimates, decay fits."""
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
from degenwave.stepper import SimState
from degenwave.delay_channel import HistoryBuffer


SPEC = make_coefficient("power", {"alpha": 0.5})
DELAY = make_delay("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": 0.4})
GAINS = GainSet(2.0, 0.2, 1.0)


def assemble(n=64, alpha=0.5):
    spec = make_coefficient("power", {"alpha": alpha})
    mesh = build_mesh(n, default_gamma(alpha))
    bc = "dirichlet_left" if alpha < 1 else "natural_left"
    return spec, mesh, assemble_operators(spec, mesh, bc)


def lyap_for(spec, gains, delay):
    return choose_epsilon(spec, gains.beta, gains, delay)


class TestEnergy:
    def test_channel_only_state(self):
        # u = v = 0, w = 1, mu1 = 1, a(1) = 1, tau = 0.8 -> E = 0.4 exactly
        spec, mesh, ops = assemble()
        delay = make_delay("constant", {"tau": 0.8})
        gains = GainSet(1.0, 0.0, 1.0)
        n = mesh.N + 1
        state = SimState(t=0.0, u=np.zeros(n), v=np.zeros(n),
                         w=np.ones(33),
                         buffer=HistoryBuffer(1e-3, 1.0, lambda s: 0.0))
        from degenwave import energy

        assert energy(state, mesh, ops, gains, delay) == pytest.approx(0.4, abs=1e-15)

    def test_epsilon_zero_collapses_to_energy(self):
        spec, mesh, ops = assemble()
        lyap = lyap_for(spec, GAINS, DELAY)
        lyap0 = lyap.__class__(**{**lyap.__dict__, "epsilon": 0.0})
        rng = np.random.default_rng(0)
        u = rng.standard_normal(65)
        v = rng.standard_normal(65)
        w = rng.standard_normal(33)
        e, et = lyapunov_raw(u, v, w, 1.0, mesh, ops, GAINS, DELAY, lyap0)
        assert e == et


class TestChooseEpsilon:
    def test_sandwich_branch_formula(self):
        # mu_a = 0, a(1) = 1, beta = 1: coefficient max is 1, so the sandwich
        # branch pins eps_sandwich = 1/4 (lower constant 1/2 at that eps)
        spec = make_coefficient("power", {"alpha": 0.0})
        lyap = choose_epsilon(spec, 1.0, GainSet(1.0, 0.0, 1.0),
                              make_delay("constant", {"tau": 1.0}))
        assert lyap.eps_sandwich == pytest.approx(0.25, abs=1e-15)
        assert 1.0 - 2.0 * lyap.eps_sandwich * lyap.sandwich_coeff == \
            pytest.approx(0.5, abs=1e-15)
        assert lyap.equiv_lower == pytest.approx(1.0 - 2 * lyap.epsilon, abs=1e-15)

    def test_damping_branch_formula(self):
        # mu2 = 0, mu1 = 1, d = 0, a(1) = 1: damping margin 1/2 and trace
        # budget 1 + 5/2 + 1 give eps_damping = 1/9
        spec = make_coefficient("power", {"alpha": 0.0})
        lyap = choose_epsilon(spec, 1.0, GainSet(1.0, 0.0, 1.0),
                              make_delay("constant", {"tau": 1.0}))
        assert lyap.eps_damping == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert lyap.epsilon == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert lyap.damping_slack >= -1e-15

    def test_no_strict_damping(self):
        with pytest.raises(NoStrictDamping):
            choose_epsilon(SPEC, 1.0, GainSet(1.0, 2.0, 1.0),
                           make_delay("constant", {"tau": 1.0}))

    def test_equivalence_constants_sum_to_two(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            alpha = float(rng.uniform(0.0, 1.9))
            beta = float(rng.uniform(0.3, 2.0))
            mu1 = float(rng.uniform(0.5, 3.0))
            spec = make_coefficient("power", {"alpha": alpha})
            lyap = choose_epsilon(spec, beta, GainSet(mu1, 0.0, beta),
                                  make_delay("constant", {"tau": 0.7}))
            assert lyap.equiv_lower + lyap.equiv_upper == pytest.approx(2.0, abs=1e-14)
            assert lyap.equiv_lower > 0.0

    def test_boundary_const_formula(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        lyap = choose_epsilon(spec, 1.0, GAINS, DELAY)
        assert lyap.boundary_const == pytest.approx(
            1.0 * (1.0 - 0.5 + 1.0) + (2.0 - 0.25) ** 2, abs=1e-15
        )


class TestSandwich:
    def test_random_states_zero_slack(self):
        spec, mesh, ops = assemble(n=96)
        lyap = lyap_for(SPEC, GAINS, DELAY)
        rng = np.random.default_rng(17)
        for _ in range(300):
            u = rng.uniform(-1, 1, 97) * 10.0 ** rng.integers(-2, 3)
            v = rng.uniform(-1, 1, 97) * 10.0 ** rng.integers(-2, 3)
            w = rng.uniform(-1, 1, 33) * 10.0 ** rng.integers(-2, 3)
            u[0] = v[0] = 0.0
            t = float(rng.uniform(0.0, 10.0))
            e, et = lyapunov_raw(u, v, w, t, mesh, ops, GAINS, DELAY, lyap)
            assert lyap.equiv_lower * e <= et <= lyap.equiv_upper * e


class TestDissipationAudit:
    def test_zero_trajectory(self):
        traj = SimpleNamespace(
            t=np.linspace(0, 1, 11), E=np.zeros(11),
            trace_v=np.zeros(11), trace_v_delayed=np.zeros(11),
        )
        out = dissipation_audit(traj, 0.5, 1.0)
        assert out.worst_violation == 0.0
        assert out.monotonicity_count == 0

    def test_decaying_synthetic_clean(self):
        t = np.linspace(0, 5, 501)
        traj = SimpleNamespace(t=t, E=np.exp(-2 * t),
                               trace_v=np.zeros(501),
                               trace_v_delayed=np.zeros(501))
        out = dissipation_audit(traj, 0.5, 1.0)
        assert out.worst_violation == 0.0

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


class TestDecayCertificate:
    def _params(self):
        consts = full_constants(SPEC, GAINS, DELAY)
        lyap = choose_epsilon(SPEC, GAINS.beta, GAINS, DELAY, consts)
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
        from degenwave.errors import InsufficientHorizon

        with pytest.warns(InsufficientHorizon):
            cert = decay_certificate(traj, lyap, consts, SPEC.mu_a,
                                     GAINS.beta, DELAY.tau1)
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
