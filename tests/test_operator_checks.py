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
from degenwave.errors import DomainViolation, SolveFailure
from degenwave.operator_checks import (
    ProbeContext,
    channel_resolvent_weights,
    continuum_channel_weight,
    dissipativity_probe,
    generator_apply,
    generator_drift_probe,
    iota,
    norm_h_sq,
    norm_ratio_bound,
    norm_t_sq,
    resolvent_probe,
    resolvent_solve,
)

DELAY = make_delay("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": 0.4})


def make_ctx(n=64, n_delta=32, gains=GainSet(2.0, 0.2, 1.0), delay=DELAY,
             alpha=0.5):
    spec = make_coefficient("power", {"alpha": alpha})
    mesh = build_mesh(n, default_gamma(alpha))
    bc = "dirichlet_left" if alpha < 1 else "natural_left"
    ops = assemble_operators(spec, mesh, bc)
    return ProbeContext(mesh=mesh, ops=ops, gains=gains, delay=delay,
                        n_delta=n_delta)


class TestGeneratorApply:
    def test_zero_maps_to_zero(self):
        ctx = make_ctx()
        z = (np.zeros(65), np.zeros(65), np.zeros(33))
        for block in generator_apply(z, 1.0, ctx):
            assert np.all(block == 0.0)

    def test_transport_block_on_linear_profile(self):
        # constant tau: the block is -(1/tau) d/d delta, exact on linears
        ctx = make_ctx(delay=make_delay("constant", {"tau": 0.8}))
        w = 2.0 - 3.0 * np.linspace(0.0, 1.0, 33)
        v = np.zeros(65)
        v[-1] = w[0]  # satisfy the coupling constraint without projection
        _, _, aw = generator_apply((np.zeros(65), v, w), 5.0, ctx,
                                   project=False)
        assert np.max(np.abs(aw - 3.0 / 0.8)) < 1e-12

    def test_iota_at_unit_constant_delay(self):
        assert iota(make_delay("constant", {"tau": 1.0}), 2.0) == 0.5

    def test_domain_violation_without_projection(self):
        ctx = make_ctx()
        rng = np.random.default_rng(0)
        U = (rng.standard_normal(65), rng.standard_normal(65),
             rng.standard_normal(33))
        with pytest.raises(DomainViolation):
            generator_apply(U, 0.0, ctx, project=False)

    def test_norm_equivalence(self):
        # min{tau0,1} ||U||_H^2 <= ||U||_t^2 <= max{tau1,1} ||U||_H^2
        ctx = make_ctx()
        rng = np.random.default_rng(1)
        c1 = min(DELAY.tau0, 1.0)
        c2 = max(DELAY.tau1, 1.0)
        for _ in range(100):
            U = (rng.standard_normal(65), rng.standard_normal(65),
                 rng.standard_normal(33))
            h = norm_h_sq(U, ctx)
            for t in [0.0, 1.0, 7.5]:
                nt = norm_t_sq(U, t, ctx)
                assert c1 * h - 1e-12 <= nt <= c2 * h + 1e-12


class TestDissipativity:
    def test_pass_under_gain_condition(self):
        ctx = make_ctx()
        for t in [0.0, 2.0, 8.0]:
            rep = dissipativity_probe(t, ctx, trials=500, seed=7)
            assert rep.passed
            assert rep.max_ratio <= 1e-8

    def test_violating_gains_found(self):
        # threefold violation of the gain condition: the randomized search
        # finds states with positive form value (reported, not asserted as a
        # theorem)
        ctx = make_ctx(gains=GainSet(2.0, 6.0, 1.0))
        rep = dissipativity_probe(0.0, ctx, trials=500, seed=7)
        assert rep.n_positive > 0
        assert not rep.passed

    def test_pass_monotone_in_mu2(self):
        # shrinking |mu2| at fixed seed never turns PASS into FAIL
        passed_seen = False
        for mu2 in [3.0, 1.5, 1.0, 0.5, 0.2, 0.0]:
            ctx = make_ctx(gains=GainSet(2.0, mu2, 1.0))
            rep = dissipativity_probe(0.0, ctx, trials=200, seed=13)
            if passed_seen:
                assert rep.passed
            passed_seen = passed_seen or rep.passed
        assert passed_seen


class TestResolvent:
    def test_zero_rhs(self):
        ctx = make_ctx()
        out = resolvent_solve((np.zeros(65), np.zeros(65), np.zeros(33)),
                              1.0, ctx)
        assert np.max(np.abs(out.u)) == 0.0
        assert np.max(np.abs(out.w)) == 0.0
        assert out.residual == 0.0

    def test_channel_weight_converges_to_exponential(self):
        # tau' = 0: the discrete product weight tends to e^{-tau}
        errs = []
        for m in [32, 64, 128, 256]:
            a_d, _ = channel_resolvent_weights(0.8, 0.0, m)
            errs.append(abs(a_d - math.exp(-0.8)))
        assert errs[-1] < 1e-3
        assert all(a / b > 1.8 for a, b in zip(errs, errs[1:]))

    def test_continuum_weight_series_fallback(self):
        # continuous in tau' across the switch, limit e^{-tau}
        w0 = continuum_channel_weight(0.9, 0.0)
        w1 = continuum_channel_weight(0.9, 1e-9)
        w2 = continuum_channel_weight(0.9, 1e-7)
        assert w0 == pytest.approx(math.exp(-0.9), rel=1e-12)
        assert w1 == pytest.approx(w0, rel=1e-8)
        assert w2 == pytest.approx(w0, rel=1e-6)

    def test_pure_velocity_rhs_gives_exponential_channel(self):
        # f = h = 0: w is the discrete exponential decay of v(1) along delta
        ctx = make_ctx(delay=make_delay("constant", {"tau": 0.8}))
        rng = np.random.default_rng(3)
        g = rng.standard_normal(65)
        out = resolvent_solve((np.zeros(65), g, np.zeros(33)), 1.0, ctx)
        m = ctx.n_delta
        rho = (1.0 / 0.8) / (1.0 / m + 1.0 / 0.8)
        expected = out.v[-1] * rho ** np.arange(m + 1)
        assert np.max(np.abs(out.w - expected)) < 1e-12 * max(1.0, abs(out.v[-1]))

    def test_random_rhs_residuals(self):
        for taup_case in ["constant-delay", "varying"]:
            delay = (make_delay("constant", {"tau": 0.8})
                     if taup_case == "constant-delay" else DELAY)
            ctx = make_ctx(delay=delay)
            rep = resolvent_probe(0.5, ctx, trials=50, seed=21)
            assert rep.max_residual <= 1e-8
            assert rep.max_boundary_identity <= 1e-8

    def test_indefinite_system_raises(self):
        # far outside the gain condition the boundary weight
        # mu1 + mu2 A_d + beta is so negative that the u system is indefinite
        ctx = make_ctx(gains=GainSet(2.0, -50.0, 1.0))
        with pytest.raises(SolveFailure, match="^resolvent system"):
            resolvent_solve((np.zeros(65), np.zeros(65), np.zeros(33)), 1.0, ctx)


class TestNormRatio:
    def test_constant_delay_ratio_one(self):
        ctx = make_ctx(delay=make_delay("constant", {"tau": 0.7}))
        rep = norm_ratio_bound(3.0, 1.0, ctx, trials=100, seed=5)
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.excess == 0.0

    def test_pure_channel_state_saturates_tau_ratio(self):
        ctx = make_ctx()
        t, s = 1.5, 0.5
        U = (np.zeros(65), np.zeros(65), np.ones(33))
        ratio = math.sqrt(norm_t_sq(U, t, ctx) / norm_t_sq(U, s, ctx))
        expect = math.sqrt(float(DELAY.tau(t)) / float(DELAY.tau(s)))
        assert ratio == pytest.approx(expect, rel=1e-14)
        assert ratio <= math.exp(DELAY.d / (2 * DELAY.tau0) * (t - s))

    def test_channel_free_state_ratio_one(self):
        ctx = make_ctx()
        rng = np.random.default_rng(8)
        U = (rng.standard_normal(65), rng.standard_normal(65), np.zeros(33))
        assert norm_t_sq(U, 4.0, ctx) == norm_t_sq(U, 1.0, ctx)

    def test_stated_bound_with_margin(self):
        ctx = make_ctx()
        rep = norm_ratio_bound(1.5, 0.5, ctx, trials=300, seed=10)
        assert rep.excess == 0.0
        assert rep.bound_proof >= rep.bound_stated


class TestGeneratorDrift:
    def test_finite_and_stable(self):
        ctx = make_ctx()
        out = generator_drift_probe(2.0, ctx, trials=20, seed=2)
        vals = list(out.values())
        assert all(math.isfinite(v) for v in vals)
        assert max(vals) <= 10.0 * (min(vals) + 1e-12) + 1e-6
