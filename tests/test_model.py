"""Coefficient/delay families, gain margins and structural constants."""

import math

import numpy as np
import pytest

from degenwave import (
    GainSet,
    assemble_operators,
    build_mesh,
    degeneracy_mu_a,
    feedback_margins,
    make_coefficient,
    make_delay,
    structural_constants,
    validate_delay,
)
from degenwave.errors import (
    DegeneracyOutOfRange,
    DelayHypothesisViolated,
    HypothesisError,
    NonPositive,
)


class TestCoefficient:
    def test_power_half(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        assert spec.mu_a == 0.5
        assert spec.a_of_1 == 1.0
        assert not spec.strong

    def test_power_strong_flag(self):
        spec = make_coefficient("power", {"alpha": 1.5})
        assert spec.mu_a == 1.5
        assert spec.strong

    def test_power_two_rejected(self):
        with pytest.raises(DegeneracyOutOfRange):
            make_coefficient("power", {"alpha": 2.0})

    def test_negative_exponent_rejected(self):
        with pytest.raises(DegeneracyOutOfRange):
            make_coefficient("power", {"alpha": -0.5})

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(NonPositive):
            make_coefficient("power", {"alpha": 0.5, "scale": 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, value):
        # every ordered range check is False for NaN, so NaN needs its own
        with pytest.raises(DegeneracyOutOfRange, match="^alpha must be a finite"):
            make_coefficient("power", {"alpha": value})
        with pytest.raises(NonPositive, match="^scale must be a finite"):
            make_coefficient("power", {"alpha": 0.5, "scale": value})
        # both kinds take the same checks and error classes
        with pytest.raises(DegeneracyOutOfRange, match="^alpha must be a finite"):
            make_coefficient("power_times_factor",
                             {"alpha": value, "factor": "one_plus_x"})

    def test_mu_a_exact_for_powers(self):
        for alpha in [0.0, 0.3, 0.7, 1.0, 1.9]:
            spec = make_coefficient("power", {"alpha": alpha})
            assert degeneracy_mu_a(spec) == alpha

    def test_mu_a_power_times_factor_against_dense_oracle(self):
        # a = x^0.5 (1+x): ratio alpha + x/(1+x), sup attained at x = 1
        spec = make_coefficient(
            "power_times_factor", {"alpha": 0.5, "factor": "one_plus_x"}
        )
        xs = np.linspace(1e-9, 1.0, 400_001)
        oracle = np.max(0.5 + xs / (1.0 + xs))
        assert abs(spec.mu_a - 1.0) < 1e-12
        assert abs(spec.mu_a - oracle) < 1e-6

    def test_mu_a_decreasing_factor_oracle(self):
        # a = x^alpha (2-x): ratio |alpha - x/(2-x)|, whose sup for
        # alpha >= 1/2 is its x -> 0 limit alpha, which no sample reaches;
        # alpha = 1 is the strong regime, natural condition at x = 0
        xs = np.geomspace(1e-9, 1.0, 400_001)
        for alpha in [1.0, 1.2, 1.5]:
            spec = make_coefficient(
                "power_times_factor", {"alpha": alpha, "factor": "two_minus_x"}
            )
            oracle = np.max(np.abs(alpha - xs / (2.0 - xs)))
            assert abs(spec.mu_a - oracle) < 1e-6
            assert spec.mu_a == alpha
            assert spec.strong
            ops = assemble_operators(spec, build_mesh(8, 1.0))
            assert ops.first_active == 0

    @pytest.mark.parametrize("factor", ["exp", "two_minus_x"])
    def test_alpha_zero_strong_factor_rejected(self, factor):
        # at alpha = 0, x g'/g reaches 1 at x = 1 for both factors: mu_a = 1
        # would put the natural condition at x = 0, where a(0) = g(0) > 0
        with pytest.raises(DegeneracyOutOfRange,
                           match="^alpha = 0 gives a\\(0\\) > 0, but mu_a = "):
            make_coefficient("power_times_factor",
                             {"alpha": 0.0, "factor": factor})

    @pytest.mark.parametrize("kind, params", [
        ("power", {"alpha": 0.0}),
        ("power_times_factor", {"alpha": 0.0, "factor": "one_plus_x"}),
    ])
    def test_alpha_zero_weak_coefficient_builds(self, kind, params):
        # the non-degenerate oracles stay in the weak regime, Dirichlet at 0
        spec = make_coefficient(kind, params)
        assert spec.mu_a < 1.0 and not spec.strong
        ops = assemble_operators(spec, build_mesh(8, 1.0))
        assert ops.first_active == 1

    def test_factor_and_kind_checked(self):
        # a factor only on power_times_factor, and only one from FACTORS
        for kind, params in [
            ("power", {"alpha": 0.5, "factor": "exp"}),
            ("power_times_factor", {"alpha": 0.5, "factor": "bogus"}),
            ("power_times_factor", {"alpha": 0.5}),
            ("tabulated", {"alpha": 0.5}),
        ]:
            with pytest.raises(ValueError):
                make_coefficient(kind, params)


class TestDelay:
    def test_constant(self):
        d = make_delay("constant", {"tau": 1.0})
        assert d.tau0 == d.tau1 == 1.0
        assert d.d == 0.0
        assert float(d.tau_prime(3.0)) == 0.0

    def test_saturating_derivative_bound(self):
        d = make_delay("saturating_exponential",
                       {"tau0": 0.5, "tau1": 1.0, "k": 0.4})
        assert abs(d.d - 0.2) < 1e-15
        # sup tau' attained at t = 0 and monotone decreasing
        ts = np.linspace(0.0, 30.0, 20_001)
        taup = np.asarray(d.tau_prime(ts))
        assert abs(np.max(taup) - d.d) < 1e-12
        assert np.all(np.diff(taup) <= 1e-15)

    def test_saturating_rejects_fast_rise(self):
        with pytest.raises(DelayHypothesisViolated):
            make_delay("saturating_exponential",
                       {"tau0": 0.5, "tau1": 1.0, "k": 3.0})

    @pytest.mark.parametrize("kind,params,name", [
        ("constant", {"tau": math.nan}, "tau"),
        ("saturating_exponential", {"tau0": 0.5, "tau1": 1.0, "k": math.nan}, "k"),
        ("saturating_exponential", {"tau0": 0.5, "tau1": math.inf, "k": 0.0},
         "tau1"),
        ("piecewise_smooth", {"tau0": 0.5, "tau1": 0.9, "rise_start": 1.0,
                              "rise_end": math.nan}, "rise_end"),
    ])
    def test_non_finite_parameter_rejected(self, kind, params, name):
        with pytest.raises(DelayHypothesisViolated,
                           match=f"^{name} must be a finite number"):
            make_delay(kind, params)

    def test_scalar_and_array_times_agree_bit_for_bit(self):
        # one kernel: a scalar t gets the bits of the same t inside an
        # array, which the stepper's step() and run() rely on
        ts = np.random.default_rng(5).uniform(0.0, 6.0, 10_000)
        for d in (make_delay("constant", {"tau": 0.7}),
                  make_delay("saturating_exponential",
                             {"tau0": 0.5, "tau1": 1.0, "k": 0.4}),
                  make_delay("piecewise_smooth",
                             {"tau0": 0.5, "tau1": 0.9, "rise_start": 1.0,
                              "rise_end": 3.0})):
            for f in (d.tau, d.tau_prime):
                scalar = np.array([f(t) for t in ts.tolist()])
                assert np.array_equal(scalar, f(ts)), (d.kind, f.__name__)

    def test_piecewise_smooth_bound(self):
        d = make_delay("piecewise_smooth",
                       {"tau0": 0.5, "tau1": 0.9, "rise_start": 1.0,
                        "rise_end": 3.0})
        assert abs(d.d - 1.5 * 0.4 / 2.0) < 1e-15
        validate_delay(d, horizon=20.0)

    @pytest.mark.parametrize("kind, params", [
        ("saturating_exponential", {"tau0": 0.5, "tau1": 0.5, "k": 1e200}),
        ("piecewise_smooth", {"tau0": 0.5, "tau1": 1.0, "rise_start": 0.0,
                              "rise_end": 1e200}),
    ], ids=["rate", "rise"])
    def test_tau_second_of_a_huge_rate_or_rise_is_finite(self, kind, params):
        # k**2 and (t1 - t0)**2 overflowed as Python floats
        d = make_delay(kind, params)
        validate_delay(d, horizon=20.0)
        assert np.array_equal(d.tau_second(np.linspace(0.0, 20.0, 5)),
                              np.zeros(5))

    def test_tau_second_is_the_derivative_of_tau_prime(self):
        ts = np.array([0.0, 0.7, 1.3, 2.0, 2.9, 6.0])
        for d in (make_delay("saturating_exponential",
                             {"tau0": 0.5, "tau1": 1.0, "k": 0.4}),
                  make_delay("piecewise_smooth",
                             {"tau0": 0.5, "tau1": 0.9, "rise_start": 1.0,
                              "rise_end": 3.0})):
            h = 1e-6
            fd = (d.tau_prime(ts + h) - d.tau_prime(ts - h)) / (2.0 * h)
            assert np.allclose(d.tau_second(ts), fd, rtol=0.0, atol=1e-8)

    def test_envelope_sampled_within_tolerance(self):
        # every validated family obeys the envelope at 1e4 sampled times
        for d in (
            make_delay("constant", {"tau": 0.7}),
            make_delay("saturating_exponential",
                       {"tau0": 0.5, "tau1": 1.0, "k": 0.4}),
            make_delay("piecewise_smooth",
                       {"tau0": 0.4, "tau1": 0.8, "rise_start": 0.5,
                        "rise_end": 2.0}),
        ):
            validate_delay(d, horizon=20.0)


class TestMargins:
    def test_example_values(self):
        m = feedback_margins(GainSet(2.0, 0.2, 1.0),
                             make_delay("constant", {"tau": 1.0}))
        assert abs(m.gain_margin - 1.8) < 1e-15
        assert abs(m.damping_const - 0.8) < 1e-15

    def test_mu2_zero_identity(self):
        for mu1 in [0.3, 1.0, 2.5]:
            for d in [0.0, 0.2, 0.5, 0.9]:
                delay = make_delay("saturating_exponential",
                                   {"tau0": 0.5, "tau1": 1.5, "k": d}) \
                    if d > 0 else make_delay("constant", {"tau": 1.0})
                m = feedback_margins(GainSet(mu1, 0.0, 1.0), delay)
                assert abs(m.damping_const - mu1 * (1 - delay.d) / 2) < 1e-14

    def test_mu2_zero_half_d(self):
        delay = make_delay("saturating_exponential",
                           {"tau0": 1.0, "tau1": 1.5, "k": 1.0})
        assert abs(delay.d - 0.5) < 1e-15
        m = feedback_margins(GainSet(1.0, 0.0, 1.0), delay)
        assert abs(m.gain_margin - 1.0) < 1e-15
        assert abs(m.damping_const - 0.25) < 1e-15

    def test_not_wellposed(self):
        m = feedback_margins(GainSet(1.0, 1.5, 1.0),
                             make_delay("constant", {"tau": 1.0}))
        assert abs(m.gain_margin + 0.5) < 1e-15
        assert not m.wellposed

    def test_strict_damping_characterization(self):
        # damping_const > 0 iff mu1 > 2 |mu2| / sqrt(1 - d)
        rng = np.random.default_rng(3)
        delay_for = {}
        for _ in range(300):
            mu1 = float(rng.uniform(0.1, 3.0))
            mu2 = float(rng.uniform(-3.0, 3.0))
            d = float(rng.choice([0.0, 0.2, 0.5, 0.8]))
            if d not in delay_for:
                delay_for[d] = (
                    make_delay("constant", {"tau": 1.0}) if d == 0.0 else
                    make_delay("saturating_exponential",
                               {"tau0": 1.0, "tau1": 1.0 + d / 0.5, "k": 0.5})
                )
            delay = delay_for[d]
            assert abs(delay.d - d) < 1e-12
            m = feedback_margins(GainSet(mu1, mu2, 1.0), delay)
            expect = mu1 > 2.0 * abs(mu2) / math.sqrt(1.0 - d)
            if abs(mu1 - 2.0 * abs(mu2) / math.sqrt(1.0 - d)) > 1e-12:
                assert m.strictly_damped == expect


class TestGainSet:
    @pytest.mark.parametrize("field", ["mu1", "mu2", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gain_rejected(self, field, value):
        gains = {"mu1": 2.0, "mu2": 0.2, "beta": 1.0, field: value}
        with pytest.raises(HypothesisError, match=f"^{field} must be a finite"):
            GainSet(**gains)


class TestStructuralConstants:
    def test_weak_example(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        c = structural_constants(spec, beta=1.0)
        assert abs(c.poincare_const - 4.0 / 3.0) < 1e-15
        assert abs(c.coercivity_const - 0.5) < 1e-15
        assert c.trace_const == 2.0

    def test_strong_example(self):
        spec = make_coefficient("power", {"alpha": 1.5})
        c = structural_constants(spec, beta=1.0)
        assert abs(c.poincare_const - 4.0) < 1e-15
        assert abs(c.coercivity_const - 0.25) < 1e-15

    def test_constant_coefficient_example(self):
        spec = make_coefficient("power", {"alpha": 0.0})
        c = structural_constants(spec, beta=2.0)
        assert abs(c.poincare_const - 1.0) < 1e-15
        assert abs(c.coercivity_const - 1.0) < 1e-15

    def test_poincare_monotone_in_mu_a(self):
        vals = [
            structural_constants(
                make_coefficient("power", {"alpha": a}), beta=1.0
            ).poincare_const
            for a in np.linspace(0.0, 1.95, 40)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_trace_const_at_least_two(self):
        for a1 in [0.2, 1.0, 5.0]:
            spec = make_coefficient("power", {"alpha": 0.5, "scale": a1})
            c = structural_constants(spec, beta=1.0)
            assert c.trace_const >= 2.0
            assert c.trace_const == max(2.0, 1.0 / a1)
