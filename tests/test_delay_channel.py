"""Transport channel, history buffer, cross-realization agreement."""

import math

import numpy as np
import pytest

from degenwave import (
    HistoryBuffer,
    init_channel,
    make_delay,
    transport_step,
)
from degenwave.errors import OutOfSpan


class TestInitChannel:
    def test_zero_history(self):
        ch = init_channel(lambda s: 0.0, 1.0, 8)
        assert np.all(ch.w == 0.0)

    def test_linear_history(self):
        ch = init_channel(lambda s: s, 1.0, 4)
        assert np.allclose(ch.w, [0.0, -0.25, -0.5, -0.75, -1.0], atol=0)

    def test_cosine_history(self):
        ch = init_channel(lambda s: math.cos(s), 0.5, 2)
        assert np.allclose(ch.w, [1.0, math.cos(0.25), math.cos(0.5)], atol=1e-15)


class TestTransportStep:
    def test_constant_profile_exact(self):
        ch = init_channel(lambda s: 3.5, 1.0, 16)
        for _ in range(50):
            ch = transport_step(ch, 1.0, 0.0, 1e-2, inflow=3.5)
        assert np.max(np.abs(ch.w - 3.5)) < 1e-13

    def test_inflow_pinned(self):
        ch = init_channel(lambda s: 0.0, 1.0, 8)
        ch = transport_step(ch, 1.0, 0.0, 1e-3, inflow=7.25)
        assert ch.w[0] == 7.25

    def test_maximum_principle(self):
        rng = np.random.default_rng(5)
        ch = init_channel(lambda s: 0.0, 0.8, 32)
        ch.w[:] = rng.uniform(-2.0, 2.0, 33)
        for k in range(100):
            inflow = float(rng.uniform(-2.0, 2.0))
            lo = min(ch.w.min(), inflow)
            hi = max(ch.w.max(), inflow)
            ch = transport_step(ch, 0.8, 0.1, 1e-2, inflow=inflow)
            assert ch.w.min() >= lo - 1e-12
            assert ch.w.max() <= hi + 1e-12

    def test_linear_ramp_transported_exactly(self):
        # affine-in-(t - delta tau) profiles are exact solutions of the
        # implicit upwind update; the outflow reproduces the lagged ramp
        tau, dt, nd = 1.0, 1e-3, 32
        ch = init_channel(lambda s: 0.0, tau, nd)
        t = 0.0
        while t < 2.5:
            t += dt
            ch = transport_step(ch, tau, 0.0, dt, inflow=0.3 * t)
        assert abs(ch.w[-1] - 0.3 * (t - tau)) < 1e-10

    def test_variable_delay_against_characteristic_oracle(self):
        # RK4 trace of the feed-in characteristic: from (delta=0, t0) integrate
        # d delta/dt = (1 - delta tau'(t))/tau(t) until delta = 1 at time t1;
        # then w(1, t1) equals the inflow at t0
        delay = make_delay("saturating_exponential",
                           {"tau0": 0.5, "tau1": 1.0, "k": 0.4})
        inflow = lambda t: math.sin(0.8 * t)

        def characteristic_arrival(t0, h=1e-4):
            t, d = t0, 0.0
            f = lambda tt, dd: (1.0 - dd * float(delay.tau_prime(tt))) / \
                float(delay.tau(tt))
            while d < 1.0:
                k1 = f(t, d)
                k2 = f(t + h / 2, d + h * k1 / 2)
                k3 = f(t + h / 2, d + h * k2 / 2)
                k4 = f(t + h, d + h * k3)
                d += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            return t

        errs = []
        for nd, dt in [(32, 2e-3), (64, 1e-3)]:
            ch = init_channel(lambda s: 0.0, float(delay.tau(0.0)), nd)
            t = 0.0
            targets = {}
            for t0 in [1.0, 2.0, 3.0]:
                targets[characteristic_arrival(t0)] = inflow(t0)
            probes = sorted(targets)
            out = {}
            while t < max(probes) + dt:
                tm = t + dt / 2
                ch = transport_step(ch, float(delay.tau(tm)),
                                    float(delay.tau_prime(tm)), dt,
                                    inflow=inflow(t + dt))
                t += dt
                for tp in probes:
                    if tp not in out and t >= tp:
                        out[tp] = ch.w[-1]
            errs.append(max(abs(out[tp] - targets[tp]) for tp in probes))
        assert errs[0] < 0.05
        assert errs[0] / errs[1] > 1.5  # first-order refinement


class TestHistoryBuffer:
    def test_linear_interpolation_exact(self):
        buf = HistoryBuffer(horizon=10.0)
        buf.append(0.0, 0.0)
        buf.append(1.0, 2.0)
        assert buf.sample(0.5) == 1.0

    def test_stored_point_exact(self):
        buf = HistoryBuffer(horizon=10.0)
        for t in [0.0, 0.3, 0.7, 1.1]:
            buf.append(t, math.sin(10 * t))
        assert buf.sample(0.7) == math.sin(7.0)

    def test_sine_interp_error_bound(self):
        # linear interpolation error <= max|f''| dt^2 / 8 = 1.25e-7 for sin
        buf = HistoryBuffer(horizon=10.0)
        dt = 1e-3
        for k in range(5001):
            buf.append(k * dt, math.sin(k * dt))
        rng = np.random.default_rng(2)
        worst = max(
            abs(buf.sample(s) - math.sin(s))
            for s in rng.uniform(0.0, 5.0, 2000)
        )
        assert worst <= 2.5e-7

    def test_out_of_span(self):
        buf = HistoryBuffer(horizon=1.0)
        buf.append(0.0, 1.0)
        buf.append(0.5, 2.0)
        with pytest.raises(OutOfSpan):
            buf.sample(-1.0)
        with pytest.raises(OutOfSpan):
            buf.sample(0.75001 + 1.0)

    def test_ring_semantics_keep_horizon(self):
        buf = HistoryBuffer(horizon=0.5)
        dt = 1e-3
        for k in range(20_000):
            buf.append(k * dt, float(k))
        t = buf.times
        assert t[-1] - t[0] >= 0.5
        assert t[0] <= t[-1] - 0.5 <= t[1] + 0.5  # head trimmed, span covered
        assert buf.sample(t[-1] - 0.5) == pytest.approx(19499.0, abs=1.0)

    def test_strictly_increasing_enforced(self):
        buf = HistoryBuffer(horizon=1.0)
        buf.append(0.0, 0.0)
        with pytest.raises(ValueError):
            buf.append(0.0, 1.0)


class TestCrossRealizations:
    def test_constant_trace_agreement(self):
        # constants are exact in both realizations
        c = 1.7
        buf = HistoryBuffer(horizon=3.0)
        buf.seed_history(lambda s: c, -2.0, 1e-2)
        ch = init_channel(lambda s: c, 1.0, 16)
        t = 0.0
        for _ in range(500):
            t += 1e-2
            ch = transport_step(ch, 1.0, 0.0, 1e-2, inflow=c)
            buf.append(t, c)
        assert abs(ch.w[-1] - buf.sample(t - 1.0)) < 1e-12
