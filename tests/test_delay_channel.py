"""Transport channel, history ring, cross-realization agreement."""

import math

import numpy as np
import pytest

from degenwave import (
    HistoryBuffer,
    delta_grid,
    init_channel,
    make_delay,
    transport_speed,
    transport_step,
)
from degenwave.errors import OutOfSpan


class TestInitChannel:
    def test_zero_history(self):
        w = init_channel(lambda s: 0.0, 1.0, 8)
        assert np.all(w == 0.0)

    def test_linear_history(self):
        w = init_channel(lambda s: s, 1.0, 4)
        assert np.allclose(w, [0.0, -0.25, -0.5, -0.75, -1.0], atol=0)

    def test_cosine_history(self):
        w = init_channel(lambda s: math.cos(s), 0.5, 2)
        assert np.allclose(w, [1.0, math.cos(0.25), math.cos(0.5)], atol=1e-15)


class TestTransportStep:
    def test_constant_profile_exact(self):
        w = init_channel(lambda s: 3.5, 1.0, 16)
        for _ in range(50):
            w = transport_step(w, 1.0, 0.0, 1e-2, inflow=3.5)
        assert np.max(np.abs(w - 3.5)) < 1e-13

    def test_inflow_pinned(self):
        w = init_channel(lambda s: 0.0, 1.0, 8)
        w = transport_step(w, 1.0, 0.0, 1e-3, inflow=7.25)
        assert w[0] == 7.25

    def test_maximum_principle(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(-2.0, 2.0, 33)
        for k in range(100):
            inflow = float(rng.uniform(-2.0, 2.0))
            lo = min(w.min(), inflow)
            hi = max(w.max(), inflow)
            w = transport_step(w, 0.8, 0.1, 1e-2, inflow=inflow)
            assert w.min() >= lo - 1e-12
            assert w.max() <= hi + 1e-12

    def test_linear_ramp_transported_exactly(self):
        # affine-in-(t - delta tau) profiles are exact solutions of the
        # implicit upwind update; the outflow reproduces the lagged ramp
        tau, dt, nd = 1.0, 1e-3, 32
        w = init_channel(lambda s: 0.0, tau, nd)
        t = 0.0
        while t < 2.5:
            t += dt
            w = transport_step(w, tau, 0.0, dt, inflow=0.3 * t)
        assert abs(w[-1] - 0.3 * (t - tau)) < 1e-10

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
            w = init_channel(lambda s: 0.0, float(delay.tau(0.0)), nd)
            t = 0.0
            targets = {}
            for t0 in [1.0, 2.0, 3.0]:
                targets[characteristic_arrival(t0)] = inflow(t0)
            probes = sorted(targets)
            out = {}
            while t < max(probes) + dt:
                tm = t + dt / 2
                w = transport_step(w, float(delay.tau(tm)),
                                    float(delay.tau_prime(tm)), dt,
                                    inflow=inflow(t + dt))
                t += dt
                for tp in probes:
                    if tp not in out and t >= tp:
                        out[tp] = w[-1]
            errs.append(max(abs(out[tp] - targets[tp]) for tp in probes))
        assert errs[0] < 0.05
        assert errs[0] / errs[1] > 1.5  # first-order refinement


class TestSharedSolve:
    def test_input_not_modified(self):
        w = np.linspace(1.0, 2.0, 9)
        before = w.copy()
        transport_step(w, 0.8, 0.1, 1e-2, inflow=0.5)
        assert np.array_equal(w, before)

    def test_unit_step_solves_the_resolvent_channel(self):
        # dt = 1 with the load h in place of the old profile solves
        # w + c(delta) w_delta = h by backward differences, w(0) = inflow
        rng = np.random.default_rng(3)
        m, tau, taup = 24, 0.7, 0.3
        h = rng.standard_normal(m + 1)
        w = transport_step(h, tau, taup, 1.0, inflow=0.4)
        c = transport_speed(delta_grid(m)[1:], tau, taup)
        assert w[0] == 0.4
        assert np.max(np.abs(w[1:] + c * np.diff(w) * m - h[1:])) < 1e-12

    def test_delta_grid_read_only(self):
        grid = delta_grid(8)
        assert grid[0] == 0.0 and grid[-1] == 1.0 and grid.size == 9
        with pytest.raises(ValueError):
            grid[1] = 0.5


class TestHistoryBuffer:
    def test_linear_interpolation_exact(self):
        buf = HistoryBuffer(dt=1.0, horizon=10.0, f0=lambda s: 0.0)
        buf.append(2.0)
        assert buf.sample(0.5) == 1.0

    def test_stored_point_exact(self):
        # dt = 1/4 keeps every grid time exact in binary
        buf = HistoryBuffer(dt=0.25, horizon=10.0, f0=math.sin)
        for k in range(1, 5):
            buf.append(math.sin(0.25 * k))
        for k in range(-8, 5):
            assert buf.sample(0.25 * k) == math.sin(0.25 * k)

    def test_seeded_from_history_on_the_grid(self):
        buf = HistoryBuffer(dt=0.5, horizon=2.0, f0=lambda s: 3.0 * s)
        assert buf.last == 0
        assert buf.sample(-2.0) == -6.0
        assert buf.sample(-0.75) == -2.25

    def test_sine_interp_error_bound(self):
        # linear interpolation error <= max|f''| dt^2 / 8 = 1.25e-7 for sin
        dt = 1e-3
        buf = HistoryBuffer(dt=dt, horizon=10.0, f0=math.sin)
        for k in range(1, 5001):
            buf.append(math.sin(k * dt))
        rng = np.random.default_rng(2)
        worst = max(
            abs(buf.sample(s) - math.sin(s))
            for s in rng.uniform(-5.0, 5.0, 2000)
        )
        assert worst <= 2.5e-7

    def test_out_of_span(self):
        buf = HistoryBuffer(dt=0.5, horizon=1.0, f0=lambda s: 1.0)
        buf.append(2.0)
        lo, hi = buf.first * buf.dt, buf.last * buf.dt
        assert buf.sample(lo) == 1.0 and buf.sample(hi) == 2.0
        with pytest.raises(OutOfSpan):
            buf.sample(lo - 1e-9)
        with pytest.raises(OutOfSpan):
            buf.sample(hi + 1e-9)

    def test_ring_semantics_keep_horizon(self):
        buf = HistoryBuffer(dt=1e-3, horizon=0.5, f0=lambda s: 0.0)
        for k in range(1, 20_000):
            buf.append(float(k))
        assert buf.last == 19_999
        assert (buf.last - buf.first) * buf.dt >= 0.5
        assert buf.sample(buf.last * buf.dt - 0.5) == pytest.approx(19499.0,
                                                                   abs=1e-6)
        with pytest.raises(OutOfSpan):
            buf.sample((buf.first - 1) * buf.dt)


class TestCrossRealizations:
    def test_constant_trace_agreement(self):
        # constants are exact in both realizations
        c = 1.7
        buf = HistoryBuffer(dt=1e-2, horizon=3.0, f0=lambda s: c)
        w = init_channel(lambda s: c, 1.0, 16)
        for n in range(1, 501):
            w = transport_step(w, 1.0, 0.0, 1e-2, inflow=c)
            buf.append(c)
        assert abs(w[-1] - buf.sample(n * 1e-2 - 1.0)) < 1e-12
