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
from degenwave.delay_channel import (
    delta_trap_weights,
    upwind_bands,
    upwind_solve,
)
from degenwave.errors import OutOfSpan, SolveFailure


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
            w = transport_step(w, 1.0, 0.0, 1e-2, 3.5)
        assert np.max(np.abs(w - 3.5)) < 1e-13

    def test_inflow_pinned(self):
        w = init_channel(lambda s: 0.0, 1.0, 8)
        w = transport_step(w, 1.0, 0.0, 1e-3, 7.25)
        assert w[0] == 7.25

    def test_maximum_principle(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(-2.0, 2.0, 33)
        for k in range(100):
            inflow = float(rng.uniform(-2.0, 2.0))
            lo = min(w.min(), inflow)
            hi = max(w.max(), inflow)
            w = transport_step(w, 0.8, 0.1, 1e-2, inflow)
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
            w = transport_step(w, tau, 0.0, dt, 0.3 * t)
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
                                   inflow(t + dt))
                t += dt
                for tp in probes:
                    if tp not in out and t >= tp:
                        out[tp] = w[-1]
            errs.append(max(abs(out[tp] - targets[tp]) for tp in probes))
        assert errs[0] < 0.05
        assert errs[0] / errs[1] > 1.5  # first-order refinement


class TestStepKernel:
    @pytest.mark.parametrize("m", [16, 512])
    def test_chunk_of_steps_equals_step_calls(self, m):
        # the run's path, the bands of a chunk of steps from one
        # upwind_bands call and one in-place solve per step on the
        # transposed (B, m + 1) rows, against one transport_step call per
        # step and row, with varying tau, tau' and inflow: bit for bit
        rng = np.random.default_rng(m)
        steps, rows = 7, 3
        w = rng.standard_normal((rows, m + 1))
        taus = rng.uniform(0.5, 1.0, steps)
        tau_primes = rng.uniform(0.0, 0.4, steps)
        inflow = rng.standard_normal((steps, rows))
        bands = upwind_bands(taus, tau_primes, 1e-3, m)
        assert bands.shape == (steps, m + 1, 2)
        ones = [row.copy() for row in w]
        wt = w.T
        for n in range(steps):
            w[:, 0] = inflow[n]
            assert upwind_solve(bands[n].T, wt) is wt
            for b in range(rows):
                ones[b] = transport_step(ones[b], float(taus[n]),
                                         float(tau_primes[n]), 1e-3,
                                         float(inflow[n, b]))
                assert np.array_equal(w[b], ones[b])
            assert np.array_equal(w[:, 0], inflow[n])

    def test_bands_of_a_stack_equal_bands_alone(self):
        # every step of a stack of bands has the bits of its band alone,
        # laid out as LAPACK's lower band storage: the diagonal 1, 1 + lam
        # and the subdiagonal -lam
        rng = np.random.default_rng(7)
        m, dt = 24, 1e-2
        taus = rng.uniform(0.5, 1.0, 5)
        tau_primes = rng.uniform(0.0, 0.4, 5)
        bands = upwind_bands(taus, tau_primes, dt, m)
        for n in range(5):
            (alone,) = upwind_bands([taus[n]], [tau_primes[n]], dt, m)
            assert np.array_equal(bands[n], alone)
            lam = transport_speed(delta_grid(m)[1:], taus[n],
                                  tau_primes[n]) * (dt * m)
            assert np.array_equal(alone.T[0], np.concatenate([[1.0],
                                                              1.0 + lam]))
            assert np.array_equal(alone.T[1, :-1], -lam)

    def test_stacked_profiles_equal_column_solves(self):
        # an (m + 1, B) stack with B inflows, one of them NaN: every other
        # column is its own solve bit for bit (the bidiagonal has no zero
        # entry through which the NaN could reach another column), and the
        # NaN column is NaN from its inflow on
        rng = np.random.default_rng(5)
        m = 64
        w = rng.standard_normal((m + 1, 3))
        inflow = np.array([0.3, np.nan, -1.2])
        step = transport_step(w, 0.8, 0.2, 1e-3, inflow)
        assert step.shape == (m + 1, 3)
        for b in (0, 2):
            one = transport_step(w[:, b], 0.8, 0.2, 1e-3, inflow[b])
            assert np.array_equal(step[:, b], one)
        assert np.isnan(step[:, 1]).all()

    def test_one_step_is_the_bidiagonal_recurrence(self):
        # one step against the recurrence w'_i = (w_i + lam_i w'_{i-1}) /
        # (1 + lam_i), lam_i = dt (1 - delta_i tau') / (tau ddelta), written
        # out here; the solve rounds lam in another order, so to an ulp or so
        rng = np.random.default_rng(8)
        m, tau, taup, dt, inflow = 32, 0.8, 0.1, 1e-2, 0.5
        w = rng.standard_normal(m + 1)
        step = transport_step(w, tau, taup, dt, inflow)
        assert step.shape == (m + 1,)
        want = [inflow]
        for i in range(1, m + 1):
            lam = dt * (1.0 - (i / m) * taup) / (tau / m)
            want.append((w[i] + lam * want[-1]) / (1.0 + lam))
        ulp = np.finfo(float).eps * np.max(np.abs(want))
        assert step[0] == inflow
        assert np.max(np.abs(step - want)) <= 4.0 * ulp

    @pytest.mark.parametrize("args", [
        (np.zeros(9), [], [], 1e-2, []),
        (np.zeros(9), [1.0], 0.0, 1e-2, 0.0),
        (np.zeros(9), 1.0, [0.0], 1e-2, 0.0),
        (np.zeros(9), 1.0, 0.0, [1e-2], 0.0),
        (np.zeros(9), 1.0, 0.0, 1e-2, [0.0]),
        (np.zeros((9, 2)), 1.0, 0.0, 1e-2, 0.0),
        (np.zeros((9, 2)), 1.0, 0.0, 1e-2, [0.0, 0.0, 0.0]),
        (np.float64(0.0), 1.0, 0.0, 1e-2, 0.0),
        (np.zeros((9, 2, 2)), 1.0, 0.0, 1e-2, np.zeros((2, 2))),
        (np.zeros(1), 1.0, 0.0, 1e-2, 0.0),
        (np.zeros(9), 1.0, 0.0, 0.0, 0.0),
        (np.zeros(9), 1.0, 0.0, -1e-2, 0.0),
        (np.zeros(9), 1.0, 0.0, np.nan, 0.0),
    ], ids=["no-steps", "tau-sequence", "tau-prime-sequence", "dt-sequence",
            "inflow-sequence", "one-inflow-for-a-stack",
            "inflows-off-the-stack", "scalar-profile", "three-axes",
            "one-node", "zero-dt", "negative-dt", "nan-dt"])
    def test_malformed_input_rejected(self, args):
        with pytest.raises(ValueError):
            transport_step(*args)


class TestSharedSolve:
    def test_input_not_modified(self):
        w = np.linspace(1.0, 2.0, 9)
        before = w.copy()
        transport_step(w, 0.8, 0.1, 1e-2, 0.5)
        assert np.array_equal(w, before)

    def test_unit_step_solves_the_resolvent_channel(self):
        # dt = 1 with the load h in place of the old profile solves
        # w + c(delta) w_delta = h by backward differences, w(0) = inflow
        rng = np.random.default_rng(3)
        m, tau, taup = 24, 0.7, 0.3
        h = rng.standard_normal(m + 1)
        w = transport_step(h, tau, taup, 1.0, 0.4)
        c = transport_speed(delta_grid(m)[1:], tau, taup)
        assert w[0] == 0.4
        assert np.max(np.abs(w[1:] + c * np.diff(w) * m - h[1:])) < 1e-12

    def test_stacked_load_equals_column_solves(self):
        # an (m + 1, B) load with a length-B inflow is B solves at once,
        # each column bit for bit its own solve
        rng = np.random.default_rng(12)
        m, tau, taup = 24, 0.7, 0.3
        h = rng.standard_normal((5, m + 1))
        inflow = rng.standard_normal(5)
        w = transport_step(h.T, tau, taup, 1.0, inflow)
        assert w.shape == (m + 1, 5)
        for j in range(5):
            one = transport_step(h[j], tau, taup, 1.0, float(inflow[j]))
            assert np.array_equal(w[:, j], one)
        stack = transport_step(h.T, tau, taup, 1e-2, inflow)
        assert np.array_equal(stack[:, 3],
                              transport_step(h[3], tau, taup, 1e-2, inflow[3]))

    def test_singular_system_raises(self):
        # m = 2, dt = 1, tau' = 3: lam_1 = 2 (1 - 0.5 * 3) = -1, a zero pivot
        with pytest.raises(SolveFailure, match="^channel solve failed"):
            transport_step(np.zeros(3), 1.0, 3.0, 1.0, 0.0)

    def test_delta_grid_read_only(self):
        grid = delta_grid(8)
        assert grid[0] == 0.0 and grid[-1] == 1.0 and grid.size == 9
        with pytest.raises(ValueError):
            grid[1] = 0.5

    def test_trap_weights_shared_and_read_only(self):
        wq = delta_trap_weights(8)
        assert wq is delta_trap_weights(8)
        assert wq.sum() == pytest.approx(1.0, abs=1e-15)
        assert wq[0] == wq[-1] == 0.5 / 8
        with pytest.raises(ValueError):
            wq[1] = 0.0


class TestHistoryBuffer:
    def test_linear_interpolation_exact(self):
        buf = HistoryBuffer(dt=1.0, horizon=10.0, f0=lambda s: 0.0)
        buf.extend([2.0])
        assert buf.sample(0.5) == 1.0

    def test_stored_point_exact(self):
        # dt = 1/4 keeps every grid time exact in binary
        buf = HistoryBuffer(dt=0.25, horizon=10.0, f0=math.sin)
        for k in range(1, 5):
            buf.extend([math.sin(0.25 * k)])
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
            buf.extend([math.sin(k * dt)])
        rng = np.random.default_rng(2)
        worst = max(
            abs(buf.sample(s) - math.sin(s))
            for s in rng.uniform(-5.0, 5.0, 2000)
        )
        assert worst <= 2.5e-7

    def test_out_of_span(self):
        buf = HistoryBuffer(dt=0.5, horizon=1.0, f0=lambda s: 1.0)
        buf.extend([2.0])
        lo, hi = buf.first * buf.dt, buf.last * buf.dt
        assert buf.sample(lo) == 1.0 and buf.sample(hi) == 2.0
        with pytest.raises(OutOfSpan):
            buf.sample(lo - 1e-9)
        with pytest.raises(OutOfSpan):
            buf.sample(hi + 1e-9)

    def test_ring_semantics_keep_horizon(self):
        buf = HistoryBuffer(dt=1e-3, horizon=0.5, f0=lambda s: 0.0)
        for k in range(1, 20_000):
            buf.extend([float(k)])
        assert buf.last == 19_999
        assert (buf.last - buf.first) * buf.dt >= 0.5
        assert buf.sample(buf.last * buf.dt - 0.5) == pytest.approx(19499.0,
                                                                   abs=1e-6)
        with pytest.raises(OutOfSpan):
            buf.sample((buf.first - 1) * buf.dt)


class TestBatchRing:
    def test_columns_are_single_rings(self):
        # a ring of three columns fed one block of traces: every sample, at
        # one time or at an array of times, is each column's own ring's
        dt = 1e-2
        rng = np.random.default_rng(4)
        traces = rng.standard_normal((40, 3))
        batch = HistoryBuffer(dt, horizon=0.5, f0=math.cos, shape=(3,))
        batch.extend(traces)
        singles = []
        for b in range(3):
            one = HistoryBuffer(dt, horizon=0.5, f0=math.cos)
            for x in traces[:, b]:
                one.extend([x])
            singles.append(one)
        assert batch.last == singles[0].last == 40
        assert batch.first == singles[0].first
        times = rng.uniform(batch.first * dt, batch.last * dt, 25)
        got = batch.sample(times)
        assert got.shape == (25, 3)
        for b, one in enumerate(singles):
            assert np.array_equal(got[:, b], [one.sample(s) for s in times])
            assert np.array_equal(batch.sample(0.4)[b], one.sample(0.4))
        assert np.array_equal(batch.sample(batch.last * dt), traces[-1])

    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_extend_equals_appends_across_the_wrap(self, shape):
        # blocks shorter and longer than the ring, across its wrap point,
        # against one-sample extends
        dt = 1e-2
        rng = np.random.default_rng(6)
        block = HistoryBuffer(dt, horizon=0.05, f0=math.sin, shape=shape)
        one = HistoryBuffer(dt, horizon=0.05, f0=math.sin, shape=shape)
        for n in [1, 3, 7, 2, 15, 1, 30, 4]:
            values = rng.standard_normal((n,) + shape)
            block.extend(values)
            for i in range(n):
                one.extend(values[i:i + 1])
            assert (block.first, block.last) == (one.first, one.last)
            times = np.linspace(block.first + 0.5, block.last - 0.5, 17) * dt
            assert np.array_equal(block.sample(times), one.sample(times))

    def test_block_read_out_of_span(self):
        buf = HistoryBuffer(dt=0.5, horizon=1.0, f0=lambda s: 1.0, shape=(2,))
        with pytest.raises(OutOfSpan, match="time 0.25 outside"):
            buf.sample(np.array([-1.0, 0.25, 0.0]))


class TestCrossRealizations:
    def test_constant_trace_agreement(self):
        # constants are exact in both realizations
        c = 1.7
        buf = HistoryBuffer(dt=1e-2, horizon=3.0, f0=lambda s: c)
        w = init_channel(lambda s: c, 1.0, 16)
        for n in range(1, 501):
            w = transport_step(w, 1.0, 0.0, 1e-2, c)
            buf.extend([c])
        assert abs(w[-1] - buf.sample(n * 1e-2 - 1.0)) < 1e-12
