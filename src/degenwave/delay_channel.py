"""The delay line: the stretched-history transport and its reference ring.

The delayed trace u_t(t - tau(t), 1) is carried by the stretched-history
profile w(delta, t) = u_t(t - delta tau(t), 1) on delta in (0, 1), which
solves the one-way transport

    w_t + c(delta) w_delta = 0,   c(delta) = (1 - delta tau'(t)) / tau(t),

with inflow w(0, t) = u_t(t, 1).  This module owns that design decision for
the whole package: the channel nodes (`delta_grid`), their trapezoid weights
(`delta_trap_weights`), the speed (`transport_speed`) and the implicit upwind
solve (`transport_step`).  The stepper advances the channel with it, the
generator probes take the transport block of A(t) from the same grid and
speed, and the channel block of the resolvent (I - A(t))^{-1} is the same
solve with dt = 1 and the old profile replaced by the load.

A raw history ring with linear interpolation on the uniform step grid
t_k = k dt serves as the independent reference realization; agreement of
the two is a recorded diagnostic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .errors import OutOfSpan


@lru_cache(maxsize=8)
def delta_grid(m: int) -> np.ndarray:
    """The m + 1 channel nodes delta_i = i/m on [0, 1] (shared, read-only)."""
    grid = np.linspace(0.0, 1.0, m + 1)
    grid.flags.writeable = False
    return grid


def delta_trap_weights(m: int) -> np.ndarray:
    """Trapezoid weights on delta_grid(m)."""
    w = np.full(m + 1, 1.0 / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def transport_speed(delta, tau: float, tau_prime: float):
    """Transport speed c(delta) = (1 - delta tau') / tau of the channel."""
    return (1.0 - delta * tau_prime) / tau


def init_channel(f0, tau_at_0: float, n_delta: int) -> np.ndarray:
    """Sample the prescribed history: w[i] = f0(-delta_i * tau(0))."""
    if n_delta < 2:
        raise ValueError("need at least 2 channel cells")
    return np.array([float(f0(-d * tau_at_0)) for d in delta_grid(n_delta)])


def transport_step(w: np.ndarray, tau: float, tau_prime: float, dt: float,
                   inflow: float) -> np.ndarray:
    """One implicit upwind update of the stretched-history transport.

    Information flows from delta = 0 (the current trace) toward delta = 1
    (the fully delayed trace):

        w'_i = (w_i + lam_i w'_{i-1}) / (1 + lam_i),
        lam_i = dt c(delta_i) / ddelta,      i >= 1,
        w'_0 = inflow.

    Each new value is a convex combination of old values and the inflow, so
    the update obeys a discrete maximum principle.  With dt = 1 and w the
    load h, the result solves w + c w_delta = h, w(0) = inflow (the channel
    block of the resolvent).  Returns a new array; w is not modified.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = w.size - 1
    lam = (dt * m) * transport_speed(delta_grid(m)[1:], tau, tau_prime)
    # lower-bidiagonal solve: (1 + lam_i) w'_i - lam_i w'_{i-1} = w_i
    ab = np.empty((2, m))
    ab[0] = 1.0 + lam
    ab[1, :-1] = -lam[1:]
    rhs = w[1:].copy()
    rhs[0] += lam[0] * inflow
    out = np.empty_like(w)
    out[0] = inflow
    out[1:] = solve_banded((1, 0), ab, rhs, overwrite_ab=True,
                           overwrite_b=True, check_finite=False)
    return out


class HistoryBuffer:
    """Boundary-trace samples on the uniform grid t_k = k dt, in a ring.

    The ring holds the newest ceil(horizon/dt) + 2 samples.  It starts full
    with the prescribed history f0(t_k) for t_k <= 0 (newest index 0);
    `append` adds the sample at the next grid time, and `last` is the index
    of the newest sample, so t = last * dt.  `sample` interpolates linearly
    between the two neighbouring grid values in O(1).
    """

    def __init__(self, dt: float, horizon: float, f0):
        if dt <= 0.0 or horizon < 0.0:
            raise ValueError("need dt > 0 and horizon >= 0")
        self.dt = float(dt)
        size = math.ceil(horizon / dt) + 2
        self.first = 1 - size
        self.last = 0
        # the sample at t_k lives in slot k % size
        self._v = [0.0] * size
        for k in range(self.first, 1):
            self._v[k % size] = float(f0(k * self.dt))

    def append(self, value: float) -> None:
        """Record the trace at t = (last + 1) dt, dropping the oldest sample."""
        self.last += 1
        self.first += 1
        self._v[self.last % len(self._v)] = float(value)

    def sample(self, s: float) -> float:
        """Linear interpolation of the retained samples at time s."""
        x = s / self.dt
        k = math.floor(x)
        if k < self.first or x > self.last:
            raise OutOfSpan(f"time {s} outside retained span "
                            f"[{self.first * self.dt}, {self.last * self.dt}]")
        v = self._v
        y0 = v[k % len(v)]
        if k == self.last:
            return y0
        return y0 + (x - k) * (v[(k + 1) % len(v)] - y0)
