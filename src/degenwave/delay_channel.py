"""The delay line: the stretched-history transport and its reference ring.

The delayed trace u_t(t - tau(t), 1) is carried by the stretched-history
profile w(delta, t) = u_t(t - delta tau(t), 1) on delta in (0, 1), which
solves the one-way transport

    w_t + c(delta) w_delta = 0,   c(delta) = (1 - delta tau'(t)) / tau(t),

with inflow w(0, t) = u_t(t, 1).  This module owns that design decision for
the whole package: the channel nodes (`delta_grid`), their trapezoid weights
(`delta_trap_weights`), the speed (`transport_speed`) and the implicit upwind
solve (`transport_step`, a forward substitution by LAPACK dtbtrs, which
`_lapack` loads from scipy's LAPACK extension).  One call advances the
channel by K steps at once, the only form of the solve: the K steps are
one lower-banded system of bandwidth K, and K = 1 is the bidiagonal of a
single step.  `stepper.step` takes one step (K = 1), `stepper.run` solves its channel once
per K steps (`channel_block_steps`) for all rows of a batch, with one band
and one right-hand side per row; the generator probes take the transport
block of A(t) from the same grid and speed, and the channel block of
(I - A(t))^{-1} (`operator_checks.Resolvent`) is the one-step solve with
dt = 1 and the load for w, for a stack of loads.

A raw history ring with linear interpolation on the uniform step grid
t_k = k dt (`HistoryBuffer`) feeds the wave step its delayed trace and
serves as the independent reference realization; agreement of the two is a
recorded diagnostic.  The ring takes its samples a block at a time
(`HistoryBuffer.extend`); a single step extends it by one.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._lapack import dtbtrs
from .errors import OutOfSpan, SolveFailure

# every stacked array of a block (a block of probe trials, of recorded
# instants, the band of a K-step channel solve) holds about this many
# doubles (64 KB), which bounds the working set of the blocked loops
BLOCK_DOUBLES = 8192


@lru_cache(maxsize=8)
def delta_grid(m: int) -> np.ndarray:
    """The m + 1 channel nodes delta_i = i/m on [0, 1] (shared, read-only)."""
    grid = np.linspace(0.0, 1.0, m + 1)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=8)
def delta_trap_weights(m: int) -> np.ndarray:
    """Trapezoid weights on delta_grid(m) (shared, read-only)."""
    w = np.full(m + 1, 1.0 / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


def transport_speed(delta, tau: float, tau_prime: float, out=None):
    """Transport speed c(delta) = (1 - delta tau') / tau of the channel,
    written into the array `out` when one is given."""
    c = np.multiply(delta, -tau_prime, out=out)
    c += 1.0
    c /= tau
    return c


def init_channel(f0, tau_at_0: float, n_delta: int) -> np.ndarray:
    """Sample the prescribed history: w[i] = f0(-delta_i * tau(0))."""
    if n_delta < 2:
        raise ValueError("need at least 2 channel cells")
    return np.array([float(f0(-d * tau_at_0)) for d in delta_grid(n_delta)])


def transport_step(w: np.ndarray, tau, tau_prime, dt: float,
                   inflow) -> np.ndarray:
    """K successive implicit upwind steps of the stretched-history
    transport, in one banded solve.

    Information flows from delta = 0 (the current trace) toward delta = 1
    (the fully delayed trace).  Step n reads

        w^n_i = (w^{n-1}_i + lam^n_i w^n_{i-1}) / (1 + lam^n_i),
        lam^n_i = dt c(delta_i) / ddelta,      i >= 1,
        w^n_0 = inflow[n],

    with c from the step's tau and tau' (the delay and its rate at the
    step's midpoint).  Each new value is a convex combination of old values
    and the inflow, so the update obeys a discrete maximum principle.  With
    K = 1, dt = 1 and w the load h, the result solves w + c w_delta = h,
    w(0) = inflow (the channel block of the resolvent).

    tau and tau_prime are length-K sequences, w one profile (m + 1,) or an
    (m + 1, B) stack of them, and inflow of shape (K,) + w.shape[1:].
    Returns the profiles after each step, shape (m + 1, K) + w.shape[1:];
    w is not modified.  The B columns of a stack share the band, and each
    column equals its own solve bit for bit.
    The unknowns w_i^n are numbered delta-major, p = (i - 1) K + n - 1, and
    row (i, n) reads (1 + lam_i^n) w_i^n - lam_i^n w_{i-1}^n - w_i^{n-1} = 0,
    so the band is K wide.  The solve adds the two neighbours of an unknown
    in another order than K one-step solves do; the columns agree with them
    to rounding (an ulp or so of max |w|).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = w.shape[0] - 1
    tau, tau_prime, inflow = (np.asarray(a, dtype=float)
                              for a in (tau, tau_prime, inflow))
    stack = w.shape[1:]
    if (tau.ndim != 1 or w.ndim > 2 or tau_prime.shape != tau.shape
            or inflow.shape != tau.shape + stack):
        raise ValueError("K steps need one profile or a stack of them, "
                         "K values of tau and tau', and K inflows per "
                         "profile")
    k = len(tau)
    # the band, filled in place: 1 + lam on the diagonal (row 0), -1 on the
    # first subdiagonal for step n - 1 of the same node (n >= 2), -lam of
    # the next node on the k-th; lam is written to row 0 first
    ab = np.zeros((k + 1, m * k))
    lam = transport_speed(delta_grid(m)[1:, None], tau, tau_prime,
                          out=ab[0].reshape(m, k))
    lam *= dt * m
    ab[1].reshape(m, k)[:, :-1] = -1.0
    np.negative(lam[1:], out=ab[k, :-k].reshape(lam[1:].shape))
    out = np.zeros((m + 1, k) + stack)
    out[:, 0] = w
    out[0] = inflow
    # one lam per step, against the step axis of the inflow
    out[1] += lam[0].reshape((k,) + (1,) * len(stack)) * inflow
    lam += 1.0
    b = out[1:]
    x, info = dtbtrs(ab, b.reshape((m * k,) + stack), uplo="L")
    if info != 0:
        raise SolveFailure(f"channel solve failed (tbtrs info {info})")
    b[...] = x.reshape(b.shape)
    return out


def channel_block_steps(m: int) -> int:
    """The K of a run's channel solves with m cells: the largest K whose
    band, (K + 1) rows of m K, fits in BLOCK_DOUBLES (at least 1)."""
    k = 1
    while (k + 2) * m * (k + 1) <= BLOCK_DOUBLES:
        k += 1
    return k


class HistoryBuffer:
    """Boundary-trace samples on the uniform grid t_k = k dt, in a ring.

    The ring holds the newest ceil(horizon/dt) + 2 samples.  It starts full
    with the prescribed history f0(t_k) for t_k <= 0 (newest index 0);
    `extend` adds the samples at the next grid times, and `last` is the
    index of the newest sample, so t = last * dt.
    A sample is one trace, or with shape = (B,) the traces of the B rows
    of a lockstep batch.  `sample` interpolates linearly between the two
    neighbouring grid values, at one time or at an array of times in one
    call (result shape: the times' shape plus `shape`).
    """

    def __init__(self, dt: float, horizon: float, f0, shape: tuple = ()):
        if dt <= 0.0 or horizon < 0.0:
            raise ValueError("need dt > 0 and horizon >= 0")
        self.dt = float(dt)
        size = math.ceil(horizon / dt) + 2
        self.first = 1 - size
        self.last = 0
        # the sample at t_k lives in row k % size
        self._v = np.empty((size,) + tuple(shape))
        for k in range(self.first, 1):
            self._v[k % size] = float(f0(k * self.dt))

    def extend(self, values) -> None:
        """Record the traces at the next len(values) grid times, dropping as
        many of the oldest samples."""
        n, size = len(values), len(self._v)
        kept = values[max(0, n - size):]
        start = (self.last + 1 + n - len(kept)) % size
        head = min(len(kept), size - start)
        self._v[start:start + head] = kept[:head]
        self._v[:len(kept) - head] = kept[head:]
        self.last += n
        self.first += n

    def sample(self, s):
        """Linear interpolation of the retained samples at the time(s) s."""
        x = np.divide(s, self.dt)
        k = np.floor(x)
        hi = x.max(initial=-math.inf)
        if not (k.min(initial=math.inf) >= self.first and hi <= self.last):
            inside = (k >= self.first) & (x <= self.last)
            bad = np.asarray(s, dtype=float)[~inside].flat[0]
            raise OutOfSpan(f"time {bad} outside retained span "
                            f"[{self.first * self.dt}, {self.last * self.dt}]")
        v, size = self._v, len(self._v)
        i = k.astype(np.intp) % size
        y0 = v.take(i, axis=0)
        # y0 + (x - k) (y1 - y0), in place
        out = v.take((i + 1) % size, axis=0)
        out -= y0
        out *= (x - k).reshape(np.shape(x) + (1,) * (v.ndim - 1))
        out += y0
        if hi == self.last:
            # the newest sample has no right neighbour yet: it is its own value
            newest = (k == self.last).reshape(np.shape(x) + (1,) * (v.ndim - 1))
            out = np.where(newest, y0, out)
        return out[()]
