"""The delay line: the stretched-history transport and its reference ring.

The delayed trace u_t(t - tau(t), 1) is carried by the stretched-history
profile w(delta, t) = u_t(t - delta tau(t), 1) on delta in (0, 1), which
solves the one-way transport

    w_t + c(delta) w_delta = 0,   c(delta) = (1 - delta tau'(t)) / tau(t),

with inflow w(0, t) = u_t(t, 1).  This module owns that design decision for
the whole package: the channel nodes (`delta_grid`), their trapezoid weights
(`delta_trap_weights`), the speed (`transport_speed`) and the implicit upwind
step.  A step is one lower-bidiagonal system: `upwind_bands` builds the
bands of a sequence of steps in a few array calls, and `upwind_solve`
solves one step in place by LAPACK dtbtrs (which `_lapack` loads from
scipy's LAPACK extension), for one profile or a Fortran-order stack of
them, a column per profile.  `transport_step` is one checked step on its
own, which `stepper.step` takes; `stepper.run` builds the bands of its
steps in chunks and solves its batch's channel once per step, right after
the wave step.  The generator probes take the transport block of A(t) from
the same grid and speed, and the channel block of (I - A(t))^{-1}
(`operator_checks.Resolvent`) is one step's band with dt = 1, solved once
for a unit inflow and once for a stack of loads.

A raw history ring with linear interpolation on the uniform step grid
t_k = k dt (`HistoryBuffer`) feeds the wave step its delayed trace and
serves as the independent reference realization; agreement of the two is a
recorded diagnostic.  The ring takes its samples a block at a time
(`HistoryBuffer.extend`); a single step extends it by one.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache

import numpy as np

from ._lapack import dtbtrs
from .errors import OutOfSpan, SolveFailure

# every stacked array of a block (a block of probe trials, of recorded
# instants, of channel bands) holds about this many doubles (64 KB), which
# bounds the working set of the blocked loops
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


def transport_speed(delta, tau: float, tau_prime: float):
    """Transport speed c(delta) = (1 - delta tau') / tau of the channel."""
    c = np.multiply(delta, -tau_prime)
    c += 1.0
    c /= tau
    return c


def init_channel(f0, tau_at_0: float, n_delta: int) -> np.ndarray:
    """Sample the prescribed history: w[i] = f0(-delta_i * tau(0))."""
    if n_delta < 2:
        raise ValueError("need at least 2 channel cells")
    return np.array([float(f0(-d * tau_at_0)) for d in delta_grid(n_delta)])


def upwind_bands(taus, tau_primes, dt: float, m: int, out=None) -> np.ndarray:
    """The (L, m + 1, 2) bands of L implicit upwind steps with m cells, one
    per entry of the length-L taus and tau_primes (into `out` if given).

    Entry n holds the diagonal 1, 1 + lam^n_1, ..., 1 + lam^n_m in column 0
    and the subdiagonal -lam^n_1, ..., -lam^n_m in column 1 (its last entry
    is padding), so its transpose is step n's band in LAPACK's lower band
    storage, in Fortran order.  Entries are computed elementwise: a step
    has the same bits in a stack of steps as alone."""
    taus, tau_primes = (np.asarray(a, dtype=float)[:, None]
                        for a in (taus, tau_primes))
    if out is None:
        out = np.empty((len(taus), m + 1, 2))
    # lam in a contiguous scratch: two strided writes cost less than
    # computing it where the band holds it
    lam = transport_speed(delta_grid(m)[1:], taus, tau_primes)
    lam *= dt * m
    np.add(lam, 1.0, out=out[:, 1:, 0])
    np.negative(lam, out=out[:, :-1, 1])
    out[:, 0, 0] = 1.0
    out[:, -1, 1] = 0.0
    return out


def upwind_solve(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve one implicit upwind step where it lies: band is the transpose
    of an `upwind_bands` entry, and b an (m + 1,) profile or a
    Fortran-order (m + 1, B) stack of them, with the inflows in row 0 and
    the profiles before the step below.  Returns b, now the profiles after
    the step (a b of another layout is solved in a returned copy), each
    column solved on its own."""
    # uplo, trans, diag, overwrite_b by position: keywords cost f2py about
    # 0.3 us a call, and this call is made once per step
    x, info = dtbtrs(band, b, "L", "N", "N", 1)
    if info != 0:
        raise SolveFailure(f"channel solve failed (tbtrs info {info})")
    return x


def transport_step(w, tau: float, tau_prime: float, dt: float,
                   inflow) -> np.ndarray:
    """One implicit upwind step of the stretched-history transport.

    Information flows from delta = 0 (the current trace) toward delta = 1
    (the fully delayed trace).  The step reads

        w'_i = (w_i + lam_i w'_{i-1}) / (1 + lam_i),
        lam_i = dt c(delta_i) / ddelta,      i >= 1,
        w'_0 = inflow,

    with c from tau and tau' (the delay and its rate at the step's
    midpoint): a lower-bidiagonal system, solved by forward substitution
    (`upwind_bands`, `upwind_solve`).  Each new value is a convex
    combination of old values and the inflow, so the update obeys a
    discrete maximum principle.  With dt = 1 and w the load h, the result
    solves w + c w_delta = h, w(0) = inflow (the channel block of the
    resolvent).

    w is an (m + 1,) profile with a scalar inflow or an (m + 1, B) stack
    with B inflows, a column per profile; tau, tau_prime and dt > 0 are
    scalars (any other input is a ValueError).  Returns the profiles after
    the step; w is not modified.
    """
    w = np.asarray(w, dtype=float)
    if (np.ndim(tau) or np.ndim(tau_prime) or np.ndim(dt)
            or w.ndim not in (1, 2) or len(w) < 2
            or np.shape(inflow) != w.shape[1:]):
        raise ValueError("one step needs one profile of at least 2 nodes "
                         "or a stack of them, scalar tau and tau', and one "
                         "inflow per profile")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    out = np.array(w, order="F")
    out[0] = inflow
    band = upwind_bands([tau], [tau_prime], dt, len(w) - 1)[0].T
    return upwind_solve(band, out)


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

    def row(self, b: int) -> HistoryBuffer:
        """Row b of a batch's ring as a ring of its own, a copy."""
        ring = copy.copy(self)
        ring._v = self._v[:, b].copy()
        return ring

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
