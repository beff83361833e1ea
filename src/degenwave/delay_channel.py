"""Two independent realizations of the delayed boundary trace.

The stretched-history profile w(delta, t) = u_t(t - delta tau(t), 1) solves a
one-way transport equation on delta in (0, 1) and is advanced by an implicit
first-order upwind step (unconditionally stable, so the wave step never
constrains it).  A raw history buffer with linear interpolation serves as the
reference realization; agreement of the two is a recorded diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import OutOfSpan


@dataclass(frozen=True)
class TransportChannel:
    """Profile samples w[i] ~ u_t(t - delta_i tau(t), 1) on delta_i = i/N."""

    w: np.ndarray

    @property
    def n_delta(self) -> int:
        return self.w.size - 1

    @property
    def delta(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.w.size)


def init_channel(f0, tau_at_0: float, n_delta: int) -> TransportChannel:
    """Sample the prescribed history: w[i] = f0(-delta_i * tau(0))."""
    if n_delta < 2:
        raise ValueError("need at least 2 channel cells")
    delta = np.linspace(0.0, 1.0, n_delta + 1)
    w = np.asarray([float(f0(-d * tau_at_0)) for d in delta])
    return TransportChannel(w=w)


def transport_step(channel: TransportChannel, tau: float, tau_prime: float,
                   dt: float, inflow: float) -> TransportChannel:
    """One implicit upwind update of the stretched-history transport.

    Information flows from delta = 0 (the current trace) toward delta = 1
    (the fully delayed trace):

        w'_i = (w_i + lam_i w'_{i-1}) / (1 + lam_i),
        lam_i = dt (1 - delta_i tau') / (tau * ddelta),      i >= 1,
        w'_0 = inflow.

    Each new value is a convex combination of old values and the inflow, so
    the update obeys a discrete maximum principle.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    w = channel.w
    m = channel.n_delta
    ddelta = 1.0 / m
    delta = channel.delta[1:]
    lam = dt * (1.0 - delta * tau_prime) / (tau * ddelta)
    # lower-bidiagonal solve: (1 + lam_i) w'_i - lam_i w'_{i-1} = w_i
    ab = np.zeros((2, m))
    ab[0] = 1.0 + lam
    ab[1, :-1] = -lam[1:]
    rhs = w[1:].copy()
    rhs[0] += lam[0] * inflow
    interior = solve_banded((1, 0), ab, rhs)
    out = np.empty_like(w)
    out[0] = inflow
    out[1:] = interior
    return TransportChannel(w=out)


class HistoryBuffer:
    """Time-ordered boundary-trace samples with linear interpolation.

    Retains at least `horizon` of past (ring semantics: the dead head is
    dropped once it dominates the storage).  Strictly increasing times are
    enforced on append.
    """

    def __init__(self, horizon: float):
        self.horizon = float(horizon)
        self._t = np.empty(1024)
        self._v = np.empty(1024)
        self._lo = 0
        self._hi = 0

    @property
    def times(self) -> np.ndarray:
        return self._t[self._lo:self._hi]

    @property
    def values(self) -> np.ndarray:
        return self._v[self._lo:self._hi]

    def append(self, t: float, value: float) -> None:
        if self._hi > self._lo and t <= self._t[self._hi - 1]:
            raise ValueError("history times must increase strictly")
        if self._hi == self._t.size:
            self._compact()
        self._t[self._hi] = t
        self._v[self._hi] = value
        self._hi += 1
        # advance the head, keeping one sample beyond the horizon
        cutoff = t - self.horizon
        while self._lo + 1 < self._hi and self._t[self._lo + 1] < cutoff:
            self._lo += 1

    def _compact(self) -> None:
        n = self._hi - self._lo
        cap = max(1024, 2 * n)
        t = np.empty(cap)
        v = np.empty(cap)
        t[:n] = self._t[self._lo:self._hi]
        v[:n] = self._v[self._lo:self._hi]
        self._t, self._v = t, v
        self._lo, self._hi = 0, n

    def sample(self, s: float) -> float:
        t = self.times
        if t.size == 0 or s < t[0] or s > t[-1]:
            span = (t[0], t[-1]) if t.size else ()
            raise OutOfSpan(f"time {s} outside retained span {span}")
        return float(np.interp(s, t, self.values))

    def seed_history(self, f0, t_lo: float, dt: float) -> None:
        """Fill [t_lo, 0] with samples of the prescribed history f0."""
        n = max(2, int(np.ceil(-t_lo / dt)) + 1)
        for t in np.linspace(t_lo, 0.0, n):
            self.append(float(t), float(f0(t)))

