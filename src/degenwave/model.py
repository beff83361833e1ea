"""Coefficient and delay families, hypothesis validation, structural constants.

The wave speed squared a(x) vanishes at x = 0 and is classified by its
degeneracy index

    mu_a = sup_{0 < x <= 1} x |a'(x)| / a(x),

which must stay below 2.  Weak degeneracy (mu_a < 1) pairs with a Dirichlet
condition at x = 0, strong degeneracy (1 <= mu_a < 2) with a vanishing
weighted flux.  The boundary feedback gains (mu1, mu2, beta) and the delay
envelope (tau0, tau1, d) determine the margins that drive well-posedness and
decay certification.  tau and tau' have one kernel that gives a scalar
time the bits of the same time in an array, as `stepper.run` (per block)
and `stepper.step` (per step) need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegeneracyOutOfRange,
    DelayHypothesisViolated,
    HypothesisError,
    NonPositive,
)

# Smooth factors g(x), positive on [0, 1], available for the
# power_times_factor family, stored as (g, g') pairs.
FACTORS: dict[str, tuple[Callable, Callable]] = {
    "one_plus_x": (lambda x: 1.0 + x, lambda x: np.ones_like(np.asarray(x, float))),
    "two_minus_x": (lambda x: 2.0 - x, lambda x: -np.ones_like(np.asarray(x, float))),
    "exp": (np.exp, np.exp),
}

# points of the geometric sample of (0, 1] on which `degeneracy_mu_a`
# maximizes x a'/a for a coefficient that is not a pure power
MU_A_SAMPLES = 2001


@dataclass(frozen=True)
class CoefficientSpec:
    """Validated degenerate coefficient a(x) = scale x^alpha g(x) on [0, 1].

    Fields
    ------
    kind : "power" (g = 1) or "power_times_factor"
    alpha : power exponent
    scale : multiplicative constant in front of the power law
    factor : id of the smooth factor g(x) in FACTORS, or None for g = 1
    a_of_1 : value a(1) > 0
    mu_a : degeneracy index, exact for pure powers, sampled otherwise
    """

    kind: str
    alpha: float
    scale: float
    factor: Optional[str]
    a_of_1: float
    mu_a: float

    @property
    def strong(self) -> bool:
        """True in the strong-degeneracy regime (natural left boundary)."""
        return self.mu_a >= 1.0

    def a(self, x):
        """Evaluate a(x); vectorized, never needs a(0)^-1."""
        x = np.asarray(x, dtype=float)
        a = self.scale * x**self.alpha
        return a if self.factor is None else a * FACTORS[self.factor][0](x)

    def inv_integral(self, x0, x1):
        """Integral of 1/a over [x0, x1], elementwise (a float for scalar
        endpoints); 0 where x1 <= x0, +inf from x0 = 0 when alpha >= 1.

        Closed form for pure powers, with pow and log by `_libm`, and
        quadrature per interval otherwise.  Used by the flux-exact
        elliptic assembly.
        """
        x0, x1 = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                     np.asarray(x1, dtype=float))
        out = np.zeros(x0.shape)
        live = x1 > x0
        diverges = live & (x0 <= 0.0) & (self.alpha >= 1.0)
        out[diverges] = math.inf
        live &= ~diverges
        a, b = x0[live], x1[live]
        al, s = self.alpha, self.scale
        if self.factor is not None:
            from scipy.integrate import quad

            out[live] = [quad(lambda x: 1.0 / float(self.a(x)), lo, hi,
                              limit=200)[0] for lo, hi in zip(a, b)]
        elif al == 0.0:
            out[live] = (b - a) / s
        elif al == 1.0:
            out[live] = _libm(math.log, b / a) / s
        else:
            p = 1.0 - al
            lo = _libm(math.pow, np.maximum(a, 0.0), repeat(p))
            out[live] = (_libm(math.pow, b, repeat(p)) - lo) / (p * s)
        return out[()]


def _libm(fn, x, *args):
    """fn of each entry of the 1-d array x (and of args) as Python's float
    math takes it: numpy's SIMD pow differs in the last bit on some entries,
    and b^p - a^p of a short cell makes that bit hundreds of ulps."""
    return np.fromiter(map(fn, x.tolist(), *args), float, len(x))


def degeneracy_mu_a(spec: CoefficientSpec) -> float:
    """mu_a = sup x |a'(x)| / a(x) over (0, 1].

    For a = scale x^alpha g(x), x a'/a = alpha + x g'(x)/g(x), which tends
    to alpha as x -> 0; mu_a is the larger of that limit and the largest
    |alpha + x g'/g| on a geometric sample of (0, 1].  Exact for pure power
    laws.
    """
    if spec.factor is None:
        return float(spec.alpha)
    g, gp = FACTORS[spec.factor]
    # geometric sample of (0, 1], clustered at the degeneracy point
    xs = np.geomspace(1e-6, 1.0, MU_A_SAMPLES)
    ratio = np.abs(spec.alpha + xs * gp(xs) / g(xs))
    return float(max(spec.alpha, np.max(ratio)))


def _finite(error: type, **values: float) -> None:
    """Raise `error` naming the first value that is NaN or infinite; every
    range comparison is False for NaN, so this runs before them."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise error(f"{name} must be a finite number, got {x}")


def make_coefficient(kind: str, params: dict) -> CoefficientSpec:
    """Build and validate a = scale x^alpha g(x), a coefficient family member.

    params by kind:
      power: alpha, scale (default 1); g = 1, and no factor may be given
      power_times_factor: alpha, factor (id in FACTORS), scale (default 1)

    Both kinds take the same checks: DegeneracyOutOfRange when alpha is not
    finite or negative, when the degeneracy index reaches 2, or when it
    reaches 1 at alpha = 0 (the strong regime needs a(0) = 0, and alpha = 0
    gives a(0) > 0), and NonPositive when the scale is not finite and
    positive.  An unknown kind, an unknown factor, or a factor given to the
    power kind is a ValueError.
    """
    if kind not in ("power", "power_times_factor"):
        raise ValueError(f"unknown coefficient kind {kind!r}")
    factor = params.get("factor")
    if kind == "power" and factor is not None:
        raise ValueError(f"coefficient.factor {factor!r} is set, but only "
                         f"kind power_times_factor takes a factor")
    if kind == "power_times_factor" and factor not in FACTORS:
        raise ValueError(f"unknown factor id {factor!r}; have {sorted(FACTORS)}")
    alpha = float(params["alpha"])
    scale = float(params.get("scale", 1.0))
    _finite(DegeneracyOutOfRange, alpha=alpha)
    _finite(NonPositive, scale=scale)
    if alpha < 0.0:
        raise DegeneracyOutOfRange("power exponent must be >= 0")
    spec = CoefficientSpec(kind=kind, alpha=alpha, scale=scale, factor=factor,
                           a_of_1=0.0, mu_a=0.0)
    mu = degeneracy_mu_a(spec)
    if mu >= 2.0:
        raise DegeneracyOutOfRange(
            f"degeneracy hypothesis: mu_a = sup x|a'|/a must be < 2, "
            f"got mu_a = {mu} for the {kind} coefficient"
        )
    if alpha == 0.0 and mu >= 1.0:
        raise DegeneracyOutOfRange(
            f"alpha = 0 gives a(0) > 0, but mu_a = {mu} puts the {kind} "
            f"coefficient in the strong regime, which needs a(0) = 0"
        )
    if scale <= 0.0:
        raise NonPositive("coefficient scale must be positive")
    return replace(spec, a_of_1=float(spec.a(1.0)), mu_a=mu)


@dataclass(frozen=True)
class DelaySpec:
    """Nondecreasing delay tau(t) with envelope 0 < tau0 <= tau <= tau1 and
    derivative bound 0 <= tau' <= d < 1."""

    kind: str
    tau0: float
    tau1: float
    d: float
    params: tuple = ()

    def tau(self, t):
        """tau(t), elementwise for an array t.  One formula per kind, free
        of ** (which calls C pow on a scalar but multiplies on an array),
        so a scalar t gets the bits of the same t inside an array."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return self.tau0 + 0.0 * t
        if self.kind == "saturating_exponential":
            k = self.params[0]
            return self.tau1 - (self.tau1 - self.tau0) * np.exp(-k * t)
        t0, t1 = self.params
        s = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        return self.tau0 + (self.tau1 - self.tau0) * (s * s * (3.0 - 2.0 * s))

    def tau_prime(self, t):
        """tau'(t), elementwise like tau(t)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return 0.0 * t
        if self.kind == "saturating_exponential":
            k = self.params[0]
            return k * (self.tau1 - self.tau0) * np.exp(-k * t)
        t0, t1 = self.params
        s = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        return (self.tau1 - self.tau0) * 6 * s * (1 - s) / (t1 - t0)

    def tau_second(self, t):
        """tau''(t), elementwise like tau(t); no parameter is squared, so a
        huge rate or rise window gives a finite value (d = k (tau1 - tau0)
        for the saturating kind)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        if self.kind == "saturating_exponential":
            k = self.params[0]
            return -k * self.d * np.exp(-k * t)
        t0, t1 = self.params
        s = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        inside = (t >= t0) & (t <= t1)
        rate = (self.tau1 - self.tau0) * (6 - 12 * s) / (t1 - t0) / (t1 - t0)
        return np.where(inside, rate, 0.0)


def make_delay(kind: str, params: dict) -> DelaySpec:
    """Build and validate a delay family member.

    params by kind:
      constant: tau
      saturating_exponential: tau0, tau1, k
        (tau(t) = tau1 - (tau1 - tau0) exp(-k t), so d = k (tau1 - tau0))
      piecewise_smooth: tau0, tau1, rise_start, rise_end
        (cubic smoothstep rise, so d = 1.5 (tau1 - tau0) / rise duration)
    """
    if kind == "constant":
        tau = float(params["tau"])
        _finite(DelayHypothesisViolated, tau=tau)
        if tau <= 0.0:
            raise DelayHypothesisViolated("constant delay must be positive")
        return DelaySpec(kind="constant", tau0=tau, tau1=tau, d=0.0)

    if kind == "saturating_exponential":
        tau0 = float(params["tau0"])
        tau1 = float(params["tau1"])
        k = float(params["k"])
        _finite(DelayHypothesisViolated, tau0=tau0, tau1=tau1, k=k)
        if not (0.0 < tau0 <= tau1) or k < 0.0:
            raise DelayHypothesisViolated("need 0 < tau0 <= tau1 and k >= 0")
        d = k * (tau1 - tau0)
        if d >= 1.0:
            raise DelayHypothesisViolated(
                f"delay hypothesis: sup tau' = k (tau1 - tau0) = {d:.6g} >= 1"
            )
        return DelaySpec(kind=kind, tau0=tau0, tau1=tau1, d=d, params=(k,))

    if kind == "piecewise_smooth":
        tau0 = float(params["tau0"])
        tau1 = float(params["tau1"])
        t0 = float(params["rise_start"])
        t1 = float(params["rise_end"])
        _finite(DelayHypothesisViolated, tau0=tau0, tau1=tau1, rise_start=t0,
                rise_end=t1)
        if not (0.0 < tau0 <= tau1) or not (t1 > t0 >= 0.0):
            raise DelayHypothesisViolated("need 0 < tau0 <= tau1 and a rise window")
        d = 1.5 * (tau1 - tau0) / (t1 - t0)
        if d >= 1.0:
            raise DelayHypothesisViolated(
                f"delay hypothesis: sup tau' = {d:.6g} >= 1"
            )
        return DelaySpec(kind=kind, tau0=tau0, tau1=tau1, d=d, params=(t0, t1))

    raise ValueError(f"unknown delay kind {kind!r}")


def validate_delay(spec: DelaySpec, horizon: float) -> None:
    """Sample tau, tau' at 10,000 times on [0, horizon] and enforce the
    envelope within 1e-12."""
    tol = 1e-12
    ts = np.linspace(0.0, max(horizon, spec.tau1), 10_000)
    tau = np.asarray(spec.tau(ts))
    taup = np.asarray(spec.tau_prime(ts))
    if np.any(tau < spec.tau0 - tol) or np.any(tau > spec.tau1 + tol):
        raise DelayHypothesisViolated("sampled tau leaves [tau0, tau1]")
    if np.any(taup < -tol) or np.any(taup > spec.d + tol):
        raise DelayHypothesisViolated("sampled tau' leaves [0, d]")
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(taup))
            and np.all(np.isfinite(spec.tau_second(ts)))):
        raise DelayHypothesisViolated("delay derivatives must stay finite")


@dataclass(frozen=True)
class GainSet:
    """Boundary feedback gains: mu1 >= 0 on the instantaneous velocity trace,
    mu2 on the delayed trace, beta > 0 on the displacement trace.

    mu1 = 0 (with mu2 = 0) is the conservative limit with a purely elastic
    boundary; decay certification requires mu1 > 0.  Every gain must be
    finite (HypothesisError otherwise).
    """

    mu1: float
    mu2: float
    beta: float

    def __post_init__(self):
        _finite(HypothesisError, mu1=self.mu1, mu2=self.mu2, beta=self.beta)
        if self.mu1 < 0.0:
            raise ValueError("mu1 must be nonnegative")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class StructuralConstants:
    """Closed-form constants of the energy framework.

    poincare_const : constant of ||u||_L2^2 <= 2 u(1)^2 + poincare_const * int a u'^2
    coercivity_const : elliptic coercivity min{1/poincare_const, beta a(1)/2}
    trace_const : constant of u(1)^2 <= trace_const * ||u||_{1,a}^2, always >= 2
    gain_margin : mu1 - |mu2| / sqrt(1 - d); >= 0 is the well-posedness gate
    damping_const : coefficient of the boundary-trace dissipation bound; > 0
        certifies strict damping (requires mu1 > 2 |mu2| / sqrt(1 - d))
    """

    poincare_const: Optional[float] = None
    coercivity_const: Optional[float] = None
    trace_const: Optional[float] = None
    gain_margin: Optional[float] = None
    damping_const: Optional[float] = None
    wellposed: Optional[bool] = None
    strictly_damped: Optional[bool] = None


def feedback_margins(gains: GainSet, delay: DelaySpec) -> StructuralConstants:
    """Report the two gain margins of the feedback loop.

    gain_margin = mu1 - |mu2| / sqrt(1 - d) must be >= 0 for well-posedness.
    damping_const = min{mu1/2 - |mu2|/sqrt(1-d),
                        mu1 (1-d)/2 - |mu2| sqrt(1-d)/2}
    is the dissipation coefficient; it is positive iff
    mu1 > 2 |mu2| / sqrt(1 - d), a strictly stronger condition.  Both are
    reported; nothing is assumed.
    """
    root = math.sqrt(1.0 - delay.d)
    margin = gains.mu1 - abs(gains.mu2) / root
    c3 = min(
        0.5 * gains.mu1 - abs(gains.mu2) / root,
        0.5 * gains.mu1 * (1.0 - delay.d) - 0.5 * abs(gains.mu2) * root,
    )
    return StructuralConstants(
        gain_margin=margin,
        damping_const=c3,
        wellposed=margin >= 0.0,
        strictly_damped=c3 > 0.0,
    )


def structural_constants(spec: CoefficientSpec, beta: float) -> StructuralConstants:
    """Evaluate the coefficient-side constants for a given boundary stiffness."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    a1 = spec.a_of_1
    cap = (1.0 / a1) * min(4.0, 2.0 / (2.0 - spec.mu_a))
    alpha_a = min(1.0 / cap, beta * a1 / 2.0)
    return StructuralConstants(
        poincare_const=cap,
        coercivity_const=alpha_a,
        trace_const=max(2.0, 1.0 / a1),
    )


def full_constants(spec: CoefficientSpec, gains: GainSet,
                   delay: DelaySpec) -> StructuralConstants:
    """structural_constants and feedback_margins in one record."""
    fb = feedback_margins(gains, delay)
    return replace(structural_constants(spec, gains.beta),
                   gain_margin=fb.gain_margin, damping_const=fb.damping_const,
                   wellposed=fb.wellposed, strictly_damped=fb.strictly_damped)
