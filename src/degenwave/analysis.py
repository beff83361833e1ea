"""Energy and Lyapunov functionals, decay-rate machinery, elliptic estimates.

The energy of a state (u, v, w) at time t is

    E = 1/2 [ v^T M v + u^T K u + beta a(1) u(1)^2
              + mu1 a(1) tau(t) * trap_delta(w^2) ],

and the modified functional adds an epsilon-scaled multiplier block plus an
exponentially weighted copy of the delay reservoir,

    E~ = E + eps [ sum_cells 2 x u_x v + (mu_a/2) u^T M v
                   + mu1 a(1) tau(t) * trap_delta(e^{-2 delta tau} w^2) ].

For eps below an explicit threshold the two are equivalent with constants
equiv_lower, equiv_upper that the discrete quadratures satisfy with no slack,
because every step of the equivalence argument (Cauchy-Schwarz in the lumped
inner product, the pointwise bound a(x) >= a(1) x^{mu_a}, e^{-2 delta tau}
<= 1) holds verbatim for the discrete forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .delay_channel import delta_grid, delta_trap_weights
from .errors import InsufficientHorizon, NoStrictDamping
from .mesh import (
    DiscreteOperators,
    Mesh,
    assemble_operators,
    default_bc,
    solve_symmetric_tridiagonal,
)
from .model import CoefficientSpec, DelaySpec, GainSet, StructuralConstants


def energy_parts(u, v, w, tau: float, ops: DiscreteOperators,
                 gains: GainSet) -> dict:
    """The four nonnegative quadratic blocks whose half-sum is the energy.

    tau weights the delay block: tau(t) for the energy and the
    time-dependent norm ||U||_t^2 (the plain sum of the blocks), 1 for the
    reference norm ||U||_H^2.
    """
    wq = delta_trap_weights(w.size - 1)
    return {
        "kinetic": ops.mass_quadform(v),
        "elastic": ops.stiffness_quadform(u),
        "boundary": gains.beta * ops.a1 * float(u[-1]) ** 2,
        "delay": gains.mu1 * ops.a1 * tau * float(wq @ (w * w)),
    }


def energy(state, mesh: Mesh, ops: DiscreteOperators, gains: GainSet,
           delay: DelaySpec) -> float:
    """Total energy of a simulation state (see module docstring)."""
    e, _ = lyapunov_raw(state.u, state.v, state.w, state.t, mesh, ops,
                        gains, delay, None)
    return e


def _multiplier_block(u, v, w, t, mesh, ops, gains, delay, mu_a) -> float:
    """The eps-block of the modified functional (no eps factor applied)."""
    h = mesh.h
    xmid = mesh.midpoints
    slope = np.diff(u) / h
    vmid = 0.5 * (v[:-1] + v[1:])
    cross_x = float(np.dot(h, 2.0 * xmid * slope * vmid))
    cross_uv = 0.5 * mu_a * ops.mass_quadform(u, v)
    tau_t = float(delay.tau(t))
    m = w.size - 1
    expw = gains.mu1 * ops.a1 * tau_t * float(
        delta_trap_weights(m) @ (np.exp(-2.0 * delta_grid(m) * tau_t) * w * w)
    )
    return cross_x + cross_uv + expw


@dataclass(frozen=True)
class LyapunovParams:
    """Epsilon and the constants it generates.

    equiv_lower/equiv_upper sandwich the modified functional between
    multiples of the energy (their sum is exactly 2).  damping_slack is the
    leftover trace-damping budget (only its sign matters; eps is chosen to
    keep it nonnegative).  boundary_const is the coefficient of the squared
    displacement trace in the differential inequality for the modified
    functional.
    """

    epsilon: float
    equiv_lower: float
    equiv_upper: float
    damping_slack: float
    boundary_const: float
    sandwich_coeff: float
    eps_sandwich: float
    eps_damping: float


def lyapunov_raw(u, v, w, t, mesh, ops, gains, delay,
                 params: Optional[LyapunovParams]) -> tuple[float, float]:
    """(E, E~) for raw arrays; used by the recorder and by synthetic tests.
    Without params (or with epsilon 0) E~ is E."""
    p = energy_parts(u, v, w, float(delay.tau(t)), ops, gains)
    e = 0.5 * sum(p.values())
    if params is None or params.epsilon == 0.0:
        return e, e
    block = _multiplier_block(u, v, w, t, mesh, ops, gains, delay, ops.mu_a)
    return e, e + params.epsilon * block


def sandwich_coefficient(mu_a: float, a1: float, beta: float,
                         poincare_const: float) -> float:
    """max{1 + mu_a/4, 1/a(1) + mu_a C_P / 4, mu_a / (2 beta a(1))}."""
    return max(
        1.0 + mu_a / 4.0,
        1.0 / a1 + mu_a * poincare_const / 4.0,
        mu_a / (2.0 * beta * a1),
    )


def choose_epsilon(spec: CoefficientSpec, beta: float, gains: GainSet,
                   delay: DelaySpec,
                   constants: Optional[StructuralConstants] = None) -> LyapunovParams:
    """Largest usable epsilon and the constants it induces.

    eps_sandwich = 1/(4 max{...}) pins equiv_lower at 1/2; eps_damping is the
    largest epsilon that keeps the boundary-trace damping budget nonnegative,

        eps <= C3 a(1) / max{1 + (5/2) a(1) mu1^2 + mu1 a(1),
                             (5/2) a(1) mu2^2}.

    Raises NoStrictDamping when the damping coefficient C3 is not positive.
    """
    from .model import full_constants

    if constants is None:
        constants = full_constants(spec, GainSet(gains.mu1, gains.mu2, beta), delay)
    c3 = constants.damping_const
    if c3 is None or c3 <= 0.0:
        raise NoStrictDamping(
            f"damping coefficient {c3} <= 0; need mu1 > 2 |mu2| / sqrt(1 - d)"
        )
    a1 = spec.a_of_1
    mx = sandwich_coefficient(spec.mu_a, a1, beta, constants.poincare_const)
    eps_sandwich = 1.0 / (4.0 * mx)
    trace_budget = max(
        1.0 + 2.5 * a1 * gains.mu1**2 + gains.mu1 * a1,
        2.5 * a1 * gains.mu2**2,
    )
    eps_damping = c3 * a1 / trace_budget
    eps = min(eps_sandwich, eps_damping)
    c7 = beta * (beta - spec.mu_a + 1.0) + (2.0 * beta - spec.mu_a / 2.0) ** 2
    if c7 <= 0.0:
        raise ValueError(
            "displacement-trace coefficient is not positive for these "
            "(mu_a, beta); outside the certificate's validity"
        )
    return LyapunovParams(
        epsilon=eps,
        equiv_lower=1.0 - 2.0 * eps * mx,
        equiv_upper=1.0 + 2.0 * eps * mx,
        damping_slack=c3 * a1 - eps * trace_budget,
        boundary_const=c7,
        sandwich_coeff=mx,
        eps_sandwich=eps_sandwich,
        eps_damping=eps_damping,
    )


@dataclass(frozen=True)
class AuditResult:
    """Outcome of the trace-dissipation audit along a trajectory."""

    worst_violation: float
    monotonicity_violation: float
    monotonicity_count: int


def dissipation_audit(trajectory, c3: float, a1: float) -> AuditResult:
    """Audit dE/dt <= -c3 a(1) (v(1)^2 + v_delayed(1)^2) along a trajectory.

    dE/dt is measured by centered differences on the recorded grid, so the
    audit is a measurement with an O(dt^2) floor, not an identity.  The worst
    violation is clamped at zero; plain sample-to-sample energy increases are
    reported separately.
    """
    t = np.asarray(trajectory.t, dtype=float)
    e = np.asarray(trajectory.E, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 samples to audit dissipation")
    tv = np.asarray(trajectory.trace_v, dtype=float)
    td = np.asarray(trajectory.trace_v_delayed, dtype=float)
    edot = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    viol = edot + c3 * a1 * (tv[1:-1] ** 2 + td[1:-1] ** 2)
    rises = np.diff(e)
    return AuditResult(
        worst_violation=max(0.0, float(np.max(viol))),
        monotonicity_violation=max(0.0, float(np.max(rises))),
        monotonicity_count=int(np.sum(rises > 0.0)),
    )


def sandwich_audit(trajectory, params: LyapunovParams) -> float:
    """Worst violation of equiv_lower * E <= E~ <= equiv_upper * E, >= 0."""
    e = np.asarray(trajectory.E, dtype=float)
    et = np.asarray(trajectory.E_tilde, dtype=float)
    lower = params.equiv_lower * e - et
    upper = et - params.equiv_upper * e
    worst = max(float(np.max(lower, initial=0.0)), float(np.max(upper, initial=0.0)))
    return max(0.0, worst)


# ---------------------------------------------------------------------------
# auxiliary elliptic problem


@dataclass(frozen=True)
class EllipticResult:
    """Discrete solution of the boundary-sourced degenerate elliptic problem
    and the two a-priori estimates evaluated on it."""

    z: np.ndarray
    energy_norm_sq: float
    energy_bound: float
    l2_norm_sq: float
    l2_bound: float
    bounds_ok: bool
    l2_error_vs_exact: Optional[float]


def elliptic_exact(spec: CoefficientSpec, beta: float, lam: float):
    """Closed-form solution for pure power coefficients a = scale * x^alpha.

    Weak degeneracy (alpha < 1): z(x) = lam x^{1-alpha} / (1 - alpha + beta);
    the scale cancels.  Strong degeneracy: only constants have finite
    weighted energy, so z = lam / beta.
    """
    if spec.kind != "power":
        return None
    al = spec.alpha
    if al >= 1.0:
        return lambda x: np.full_like(np.asarray(x, float), lam / beta)
    return lambda x: lam / (1.0 - al + beta) * np.asarray(x, float) ** (1.0 - al)


def solve_auxiliary_elliptic(spec: CoefficientSpec, beta: float, lam: float,
                             mesh: Mesh) -> EllipticResult:
    """Solve the discrete problem  K z + beta a(1) z(1) e_N = lam a(1) e_N.

    The stiffness uses flux-exact (harmonic average) cell conductances
    k_i = h_i / int_cell 1/a, which reproduce the continuum flux relation
    nodally; where that integral diverges (strong degeneracy, first cell)
    the midpoint value is used instead, and the solution is a constant there
    anyway.  Dirichlet at x = 0 iff mu_a < 1.

    Verifies the two estimates
        |||z|||^2 = z^T K z + beta a(1) z(1)^2 <= (a(1)/beta) lam^2,
        ||z||_L2^2 <= (a(1)/(beta alpha_a)) lam^2.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    from .model import structural_constants

    a1 = spec.a_of_1
    ops = assemble_operators(spec, mesh, default_bc(spec))
    nodes = mesh.nodes
    k = ops.k_cell.copy()
    for i in range(mesh.N):
        s = spec.inv_integral(float(nodes[i]), float(nodes[i + 1]))
        if np.isfinite(s) and s > 0.0:
            k[i] = 1.0 / s
    flux = replace(ops, k_cell=k)
    start = ops.first_active
    ab = flux.stiffness_banded(start)
    ab[1, -1] += beta * a1
    rhs = np.zeros(ab.shape[1])
    rhs[-1] = lam * a1
    z = np.zeros(mesh.N + 1)
    z[start:] = solve_symmetric_tridiagonal(ab, rhs, "elliptic")

    energy_sq = flux.stiffness_quadform(z) + beta * a1 * z[-1] ** 2
    l2_sq = ops.mass_quadform(z)
    consts = structural_constants(spec, beta)
    energy_bound = a1 * lam**2 / beta
    l2_bound = a1 * lam**2 / (beta * consts.coercivity_const)
    tol = 1e-12 * max(1.0, abs(energy_bound), abs(l2_bound))
    ok = energy_sq <= energy_bound + tol and l2_sq <= l2_bound + tol

    err = None
    exact = elliptic_exact(spec, beta, lam)
    if exact is not None:
        err = _p1_l2_error(z, mesh, exact)
    return EllipticResult(
        z=z, energy_norm_sq=energy_sq, energy_bound=energy_bound,
        l2_norm_sq=l2_sq, l2_bound=l2_bound, bounds_ok=bool(ok),
        l2_error_vs_exact=err,
    )


def _p1_l2_error(z: np.ndarray, mesh: Mesh, exact) -> float:
    """L2 distance between the P1 interpolant of z and a callable, by
    5-point Gauss quadrature per element."""
    gp, gw = np.polynomial.legendre.leggauss(5)
    x0 = mesh.nodes[:-1][:, None]
    h = mesh.h[:, None]
    xs = x0 + 0.5 * h * (gp[None, :] + 1.0)
    s = (xs - x0) / h
    zh = z[:-1][:, None] * (1 - s) + z[1:][:, None] * s
    diff2 = (zh - exact(xs)) ** 2
    return float(np.sqrt(np.sum(0.5 * h * diff2 @ gw)))


# ---------------------------------------------------------------------------
# decay certification


def certified_decay_time(mu_a: float, tau1: float, beta: float,
                         coercivity_const: float, damping_const: float,
                         params: LyapunovParams) -> float:
    """The explicit integral-inequality constant of the decay theorem.

    With m = min{2 - mu_a, e^{-2 tau1}}, C5 = equiv_upper, C7 =
    boundary_const and C3 = damping_const:

        M = 2/(eps m) [ C5
                        + eps/(beta alpha_a) * C7^2 (1 + 2/beta^3)/(m C3)
                        + 2 eps C7/(beta sqrt(alpha_a))
                        + C7^2 (1 + 2/beta^3)/m * eps/C3 ].
    """
    if damping_const <= 0.0:
        raise NoStrictDamping("certified decay needs a positive damping margin")
    eps = params.epsilon
    m = min(2.0 - mu_a, math.exp(-2.0 * tau1))
    c5 = params.equiv_upper
    c7 = params.boundary_const
    big = c7**2 * (1.0 + 2.0 / beta**3) / m
    bracket = (
        c5
        + eps * (1.0 / (beta * coercivity_const)) * big / damping_const
        + 2.0 * eps * c7 / (beta * math.sqrt(coercivity_const))
        + big * eps / damping_const
    )
    return 2.0 / (eps * m) * bracket


@dataclass(frozen=True)
class DecayCertificate:
    """Certified vs measured decay of the energy along a trajectory.

    decay_time_bound : the theoretical constant M (time units)
    rate_fit : least-squares exponent of log E on the tail window
    integral_gain_max : max_t (int_t^T E)/E(t), the empirical M
    envelope_ok : E(t) <= 1.05 E(0) e^{1 - t/M} at every recorded t >= M
    horizon_ok : True when the run covered at least 3 M
    """

    decay_time_bound: float
    rate_fit: float
    integral_gain_max: float
    envelope_ok: bool
    horizon_ok: bool


def fit_decay_rate(t: np.ndarray, e: np.ndarray,
                   window: tuple[float, float] | None = None,
                   floor_rel: float = 1e-14) -> float:
    """Least-squares slope of -log E over [0.1 T, T], skipping the transient
    and samples below floor_rel * E(0) (round-off guard)."""
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    if window is None:
        window = (0.1 * t[-1], t[-1])
    keep = (t >= window[0]) & (t <= window[1]) & (e > floor_rel * max(e[0], 1e-300))
    if np.sum(keep) < 2:
        return math.nan
    coef = np.polyfit(t[keep], np.log(e[keep]), 1)
    return float(-coef[0])


def empirical_integral_gain(t: np.ndarray, e: np.ndarray) -> float:
    """max over grid points of (int_t^T E ds) / E(t), tail integral by
    trapezoid."""
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    seg = 0.5 * np.diff(t) * (e[:-1] + e[1:])
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    mask = e > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(tail[mask] / e[mask]))


def decay_certificate(trajectory, params: LyapunovParams,
                      constants: StructuralConstants, mu_a: float,
                      beta: float, tau1: float,
                      envelope_tol: float = 0.05) -> DecayCertificate:
    """Evaluate the certificate on a recorded trajectory (see class doc)."""
    t = np.asarray(trajectory.t, dtype=float)
    e = np.asarray(trajectory.E, dtype=float)
    m_bound = certified_decay_time(
        mu_a, tau1, beta, constants.coercivity_const,
        constants.damping_const, params,
    )
    rate = fit_decay_rate(t, e)
    gain = empirical_integral_gain(t, e)
    after = t >= m_bound
    if np.any(after):
        env = (1.0 + envelope_tol) * e[0] * np.exp(1.0 - t[after] / m_bound)
        ok = bool(np.all(e[after] <= env))
    else:
        ok = True
    horizon_ok = bool(t[-1] >= 3.0 * m_bound)
    if not horizon_ok:
        warnings.warn(
            f"horizon {t[-1]:.3g} is below 3x the certified decay time "
            f"{m_bound:.3g}; the envelope check covers only the recorded window",
            InsufficientHorizon,
            stacklevel=2,
        )
    return DecayCertificate(
        decay_time_bound=m_bound,
        rate_fit=rate,
        integral_gain_max=gain,
        envelope_ok=ok,
        horizon_ok=horizon_ok,
    )
