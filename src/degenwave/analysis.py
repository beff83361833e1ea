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

`lyapunov_raw` is the only code that evaluates E and E~.  The squared state
norms of the operator certificate are 2 E: ||U||_t^2 with tau = tau(t) and
the reference norm ||U||_H^2 with tau = 1.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import astuple, dataclass, replace
from typing import Optional

import numpy as np

from .delay_channel import delta_grid, delta_trap_weights
from .errors import HypothesisError, NoStrictDamping, ShapeMismatch
from .mesh import DiscreteOperators, Mesh, assemble_operators
from .model import (
    CoefficientSpec,
    DelaySpec,
    GainSet,
    StructuralConstants,
    full_constants,
    structural_constants,
)


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
    eps_sandwich: float
    eps_damping: float


@contextmanager
def _derived(what: str, **data: float):
    """Name a derived constant that is not finite: the block's float `**`
    raising OverflowError (where * gives inf), a divisor that underflowed to
    0, or a value passed to the yielded check that is inf or NaN, becomes a
    HypothesisError naming `what` and the data it was derived from."""
    msg = f"{what} not finite for " + ", ".join(
        f"{k} = {v:g}" for k, v in data.items())

    def check(*values: float) -> None:
        if not all(math.isfinite(x) for x in values):
            raise HypothesisError(msg)

    try:
        yield check
    except (OverflowError, ZeroDivisionError):
        raise HypothesisError(msg) from None


def lyapunov_raw(u, v, w, tau, ops: DiscreteOperators, gains: GainSet,
                 epsilon=0.0):
    """(E, E~) of raw arrays with the delay tau = tau(t) and the Lyapunov
    epsilon (`LyapunovParams.epsilon`), the one energy routine of the
    package: `stepper.run` records it, the snapshot audit recomputes it,
    and the operator certificate takes its state norms from it, ||U||_t^2
    = 2 E with tau = tau(t) and ||U||_H^2 = 2 E with tau = 1.  With
    epsilon 0, E~ is E.  Both come from one difference of u, one M v and
    one w^2.

    u, v and w may be stacks of states, shape (..., n), with tau an array
    over the leading axes (one delay per row); E and E~ then have the
    leading shape, and each row gets the bits it would get alone.  epsilon
    and the gains may be arrays over the last leading axis (one per row of
    a batch: `gains` a `stepper.BatchGains`, whose mu1 and beta scale the
    delay and boundary blocks row by row); a row whose epsilon is 0 gets
    E~ = E + 0 = E.  Raises ShapeMismatch unless u and v have one entry
    per node.
    """
    n = ops.n_nodes
    if np.shape(u)[-1:] != (n,) or np.shape(v)[-1:] != (n,):
        raise ShapeMismatch(f"expected vectors of length {n}, got "
                            f"{np.shape(u)} and {np.shape(v)}")
    du = u[..., 1:] - u[..., :-1]
    mv = ops.mass * v
    ww = w * w
    m = ww.shape[-1] - 1
    # E is half the sum of four nonnegative blocks: kinetic v^T M v, elastic
    # u^T K u, boundary beta a(1) u(1)^2 and the delay reservoir weighted by
    # tau.  np.vecdot sums each row as @ sums a 1-d pair, and float_power(x, 2)
    # calls the C pow that the float x ** 2 calls (x * x differs in about one
    # value in a thousand), so a stack's rows and 1-d calls get the same bits
    e = 0.5 * (np.vecdot(mv, v) + np.vecdot(ops.k_cell * du, du)
               + gains.beta * ops.a1 * np.float_power(u[..., -1], 2.0)
               + gains.mu1 * ops.a1 * tau
               * np.vecdot(ww, delta_trap_weights(m)))
    if not np.any(epsilon):
        return e, e
    # the eps-block: sum over cells of h 2 x u_x v at the midpoint, which is
    # x_mid du (v_i + v_{i+1}), plus (mu_a/2) u^T M v and the weighted reservoir
    cross_x = np.vecdot(ops.mesh.midpoints * du, v[..., :-1] + v[..., 1:])
    cross_uv = 0.5 * ops.mu_a * np.vecdot(mv, u)
    decay = np.exp(np.multiply.outer(-2.0 * np.asarray(tau), delta_grid(m)))
    expw = gains.mu1 * ops.a1 * tau * np.vecdot(delta_trap_weights(m),
                                                decay * ww)
    return e, e + epsilon * (cross_x + cross_uv + expw)


def sandwich_coefficient(mu_a: float, a1: float, beta: float,
                         poincare_const: float) -> float:
    """max{1 + mu_a/4, 1/a(1) + mu_a C_P / 4, mu_a / (2 beta a(1))}."""
    return max(
        1.0 + mu_a / 4.0,
        1.0 / a1 + mu_a * poincare_const / 4.0,
        mu_a / (2.0 * beta * a1),
    )


def choose_epsilon(spec: CoefficientSpec, gains: GainSet,
                   delay: DelaySpec) -> LyapunovParams:
    """Largest usable epsilon and the constants it induces.

    eps_sandwich = 1/(4 max{...}) pins equiv_lower at 1/2; eps_damping is the
    largest epsilon that keeps the boundary-trace damping budget nonnegative,

        eps <= C3 a(1) / max{1 + (5/2) a(1) mu1^2 + mu1 a(1),
                             (5/2) a(1) mu2^2}.

    Raises NoStrictDamping when the damping coefficient C3 is not positive,
    and HypothesisError when the displacement-trace coefficient C7 is not or
    a constant is not finite (an overflow, or a divisor that underflowed).
    """
    constants = full_constants(spec, gains, delay)
    c3 = constants.damping_const
    if c3 <= 0.0:
        raise NoStrictDamping(
            f"damping coefficient {c3} <= 0; need mu1 > 2 |mu2| / sqrt(1 - d)"
        )
    a1, beta = spec.a_of_1, gains.beta
    with _derived("Lyapunov constants", mu_a=spec.mu_a, a1=a1, mu1=gains.mu1,
                  mu2=gains.mu2, beta=beta) as check:
        mx = sandwich_coefficient(spec.mu_a, a1, beta,
                                  constants.poincare_const)
        eps_sandwich = 1.0 / (4.0 * mx)
        trace_budget = max(
            1.0 + 2.5 * a1 * gains.mu1**2 + gains.mu1 * a1,
            2.5 * a1 * gains.mu2**2,
        )
        eps_damping = c3 * a1 / trace_budget
        eps = min(eps_sandwich, eps_damping)
        c7 = (beta * (beta - spec.mu_a + 1.0)
              + (2.0 * beta - spec.mu_a / 2.0) ** 2)
        if c7 <= 0.0:
            raise HypothesisError(
                "displacement-trace coefficient is not positive for these "
                "(mu_a, beta); outside the certificate's validity"
            )
        params = LyapunovParams(
            epsilon=eps,
            equiv_lower=1.0 - 2.0 * eps * mx,
            equiv_upper=1.0 + 2.0 * eps * mx,
            damping_slack=c3 * a1 - eps * trace_budget,
            boundary_const=c7,
            eps_sandwich=eps_sandwich,
            eps_damping=eps_damping,
        )
        check(*astuple(params))
    return params


def dissipation_audit(trajectory, c3: float, a1: float) -> float:
    """Worst violation of dE/dt <= -c3 a(1) (v(1)^2 + v_delayed(1)^2) along
    a trajectory, clamped at zero.

    dE/dt is measured by centered differences on the recorded grid, so the
    audit is a measurement with an O(dt^2) floor, not an identity.  Plain
    sample-to-sample energy increases are not part of it.
    """
    t = np.asarray(trajectory.t, dtype=float)
    e = np.asarray(trajectory.E, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 samples to audit dissipation")
    tv = np.asarray(trajectory.trace_v, dtype=float)
    td = np.asarray(trajectory.trace_v_delayed, dtype=float)
    edot = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    viol = edot + c3 * a1 * (tv[1:-1] ** 2 + td[1:-1] ** 2)
    return max(0.0, float(np.max(viol)))


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
        ||z||_L2^2 <= (a(1)/(beta alpha_a)) lam^2,
    whose bounds must be finite (HypothesisError otherwise).
    """
    a1 = spec.a_of_1
    consts = structural_constants(spec, beta)  # ValueError unless beta > 0
    with _derived("elliptic bounds", alpha=spec.alpha, a1=a1, beta=beta,
                  lam=lam) as check:
        energy_bound = a1 * lam**2 / beta
        l2_bound = a1 * lam**2 / (beta * consts.coercivity_const)
        check(energy_bound, l2_bound)
    ops = assemble_operators(spec, mesh)
    s = spec.inv_integral(mesh.nodes[:-1], mesh.nodes[1:])
    k = ops.k_cell.copy()
    exact = np.isfinite(s) & (s > 0.0)
    k[exact] = 1.0 / s[exact]
    flux = replace(ops, k_cell=k)
    system = flux.factor(1.0, 0.0, beta * a1, "elliptic")
    z = np.zeros(mesh.N + 1)
    # the solve from z = 0, then one step of iterative refinement: the strong
    # regime attains the energy bound, where rounding would decide `bounds_ok`
    for _ in range(2):
        r = -flux.stiffness_matvec(z)
        r[-1] += a1 * (lam - beta * z[-1])
        system.solve_in_place(r[ops.first_active:])
        z[ops.first_active:] += r[ops.first_active:]

    energy_sq = flux.stiffness_quadform(z) + beta * a1 * z[-1] ** 2
    l2_sq = ops.mass_quadform(z)
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

    Raises HypothesisError when M is not finite.
    """
    if damping_const <= 0.0:
        raise NoStrictDamping("certified decay needs a positive damping margin")
    eps = params.epsilon
    m = min(2.0 - mu_a, math.exp(-2.0 * tau1))
    c5 = params.equiv_upper
    c7 = params.boundary_const
    with _derived("certified decay time", mu_a=mu_a, tau1=tau1, beta=beta,
                  epsilon=eps) as check:
        big = c7**2 * (1.0 + 2.0 / beta**3) / m
        bracket = (
            c5
            + eps * (1.0 / (beta * coercivity_const)) * big / damping_const
            + 2.0 * eps * c7 / (beta * math.sqrt(coercivity_const))
            + big * eps / damping_const
        )
        m_bound = 2.0 / (eps * m) * bracket
        check(m_bound)
    return m_bound


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


def fit_decay_rate(t: np.ndarray, e: np.ndarray) -> float:
    """Least-squares slope of -log E over [0.1 T, T], skipping the transient
    and samples below 1e-14 E(0) (round-off guard)."""
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    keep = (t >= 0.1 * t[-1]) & (e > 1e-14 * max(e[0], 1e-300))
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
                      beta: float, tau1: float) -> DecayCertificate:
    """Evaluate the certificate on a recorded trajectory (see class doc).
    A horizon shorter than 3 M is flagged by horizon_ok alone."""
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
        env = 1.05 * e[0] * np.exp(1.0 - t[after] / m_bound)
        ok = bool(np.all(e[after] <= env))
    else:
        ok = True
    return DecayCertificate(
        decay_time_bound=m_bound,
        rate_fit=rate,
        integral_gain_max=gain,
        envelope_ok=ok,
        horizon_ok=bool(t[-1] >= 3.0 * m_bound),
    )
