"""Numerical certification of the evolution-family machinery.

The discrete generator acts on triples U = (u, v, w) as

    A(t) U = ( v,
               M^{-1} [ -K u - a(1) e_N (mu1 v_N + mu2 w_M + beta u_N) ],
               ((delta tau'(t) - 1)/tau(t)) D w ),

with the feedback row folded into the second block (continuously it lives in
the operator domain) and the remaining domain constraints w(0) = v(1) plus,
in the weak-degeneracy regime, u(0) = v(0) = 0.  Three probes are run:

* dissipativity of the shifted operator A(t) - iota(t) I in the
  time-dependent inner product, iota(t) = sqrt(1 + tau'(t)^2)/(2 tau(t));
* surjectivity of I - A(t) by direct residuals on random right-hand sides;
* the variable-norm ratio bound ||U||_t / ||U||_s <= e^{d |t-s| / (2 tau0)}.

The transport block uses the channel's own nodes and speed
(`delay_channel.delta_grid`, `delay_channel.transport_speed`), and the
resolvent recovers its channel component with the stepper's implicit upwind
solve (`delay_channel.transport_step` with dt = 1).

For the quadratic form the transport block is paired through the
cell-midpoint rule, whose summation by parts is exact, so every inequality
of the continuous dissipativity argument holds verbatim for the discrete
form; the one-sided nodal differences are kept for operator application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import energy_parts
from .delay_channel import delta_grid, transport_speed, transport_step
from .errors import DomainViolation
from .mesh import (
    DIRICHLET_LEFT,
    DiscreteOperators,
    Mesh,
    solve_symmetric_tridiagonal,
)
from .model import DelaySpec, GainSet


@dataclass(frozen=True)
class ProbeContext:
    mesh: Mesh
    ops: DiscreteOperators
    gains: GainSet
    delay: DelaySpec
    n_delta: int

    @property
    def dirichlet(self) -> bool:
        return self.ops.bc_kind == DIRICHLET_LEFT


def iota(delay: DelaySpec, t: float) -> float:
    """Stabilizing shift sqrt(1 + tau'^2) / (2 tau)."""
    tp = float(delay.tau_prime(t))
    return math.sqrt(1.0 + tp * tp) / (2.0 * float(delay.tau(t)))


def norm_t_sq(U, t: float, ctx: ProbeContext) -> float:
    """Squared time-dependent state norm (trapezoid in delta): twice the
    energy of U at time t."""
    u, v, w = U
    return sum(energy_parts(u, v, w, float(ctx.delay.tau(t)), ctx.ops,
                            ctx.gains).values())


def norm_h_sq(U, ctx: ProbeContext) -> float:
    """Squared reference norm (no tau weight on the channel block)."""
    u, v, w = U
    return sum(energy_parts(u, v, w, 1.0, ctx.ops, ctx.gains).values())


def project_to_domain(U, ctx: ProbeContext):
    """Least-squares correction onto the discrete domain constraints.

    The channel inflow and the velocity trace are averaged to enforce
    w(0) = v(1); the Dirichlet regime additionally zeroes the constrained
    node.  The feedback row needs no correction: the generator's second
    block realizes it by construction.
    """
    u, v, w = (np.array(x, dtype=float) for x in U)
    if ctx.dirichlet:
        u[0] = 0.0
        v[0] = 0.0
    mean = 0.5 * (v[-1] + w[0])
    v[-1] = mean
    w[0] = mean
    return u, v, w


def generator_apply(U, t: float, ctx: ProbeContext, project: bool = True):
    """Apply the discrete generator at time t.

    With project=False the domain constraints are asserted (DomainViolation
    beyond 1e-10 relative) instead of enforced.
    """
    u, v, w = U
    scale = max(1.0, float(np.max(np.abs(v))), float(np.max(np.abs(w))))
    if project:
        u, v, w = project_to_domain((u, v, w), ctx)
    else:
        bad = abs(w[0] - v[-1]) > 1e-10 * scale
        if ctx.dirichlet:
            bad = bad or abs(u[0]) > 1e-10 or abs(v[0]) > 1e-10
        if bad:
            raise DomainViolation("state violates the generator domain constraints")
    g, ops = ctx.gains, ctx.ops
    au = v.copy()
    load = ops.stiffness_matvec(u)
    av = -load
    av[-1] -= ops.a1 * (g.mu1 * v[-1] + g.mu2 * w[-1] + g.beta * u[-1])
    av /= ops.mass
    if ctx.dirichlet:
        av[0] = 0.0
    m = w.size - 1
    c = transport_speed(delta_grid(m), float(ctx.delay.tau(t)),
                        float(ctx.delay.tau_prime(t)))
    dw = np.diff(w) * m
    aw = np.empty_like(w)
    aw[1:] = -c[1:] * dw
    aw[0] = -c[0] * dw[0]
    return au, av, aw


def quadratic_form(U, t: float, ctx: ProbeContext) -> float:
    """<(A(t) - iota(t) I) U, U>_t with the summation-by-parts transport
    pairing (see module docstring)."""
    u, v, w = U
    g, ops = ctx.gains, ctx.ops
    tau = float(ctx.delay.tau(t))
    taup = float(ctx.delay.tau_prime(t))
    kcross = ops.stiffness_quadform(u, v)
    val = kcross + g.beta * ops.a1 * v[-1] * u[-1]
    val -= kcross + ops.a1 * v[-1] * (
        g.mu1 * v[-1] + g.mu2 * w[-1] + g.beta * u[-1]
    )
    delta = delta_grid(w.size - 1)
    half = 0.5 * (delta[1:] + delta[:-1])
    pair = float(np.dot(-tau * transport_speed(half, tau, taup),
                        0.5 * (w[1:] + w[:-1]) * (w[1:] - w[:-1])))
    val += g.mu1 * ops.a1 * pair
    return val - iota(ctx.delay, t) * norm_t_sq((u, v, w), t, ctx)


@dataclass(frozen=True)
class DissipativityReport:
    max_ratio: float
    n_positive: int
    trials: int
    passed: bool
    seed: int


def dissipativity_probe(t: float, ctx: ProbeContext, trials: int = 500,
                        seed: int = 0, tol: float = 1e-8) -> DissipativityReport:
    """Max of the shifted quadratic form over random domain-projected states,
    normalized by the squared state norm.  PASS iff it stays below tol."""
    if trials < 1:
        raise ValueError("need at least one trial")
    n = ctx.mesh.N + 1
    worst = -math.inf
    npos = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        w = rng.standard_normal(ctx.n_delta + 1)
        if k % 4 == 3:
            # importance sampling: the form's sign is decided by the
            # boundary traces, so concentrate mass there occasionally
            u *= 0.0
            v[:-1] *= 1e-3
            w[1:-1] *= 1e-3
        U = project_to_domain((u, v, w), ctx)
        den = norm_t_sq(U, t, ctx)
        if den == 0.0:
            continue
        ratio = quadratic_form(U, t, ctx) / den
        worst = max(worst, ratio)
        if ratio > tol:
            npos += 1
    return DissipativityReport(
        max_ratio=worst, n_positive=npos, trials=trials,
        passed=worst <= tol, seed=seed,
    )


def channel_resolvent_weights(tau: float, taup: float, n_delta: int):
    """Discrete solve of  w + ((1 - delta tau')/tau) w_delta = h, w(0) given.

    Backward differences give the recurrence
        w_i = (ddelta h_i + c_i w_{i-1}) / (ddelta + c_i),
    whose solution is w_M = A_d w(0) + b . h with A_d the product of the
    ratios; A_d converges to the continuum exponential weight as the grid
    refines.  Returns (A_d, b) with b the load weights on h[0..M].
    """
    m = n_delta
    ddelta = 1.0 / m
    c = transport_speed(delta_grid(m)[1:], tau, taup)
    rho = c / (ddelta + c)
    bcell = ddelta / (ddelta + c)
    suffix = np.concatenate([np.cumprod(rho[::-1])[::-1][1:], [1.0]])
    b = np.zeros(m + 1)
    b[1:] = bcell * suffix
    return float(np.prod(rho)), b


def continuum_channel_weight(tau: float, taup: float) -> float:
    """exp((tau/tau') ln(1 - tau')); series fallback near tau' = 0 where the
    exponent tends to -tau."""
    if abs(taup) < 1e-8:
        return math.exp(-tau * (1.0 + taup / 2.0 + taup**2 / 3.0))
    return math.exp(tau / taup * math.log1p(-taup))


@dataclass(frozen=True)
class ResolventResult:
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    residual: float
    boundary_identity: float
    weight_discrete: float
    weight_continuum: float


def resolvent_solve(G, t: float, ctx: ProbeContext) -> ResolventResult:
    """Solve (I - A(t)) U = G and report residuals.

    The u equation reduces, after eliminating v = u - f and the channel, to
    a symmetric positive definite tridiagonal system whose boundary weight
    mu1 + mu2 A_d + beta is positive whenever the gain condition holds.  The
    channel component is recovered by the stepper's upwind solve with
    dt = 1; the closed-form weights check it, so all block residuals and the
    feedback identity are exact to rounding.
    """
    f, g, h = (np.asarray(x, dtype=float) for x in G)
    ops, gains = ctx.ops, ctx.gains
    tau = float(ctx.delay.tau(t))
    taup = float(ctx.delay.tau_prime(t))
    a_d, bw = channel_resolvent_weights(tau, taup, ctx.n_delta)
    hload = float(bw @ h)

    start = ops.first_active
    ab = ops.stiffness_banded(start, shift=ops.mass[start:])
    weight = gains.mu1 + gains.mu2 * a_d + gains.beta
    ab[1, -1] += ops.a1 * weight
    rhs = (ops.mass * (f + g))[start:]
    rhs[-1] += ops.a1 * ((gains.mu1 + gains.mu2 * a_d) * f[-1]
                         - gains.mu2 * hload)
    u = np.zeros(ops.n_nodes)
    u[start:] = solve_symmetric_tridiagonal(ab, rhs, "resolvent")
    v = u - f
    if start:
        v[0] = 0.0

    w = transport_step(h, tau, taup, 1.0, inflow=v[-1])

    # block residuals of (I - A) U = G, measured on the equation rows
    res_u = u - v - f
    mv = ops.mass * (v - g) + ops.stiffness_matvec(u)
    mv[-1] += ops.a1 * (gains.mu1 * v[-1] + gains.mu2 * w[-1]
                        + gains.beta * u[-1])
    res_v = mv[start:] / ops.mass[start:]
    c = transport_speed(delta_grid(ctx.n_delta)[1:], tau, taup)
    res_w = w[1:] + c * np.diff(w) * ctx.n_delta - h[1:]
    scale = max(
        1.0,
        math.sqrt(norm_h_sq((f, g, h), ctx)),
    )
    residual = max(
        float(np.max(np.abs(res_u))),
        float(np.max(np.abs(res_v))),
        float(np.max(np.abs(res_w))),
    ) / scale

    flux = (ops.mass * (u - f - g) + ops.stiffness_matvec(u))[-1] / ops.a1
    ident = abs(gains.mu1 * v[-1] + gains.mu2 * w[-1] + flux
                + gains.beta * u[-1]) / scale
    return ResolventResult(
        u=u, v=v, w=w, residual=residual, boundary_identity=ident,
        weight_discrete=a_d,
        weight_continuum=continuum_channel_weight(tau, taup),
    )


@dataclass(frozen=True)
class ResolventReport:
    max_residual: float
    max_boundary_identity: float
    trials: int
    passed: bool
    seed: int


def resolvent_probe(t: float, ctx: ProbeContext, trials: int = 100,
                    seed: int = 0, tol: float = 1e-8) -> ResolventReport:
    """Residual check of (I - A(t)) U = G for random right-hand sides."""
    n = ctx.mesh.N + 1
    worst_res = 0.0
    worst_ident = 0.0
    for k in range(trials):
        rng = np.random.default_rng([seed, 7, k])
        f = rng.standard_normal(n)
        if ctx.dirichlet:
            f[0] = 0.0
        g = rng.standard_normal(n)
        h = rng.standard_normal(ctx.n_delta + 1)
        out = resolvent_solve((f, g, h), t, ctx)
        worst_res = max(worst_res, out.residual)
        worst_ident = max(worst_ident, out.boundary_identity)
    return ResolventReport(
        max_residual=worst_res, max_boundary_identity=worst_ident,
        trials=trials, passed=worst_res <= tol and worst_ident <= tol,
        seed=seed,
    )


@dataclass(frozen=True)
class NormRatioReport:
    max_ratio: float
    bound_stated: float
    bound_proof: float
    excess: float
    passed: bool
    seed: int


def norm_ratio_bound(t: float, s: float, ctx: ProbeContext, trials: int = 500,
                     seed: int = 0, tol: float = 1e-12) -> NormRatioReport:
    """Max of ||U||_t / ||U||_s over random states against the stated bound
    e^{d |t-s| / (2 tau0)}; the looser in-proof exponent d/tau0 is reported
    alongside."""
    d, tau0 = ctx.delay.d, ctx.delay.tau0
    stated = math.exp(d / (2.0 * tau0) * abs(t - s))
    proof = math.exp(d / tau0 * abs(t - s))
    n = ctx.mesh.N + 1
    worst = 0.0
    for k in range(trials):
        rng = np.random.default_rng([seed, 13, k])
        U = (rng.standard_normal(n), rng.standard_normal(n),
             rng.standard_normal(ctx.n_delta + 1))
        a = norm_t_sq(U, t, ctx)
        b = norm_t_sq(U, s, ctx)
        if b > 0.0:
            worst = max(worst, math.sqrt(a / b))
    excess = max(0.0, worst - stated)
    return NormRatioReport(
        max_ratio=worst, bound_stated=stated, bound_proof=proof,
        excess=excess, passed=excess <= tol, seed=seed,
    )


def generator_drift_probe(t: float, ctx: ProbeContext, trials: int = 50,
                          seed: int = 0,
                          steps: tuple = (1e-2, 1e-3, 1e-4)) -> dict:
    """Finite-difference bound on ||(A(t+h) - A(t)) U|| / ||U||_graph.

    Only the transport coefficient depends on time, so the difference lives
    in the channel block.  Reported per step size; asserted finite by the
    caller.
    """
    n = ctx.mesh.N + 1
    out = {}
    for hstep in steps:
        worst = 0.0
        for k in range(trials):
            rng = np.random.default_rng([seed, 29, k])
            U = project_to_domain(
                (rng.standard_normal(n), rng.standard_normal(n),
                 rng.standard_normal(ctx.n_delta + 1)),
                ctx,
            )
            a0 = generator_apply(U, t, ctx, project=False)
            a1 = generator_apply(U, t + hstep, ctx, project=False)
            diff = (np.zeros(n), np.zeros(n), (a1[2] - a0[2]) / hstep)
            graph = math.sqrt(norm_h_sq(U, ctx) + norm_h_sq(a0, ctx))
            if graph > 0.0:
                worst = max(worst, math.sqrt(norm_h_sq(diff, ctx)) / graph)
        out[hstep] = worst
    return out


def run_certificate(ctx: ProbeContext, t_list, seed: int = 0,
                    diss_trials: int = 500, res_trials: int = 100,
                    ratio_trials: int = 500) -> dict:
    """All probes at each requested time; JSON-ready aggregation."""
    t_list = [float(t) for t in t_list]
    claim1 = {}
    claim2 = {}
    for t in t_list:
        d = dissipativity_probe(t, ctx, trials=diss_trials, seed=seed)
        claim1[f"t={t:g}"] = {
            "max_form_ratio": d.max_ratio, "positive_trials": d.n_positive,
            "trials": d.trials, "pass": d.passed, "seed": d.seed,
        }
        r = resolvent_probe(t, ctx, trials=res_trials, seed=seed)
        claim2[f"t={t:g}"] = {
            "max_residual": r.max_residual,
            "max_boundary_identity": r.max_boundary_identity,
            "trials": r.trials, "pass": r.passed, "seed": r.seed,
        }
    claim3 = {}
    pairs = list(zip(t_list[:-1], t_list[1:]))
    if len(t_list) >= 2:
        pairs.append((t_list[0], t_list[-1]))
    for s, t in pairs:
        n = norm_ratio_bound(t, s, ctx, trials=ratio_trials, seed=seed)
        claim3[f"s={s:g},t={t:g}"] = {
            "max_ratio": n.max_ratio, "bound_stated": n.bound_stated,
            "bound_proof": n.bound_proof, "excess": n.excess,
            "pass": n.passed, "seed": n.seed,
        }
    drift = {
        f"t={t:g}": {f"h={h:g}": val
                     for h, val in generator_drift_probe(t, ctx, seed=seed).items()}
        for t in t_list
    }
    all_pass = (
        all(v["pass"] for v in claim1.values())
        and all(v["pass"] for v in claim2.values())
        and all(v["pass"] for v in claim3.values())
        and all(math.isfinite(x) for d in drift.values() for x in d.values())
    )
    return {
        "claim1": claim1, "claim2": claim2, "claim3": claim3, "dAdt": drift,
        "pass": all_pass,
    }
