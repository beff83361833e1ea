"""Numerical certification of the evolution-family machinery.

The discrete generator acts on triples U = (u, v, w) as

    A(t) U = ( v,
               M^{-1} [ -K u - a(1) e_N (mu1 v_N + mu2 w_M + beta u_N) ],
               ((delta tau'(t) - 1)/tau(t)) D w ),

with the feedback row folded into the second block (continuously it lives in
the operator domain) and the remaining domain constraints w(0) = v(1) plus,
in the weak-degeneracy regime (`ops.first_active` = 1), u(0) = v(0) = 0.
Three claims are checked, and a bound on the drift of A(t) in t
(`dadt_bound`) is reported beside them:

* dissipativity of the shifted operator A(t) - iota(t) I in the
  time-dependent inner product, iota(t) = sqrt(1 + tau'(t)^2)/(2 tau(t)),
  exact over the constrained space (`_claim1`);
* surjectivity of I - A(t) by direct residuals on random right-hand sides
  (`_claim2`);
* the variable-norm ratio bound ||U||_t / ||U||_s <= e^{d |t-s| / (2 tau0)},
  whose supremum over the domain has a closed form (`_claim3`).

The transport block uses the channel's own nodes and speed
(`delay_channel.delta_grid`, `delay_channel.transport_speed`), and the
resolvent (`Resolvent`, (I - A(t))^{-1} at one time for a stack of
right-hand sides) solves its channel with the stepper's implicit upwind
step of dt = 1 (`delay_channel.upwind_bands`, `upwind_solve`) and
measures its residuals with `generator_apply`.

For the quadratic form the transport block is paired through the
cell-midpoint rule, whose summation by parts is exact, so every inequality
of the continuous dissipativity argument holds verbatim for the discrete
form; the one-sided nodal differences are kept for operator application.

Claim 2 is the one claim that draws.  Its right-hand sides are the first
`trials` (u, v, w) chunks of one stream, default_rng([seed]), so a run of k
trials checks the first k of any longer run.  They are evaluated in blocks
of rows (`_trial_blocks`), as stacked (B, n) arrays of at most
BLOCK_DOUBLES entries (the budget `delay_channel.BLOCK_DOUBLES` that the
stepper's blocks share), one standard_normal fill each.  A block is
read-only: claim 2 zeroes the Dirichlet node of its load in a copy.  The
operations are row-wise: the squared norms ||.||_t^2 and ||.||_H^2, the
quadratic form and the residuals.  Each squared norm is twice the energy
`analysis.lyapunov_raw` gives with tau = tau(t) or tau = 1, so ||U||_t^2
of a recorded state is twice its recorded E.
Row-wise sums (np.vecdot) and the multi-right-hand-side LAPACK solves give
each row the bits it would get alone, so the rows do not depend on the
block size.  The resolvent factors its SPD tridiagonal once per time, as
`ops.factor(1, 1, a(1) (mu1 + mu2 A_d + beta))` with A_d the outflow of
its unit channel profile, and solves a whole block with one ?tbtrs
channel solve of the loads and one ?pttrs call.
Claim 2 with fewer than one trial raises ValueError instead of passing.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analysis import lyapunov_raw
from .delay_channel import (
    BLOCK_DOUBLES,
    delta_grid,
    transport_speed,
    upwind_bands,
    upwind_solve,
)
from .errors import DomainViolation
from .mesh import DiscreteOperators, Mesh
from .model import DelaySpec, GainSet


@dataclass(frozen=True)
class ProbeContext:
    mesh: Mesh
    ops: DiscreteOperators
    gains: GainSet
    delay: DelaySpec
    n_delta: int


def _trial_blocks(trials: int, seed: int, sizes: tuple):
    """The random trials in blocks of rows, first trial first.

    Yields (k0, arrays): one read-only (rows, n) array per length n in
    sizes, row i holding trial k0 + i.  One standard_normal call of the
    one generator default_rng([seed]) fills a block trial by trial, and the
    arrays are basic slices of its columns: trial k is the k-th chunk of
    the stream whatever the block size.
    """
    rows = max(1, BLOCK_DOUBLES // max(sizes))
    rng = np.random.default_rng([seed])
    edges = list(itertools.accumulate(sizes, initial=0))
    for k0 in range(0, trials, rows):
        block = rng.standard_normal((min(rows, trials - k0), edges[-1]))
        block.flags.writeable = False
        yield k0, tuple(block[:, a:b] for a, b in itertools.pairwise(edges))


def _running_max(row: dict, key: str, values: np.ndarray) -> float:
    """Raise row[key] to the maximum of values, taken in order as the builtin
    max takes it (a NaN never replaces the running maximum); returns it."""
    row[key] = max([row[key], *values.tolist()])
    return row[key]


def iota(delay: DelaySpec, t):
    """Stabilizing shift sqrt(1 + tau'^2) / (2 tau), elementwise like tau."""
    tp = delay.tau_prime(t)
    return np.sqrt(1.0 + tp * tp) / (2.0 * delay.tau(t))


def project_to_domain(U, ctx: ProbeContext):
    """Least-squares correction onto the discrete domain constraints, row by
    row for a stack of trials; returns new arrays.

    The channel inflow and the velocity trace are averaged to enforce
    w(0) = v(1); the Dirichlet regime additionally zeroes the constrained
    node.  The feedback row needs no correction: the generator's second
    block realizes it by construction.
    """
    u, v, w = (np.array(x, dtype=float) for x in U)
    if ctx.ops.first_active:
        u[..., 0] = 0.0
        v[..., 0] = 0.0
    mean = 0.5 * (v[..., -1] + w[..., 0])
    v[..., -1] = mean
    w[..., 0] = mean
    return u, v, w


def _transport_block(w, t: float, ctx: ProbeContext):
    """The channel block ((delta tau'(t) - 1)/tau(t)) D w of A(t), with
    one-sided nodal differences."""
    m = w.shape[-1] - 1
    c = transport_speed(delta_grid(m), float(ctx.delay.tau(t)),
                        float(ctx.delay.tau_prime(t)))
    dw = np.diff(w, axis=-1) * m
    aw = np.empty_like(w)
    aw[..., 1:] = -c[1:] * dw
    aw[..., 0] = -c[0] * dw[..., 0]
    return aw


def generator_apply(U, t: float, ctx: ProbeContext):
    """Apply the discrete generator at time t, row by row for a stack of
    trials.

    U must lie in the domain: the constraints are asserted (DomainViolation
    beyond 1e-10 relative), not enforced; `project_to_domain` enforces them.
    """
    u, v, w = U
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(v), axis=-1),
                                       np.max(np.abs(w), axis=-1)))
    bad = np.abs(w[..., 0] - v[..., -1]) > 1e-10 * scale
    if ctx.ops.first_active:
        bad |= (np.abs(u[..., 0]) > 1e-10) | (np.abs(v[..., 0]) > 1e-10)
    if np.any(bad):
        raise DomainViolation("state violates the generator domain constraints")
    g, ops = ctx.gains, ctx.ops
    av = -ops.stiffness_matvec(u)
    av[..., -1] -= ops.a1 * (g.mu1 * v[..., -1] + g.mu2 * w[..., -1]
                             + g.beta * u[..., -1])
    av /= ops.mass
    if ctx.ops.first_active:
        av[..., 0] = 0.0
    return v.copy(), av, _transport_block(w, t, ctx)


def quadratic_form(U, times, ctx: ProbeContext):
    """<(A(t) - iota(t) I) U, U>_t with the summation-by-parts transport
    pairing (see module docstring), and ||U||_t^2, at each of the times.

    U may be a stack of trials (B, n); both results are then (T, B) for T
    times.  Only the transport pairing and the norm depend on t.
    """
    u, v, w = U
    g, ops = ctx.gains, ctx.ops
    col = np.asarray(times, dtype=float)[:, None]
    tau, taup = ctx.delay.tau(col), ctx.delay.tau_prime(col)
    shift = iota(ctx.delay, col)
    kcross = ops.stiffness_quadform(u, v)
    vb, wb, ub = v[..., -1], w[..., -1], u[..., -1]
    val = kcross + g.beta * ops.a1 * vb * ub
    val -= kcross + ops.a1 * vb * (g.mu1 * vb + g.mu2 * wb + g.beta * ub)
    delta = delta_grid(w.shape[-1] - 1)
    half = 0.5 * (delta[1:] + delta[:-1])
    # one row of pairing weights per time, against every trial's products
    weights = (-tau * transport_speed(half, tau, taup))[:, None]
    wsum = w[..., 1:] + w[..., :-1]
    pair = np.vecdot(0.5 * wsum * (w[..., 1:] - w[..., :-1]), weights)
    val = val + g.mu1 * ops.a1 * pair
    norm = 2.0 * lyapunov_raw(u, v, w, tau, ops, g)[0]
    return val - shift * norm, norm


def _claim1(times, ctx: ProbeContext) -> list:
    """Claim 1, exact over the constrained space: the supremum of
    `quadratic_form` over ||U||_t^2, at each of the times; one certificate
    row per time.  PASS iff it stays below tol = 1e-8.

    In the form the stiffness cross terms cancel, and the unshifted form is
    -a(1) v_N (mu1 v_N + mu2 w_M) + mu1 a(1) pair.  Summed by parts, the
    midpoint pairing is diagonal in w_0..w_M, ||U||_t^2 is diagonal in the
    same unknowns, with w_0 = v_N, and u and the interior v enter the norm
    alone.  Only the feedback row couples two unknowns, v_N and w_M.  So
    the supremum is the largest of three numbers, minus iota(t): 0, from a
    state of u alone; -tau'/(2 tau), from one interior channel node; and the
    top eigenvalue of the 2x2 pencil of the form against the norm on
    (v_N, w_M).  All three are read off `quadratic_form` on five unit
    states, the coupling of v_N and w_M by polarization.  With mu1 = 0 the
    channel has no norm weight, and the supremum is +inf when mu2 != 0 and
    -iota(t) when mu2 = 0.
    """
    n, m = ctx.ops.n_nodes, ctx.n_delta + 1
    u, v, w = np.zeros((5, n)), np.zeros((5, n)), np.zeros((5, m))
    # u alone, one interior channel node, the trace v_N = w_0, the outflow
    # w_M, and the last two together
    u[0, -1] = w[1, 1] = 1.0
    v[2::2, -1] = w[2::2, 0] = w[3:, -1] = 1.0
    shift = iota(ctx.delay, np.asarray(times, dtype=float)[:, None])
    form, norm = quadratic_form((u, v, w), times, ctx)
    # the unshifted form: exactly 0 on u alone
    lone, node, a, c, both = (form + shift * norm).T
    if ctx.gains.mu1 == 0.0:
        top = np.full(len(times), math.inf if ctx.gains.mu2 != 0.0 else 0.0)
    else:
        p, q = norm[:, 2], norm[:, 3]
        # the pencil scaled to unit norm weights, ((x, b), (b, y))
        x, y = a / p, c / q
        b = 0.5 * (both - a - c) / (np.sqrt(p) * np.sqrt(q))
        top = np.maximum.reduce([
            lone / norm[:, 0], node / norm[:, 1],
            0.5 * (x + y) + np.hypot(0.5 * (x - y), b)])
    return [{"max_form_ratio": value, "pass": value <= 1e-8}
            for value in (top - shift[:, 0]).tolist()]


class Resolvent:
    """(I - A(t))^{-1} at one time t, for stacks of right-hand sides.

    The channel w + c w_delta = h, w(0) = v(1) is one upwind step of dt = 1,
    linear in its inflow: w = w_h + v(1) w_1, with w_h the solve of the
    load (inflow 0) and w_1 the unit profile (inflow 1, load 0), whose
    outflow is A_d.  Eliminating v = u - f and w leaves an SPD tridiagonal
    system for u with boundary weight mu1 + mu2 A_d + beta, factored once
    here.  The residuals take A(t) from `generator_apply`, which asserts
    that the solution lies in the domain.
    """

    def __init__(self, t: float, ctx: ProbeContext):
        ops, gains = ctx.ops, ctx.gains
        self.t, self.ctx = t, ctx
        self.tau = float(ctx.delay.tau(t))
        self.taup = float(ctx.delay.tau_prime(t))
        self.band = upwind_bands([self.tau], [self.taup], 1.0,
                                 ctx.n_delta)[0].T
        unit = np.zeros(ctx.n_delta + 1)
        unit[0] = 1.0
        self.w1 = upwind_solve(self.band, unit)
        self.a_d = float(self.w1[-1])
        self.factor = ops.factor(
            1.0, 1.0, ops.a1 * (gains.mu1 + gains.mu2 * self.a_d + gains.beta),
            "resolvent")

    def solve(self, f, g, h, scale):
        """(u, v, w, residual, boundary identity) for the (B, n) stacks
        (f, g, h), one solve of each kind for the whole stack; the residual
        and the identity are per row, relative to the row's scale."""
        ops, gains = self.ctx.ops, self.ctx.gains
        start = ops.first_active
        # the channel's response to the load, a column per row, inflow 0
        w = np.array(h.T, order="F")
        w[0] = 0.0
        w = upwind_solve(self.band, w).T
        # the right-hand side of the u system, solved in place
        u = ops.mass * (f + g)
        u[:, -1] += ops.a1 * ((gains.mu1 + gains.mu2 * self.a_d) * f[:, -1]
                              - gains.mu2 * w[:, -1])
        self.factor.solve_in_place(u[:, start:].T)
        u[:, :start] = 0.0
        v = u - f
        v[:, :start] = 0.0
        w += v[:, -1:] * self.w1

        # block residuals of (I - A) U = G, measured on the equation rows
        au, av, aw = generator_apply((u, v, w), self.t, self.ctx)
        res_v = v - av - g
        residual = np.maximum.reduce([
            np.max(np.abs(u - au - f), axis=-1),
            np.max(np.abs(res_v[:, start:]), axis=-1),
            np.max(np.abs((w - aw - h)[:, 1:]), axis=-1)])
        residual /= scale
        # the feedback row in flux units: M_N |r_N| / a(1)
        ident = ops.mass[-1] * np.abs(res_v[:, -1]) / ops.a1 / scale
        return u, v, w, residual, ident


def _claim2(times, ctx: ProbeContext, trials: int, seed: int) -> list:
    """Claim 2: the residual check of (I - A(t)) U = G for the first
    `trials` random right-hand sides of default_rng([seed]), at each of the
    times; one certificate row per time.  PASS iff both worst values stay
    below 1e-8.  Raises ValueError for trials < 1: a claim that checked
    nothing must not pass."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    solvers = [Resolvent(float(t), ctx) for t in times]
    rows = [{"max_residual": 0.0, "max_boundary_identity": 0.0,
             "trials": trials, "pass": True, "seed": seed} for _ in times]
    n = ctx.ops.n_nodes
    for _, (f, g, h) in _trial_blocks(trials, seed, (n, n, ctx.n_delta + 1)):
        # the constrained node of the Dirichlet regime carries no load
        f = f.copy()
        f[:, :ctx.ops.first_active] = 0.0
        # residuals are measured relative to max(1, ||G||_H), row by row
        scale = np.maximum(1.0, np.sqrt(
            2.0 * lyapunov_raw(f, g, h, 1.0, ctx.ops, ctx.gains)[0]))
        for row, res in zip(rows, solvers):
            residual, ident = res.solve(f, g, h, scale)[3:]
            r = _running_max(row, "max_residual", residual)
            i = _running_max(row, "max_boundary_identity", ident)
            row["pass"] = r <= 1e-8 and i <= 1e-8
    return rows


def _exp(x: float) -> float:
    """e^x, or inf where it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _claim3(pairs, ctx: ProbeContext) -> list:
    """Claim 3 in closed form: the supremum of ||U||_t / ||U||_s over the
    domain against the stated bound e^{d |t-s| / (2 tau0)}; one certificate
    row per (s, t) pair.  PASS iff the excess stays below 1e-12.  The looser
    in-proof exponent d/tau0 is reported alongside.

    ||U||_t^2 = P + tau(t) Q, with P >= 0 the wave blocks of 2 E and Q =
    mu1 a(1) trap(w^2) >= 0 (`analysis.lyapunov_raw`), so the squared ratio
    is a weighted mean of 1 and tau(t)/tau(s): the supremum is
    sqrt(max(1, tau(t)/tau(s))) when mu1 > 0, and 1 when mu1 = 0, where Q
    vanishes.  A pure-channel state, u = v = 0 and w != 0 with w_0 = 0,
    lies in the domain and attains it.  A bound past the float range is
    inf, which holds trivially: its excess is 0.
    """
    d, tau0 = ctx.delay.d, ctx.delay.tau0
    rows = []
    for s, t in pairs:
        ratio = float(ctx.delay.tau(t)) / float(ctx.delay.tau(s))
        worst = math.sqrt(max(1.0, ratio if ctx.gains.mu1 > 0.0 else 1.0))
        bound = _exp(d / (2.0 * tau0) * abs(t - s))
        excess = max(0.0, worst - bound)
        rows.append({"max_ratio": worst, "bound_stated": bound,
                     "bound_proof": _exp(d / tau0 * abs(t - s)),
                     "excess": excess, "pass": excess <= 1e-12})
    return rows


def dadt_bound(t: float, ctx: ProbeContext) -> float:
    """A bound B(t) on ||A'(t) U||_H / ||U||_graph over the whole domain:
    the largest |d/dt log c(delta_i, t)| = |tau'/tau + delta_i tau''/(1 -
    delta_i tau')| over the channel nodes.

    Only the channel speed c = (1 - delta tau')/tau depends on t, and the
    channel block of A(t) U is -c(delta_i, t) times a difference of w that
    does not.  So A'(t) U is that block scaled node by node by
    d/dt log c, its H-norm is at most B(t) times the channel block's, which
    is one of the nonnegative blocks of ||A U||_H, and ||A U||_H <=
    ||U||_graph.  A channel state that alternates beside the maximizing
    node attains about 99 % of it.
    """
    delay = ctx.delay
    tau, taup, taupp = (float(f(t)) for f in
                        (delay.tau, delay.tau_prime, delay.tau_second))
    delta = delta_grid(ctx.n_delta)
    return float(np.max(np.abs(taup / tau + delta * taupp
                               / (1.0 - delta * taup))))


def run_certificate(ctx: ProbeContext, t_list, seed: int = 0,
                    diss_trials: int = 500, res_trials: int = 100,
                    ratio_trials: int = 500) -> dict:
    """All probes at each requested time; JSON-ready aggregation.

    Claim 1 (`_claim1`) is exact over the constrained space and draws
    nothing.  Claim 2 (`_claim2`) checks the first res_trials trials of one
    stream, default_rng([seed]), the only trials the certificate draws.
    The norm ratio (`_claim3`, exact) is checked on consecutive pairs of
    t_list and on its first and last entries.  Each distinct time and each
    distinct pair is evaluated once, so a repeated time adds no work and no
    key.  Rows are keyed "t=<t>" and "s=<s>,t=<t>", a time printed with
    format(t, "g"), or with repr(t) where distinct times would print alike
    and share a row.

    dAdt holds `dadt_bound` at each time, a bound on ||A'(t) U||_H over
    ||U||_graph that draws no trials.  It enters "pass" only in that it
    must be finite.

    diss_trials and ratio_trials are accepted and unused: claims 1 and 3
    draw nothing.  The benchmark's certify workload still passes them, and
    ROADMAP item 9's certify change deletes them.
    """
    t_list = [float(t) for t in t_list]
    if not t_list:
        raise ValueError("need at least one probe time")
    times = list(dict.fromkeys(t_list))
    pairs = list(zip(t_list[:-1], t_list[1:]))
    if len(t_list) >= 2:
        pairs.append((t_list[0], t_list[-1]))
    pairs = list(dict.fromkeys(pairs))
    short = {t: format(t, "g") for t in times}
    count = Counter(short.values())
    label = {t: x if count[x] == 1 else repr(t) for t, x in short.items()}
    keys = [f"t={label[t]}" for t in times]
    claim1 = dict(zip(keys, _claim1(times, ctx)))
    claim2 = dict(zip(keys, _claim2(times, ctx, res_trials, seed)))
    dadt = {key: {"bound": dadt_bound(t, ctx)} for key, t in zip(keys, times)}
    claim3 = dict(zip((f"s={label[s]},t={label[t]}" for s, t in pairs),
                      _claim3(pairs, ctx)))
    all_pass = (
        all(row["pass"] for claim in (claim1, claim2, claim3)
            for row in claim.values())
        and all(math.isfinite(row["bound"]) for row in dadt.values())
    )
    return {
        "claim1": claim1, "claim2": claim2, "claim3": claim3, "dAdt": dadt,
        "pass": all_pass,
    }
