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
  time-dependent inner product, iota(t) = sqrt(1 + tau'(t)^2)/(2 tau(t));
* surjectivity of I - A(t) by direct residuals on random right-hand sides;
* the variable-norm ratio bound ||U||_t / ||U||_s <= e^{d |t-s| / (2 tau0)}.

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

Each claim builder (`_claim1`, `_claim2`, `_claim3`) takes the list of
its times (of (s, t) pairs for the norm ratio) and fills one row of the
certificate's JSON per entry.  The three claims run in one loop, `_run`:
`run_certificate` runs them together, and `_run` of one claim runs it
alone.  Every claim reads one stream, default_rng([seed]), in which trial
k is the k-th (u, v, w) chunk, and a claim of k trials checks the first k
of them, so a run of k trials checks the first k of any longer run.  A
trial is drawn once for every claim and every time, and a claim run alone
returns exactly the rows the certificate reports for it.  Trials are
evaluated in blocks of rows, as stacked (B, n) arrays of at most
BLOCK_DOUBLES entries (the budget `delay_channel.BLOCK_DOUBLES` that the
stepper's blocks share), one standard_normal fill each.  A block is
read-only and shared by the claims: claim 3 reads it as drawn, claim 1
reads projected copies, and claim 2 zeroes the Dirichlet node of its load
in a copy.  The operations are row-wise: the projection, the quadratic
form, the squared norms ||.||_t^2 and ||.||_H^2 and the residuals.  Each
squared norm is twice the energy `analysis.lyapunov_raw` gives with
tau = tau(t) or tau = 1, so ||U||_t^2 of a recorded state is twice its
recorded E.
Row-wise sums (np.vecdot) and the multi-right-hand-side LAPACK solves give
each row the bits it would get alone, so the rows do not depend on the
block size.  The resolvent factors its SPD tridiagonal once per time, as
`ops.factor(1, 1, a(1) (mu1 + mu2 A_d + beta))` with A_d the outflow of
its unit channel profile, and solves a whole block with one ?tbtrs
channel solve of the loads and one ?pttrs call.
A claim run alone or a certificate with fewer than one trial for some
claim raises ValueError instead of passing.
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


def _run(ctx: ProbeContext, seed: int, claims: list) -> list:
    """The certificate rows of each claim, all evaluated on the trials of
    one stream, default_rng([seed]).

    A claim is (trials, update, rows), as _claim1, _claim2 and _claim3
    build it: update(k0, u, v, w) folds trials k0, k0 + 1, ... into
    the rows.  One pass of _trial_blocks covers the most trials any claim
    needs, and each claim gets the first trials - k0 rows of a block while
    that is positive, as read-only arrays.  Raises ValueError for a claim
    with trials < 1: a claim that checked nothing must not pass.
    """
    counts = [trials for trials, _, _ in claims]
    if min(counts) < 1:
        raise ValueError(f"need at least one trial, got {min(counts)}")
    n = ctx.mesh.N + 1
    for k0, U in _trial_blocks(max(counts), seed, (n, n, ctx.n_delta + 1)):
        for trials, update, _ in claims:
            if k0 < trials:
                update(k0, *(x[:trials - k0] for x in U))
    return [rows for _, _, rows in claims]


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


def _claim1(times, ctx: ProbeContext, trials: int, seed: int):
    """Claim 1 for _run: the max of the shifted quadratic form over random
    domain-projected states, normalized by the squared state norm, at each
    of the times; one certificate row per time.  PASS iff it stays below
    tol = 1e-8."""
    tol = 1e-8
    rows = [{"max_form_ratio": -math.inf, "positive_trials": 0,
             "trials": trials, "pass": True, "seed": seed} for _ in times]

    def update(k0, *U):
        u, v, w = project_to_domain(U, ctx)
        # importance sampling: the form's sign is decided by the boundary
        # traces, so every fourth trial concentrates its mass there.  The
        # scaling leaves v(1) and w(0) alone and keeps the projection's
        # zeros, so it gives the same states before or after projecting.
        hit = np.arange(k0, k0 + len(u)) % 4 == 3
        u[hit] *= 0.0
        v[hit, :-1] *= 1e-3
        w[hit, 1:-1] *= 1e-3
        form, norm = quadratic_form((u, v, w), times, ctx)
        for row, num, den in zip(rows, form, norm):
            live = den != 0.0
            ratio = num[live] / den[live]
            worst = _running_max(row, "max_form_ratio", ratio)
            row["positive_trials"] += int(np.count_nonzero(ratio > tol))
            row["pass"] = worst <= tol

    return trials, update, rows


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


def _claim2(times, ctx: ProbeContext, trials: int, seed: int):
    """Claim 2 for _run: the residual check of (I - A(t)) U = G for random
    right-hand sides, at each of the times; one certificate row per time.
    PASS iff both worst values stay below 1e-8."""
    solvers = [Resolvent(float(t), ctx) for t in times]
    rows = [{"max_residual": 0.0, "max_boundary_identity": 0.0,
             "trials": trials, "pass": True, "seed": seed} for _ in times]

    def update(k0, f, g, h):
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

    return trials, update, rows


def _claim3(pairs, ctx: ProbeContext, trials: int, seed: int):
    """Claim 3 for _run: the max of ||U||_t / ||U||_s over random states
    against the stated bound e^{d |t-s| / (2 tau0)}; one certificate row
    per (s, t) pair.  PASS iff the excess stays below 1e-12.  The looser
    in-proof exponent d/tau0 is reported alongside."""
    pairs = [(float(s), float(t)) for s, t in pairs]
    times = list(dict.fromkeys(x for pair in pairs for x in pair))
    # a column of delays that broadcasts against a block's trials
    taus = ctx.delay.tau(np.asarray(times)[:, None])
    d, tau0 = ctx.delay.d, ctx.delay.tau0
    rows = [{"max_ratio": 0.0,
             "bound_stated": math.exp(d / (2.0 * tau0) * abs(t - s)),
             "bound_proof": math.exp(d / tau0 * abs(t - s)),
             "excess": 0.0, "pass": True, "seed": seed} for s, t in pairs]

    def update(k0, *U):
        norms = 2.0 * lyapunov_raw(*U, taus, ctx.ops, ctx.gains)[0]
        for row, (s, t) in zip(rows, pairs):
            a, b = norms[times.index(t)], norms[times.index(s)]
            live = b > 0.0
            worst = _running_max(row, "max_ratio", np.sqrt(a[live] / b[live]))
            row["excess"] = max(0.0, worst - row["bound_stated"])
            row["pass"] = row["excess"] <= 1e-12

    return trials, update, rows


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

    The three claims run as one pass over one stream, default_rng([seed]):
    trial k serves every claim that covers it, and each claim's rows equal
    those of the claim run alone with the same seed and trial count.  The
    norm ratio is checked on consecutive pairs of t_list and on its first
    and last entries.  Each distinct time and each distinct pair is
    evaluated once, so a repeated time adds no work and no key.  Rows are
    keyed "t=<t>" and "s=<s>,t=<t>", a time printed with format(t, "g"), or
    with repr(t) where distinct times would print alike and share a row.

    dAdt holds `dadt_bound` at each time, a bound on ||A'(t) U||_H over
    ||U||_graph that draws no trials.  It enters "pass" only in that it
    must be finite.
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
    *by_time, by_pair = _run(ctx, seed, [
        _claim1(times, ctx, diss_trials, seed),
        _claim2(times, ctx, res_trials, seed),
        _claim3(pairs, ctx, ratio_trials, seed)])
    claim1, claim2 = (dict(zip(keys, rows)) for rows in by_time)
    dadt = {key: {"bound": dadt_bound(t, ctx)} for key, t in zip(keys, times)}
    claim3 = dict(zip((f"s={label[s]},t={label[t]}" for s, t in pairs),
                      by_pair))
    all_pass = (
        all(row["pass"] for claim in (claim1, claim2, claim3)
            for row in claim.values())
        and all(math.isfinite(row["bound"]) for row in dadt.values())
    )
    return {
        "claim1": claim1, "claim2": claim2, "claim3": claim3, "dAdt": dadt,
        "pass": all_pass,
    }
