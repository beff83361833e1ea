"""Time integration of the coupled wave / delay-channel system.

One step advances the semi-discrete system

    M dv/dt = -K u - a(1) e_N [mu1 v(1) + mu2 v(1; delayed) + beta u(1)],
    du/dt   = v,

by the implicit midpoint rule, with the delayed trace taken explicitly from
the history ring at the midpoint time (it is known history, so no
iteration is needed and the local part keeps its unconditional stability).
The linear system is SPD tridiagonal (the feedback only loads the last
diagonal entry): `StepWorkspace.build` factors it once per run of
consecutive rows with one `system_key` (mu1, beta), as
`ops.factor(dt^2/2, 2, dt a(1) (mu1 + dt beta/2))`, and the wave part of
a step is one solve with the factors (`_midpoint_solver`, shared by
`step` and `run`).  The stretched-history channel then takes its implicit
upwind step, one lower-bidiagonal solve with the new boundary velocity as
its inflow (`delay_channel.upwind_bands` and `upwind_solve`, the kernel of
`transport_step`, which `step` calls).

`run` steps a lockstep batch of B rows, runs that differ only in their
gains.  mu2 only loads the right-hand side and mu1 and beta only the last
pivot of the midpoint matrix, so the rows share the channel bands, the
delay and one history ring with a column per row, and consecutive rows of
one (mu1, beta) share its factors.  The wave states are node-major (n, B)
arrays, a column per row, so each ufunc call of a step is one contiguous
pass over the batch; the solve copies the right-hand sides into one
Fortran-order scratch, where the factors of each run of rows solve its
columns (`cli.sweep_rows` sorts a batch by system, so each is factored
once).
Every operation acts entry by entry and the LAPACK solves treat each
right-hand side on its own, so each row gets the bits of its run alone,
and a row whose state turns non-finite stops alone.  `run` takes one
GainSet per row and returns one Trajectory or NonFiniteState per row; a
single run is a batch of one.  `step` advances one state by one step; it
is the reference that `run` is tested against.

Only the wave step and the ring feed the feedback; the channel and the
recorded columns are diagnostics.  `run` is one loop over blocks of steps;
a block covers about BLOCK_DOUBLES // (n_nodes B) recorded instants, so
that its (instants, B, n) stacks stay within BLOCK_DOUBLES entries, in at
least MIN_BLOCK_STEPS and at most BLOCK_DOUBLES steps.
Since tau >= tau0, the delayed samples of a block of L steps are all in the
ring before its first step when (L + 1/2) dt <= tau0, which caps L (at one
step at least).  A block evaluates tau and tau' at its step midpoints and
tau at its recorded instants in one array call each, and reads the ring
once before its steps and once, for its recorded instants, after them;
`DelaySpec` gives a scalar the bits of an array entry.  The block's channel
bands are built a chunk of steps at a time (at most BLOCK_DOUBLES entries,
whatever the block's length).  A step is then the midpoint solve and one
channel solve: the batch's channel is a C-order (B, m + 1) array whose
Fortran-order transpose is solved where it lies, a column per row.  A
recorded step copies u, v and w into the block's (instants, B, n) stacks,
and the block's rows get their columns from one row-wise call each; a run
that keeps snapshots copies each stack into its (B, instants, n) stack of
the run in one slice.  An `energy_only` run records t and E alone: a block
then evaluates E (`analysis.lyapunov_raw` at epsilon 0) and nothing else,
no E~ block, no ring read at its recorded instants and no trace, residual
or discrepancy column.
`step` and `run` share every kernel, so they agree bit for bit.

Step n lands on t = n dt exactly: the ring sits on the same uniform grid and
its newest index is the step counter.  `step` updates one SimState in place,
by the step dt of the workspace it is given; a run's final states are such
states, each with its own row of the batch's ring (`HistoryBuffer.row`), so
`step` continues a row where `run` stopped it.  `init_state`, `run` and
`bc_residual` read the mesh from the operators (`ops.mesh`), and the left
boundary condition is `ops.first_active`: 1 when node 0 carries the weak
degeneracy's Dirichlet constraint, else 0.

Initial data take one form here: `initial` = (u0, v0, f0), the displacement
and velocity as arrays on mesh.nodes and the history f0 as a callable on
past times s <= 0 (the ring and the channel sample it at different times).
`config.initial_data` makes them from a config's preset names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import analysis
from .delay_channel import (
    BLOCK_DOUBLES,
    HistoryBuffer,
    init_channel,
    transport_step,
    upwind_bands,
    upwind_solve,
)
from .errors import IncompatibleInitialData, NonFiniteState, ShapeMismatch
from .mesh import DiscreteOperators, Mesh, SPDTridiagonal
from .model import DelaySpec, GainSet


# a block takes at least this many steps (as the delay allows), so that its
# fixed cost of a few dozen small array calls is spread over them
MIN_BLOCK_STEPS = 16


# --- state and trajectory ---------------------------------------------------


@dataclass
class SimState:
    """Discrete state: nodal displacement/velocity, delay channel profile w
    on `delay_channel.delta_grid`, history ring.  `step` updates it in place."""

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    buffer: HistoryBuffer


# recorded columns, in the order of `run`'s data and of the CSV header/rows
COLUMNS = ("t", "E", "E_tilde", "trace_v", "trace_v_delayed", "bc_residual",
           "channel_discrepancy")


@dataclass
class Trajectory:
    """What a run recorded: the columns (one array per name in COLUMNS,
    one entry per recorded instant; an energy-only run's are t and E, and
    its others None), the run's warnings, the final state and, when the run
    kept them, the snapshots (u, v, w): (instants, n) stacks of the state
    at each instant of `t`."""

    t: np.ndarray
    E: np.ndarray
    E_tilde: Optional[np.ndarray]
    trace_v: Optional[np.ndarray]
    trace_v_delayed: Optional[np.ndarray]
    bc_residual: Optional[np.ndarray]
    channel_discrepancy: Optional[np.ndarray]
    warnings: list[str]
    final_state: Optional[SimState] = None
    snapshots: Optional[tuple] = None


def init_state(ops: DiscreteOperators, delay: DelaySpec, initial: tuple,
               n_delta: int = 64, dt: float = 1e-3, rows: Optional[int] = None,
               lookahead: int = 0) -> tuple[SimState, list[str]]:
    """Seed the state and both delay realizations from the initial data
    `initial` = (u0, v0, f0): displacement and velocity arrays on
    ops.mesh.nodes, and the history f0, a callable on past times s <= 0.  The
    history ring sits on the grid t_k = k dt of the step dt.  With `rows`
    the ring has one column per row of a batch that starts from this
    state; it also keeps the `lookahead` samples a block of that many steps
    appends before it reads back over the delay.

    u0 and v0 are copied, since stepping updates the state in place; either
    one off the nodes' shape is a ShapeMismatch.
    Returns the state and a list of compatibility warnings: in the
    Dirichlet regime (ops.first_active = 1) a u0 with u0(0) != 0 or a v0
    with v0(0) != 0 is an error (u(t, 0) = 0 forces u_t(t, 0) = 0), while
    a mismatch between v0(1) and the history at time 0 is legal (the
    solver is agnostic) and only recorded.
    """
    warnings: list[str] = []
    u0, v0, f0 = initial
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    shape = ops.mesh.nodes.shape
    for name, x in (("u0", u), ("v0", v)):
        if x.shape != shape:
            raise ShapeMismatch(f"{name} has shape {x.shape} but mesh.nodes "
                                f"has shape {shape}")
        if ops.first_active:
            if abs(x[0]) > 1e-12:
                raise IncompatibleInitialData(
                    f"{name}(0) = {x[0]:.3g} but the weak-degeneracy regime "
                    "pins u(t,0) = 0")
            x[0] = 0.0

    tau0 = float(delay.tau(0.0))
    w = init_channel(f0, tau0, n_delta)
    buffer = HistoryBuffer(dt, horizon=delay.tau1 + (2 + lookahead) * dt, f0=f0,
                           shape=() if rows is None else (rows,))

    if abs(float(f0(0.0)) - float(v[-1])) > 1e-12:
        warnings.append(
            "history/velocity splice mismatch at t=0: "
            f"f0(0) = {float(f0(0.0)):.6g} vs u1(1) = {float(v[-1]):.6g}"
        )
    return SimState(t=0.0, u=u, v=v, w=w, buffer=buffer), warnings


@dataclass(frozen=True)
class BatchGains:
    """The gains of a lockstep batch, one entry per row: it stands in for a
    GainSet wherever the rows are evaluated together."""

    mu1: np.ndarray
    mu2: np.ndarray
    beta: np.ndarray

    @classmethod
    def of(cls, rows: Sequence[GainSet]) -> "BatchGains":
        return cls(np.array([g.mu1 for g in rows]),
                   np.array([g.mu2 for g in rows]),
                   np.array([g.beta for g in rows]))


def system_key(mu1: float, beta: float) -> tuple:
    """The gains that fix a row's midpoint system: mu2 only loads the
    right-hand side, so the rows of a batch with one key share the
    system's factors."""
    return mu1, beta


@dataclass
class StepWorkspace:
    """The midpoint systems of one run, factored once for the step dt, and
    the operator 2M - dt K of its right-hand side as the diagonal `mass2`
    = 2M and the conductances `k_rhs` = -dt k_cell.  `systems` holds one
    (system, c0, c1) per run of consecutive batch rows c0, ..., c1 - 1 with
    one `system_key`, so a batch sorted by system factors each one once."""

    dt: float
    systems: list[tuple[SPDTridiagonal, int, int]]
    mass2: np.ndarray
    k_rhs: np.ndarray

    @classmethod
    def build(cls, ops: DiscreteOperators, gains: GainSet | Sequence[GainSet],
              dt: float) -> "StepWorkspace":
        rows = [gains] if isinstance(gains, GainSet) else gains
        systems, c1 = [], 0
        keys = [system_key(g.mu1, g.beta) for g in rows]
        for (mu1, beta), run in itertools.groupby(keys):
            c0, c1 = c1, c1 + len(list(run))
            system = ops.factor(0.5 * dt * dt, 2.0,
                                dt * ops.a1 * (mu1 + 0.5 * dt * beta),
                                "midpoint")
            systems.append((system, c0, c1))
        return cls(dt, systems, 2.0 * ops.mass, -dt * ops.k_cell)


def _midpoint_solver(u: np.ndarray, v: np.ndarray, betas: Sequence[float],
                     ops: DiscreteOperators, work: StepWorkspace) -> Callable:
    """The part of a step the feedback needs, for the node-major (n, B)
    states u and v of a batch (row b's beta betas[b], its system the one
    of `work.systems` whose rows hold b), with buffers allocated once:
    `advance(loads)` does the midpoint solve, updates u and v in place and
    returns the new traces v(1) as a list; loads holds mu2 times the
    delayed trace at the step's midpoint, one float per row.

    It makes the operations of the one-row step in the same order, so
    each row gets the bits it would get alone."""
    start = ops.first_active
    dt = np.array(work.dt)  # 0-d: a ufunc converts a float at every call
    scale = work.dt * ops.a1
    mass2, k_rhs = work.mass2[start:], work.k_rhs
    rows = u.shape[1]
    rhs = np.empty((ops.n_nodes - start, rows))
    u_end, v_end, rhs_end = u[-1], v[-1], rhs[-1]
    if rows == 1:
        # 1-d views (u and v are updated in place for the whole run), on
        # which a ufunc call costs about half; the (n, 1) rhs is one
        # Fortran-order column, solved where it lies
        ((system, _, _),) = work.systems
        solve, columns = system.solve_in_place, rhs
        u, v, rhs = u[:, 0], v[:, 0], rhs[:, 0]
    else:
        # the invariants tiled to the states' shape, so that every ufunc
        # call below is one contiguous pass; the right-hand sides are
        # copied into one Fortran-order scratch, where each system solves
        # the columns of its rows
        mass2 = np.repeat(mass2[:, None], rows, axis=1)
        k_rhs = np.repeat(k_rhs[:, None], rows, axis=1)
        columns = np.empty_like(rhs, order="F")
        parts = [(system.solve_in_place, columns[:, c0:c1])
                 for system, c0, c1 in work.systems]

        def solve(scratch):
            np.copyto(scratch, rhs)
            for solve_in_place, part in parts:
                solve_in_place(part)
            np.copyto(rhs, scratch)

    flux = np.empty((ops.n_nodes - 1,) + rhs.shape[1:])
    twice = np.empty_like(rhs)
    u_act, v_act = u[start:], v[start:]
    u_hi, u_lo = u[1:], u[:-1]
    rhs_lo, rhs_hi = rhs[:-1], rhs[1 - start:]
    flux_lo = flux[start:]
    mul, add, sub = np.multiply, np.add, np.subtract

    def advance(loads) -> list:
        # 2 M v - dt K u on the active nodes (the flux order of
        # ops.stiffness_matvec); a Dirichlet node (start = 1) keeps u = v = 0
        mul(mass2, v_act, rhs)
        sub(u_hi, u_lo, flux)
        mul(k_rhs, flux, flux)
        sub(rhs_lo, flux_lo, rhs_lo)
        add(rhs_hi, flux, rhs_hi)
        # - dt a(1) (beta u(1) + mu2 w_mid) on the last node, in floats: B
        # scalars cost less than four ufunc calls
        for b, (beta, u1, load) in enumerate(zip(betas, u_end.tolist(),
                                                 loads)):
            rhs_end[b] -= scale * (beta * u1 + load)
        solve(columns)
        # v' = 2 vbar - v and u' = u + dt vbar, in place (vbar + vbar is
        # 2 vbar exactly)
        add(rhs, rhs, twice)
        sub(twice, v_act, v_act)
        mul(rhs, dt, rhs)
        add(u_act, rhs, u_act)
        return v_end.tolist()

    return advance


def step(state: SimState, gains: GainSet, delay: DelaySpec,
         ops: DiscreteOperators, workspace: StepWorkspace) -> SimState:
    """Advance the coupled system in place by one implicit-midpoint step of
    size workspace.dt, the step its midpoint system is factorized for; a
    state whose history ring sits on another step is a ValueError.
    Returns the same state."""
    buf, dt = state.buffer, workspace.dt
    if buf.dt != dt:
        raise ValueError(f"the history grid's step {buf.dt} differs from "
                         f"the workspace's {dt}")
    t_mid = (buf.last + 0.5) * dt
    tau_mid = float(delay.tau(t_mid))
    advance = _midpoint_solver(state.u[:, None], state.v[:, None],
                               [gains.beta], ops, workspace)
    (trace,) = advance([gains.mu2 * float(buf.sample(t_mid - tau_mid))])
    buf.extend([trace])
    state.t = buf.last * dt
    state.w = transport_step(state.w, tau_mid, float(delay.tau_prime(t_mid)),
                             dt, trace)
    return state


def bc_residual(u, v, w_del, gains: GainSet | BatchGains,
                ops: DiscreteOperators):
    """|feedback law residual| of the state (u, v) whose delayed trace, the
    ring's sample at t - tau(t), is w_del.

    u and v may be (rows, n) stacks with one w_del per row, and `gains` a
    BatchGains whose mu1, mu2 and beta run over the last leading axis;
    each row gets the bits it would get alone.  The displacement slope at
    x = 1 is the one-sided P1 flux of the last element, so the residual
    carries the scheme's O(dt + 1/N) consistency error by design.
    """
    u_end = u[..., -1]
    flux = (u_end - u[..., -2]) / ops.mesh.h[-1]
    return np.abs(gains.mu1 * v[..., -1] + gains.mu2 * w_del + flux
                  + gains.beta * u_end)


def default_dt(mesh: Mesh, a1: float) -> float:
    """Accuracy-motivated step: min(1e-3, 0.5 h_N / sqrt(a(1)))."""
    return min(1e-3, 0.5 * float(mesh.h[-1]) / math.sqrt(a1))


def step_count(t_final: float, dt: float) -> tuple[int, Optional[str]]:
    """The number of steps to t_final, and a warning naming the run's real
    final time when t_final is not a whole number of steps (more than
    1e-6 dt away from the grid)."""
    n_steps = int(round(t_final / dt)) if t_final > 0 else 0
    t_end = n_steps * dt
    if abs(t_end - t_final) <= 1e-6 * dt:
        return n_steps, None
    return n_steps, (f"t_final = {t_final:.10g} is not a whole number of "
                     f"steps dt = {dt:.10g}; the run ends at t = {t_end:.10g}")


def run(ops: DiscreteOperators, gains: Sequence[GainSet], delay: DelaySpec,
        t_final: float, dt: float, initial: tuple,
        record_every: int = 1, n_delta: int = 64, lyap=None,
        snapshots: bool = False, energy_only: bool = False):
    """Integrate to t_final, recording the COLUMNS every record_every
    steps (plus the initial and final instants), or with `energy_only` t
    and E alone (the other columns are None, and `lyap`'s entries are not
    read).

    The rows, one per GainSet, run as one lockstep batch from the same
    initial data `initial` = (u0, v0, f0), as `init_state` takes them;
    `lyap` (LyapunovParams or None) is a sequence with one entry per row,
    or None for none at all: any other length is a ValueError.  With
    `snapshots`, each Trajectory also keeps the state (u, v, w) at every
    recorded instant.
    Returns a list with each row's Trajectory, or the NonFiniteState that
    stopped that row.  A row gets the bits of its run alone; a single run
    is a batch of one.

    The run takes round(t_final / dt) steps; when t_final is not a whole
    number of steps, a warning names the time the run ends at.  When no
    Lyapunov parameters are supplied (or derivable: the modified functional
    requires a strictly positive damping margin), E_tilde is recorded as E
    itself.  A row stops with NonFiniteState at its first recorded instant
    whose energy is not finite: E is a positive-weighted sum of squares of
    every entry of u, v and w, so it catches any overflow or NaN in the
    state.  Where the boundary velocity alone already makes E non-finite
    at an unrecorded step, the row stops at the end of that step's block
    and its message names that step.
    """
    if t_final < 0.0 or dt <= 0.0 or record_every < 1:
        raise ValueError("need t_final >= 0, dt > 0, record_every >= 1")
    n_batch = len(gains)
    if lyap is None:
        lyap = [None] * n_batch
    elif len(lyap) != n_batch:
        raise ValueError(f"lyap has {len(lyap)} entries for a batch of "
                         f"{n_batch} rows")
    batch = BatchGains.of(gains)
    names = COLUMNS[:2] if energy_only else COLUMNS
    # at epsilon 0, lyapunov_raw skips the E~ block
    eps = 0.0 if energy_only else np.array(
        [0.0 if p is None else p.epsilon for p in lyap])

    n_steps, note = step_count(t_final, dt)
    # the initial instant, every record_every-th step and the last
    n_rows = -(-n_steps // record_every) + 1
    # a block reads the samples of all its steps before its first one:
    # (L + 1/2) dt <= tau0, half a step inside the exact bound so that
    # rounding never moves a read past the newest sample
    reach = max(1, math.floor(delay.tau0 / dt - 0.5))
    # the block's (instants, B, n) stacks hold about BLOCK_DOUBLES entries
    stacked = ops.n_nodes * max(n_batch, 1)
    span = min(max(BLOCK_DOUBLES // stacked * record_every, MIN_BLOCK_STEPS),
               BLOCK_DOUBLES, reach)
    state, warnings = init_state(ops, delay, initial, n_delta=n_delta, dt=dt,
                                 rows=n_batch, lookahead=span)
    if note is not None:
        warnings.append(note)
    work = StepWorkspace.build(ops, gains, dt)
    rows = span // record_every + 2
    n, m1 = ops.n_nodes, n_delta + 1
    us, vs = np.empty((rows, n_batch, n)), np.empty((rows, n_batch, n))
    ws = np.empty((rows, n_batch, m1))
    data = np.empty((n_batch, len(names), n_rows))
    snaps = ((np.empty((n_batch, n_rows, n)), np.empty((n_batch, n_rows, n)),
              np.empty((n_batch, n_rows, m1))) if snapshots else None)
    # the batch's states node-major, a column per row
    u = np.repeat(state.u[:, None], n_batch, axis=1)
    v = np.repeat(state.v[:, None], n_batch, axis=1)
    # their (B, n) transposes, the layout of the stacks the energy reads
    u_rows, v_rows = u.T, v.T
    # the channel profiles as C-order (B, m + 1) rows: their transpose w is
    # the Fortran-order right-hand side the channel step solves where it
    # lies, and its row 0, w_in, takes each step's inflows
    w_rows = np.repeat(state.w[None, :], n_batch, axis=0)
    w, w_in, v_end = w_rows.T, w_rows[:, 0], v[-1]
    # the bands of a chunk of steps (BLOCK_DOUBLES entries at most, so that
    # they never grow with the block), each step's in Fortran order
    chunk = min(span, max(1, BLOCK_DOUBLES // (2 * m1)))
    bands = np.empty((chunk, m1, 2))
    band_steps = [band.T for band in bands]
    buf = state.buffer
    advance = _midpoint_solver(u, v, batch.beta.tolist(), ops, work)
    out: list = [None] * n_batch
    # each row's first step whose trace alone makes E non-finite, with the
    # trace
    blown: dict = {}

    r0 = 0
    # a row that turns non-finite only spoils its own column; numpy's
    # overflow and invalid-value warnings would repeat what NonFiniteState
    # says, so they are off
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(0, n_steps or 1, span):
            n1 = min(n0 + span, n_steps)
            r1 = n_rows if n1 == n_steps else n1 // record_every + 1
            steps = np.minimum(np.arange(r0, r1) * record_every, n_steps)
            t_rec = steps * dt
            cols = data[:, :, r0:r1]
            cols[:, 0] = t_rec
            t_mid = (np.arange(n0, n1) + 0.5) * dt
            taus, tau_primes = delay.tau(t_mid), delay.tau_prime(t_mid)
            tau_rec = delay.tau(t_rec)
            loads = (batch.mu2 * buf.sample(t_mid - taus)).tolist()
            # the steps into the block of its recorded instants, ended by
            # one it never reaches
            marks = (steps - n0).tolist() + [span + 1]
            j = 0
            if marks[0] == 0:
                # the initial instant, before the first step
                us[0], vs[0], ws[0] = u_rows, v_rows, w_rows
                j = 1
            traces = []
            for c0 in range(0, len(loads), chunk):
                part = loads[c0:c0 + chunk]
                upwind_bands(taus[c0:c0 + chunk], tau_primes[c0:c0 + chunk],
                             dt, n_delta, out=bands[:len(part)])
                for i, (band, load) in enumerate(zip(band_steps, part),
                                                 c0 + 1):
                    traces.append(advance(load))
                    # the channel takes its step after the wave's, with the
                    # new boundary velocity as its inflow
                    np.copyto(w_in, v_end)
                    upwind_solve(band, w)
                    if i == marks[j]:
                        us[j], vs[j], ws[j] = u_rows, v_rows, w_rows
                        j += 1
            block = np.array(traces).reshape(n1 - n0, n_batch)
            buf.extend(block)
            # E sums (M v)_N v_N as computed here with nonnegative terms, so
            # where that is not finite, recorded or not, neither is E
            over = ~np.isfinite(ops.mass[-1] * block * block)
            for b in np.flatnonzero(over.any(axis=0)).tolist():
                c = int(over[:, b].argmax())
                blown.setdefault(b, (n0 + c + 1, block[c, b]))

            e, et = analysis.lyapunov_raw(us[:j], vs[:j], ws[:j],
                                          tau_rec[:j, None], ops, batch, eps)
            finite = np.isfinite(e)
            # a row also stops at the end of the block where its energy
            # turned non-finite at an unrecorded step (it is in `blown`)
            for b, ok in enumerate(finite.all(axis=0).tolist()
                                   if not finite.all() or blown else ()):
                if out[b] is not None or (ok and b not in blown):
                    continue
                # the row's first instant with a non-finite energy, if any;
                # the row steps on with its column non-finite, unrecorded
                stop = j if ok else int(finite[:, b].argmin())
                r = r0 + stop
                first, trace = blown.get(b, (n_steps + 1, None))
                if stop == j or first < steps[stop]:
                    # it blew up at an unrecorded step (so r > 0)
                    what = (f"{float(first * dt)!r} (energy not finite: "
                            f"boundary velocity {trace}); the last finite "
                            f"one recorded was at t = "
                            f"{float(data[b, 0, r - 1])!r}")
                else:
                    last = (f"the last finite one was at t = "
                            f"{float(data[b, 0, r - 1])!r}" if r else
                            "no finite one was recorded")
                    what = (f"{float(data[b, 0, r])!r} "
                            f"(energy {e[stop, b]}); {last}")
                out[b] = NonFiniteState(f"state is not finite at t = {what}")
            if all(o is not None for o in out):
                break
            cols[:, 1] = e.T
            if not energy_only:
                # the recorded delayed trace is the channel's outflow, the
                # realization the energy integrates; the buffered reference
                # value is recoverable as trace_v_delayed -
                # channel_discrepancy
                w_buf = buf.sample(t_rec - tau_rec)
                w_chan = ws[:j, :, -1]
                for c, col in enumerate((
                        et, vs[:j, :, -1], w_chan,
                        bc_residual(us[:j], vs[:j], w_buf, batch, ops),
                        w_chan - w_buf), 2):
                    cols[:, c] = col.T
            if snaps is not None:
                for snap, stack in zip(snaps, (us, vs, ws)):
                    snap[:, r0:r1] = stack[:j].swapaxes(0, 1)
            r0 = r1

    for b in range(n_batch):
        if out[b] is None:
            final = SimState(n_steps * dt, u[:, b].copy(), v[:, b].copy(),
                             w_rows[b].copy(), buf.row(b))
            out[b] = Trajectory(
                **{**dict.fromkeys(COLUMNS), **dict(zip(names, data[b]))},
                warnings=list(warnings),
                final_state=final,
                snapshots=None if snaps is None else tuple(s[b] for s in snaps))
    return out

