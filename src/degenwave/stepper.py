"""Time integration of the coupled wave / delay-channel system.

One step advances the semi-discrete system

    M dv/dt = -K u - a(1) e_N [mu1 v(1) + mu2 v(1; delayed) + beta u(1)],
    du/dt   = v,

by the implicit midpoint rule, with the delayed trace taken explicitly from
the history ring at the midpoint time (it is known history, so no
iteration is needed and the local part keeps its unconditional stability).
The linear system is SPD tridiagonal (the feedback only loads the last
diagonal entry): `StepWorkspace.build` factors it once per run as a
`mesh.SPDTridiagonal`, and the wave part of a step is one solve with the
factors plus the ring's new trace (`_wave_step`, shared by `step` and
`run`).  The stretched-history channel then takes its implicit upwind step
(`delay_channel.transport_step`, the triangular solve the resolvent shares).

Only the wave step and the ring feed the feedback; the channel and the
recorded columns are diagnostics, so `run` takes them off the step path.
It is one loop over blocks of steps.  A block is a whole number of channel
solves of K steps (`delay_channel.channel_block_steps`) and covers about
BLOCK_DOUBLES // n_nodes recorded instants, in at most BLOCK_DOUBLES steps
(so a sparse recording does not make its per-step arrays grow with the
run).  It evaluates tau and tau' at its step midpoints, and tau at its
recorded instants, in one array call each; `DelaySpec` gives a scalar the
bits of an array entry, so `step` and `run` agree bit for bit.  A recorded
step copies u and v into the block's stacks and takes its ring sample.  At
the end of the block the channel advances K steps per banded solve, and
the block's rows get their columns from one row-wise call each.  `step`
advances the channel at every call, so its state.w is always current.

Step n lands on t = n dt exactly: the ring sits on the same uniform grid and
its newest index is the step counter.  `step` updates one SimState in place.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import analysis
from .delay_channel import (
    BLOCK_DOUBLES,
    HistoryBuffer,
    channel_block_steps,
    init_channel,
    transport_step,
)
from .errors import IncompatibleInitialData, NonFiniteState
from .mesh import (
    DIRICHLET_LEFT,
    DiscreteOperators,
    Mesh,
    SPDTridiagonal,
    add_stiffness_product,
)
from .model import DelaySpec, GainSet


# --- initial data presets ---------------------------------------------------

def _u0_zero(x):
    return np.zeros_like(x)


def _u0_ramp(x):
    return x.copy()


def _sine_bump(mu_a):
    p = max(0.0, 1.0 - mu_a)

    def f(x):
        return np.sin(np.pi * x) * x**p

    return f


def _u1_kick(x):
    # smooth velocity bump toward x = 1, vanishing at both endpoints; the
    # front reaches the boundary gradually, so traces stay resolved on the
    # delay grid from the start
    return 4.0 * x * (1.0 - x) * np.exp(-(((x - 0.7) / 0.18) ** 2))


def displacement_presets(mu_a: float) -> dict[str, tuple[Callable, Callable]]:
    """preset name -> (u0, u1) callables on mesh nodes."""
    return {
        "zero": (_u0_zero, _u0_zero),
        "ramp": (_u0_ramp, _u0_zero),
        "sine-bump": (_sine_bump(mu_a), _u0_zero),
        "velocity-kick": (_u0_zero, _u1_kick),
    }


def history_presets(amplitude: float = 1.0) -> dict[str, Callable]:
    """f0 preset name -> callable on past times s <= 0."""
    return {
        "zero": lambda s: 0.0,
        "constant": lambda s: amplitude,
        "cosine": lambda s: amplitude * math.cos(s),
    }


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
    """Recorded columns (one array per name in COLUMNS, one entry per
    recorded instant) plus the final state and run metadata."""

    t: np.ndarray
    E: np.ndarray
    E_tilde: np.ndarray
    trace_v: np.ndarray
    trace_v_delayed: np.ndarray
    bc_residual: np.ndarray
    channel_discrepancy: np.ndarray
    warnings: list[str]
    final_state: Optional[SimState] = None
    dt: float = 0.0
    n_space: int = 0

    @property
    def bc_residual_coeff(self) -> float:
        """Reported C in max bc_residual <= C (dt + 1/N)."""
        if not self.t.size or self.dt <= 0.0 or self.n_space <= 0:
            return 0.0
        return float(np.max(self.bc_residual) / (self.dt + 1.0 / self.n_space))


def init_state(mesh: Mesh, ops: DiscreteOperators, gains: GainSet,
               delay: DelaySpec, preset: str = "zero", f0_preset: str = "zero",
               f0_amplitude: float = 1.0, n_delta: int = 64, dt: float = 1e-3,
               u0: Optional[Callable] = None, u1: Optional[Callable] = None,
               f0: Optional[Callable] = None) -> tuple[SimState, list[str]]:
    """Sample initial data onto the mesh and seed both delay realizations;
    the history ring sits on the grid t_k = k dt of the step dt.

    Preset names may be overridden by explicit callables; their values are
    copied, since stepping updates the state in place.  Returns the state
    and a list of compatibility warnings: a Dirichlet-regime u0 with
    u0(0) != 0 is an error, while a mismatch between u1(1) and the history
    at time 0 is legal (the solver is agnostic) and only recorded.
    """
    warnings: list[str] = []
    presets = displacement_presets(ops.mu_a)
    if u0 is None or u1 is None:
        if preset not in presets:
            raise ValueError(f"unknown preset {preset!r}; have {sorted(presets)}")
        p0, p1 = presets[preset]
        u0 = u0 or p0
        u1 = u1 or p1
    if f0 is None:
        table = history_presets(f0_amplitude)
        if f0_preset not in table:
            raise ValueError(f"unknown f0 preset {f0_preset!r}")
        f0 = table[f0_preset]

    x = mesh.nodes
    u = np.array(u0(x), dtype=float)
    v = np.array(u1(x), dtype=float)
    if ops.bc_kind == DIRICHLET_LEFT:
        if abs(u[0]) > 1e-12:
            raise IncompatibleInitialData(
                f"u0(0) = {u[0]:.3g} but the weak-degeneracy regime pins u(t,0) = 0"
            )
        u[0] = 0.0
        v[0] = 0.0

    tau0 = float(delay.tau(0.0))
    w = init_channel(f0, tau0, n_delta)
    buffer = HistoryBuffer(dt, horizon=delay.tau1 + 2.0 * dt, f0=f0)

    if abs(float(f0(0.0)) - float(v[-1])) > 1e-12:
        warnings.append(
            "history/velocity splice mismatch at t=0: "
            f"f0(0) = {float(f0(0.0)):.6g} vs u1(1) = {float(v[-1]):.6g}"
        )
    return SimState(t=0.0, u=u, v=v, w=w, buffer=buffer), warnings


@dataclass
class StepWorkspace:
    """The midpoint system of one run, factored once for the step dt, and
    the operator 2M - dt K of its right-hand side as the diagonal `mass2`
    = 2M and the conductances `k_rhs` = -dt k_cell."""

    dt: float
    system: SPDTridiagonal
    mass2: np.ndarray
    k_rhs: np.ndarray

    @classmethod
    def build(cls, ops: DiscreteOperators, gains: GainSet, dt: float) -> "StepWorkspace":
        start = ops.first_active
        main, off = ops.stiffness_tridiagonal(start)
        main = main * (0.5 * dt * dt) + 2.0 * ops.mass[start:]
        main[-1] += dt * ops.a1 * (gains.mu1 + 0.5 * dt * gains.beta)
        return cls(dt, SPDTridiagonal(main, off * (0.5 * dt * dt), "midpoint"),
                   2.0 * ops.mass, -dt * ops.k_cell)


def _wave_step(buf: HistoryBuffer, u: np.ndarray, v: np.ndarray, dt: float,
               tau_mid: float, gains: GainSet, ops: DiscreteOperators,
               workspace: StepWorkspace) -> float:
    """The part of a step the feedback needs: the midpoint solve updates u
    and v in place and the ring records the new trace, which is returned.
    tau_mid is the delay at the step's midpoint (buf.last + 1/2) dt."""
    w_mid = buf.sample((buf.last + 0.5) * dt - tau_mid)

    # 2 M v - dt K u on every node; a Dirichlet node (start = 1) is not
    # active and keeps u = v = 0
    start = ops.first_active
    rhs = add_stiffness_product(workspace.mass2 * v, workspace.k_rhs, u)[start:]
    rhs[-1] -= dt * ops.a1 * (gains.beta * float(u[-1]) + gains.mu2 * w_mid)
    vbar = workspace.system.solve(rhs)

    # v' = 2 vbar - v and u' = u + dt vbar, in place
    v_active = v[start:]
    np.subtract(2.0 * vbar, v_active, out=v_active)
    vbar *= dt
    u[start:] += vbar
    trace = float(v[-1])
    buf.append(trace)
    return trace


def step(state: SimState, dt: float, gains: GainSet, delay: DelaySpec,
         ops: DiscreteOperators, workspace: StepWorkspace) -> SimState:
    """Advance the coupled system in place by one implicit-midpoint step of
    size dt (the step of the state's history ring); `workspace` holds the
    midpoint system factorized for this dt.  Returns the same state."""
    buf = state.buffer
    if not dt == buf.dt == workspace.dt:
        raise ValueError(f"step dt {dt} differs from the history grid's {buf.dt} "
                         f"or the workspace's {workspace.dt}")
    t_mid = (buf.last + 0.5) * dt
    tau_mid = float(delay.tau(t_mid))
    trace = _wave_step(buf, state.u, state.v, dt, tau_mid, gains, ops,
                       workspace)
    state.t = buf.last * dt
    state.w = transport_step(state.w, tau_mid, float(delay.tau_prime(t_mid)),
                             dt, inflow=trace)
    return state


def bc_residual(u, v, w_del, gains: GainSet, mesh: Mesh):
    """|feedback law residual| of the state (u, v) whose delayed trace, the
    ring's sample at t - tau(t), is w_del.

    u and v may be (rows, n) stacks with one w_del per row; each row gets
    the bits it would get alone.  The displacement slope at x = 1 is the
    one-sided P1 flux of the last element, so the residual carries the
    scheme's O(dt + 1/N) consistency error by design.
    """
    u_end = u[..., -1]
    flux = (u_end - u[..., -2]) / mesh.h[-1]
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


def run(mesh: Mesh, ops: DiscreteOperators, gains: GainSet, delay: DelaySpec,
        t_final: float, dt: float, record_every: int = 1,
        preset: str = "zero", f0_preset: str = "zero", f0_amplitude: float = 1.0,
        n_delta: int = 64, lyap: Optional[analysis.LyapunovParams] = None,
        u0: Optional[Callable] = None, u1: Optional[Callable] = None,
        f0: Optional[Callable] = None,
        snapshot_sink: Optional[Callable] = None) -> Trajectory:
    """Integrate to t_final, recording the COLUMNS every record_every
    steps (plus the initial and final instants).

    The run takes round(t_final / dt) steps; when t_final is not a whole
    number of steps, a warning names the time the run ends at.  When no
    Lyapunov parameters are supplied (or derivable: the modified functional
    requires a strictly positive damping margin), E_tilde is recorded as E
    itself.  Raises NonFiniteState at the first recorded instant whose
    energy is not finite: E is a positive-weighted sum of squares of every
    entry of u, v and w, so it catches any overflow or NaN in the state.
    The snapshot sink, if any, receives every recorded instant, in order, as
    a SimState with that instant's t, u, v and w, whose arrays are valid
    during the call (its ring is the run's, which has moved on).
    """
    if t_final < 0.0 or dt <= 0.0 or record_every < 1:
        raise ValueError("need t_final >= 0, dt > 0, record_every >= 1")
    state, warnings = init_state(
        mesh, ops, gains, delay, preset=preset, f0_preset=f0_preset,
        f0_amplitude=f0_amplitude, n_delta=n_delta, dt=dt,
        u0=u0, u1=u1, f0=f0,
    )
    work = StepWorkspace.build(ops, gains, dt)
    n_steps, note = step_count(t_final, dt)
    if note is not None:
        warnings.append(note)
    # row r records step min(r record_every, n_steps): the initial instant,
    # every record_every-th step and the last
    n_rows = -(-n_steps // record_every) + 1
    k = channel_block_steps(n_delta)
    span = k * max(1, min(BLOCK_DOUBLES // ops.n_nodes * record_every,
                          BLOCK_DOUBLES) // k)
    rows = span // record_every + 2
    us, vs = np.empty((rows, ops.n_nodes)), np.empty((rows, ops.n_nodes))
    ws, w_buf = np.empty((rows, n_delta + 1)), np.empty(rows)
    data = np.empty((len(COLUMNS), n_rows))
    buf, u, v, w = state.buffer, state.u, state.v, state.w

    r0 = 0
    for n0 in range(0, n_steps or 1, span):
        n1 = min(n0 + span, n_steps)
        r1 = n_rows if n1 == n_steps else n1 // record_every + 1
        steps = np.minimum(np.arange(r0, r1) * record_every, n_steps)
        t_rec = steps * dt
        data[0, r0:r1] = t_rec
        t_mid = (np.arange(n0, n1) + 0.5) * dt
        taus, tau_primes = delay.tau(t_mid), delay.tau_prime(t_mid)
        tau_rec = delay.tau(t_rec)
        at = (t_rec - tau_rec).tolist()
        # the steps into the block of its recorded instants, ended by one
        # it never reaches
        marks = (steps - n0).tolist() + [span + 1]
        j = 0
        if marks[0] == 0:
            # the initial instant, before the first step
            us[0], vs[0], ws[0], w_buf[0] = u, v, w, buf.sample(at[0])
            j = 1
        traces = []
        for i, tau_mid in enumerate(taus.tolist(), 1):
            trace = _wave_step(buf, u, v, dt, tau_mid, gains, ops, work)
            traces.append(trace)
            if i == marks[j]:
                us[j], vs[j], w_buf[j] = u, v, buf.sample(at[j])
                j += 1
                # a non-finite trace leaves the state non-finite for good:
                # stop at this instant, where the evaluation raises
                if not math.isfinite(trace):
                    break

        # the channel, K steps per solve, up to the first non-finite trace
        # (the band's zeros would carry it into earlier columns as 0 * nan);
        # the profiles of the instants after it stay NaN
        traces = np.array(traces)
        finite = np.isfinite(traces)
        cut = traces.size if finite.all() else int(finite.argmin())
        marks = marks[:j]
        ws[bisect.bisect_right(marks, cut):j] = np.nan
        for c0 in range(0, cut, k):
            c1 = min(c0 + k, cut)
            profiles = transport_step(w, taus[c0:c1], tau_primes[c0:c1], dt,
                                      traces[c0:c1])
            w = profiles[:, -1].copy()
            a, b = bisect.bisect_right(marks, c0), bisect.bisect_right(marks, c1)
            ws[a:b] = profiles[:, [c - c0 - 1 for c in marks[a:b]]].T

        e, et = analysis.lyapunov_raw(us[:j], vs[:j], ws[:j], tau_rec[:j],
                                      ops, gains, lyap)
        bad = np.flatnonzero(~np.isfinite(e))
        stop = int(bad[0]) if bad.size else j
        if snapshot_sink is not None:
            for i in range(stop):
                snapshot_sink(SimState(float(t_rec[i]), us[i], vs[i], ws[i],
                                       buf))
        if bad.size:
            r = r0 + stop
            last = (f"the last finite one was at t = {float(data[0, r - 1])!r}"
                    if r else "no finite one was recorded")
            raise NonFiniteState(f"state is not finite at t = "
                                 f"{float(data[0, r])!r} (energy {e[stop]}); "
                                 f"{last}")
        # the recorded delayed trace is the channel's outflow, the
        # realization the energy integrates; the buffered reference value is
        # recoverable as trace_v_delayed - channel_discrepancy
        w_chan = ws[:j, -1]
        data[1:, r0:r1] = (e, et, vs[:j, -1], w_chan,
                           bc_residual(us[:j], vs[:j], w_buf[:j], gains, mesh),
                           w_chan - w_buf[:j])
        r0 = r1
    state.t, state.w = n_steps * dt, w
    return Trajectory(**dict(zip(COLUMNS, data)), warnings=warnings,
                      final_state=state, dt=dt, n_space=mesh.N)
