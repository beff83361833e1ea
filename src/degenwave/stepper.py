"""Time integration of the coupled wave / delay-channel system.

One step advances the semi-discrete system

    M dv/dt = -K u - a(1) e_N [mu1 v(1) + mu2 v(1; delayed) + beta u(1)],
    du/dt   = v,

by the implicit midpoint rule, with the delayed trace taken explicitly from
the history ring at the midpoint time (it is known history, so no
iteration is needed and the local part keeps its unconditional stability).
The linear system is SPD tridiagonal (the feedback only loads the last
diagonal entry): `StepWorkspace.build` factors it once per run as a
`mesh.SPDTridiagonal`, and a step is one solve with the factors.  Then the
stretched-history channel takes its upwind step (`transport_step`, the
triangular solve the resolvent shares) and the ring records the trace.

Step n lands on t = n dt exactly: the ring sits on the same uniform grid and
its newest index is the step counter.  `step` updates one SimState in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import analysis
from .delay_channel import HistoryBuffer, init_channel, transport_step
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


# recorded columns, in the order of the recorder and of the CSV header/rows
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
    fingerprint: str
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


def step(state: SimState, dt: float, gains: GainSet, delay: DelaySpec,
         ops: DiscreteOperators, workspace: StepWorkspace) -> SimState:
    """Advance the coupled system in place by one implicit-midpoint step of
    size dt (the step of the state's history ring); `workspace` holds the
    midpoint system factorized for this dt.  Returns the same state."""
    buf, u, v = state.buffer, state.u, state.v
    if not dt == buf.dt == workspace.dt:
        raise ValueError(f"step dt {dt} differs from the history grid's {buf.dt} "
                         f"or the workspace's {workspace.dt}")
    n = buf.last + 1
    t_mid = (n - 0.5) * dt
    tau_mid = delay.tau(t_mid)
    w_mid = buf.sample(t_mid - tau_mid)

    # 2 M v - dt K u on every node; a Dirichlet node (start = 1) is not
    # active and keeps u = v = 0
    start = ops.first_active
    rhs = add_stiffness_product(workspace.mass2 * v, workspace.k_rhs, u)[start:]
    rhs[-1] -= dt * ops.a1 * (gains.beta * u[-1] + gains.mu2 * w_mid)
    vbar = workspace.system.solve(rhs)

    v[start:] = 2.0 * vbar - v[start:]
    u[start:] += dt * vbar
    trace = float(v[-1])
    state.t = n * dt
    state.w = transport_step(state.w, tau_mid, delay.tau_prime(t_mid), dt,
                             inflow=trace)
    buf.append(trace)
    return state


def bc_residual(state: SimState, gains: GainSet, tau: float,
                mesh: Mesh) -> tuple[float, float]:
    """(|feedback law residual|, delayed trace) at the current time, whose
    delay is tau = tau(state.t).

    The displacement slope at x = 1 is the one-sided P1 flux of the last
    element, so the residual carries the scheme's O(dt + 1/N) consistency
    error by design.
    """
    w_del = state.buffer.sample(state.t - tau)
    u_end, u_prev = float(state.u[-1]), float(state.u[-2])
    flux = (u_end - u_prev) / float(mesh.h[-1])
    res = abs(gains.mu1 * float(state.v[-1]) + gains.mu2 * w_del + flux
              + gains.beta * u_end)
    return res, w_del


def default_dt(mesh: Mesh, a1: float) -> float:
    """Accuracy-motivated step: min(1e-3, 0.5 h_N / sqrt(a(1)))."""
    return min(1e-3, 0.5 * float(mesh.h[-1]) / math.sqrt(a1))


def run(mesh: Mesh, ops: DiscreteOperators, gains: GainSet, delay: DelaySpec,
        t_final: float, dt: float, record_every: int = 1,
        preset: str = "zero", f0_preset: str = "zero", f0_amplitude: float = 1.0,
        n_delta: int = 64, fingerprint: str = "",
        lyap: Optional[analysis.LyapunovParams] = None,
        u0: Optional[Callable] = None, u1: Optional[Callable] = None,
        f0: Optional[Callable] = None,
        snapshot_sink: Optional[Callable] = None) -> Trajectory:
    """Integrate to t_final, recording the COLUMNS every record_every
    steps (plus the initial and final instants).

    When no Lyapunov parameters are supplied (or derivable: the modified
    functional requires a strictly positive damping margin), E_tilde is
    recorded as E itself.  Raises NonFiniteState at the first recorded
    instant whose energy is not finite: E is a positive-weighted sum of
    squares of every entry of u, v and w, so it catches any overflow or NaN
    in the state.
    """
    if t_final < 0.0 or dt <= 0.0 or record_every < 1:
        raise ValueError("need t_final >= 0, dt > 0, record_every >= 1")
    state, warnings = init_state(
        mesh, ops, gains, delay, preset=preset, f0_preset=f0_preset,
        f0_amplitude=f0_amplitude, n_delta=n_delta, dt=dt,
        u0=u0, u1=u1, f0=f0,
    )
    ws = StepWorkspace.build(ops, gains, dt)
    n_steps = int(round(t_final / dt)) if t_final > 0 else 0
    n_rows = 1 + n_steps // record_every + (1 if n_steps % record_every else 0)
    data = np.empty((len(COLUMNS), n_rows))
    row = 0

    def record(st: SimState):
        nonlocal row
        # one tau(t) per sample, shared by the energies and the residual
        tau = delay.tau(st.t)
        e, et = analysis.lyapunov_raw(st.u, st.v, st.w, tau, ops, gains, lyap)
        if not math.isfinite(e):
            last = (f"the last finite one was at t = {float(data[0, row - 1])!r}"
                    if row else "no finite one was recorded")
            raise NonFiniteState(
                f"state is not finite at t = {st.t!r} (energy {e}); {last}")
        res, w_buf = bc_residual(st, gains, tau, mesh)
        # the recorded delayed trace is the channel's outflow, the
        # realization the energy integrates; the buffered reference value is
        # recoverable as trace_v_delayed - channel_discrepancy
        w_chan = float(st.w[-1])
        data[:, row] = (st.t, e, et, float(st.v[-1]), w_chan, res,
                        w_chan - w_buf)
        row += 1
        if snapshot_sink is not None:
            snapshot_sink(st)

    record(state)
    for n in range(1, n_steps + 1):
        step(state, dt, gains, delay, ops, workspace=ws)
        if n % record_every == 0 or n == n_steps:
            record(state)
    return Trajectory(**dict(zip(COLUMNS, data)), fingerprint=fingerprint,
                      warnings=warnings, final_state=state, dt=dt,
                      n_space=mesh.N)
