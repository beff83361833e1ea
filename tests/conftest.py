import time

import numpy as np
import pytest

from degenwave import config as cfgmod
from degenwave import stepper
from degenwave.cli import simulate_config
from degenwave.errors import NonFiniteState


def initial(ops, preset="zero", f0="zero", f0_amplitude=1.0):
    """The initial data (u0, v0, f0) of the named presets on the operators'
    mesh, as `config.initial_data` makes them for a config."""
    cfg = cfgmod.RunConfig(initial_preset=preset, initial_f0=f0,
                           initial_f0_amplitude=f0_amplitude)
    return cfgmod.initial_data(cfg, ops.mu_a, ops.mesh.nodes)


def full_stiffness(ops):
    """The dense stiffness K of the operators, column j = K e_j."""
    n = ops.n_nodes
    K = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        K[:, j] = ops.stiffness_matvec(e)
    return K


def run_one(ops, gains, delay, lyap=None, **kw):
    """`stepper.run` of one GainSet, as a batch of one: the row's
    Trajectory, or the NonFiniteState that stopped it, raised."""
    (traj,) = stepper.run(ops, [gains], delay, lyap=[lyap], **kw)
    if isinstance(traj, NonFiniteState):
        raise traj
    return traj


@pytest.fixture(scope="session")
def baseline_run():
    """Full baseline scenario, shared by the acceptance criteria: returns
    (setup, trajectory, report, wall_seconds)."""
    cfg = cfgmod.load_config("baseline")
    t0 = time.perf_counter()
    setup, traj, report = simulate_config(cfg)
    elapsed = time.perf_counter() - t0
    return setup, traj, report, elapsed


@pytest.fixture(scope="session")
def small_setup():
    """Cheap weakly degenerate assembly for unit tests."""
    cfg = cfgmod.load_config("baseline")
    cfg = cfgmod.set_value(cfg, "mesh.n", 64)
    cfg = cfgmod.set_value(cfg, "channel.n_delta", 32)
    cfg = cfgmod.set_value(cfg, "integrator.t_final", 2.0)
    return cfgmod.build_setup(cfg)
