"""Degenerate wave equation with time-varying delayed boundary feedback:
simulation, energy/Lyapunov evaluation, and numerical certification."""

__version__ = "0.1.0"

from .analysis import (
    DecayCertificate,
    EllipticResult,
    LyapunovParams,
    certified_decay_time,
    choose_epsilon,
    decay_certificate,
    dissipation_audit,
    solve_auxiliary_elliptic,
)
from .delay_channel import (
    HistoryBuffer,
    delta_grid,
    init_channel,
    transport_speed,
    transport_step,
)
from .mesh import (
    DiscreteOperators,
    Mesh,
    assemble_operators,
    build_mesh,
    default_gamma,
)
from .model import (
    CoefficientSpec,
    DelaySpec,
    GainSet,
    StructuralConstants,
    degeneracy_mu_a,
    feedback_margins,
    full_constants,
    make_coefficient,
    make_delay,
    structural_constants,
    validate_delay,
)
from .stepper import (
    SimState,
    Trajectory,
    init_state,
    run,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
