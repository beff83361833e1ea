"""Exception taxonomy shared across the package."""


class DegenwaveError(Exception):
    """Base class for all package errors."""


class HypothesisError(DegenwaveError):
    """A structural hypothesis on the problem data is violated.

    CLI maps these to exit code 2.
    """


class DegeneracyOutOfRange(HypothesisError):
    """Degeneracy index mu_a of the coefficient is >= 2 (or exponent invalid)."""


class NonPositive(HypothesisError):
    """Coefficient is <= 0 at a sampled interior point, or a scale is not positive."""


class DelayHypothesisViolated(HypothesisError):
    """Delay leaves [tau0, tau1], or its derivative leaves [0, d] with d < 1."""


class BadMeshParams(DegenwaveError):
    """Mesh size or grading exponent out of range."""


class BcMismatch(HypothesisError):
    """Left boundary condition inconsistent with the degeneracy regime."""


class ShapeMismatch(DegenwaveError):
    """Vector does not conform to the mesh or channel grid."""


class OutOfSpan(DegenwaveError):
    """Requested time lies outside the retained history window."""


class IncompatibleInitialData(HypothesisError):
    """Initial displacement violates the left boundary condition."""


class SolveFailure(DegenwaveError):
    """A linear system that should be definite failed to solve."""


class NonFiniteState(DegenwaveError):
    """The simulated state overflowed or became NaN (a blow-up)."""


class NoStrictDamping(DegenwaveError):
    """Damping margin is not strictly positive; no decay certificate available."""


class DomainViolation(DegenwaveError):
    """State fails the discrete generator-domain constraints."""


class ConfigError(DegenwaveError):
    """Config file cannot be parsed or contains invalid keys/values."""


class InsufficientHorizon(Warning):
    """Run horizon too short for a sharp decay envelope check (warning grade)."""
