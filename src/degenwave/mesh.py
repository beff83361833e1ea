"""Graded 1-d meshes, the discrete weighted forms and their linear solves.

Piecewise-linear elements with the coefficient sampled at element midpoints
(the assembly never evaluates a'(x) or touches a(0)), a lumped trapezoidal
mass, and the left boundary condition that the coefficient fixes: a
Dirichlet constraint at the degenerate endpoint for a weak degeneracy
(mu_a < 1), none for a strong one.

The midpoint step, the resolvent and the elliptic problem all solve this
stiffness plus diagonal terms, s K + m M with a boundary weight on the
last active node; `DiscreteOperators.factor` is the one place that
assembles such a system.  It returns an `SPDTridiagonal`, which factors
the matrix once as L D L^T (LAPACK dpttrf) and solves with the factors in
place (dpttrs).  Both routines come from `_lapack`, which loads scipy's
LAPACK extension without the scipy.linalg package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import BadMeshParams, NonPositive, SolveFailure
from .model import CoefficientSpec


@dataclass(frozen=True)
class Mesh:
    """Nodes 0 = x_0 < ... < x_N = 1 with grading x_j = (j/N)^gamma."""

    nodes: np.ndarray
    N: int

    # element widths and midpoints are computed once and shared by every
    # caller, so they are read-only
    @cached_property
    def h(self) -> np.ndarray:
        h = np.diff(self.nodes)
        h.flags.writeable = False
        return h

    @cached_property
    def midpoints(self) -> np.ndarray:
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        mid.flags.writeable = False
        return mid


def default_gamma(mu_a: float) -> float:
    """Grading heuristic 2/(2 - mu_a), clamped to [1, 4]."""
    return float(np.clip(2.0 / (2.0 - mu_a), 1.0, 4.0))


def build_mesh(N: int, gamma: float = 1.0) -> Mesh:
    """Graded mesh of [0, 1] with N elements; gamma >= 1 clusters nodes at 0."""
    if int(N) != N or N < 2:
        raise BadMeshParams("need an integer element count N >= 2")
    if gamma < 1.0:
        raise BadMeshParams("grading exponent must be >= 1")
    N = int(N)
    nodes = (np.arange(N + 1, dtype=float) / N) ** gamma
    nodes[-1] = 1.0
    return Mesh(nodes=nodes, N=N)


@dataclass(frozen=True)
class DiscreteOperators:
    """Lumped mass, midpoint-quadrature stiffness and boundary data.

    mass : diagonal weights (h_{j-1} + h_j)/2, strictly positive
    k_cell : per-element conductances a(m_i)/h_i; the stiffness tridiagonal is
        main_j = k_{j-1} + k_j, off_i = -k_i
    first_active : the first unknown node: 1 when the coefficient degenerates
        weakly and node 0 carries the Dirichlet constraint u = 0, else 0
    """

    mass: np.ndarray
    k_cell: np.ndarray
    first_active: int
    a1: float
    mu_a: float
    mesh: Mesh

    @property
    def n_nodes(self) -> int:
        return self.mesh.N + 1

    def stiffness_matvec(self, u: np.ndarray) -> np.ndarray:
        """K u on the full node set (the constrained node simply carries
        u=0); u may be a stack of vectors, shape (..., n)."""
        flux = self.k_cell * (u[..., 1:] - u[..., :-1])
        out = np.zeros_like(u)
        out[..., :-1] -= flux
        out[..., 1:] += flux
        return out

    def stiffness_quadform(self, u: np.ndarray, w: np.ndarray | None = None):
        """u^T K w (w defaults to u); equals sum_i k_i (du_i)(dw_i).  Row by
        row for stacks of shape (..., n), each row bit for bit its own."""
        if w is None:
            w = u
        return np.vecdot(self.k_cell * np.diff(u, axis=-1), np.diff(w, axis=-1))

    def mass_quadform(self, v: np.ndarray) -> float:
        return float(np.dot(self.mass * v, v))

    def factor(self, stiffness: float, mass: float, boundary: float,
               what: str) -> SPDTridiagonal:
        """The factored system stiffness K + mass M on nodes[first_active:],
        with `boundary` added to its last diagonal entry; a failed
        factorization is a SolveFailure naming `what`."""
        start = self.first_active
        main = np.zeros(self.n_nodes)
        main[:-1] += self.k_cell
        main[1:] += self.k_cell
        main = main[start:] * stiffness + mass * self.mass[start:]
        main[-1] += boundary
        return SPDTridiagonal(main, -self.k_cell[start:] * stiffness, what)


class SPDTridiagonal:
    """SPD tridiagonal matrix (diagonals main, off), factored once as L D L^T.
    Raises SolveFailure naming `what` unless every pivot in D is positive and
    finite; ?pttrf itself lets a NaN pivot through."""

    def __init__(self, main: np.ndarray, off: np.ndarray, what: str):
        self.what = what
        d, e, info = dpttrf(main, off)
        if info != 0 or not np.all(np.isfinite(d) & (d > 0.0)):
            raise SolveFailure(f"{what} system is singular, indefinite or "
                               f"not finite (pttrf info {info})")
        self._d, self._e = d, e

    def solve_in_place(self, rhs: np.ndarray) -> None:
        """Overwrite rhs, one right-hand side per column (or a single (n,)
        one), with the solution of A x = rhs; each column gets the bits of
        its own solve.  An (n, B) rhs in Fortran order (the transpose of a
        C-order (B, n) stack) is solved where it lies; any other layout
        goes through a copy."""
        # overwrite_b by position: a keyword costs f2py about 0.2 us a
        # call, and the midpoint step makes this call once per step
        x, info = dpttrs(self._d, self._e, rhs, 1)
        if info != 0:
            raise SolveFailure(f"{self.what} solve failed (pttrs info {info})")
        if x is not rhs:
            rhs[...] = x


def assemble_operators(spec: CoefficientSpec, mesh: Mesh) -> DiscreteOperators:
    """Assemble mass/stiffness for the coefficient on the mesh.

    The degeneracy regime fixes the left condition: Dirichlet for
    mu_a < 1, natural (the weighted flux term is simply absent) for
    mu_a >= 1.
    """
    h = mesh.h
    a_mid = np.asarray(spec.a(mesh.midpoints), dtype=float)
    if np.any(a_mid <= 0.0):
        raise NonPositive("coefficient must be positive at element midpoints")
    mass = np.zeros(mesh.N + 1)
    mass[:-1] += 0.5 * h
    mass[1:] += 0.5 * h
    return DiscreteOperators(
        mass=mass, k_cell=a_mid / h, first_active=0 if spec.strong else 1,
        a1=spec.a_of_1, mu_a=spec.mu_a, mesh=mesh,
    )

