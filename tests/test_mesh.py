"""Graded meshes, discrete operators, the weighted-norm blocks."""

import numpy as np
import pytest
from scipy.integrate import quad

from degenwave import (
    GainSet,
    assemble_operators,
    build_mesh,
    make_coefficient,
    structural_constants,
)
from degenwave.analysis import lyapunov_raw
from degenwave.errors import BadMeshParams, ShapeMismatch, SolveFailure
from degenwave.mesh import SPDTridiagonal

from conftest import full_stiffness


class TestBuildMesh:
    def test_uniform_n4(self):
        m = build_mesh(4, 1.0)
        assert np.allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)

    def test_graded_n4(self):
        m = build_mesh(4, 2.0)
        assert np.allclose(m.nodes, [0.0, 1 / 16, 1 / 4, 9 / 16, 1.0], atol=1e-16)

    def test_n7_uniform(self):
        m = build_mesh(7, 1.0)
        assert m.nodes.size == 8
        assert np.allclose(np.diff(m.nodes), 1 / 7)

    def test_grading_invariant(self):
        m = build_mesh(256, 4.0 / 3.0)
        j = np.arange(257)
        assert np.max(np.abs(m.nodes - (j / 256) ** (4.0 / 3.0))) <= 1e-14

    def test_widths_and_midpoints_shared_and_read_only(self):
        m = build_mesh(8, 2.0)
        assert m.h is m.h and m.midpoints is m.midpoints
        assert np.array_equal(m.h, np.diff(m.nodes))
        assert np.array_equal(m.midpoints, 0.5 * (m.nodes[:-1] + m.nodes[1:]))
        with pytest.raises(ValueError):
            m.h[0] = 1.0
        with pytest.raises(ValueError):
            m.midpoints[0] = 1.0

    def test_bad_params(self):
        with pytest.raises(BadMeshParams):
            build_mesh(1, 1.0)
        with pytest.raises(BadMeshParams):
            build_mesh(16, 0.5)


class TestAssembly:
    def test_classical_stiffness_rows(self):
        # a = 1 on a uniform 2-element mesh: the standard [2,-2;-2,4,-2;...]/1
        spec = make_coefficient("power", {"alpha": 0.0})
        ops = assemble_operators(spec, build_mesh(2, 1.0))
        K = full_stiffness(ops)
        assert np.allclose(K, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]], atol=1e-14)

    def test_midpoint_sampling_offdiagonals(self):
        # a = x on 2 uniform elements: midpoints 0.25, 0.75 -> -0.25/h, -0.75/h
        spec = make_coefficient("power", {"alpha": 1.0})
        ops = assemble_operators(spec, build_mesh(2, 1.0))
        K = full_stiffness(ops)
        assert abs(K[0, 1] + 0.25 / 0.5) < 1e-15
        assert abs(K[1, 2] + 0.75 / 0.5) < 1e-15

    def test_constants_in_kernel(self):
        for alpha in (0.5, 1.5):
            spec = make_coefficient("power", {"alpha": alpha})
            ops = assemble_operators(spec, build_mesh(17, 1.3))
            assert np.max(np.abs(ops.stiffness_matvec(np.ones(18)))) < 1e-14

    def test_symmetry_exact(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        ops = assemble_operators(spec, build_mesh(16, 2.0))
        K = full_stiffness(ops)
        assert np.array_equal(K, K.T)

    def test_mass_positive_and_sums_to_length(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        ops = assemble_operators(spec, build_mesh(33, 1.7))
        assert np.all(ops.mass > 0)
        assert abs(ops.mass.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("kind, params", [
        ("power", {"alpha": 0.5}),
        ("power", {"alpha": 0.999}),
        ("power", {"alpha": 1.0}),
        ("power", {"alpha": 1.5}),
        ("power_times_factor", {"alpha": 0.5, "factor": "two_minus_x"}),
    ], ids=["power-0.5", "power-0.999", "power-1.0", "power-1.5",
            "power_times_factor"])
    def test_coefficient_sets_the_left_boundary(self, kind, params):
        # the regime alone fixes the constrained node: u(t, 0) = 0 for a
        # weak degeneracy (mu_a < 1), no constraint for a strong one
        spec = make_coefficient(kind, params)
        ops = assemble_operators(spec, build_mesh(8, 1.0))
        assert ops.first_active == (0 if spec.strong else 1)

    def test_consistency_order_smooth_coefficient(self):
        # u = sin(2x), a = 1 + x bounded away from 0: u^T K u converges to
        # the exact weighted gradient energy, order 2 on uniform meshes
        spec = make_coefficient(
            "power_times_factor", {"alpha": 0.0, "factor": "one_plus_x"}
        )
        exact, _ = quad(lambda x: (1 + x) * 4 * np.cos(2 * x) ** 2, 0, 1)
        errs = []
        for n in [32, 64, 128]:
            mesh = build_mesh(n, 1.0)
            ops = assemble_operators(spec, mesh)
            u = np.sin(2 * mesh.nodes)
            errs.append(abs(ops.stiffness_quadform(u) - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestTridiagonal:
    @pytest.mark.parametrize("alpha", [0.5, 1.5],
                             ids=["0.5-dirichlet_left", "1.5-natural_left"])
    @pytest.mark.parametrize("stiffness, mass, boundary", [
        (1.0, 0.0, 0.7), (1.0, 1.0, 2.5), (0.5e-6, 2.0, 3e-3), (3.0, 0.25, 0.0),
    ], ids=["elliptic", "resolvent", "midpoint", "no-boundary"])
    def test_factor_solves_the_dense_system(self, alpha, stiffness, mass,
                                            boundary):
        # s K + m M on the active nodes, boundary on the last diagonal entry
        spec = make_coefficient("power", {"alpha": alpha})
        ops = assemble_operators(spec, build_mesh(17, 1.3))
        K, mass_kept = full_stiffness(ops), ops.mass.copy()
        start = ops.first_active
        A = stiffness * K[start:, start:] + mass * np.diag(ops.mass[start:])
        A[-1, -1] += boundary
        rhs = np.random.default_rng(3).standard_normal(A.shape[0])
        x = rhs.copy()
        ops.factor(stiffness, mass, boundary, "test").solve_in_place(x)
        want = np.linalg.solve(A, rhs)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        # the operators are left as they were
        assert np.array_equal(full_stiffness(ops), K)
        assert np.array_equal(ops.mass, mass_kept)

    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1025])
    def test_solve_matches_dense(self, n):
        rng = np.random.default_rng(n)
        off = rng.standard_normal(n - 1)
        # diagonally dominant, hence positive definite
        main = np.abs(rng.standard_normal(n)) + 0.1
        main[:-1] += np.abs(off)
        main[1:] += np.abs(off)
        A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        rhs = rng.standard_normal(n)
        x = rhs.copy()
        SPDTridiagonal(main, off, "test").solve_in_place(x)
        want = np.linalg.solve(A, rhs)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_indefinite_raises_naming_the_system(self):
        with pytest.raises(SolveFailure, match="^resolvent system is singular, "
                                               "indefinite or not finite"):
            SPDTridiagonal(np.array([1.0, -1.0, 4.0]), np.ones(2), "resolvent")

    def test_nan_diagonal_raises_naming_the_system(self):
        # ?pttrf itself reports success on a NaN pivot
        with pytest.raises(SolveFailure, match="^elliptic system"):
            SPDTridiagonal(np.array([4.0, np.nan, 4.0]), np.ones(2), "elliptic")


class TestWeightedNorms:
    # the u and v blocks of the state norm: u^T K u is
    # ops.stiffness_quadform and v^T M v is ops.mass_quadform;
    # analysis.lyapunov_raw sums them with the boundary and delay blocks
    GAINS = GainSet(1.0, 0.0, 1.0)

    def test_zero(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        mesh = build_mesh(8, 1.0)
        ops = assemble_operators(spec, mesh)
        z = np.zeros(9)
        assert ops.mass_quadform(z) == 0.0
        assert ops.stiffness_quadform(z) == 0.0
        assert lyapunov_raw(z, z, np.zeros(5), 1.0, ops,
                            self.GAINS) == (0.0, 0.0)

    def test_constant_velocity_exact(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        for gamma in [1.0, 2.0, 3.5]:
            mesh = build_mesh(19, gamma)
            ops = assemble_operators(spec, mesh)
            assert abs(ops.mass_quadform(np.ones(20)) - 1.0) < 1e-14

    def test_ramp_gradient_energy(self):
        # u = x with a = sqrt(x): integral of sqrt(x) is 2/3
        spec = make_coefficient("power", {"alpha": 0.5})
        mesh = build_mesh(512, 4.0 / 3.0)
        ops = assemble_operators(spec, mesh)
        assert abs(ops.stiffness_quadform(mesh.nodes) - 2.0 / 3.0) < 1e-3

    def test_shape_mismatch(self):
        spec = make_coefficient("power", {"alpha": 0.5})
        mesh = build_mesh(8, 1.0)
        ops = assemble_operators(spec, mesh)
        with pytest.raises(ShapeMismatch):
            lyapunov_raw(np.zeros(5), np.zeros(9), np.zeros(5), 1.0, ops,
                         self.GAINS)
        with pytest.raises(ShapeMismatch):
            lyapunov_raw(np.zeros((3, 9)), np.zeros((3, 8)), np.zeros((3, 5)),
                         1.0, ops, self.GAINS)

    def test_discrete_poincare_with_slack(self):
        # u^T M u <= 2 u(1)^2 + C_P u^T K u, within the stated additive
        # slack, on random vectors
        spec = make_coefficient("power", {"alpha": 0.5})
        consts = structural_constants(spec, beta=1.0)
        mesh = build_mesh(256, 4.0 / 3.0)
        ops = assemble_operators(spec, mesh)
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.standard_normal(257)
            u[0] = 0.0
            elastic = ops.stiffness_quadform(u)
            bound = (2.0 * u[-1] ** 2 + consts.poincare_const * elastic
                     + 0.05 * (elastic + u[-1] ** 2))
            assert ops.mass_quadform(u) <= bound
