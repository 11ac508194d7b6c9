import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsolve.core import (ProblemInstance, column_norms_sq, l_max,
                          min_eig_symmetric, objective, objective_from_rr,
                          spectral_norm_sq)
from lqsolve.errors import AsymmetricMatrix, DimensionMismatch, InvalidInstance
from lqsolve.harness import InstanceSpec, generate_instance

from conftest import jacobi_eigenvalues


class TestColumnNorms:
    def test_identity(self):
        assert np.allclose(column_norms_sq(np.eye(3)), [1.0, 1.0, 1.0])

    def test_single_column(self):
        assert column_norms_sq([[3.0], [4.0]])[0] == pytest.approx(25.0)

    def test_l_max_picks_largest(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert l_max(a) == pytest.approx(4.0)

    def test_normalized_columns_give_unit_l_max(self, rng):
        a = rng.standard_normal((10, 6))
        a /= np.linalg.norm(a, axis=0)
        assert l_max(a) == pytest.approx(1.0, abs=1e-12)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm_sq(np.eye(4)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(4.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm_sq(np.zeros((3, 3))) == 0.0

    def test_agrees_with_dense_eigensolve(self, rng):
        # the SVD's largest singular value, squared; wide inputs take the
        # A A^T branch, tall ones the A^T A branch
        inputs = {
            "wide": rng.standard_normal((10, 20)),
            "paper instance": generate_instance(InstanceSpec(250, 500, 15, seed=0)).A,
            "tall": rng.standard_normal((40, 15)),
            "rank 3": rng.standard_normal((30, 3)) @ rng.standard_normal((3, 20)),
        }
        for name, a in inputs.items():
            expected = np.linalg.norm(a, 2) ** 2
            assert spectral_norm_sq(a) == pytest.approx(expected, rel=1e-12), name

    def test_dominates_column_norms(self, rng):
        # ||A||_2^2 >= max_i ||A_i||^2 always
        for _ in range(20):
            a = rng.standard_normal((8, 12))
            assert spectral_norm_sq(a) >= l_max(a) - 1e-9

    def test_gaussian_matrix_near_marchenko_pastur_edge(self):
        # for m x 2m Gaussian entries scaled by 1/sqrt(m), the top squared
        # singular value concentrates near (1 + sqrt(2))^2 ~ 5.83
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 1.0 / np.sqrt(250), size=(250, 500))
        assert 4.5 < spectral_norm_sq(a) < 7.0


class TestMinEig:
    def test_identity(self):
        assert min_eig_symmetric(np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_indefinite_diagonal(self):
        assert min_eig_symmetric(np.diag([-1.0, 3.0])) == pytest.approx(-1.0)

    def test_two_by_two_characteristic_roots(self):
        # eigenvalues of [[2,1],[1,2]] solve t^2 - 4t + 3 = 0, so 1 and 3
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert min_eig_symmetric(m) == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            min_eig_symmetric([[1.0, 0.5], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            min_eig_symmetric(np.ones((2, 3)))

    def test_agrees_with_jacobi_rotations(self, rng):
        for _ in range(10):
            b = rng.standard_normal((5, 5))
            m = b + b.T
            expected = jacobi_eigenvalues(m)[0]
            assert min_eig_symmetric(m) == pytest.approx(expected, abs=1e-10)


class TestProblemInstance:
    def test_columns_are_views(self):
        p = ProblemInstance(A=np.ones((4, 3)), y=np.zeros(4), lam=1.0, q=0.5)
        assert p.A.flags.f_contiguous
        assert p.m == 4 and p.n == 3

    def test_rejects_bad_lam(self):
        with pytest.raises(InvalidInstance):
            ProblemInstance(A=np.eye(2), y=np.zeros(2), lam=0.0, q=0.5)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_q(self, q):
        with pytest.raises(InvalidInstance):
            ProblemInstance(A=np.eye(2), y=np.zeros(2), lam=1.0, q=q)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProblemInstance(A=np.eye(2), y=np.zeros(3), lam=1.0, q=0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInstance):
            ProblemInstance(A=[[np.nan, 0.0]], y=[1.0], lam=1.0, q=0.5)
        with pytest.raises(InvalidInstance):
            ProblemInstance(A=np.eye(2), y=[1.0, np.inf], lam=1.0, q=0.5)


class TestObjective:
    def test_at_zero_is_half_y_norm(self):
        p = ProblemInstance(A=np.eye(2), y=np.array([3.0, 4.0]), lam=1.0, q=0.5)
        assert objective(p, np.zeros(2)) == pytest.approx(12.5)

    def test_worked_example(self):
        # A=I, y=(1,0), x=(1,-1): residual (0,-1), penalty 2*lam
        p = ProblemInstance(A=np.eye(2), y=np.array([1.0, 0.0]), lam=0.1, q=0.5)
        assert objective(p, np.array([1.0, -1.0])) == pytest.approx(0.5 + 0.2)

    def test_dimension_check(self):
        p = ProblemInstance(A=np.eye(2), y=np.zeros(2), lam=1.0, q=0.5)
        with pytest.raises(DimensionMismatch):
            objective(p, np.zeros(3))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    def test_nonnegative(self, xs):
        p = ProblemInstance(A=np.eye(2), y=np.array([1.0, -2.0]), lam=0.3, q=0.7)
        assert objective(p, np.array(xs)) >= 0.0

    @pytest.mark.parametrize("q", [0.1, 0.5, 2.0 / 3.0, 0.9])
    def test_sparse_power_sum_is_the_dense_one_bit_for_bit(self, q, rng):
        # the solvers' loop and the oracle plain_run in conftest both call
        # objective_from_rr, so its bits are pinned here against the
        # formula that raises every entry to the power q
        for n in (1, 7, 9, 130, 500, 1031):
            p = ProblemInstance(A=np.ones((2, n)), y=np.zeros(2), lam=0.37, q=q)
            for kind in ("sparse", "dense", "zero"):
                for _ in range(20):
                    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
                    if kind == "sparse":
                        x[rng.random(n) > 0.05] = 0.0
                    elif kind == "zero":
                        x[:] = 0.0
                    spots = rng.integers(0, n, 3)
                    x[spots[0]] = -0.0
                    if kind != "zero":
                        x[spots[1]] = rng.choice([5e-324, -1e-310, 2.2e-308])
                    r = rng.standard_normal(2)
                    rr = float(r @ r)
                    dense = 0.5 * rr + p.lam * float(np.sum(np.abs(x) ** q))
                    got = objective_from_rr(p, x, rr)
                    assert repr(got) == repr(dense), (n, kind)
