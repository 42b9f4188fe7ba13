import numpy as np
import pytest

from dwigner.matrix_core import (
    DimMismatchError,
    NotHermitianError,
    NotUnitaryError,
    hermitian_eig,
    max_abs,
    trace_product,
    validate_density,
    validate_unitary,
)
from dwigner.channels import unitary_propagator
from dwigner.phase_space import point_operator
from dwigner.wigner import wigner_table


class TestHermitianEig:
    def test_identity(self):
        decomp = hermitian_eig(np.eye(2))
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        decomp = hermitian_eig(np.diag([-1.0, 3.0]))
        np.testing.assert_allclose(decomp.eigenvalues, [-1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(decomp.eigenvectors, np.eye(2), atol=1e-12)

    def test_point_operator_spectrum_n2(self):
        # brute-force characteristic polynomial of the explicit 2x2 matrix
        a = point_operator(0, 0, 2)
        tr = np.trace(a).real
        det = np.linalg.det(a).real
        disc = np.sqrt(tr * tr - 4 * det)
        roots = sorted([(tr - disc) / 2, (tr + disc) / 2])
        np.testing.assert_allclose(roots, [0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(hermitian_eig(a).eigenvalues, roots, atol=1e-12)

    def test_point_operator_spectrum_n4(self):
        # reflection-type spectrum: A(0,0) = R/8 and R swaps |1> and |3>,
        # so the exact eigenvalues are -1/8 and a triple +1/8
        a = point_operator(0, 0, 4)
        # characteristic-polynomial oracle; a triple root limits np.roots
        # to ~eps^(1/3) accuracy, hence the loose tolerance here
        char_roots = np.sort(np.roots(np.poly(a)).real)
        np.testing.assert_allclose(char_roots, [-0.125, 0.125, 0.125, 0.125], atol=1e-4)
        np.testing.assert_allclose(
            hermitian_eig(a).eigenvalues, [-0.125, 0.125, 0.125, 0.125], atol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g + g.conj().T
        vals, vecs = hermitian_eig(a)
        assert max_abs(vecs @ np.diag(vals) @ vecs.conj().T - a) <= 1e-10
        assert max_abs(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10
        assert np.all(np.diff(vals) >= -1e-10)

    def test_gauge_contract(self):
        # degenerate subspace: eigenvectors ordered by pivot index,
        # pivot component real positive
        proj = np.array([[0.5, 0.5], [0.5, 0.5]])
        vals, vecs = hermitian_eig(proj)
        for j in range(2):
            k = int(np.argmax(np.abs(vecs[:, j])))
            assert vecs[k, j].imag == pytest.approx(0.0, abs=1e-12)
            assert vecs[k, j].real > 0
        vals_i, vecs_i = hermitian_eig(np.eye(3))
        pivots = [int(np.argmax(np.abs(vecs_i[:, j]))) for j in range(3)]
        assert pivots == sorted(pivots)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceProduct:
    def test_identity_pair(self):
        assert trace_product([np.eye(2), np.eye(2)]) == pytest.approx(2.0)

    def test_diagonal_pair(self):
        z = np.diag([1.0, -1.0])
        assert trace_product([z, z]) == pytest.approx(2.0)

    def test_point_operator_pair(self):
        value = trace_product([point_operator(0, 0, 2), point_operator(0, 0, 2)])
        assert value == pytest.approx(1 / 8, abs=1e-12)

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mats = [
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(3)
            ]
            a, b, c = mats
            t1 = trace_product([a, b, c])
            t2 = trace_product([b, c, a])
            t3 = trace_product([c, a, b])
            assert abs(t1 - t2) <= 1e-12 * max(1.0, abs(t1))
            assert abs(t1 - t3) <= 1e-12 * max(1.0, abs(t1))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            trace_product([np.eye(2), np.eye(3)])

    def test_empty(self):
        with pytest.raises(ValueError):
            trace_product([])


class TestChecksAndValidation:
    def test_validate_unitary_raises(self):
        with pytest.raises(NotUnitaryError):
            validate_unitary(np.diag([1.0, 2.0]))

    def test_validate_density(self):
        rho = validate_density(np.diag([0.5, 0.5]))
        assert rho.dtype == complex
        with pytest.raises(NotHermitianError):
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.diag([1.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            validate_density(np.diag([1.5, -0.5]))
        # eigenvalues +-1e308: the eigensolver's input overflows to NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="positive"):
                validate_density(np.array([[0.5, 1e308], [1e308, 0.5]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            trace_product([np.array([[np.nan, 0], [0, 0]])])

    @pytest.mark.parametrize(
        "check",
        [wigner_table, validate_density, validate_unitary, hermitian_eig, unitary_propagator],
    )
    @pytest.mark.parametrize(
        "shape", [(2, 4), (4, 2), (4,), (1, 4, 4)], ids=["2x4", "4x2", "1-d", "3-d"]
    )
    def test_rejects_non_square(self, check, shape):
        with pytest.raises(DimMismatchError):
            check(np.zeros(shape))
