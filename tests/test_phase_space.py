import warnings

import numpy as np
import pytest

from oracles import gamma_kernel
from dwigner.matrix_core import adjoint, max_abs, trace_product, validate_unitary
from dwigner.phase_space import (
    EmptyLineWarning,
    PhaseLine,
    core_points,
    fourier_matrix,
    full_points,
    line_points,
    line_projector,
    momentum_shift,
    point_operator,
    point_operator_stack,
    position_shift,
    reflection_operator,
    translation_operator,
)
from dwigner.weyl import WeylConfig, weyl_operator


def point_operator_by_fourier_sum(q, p, n):
    """Independent oracle: quadruple sum over translations with phases."""
    two_n = 2 * n
    total = np.zeros((n, n), dtype=complex)
    for lam in range(two_n):
        for lam2 in range(two_n):
            total += translation_operator(lam, lam2, n) * np.exp(
                -2j * np.pi * (lam2 * q - lam * p) / two_n
            )
    return total / two_n**2


class TestShifts:
    def test_position_shift_n2(self):
        np.testing.assert_allclose(position_shift(2), [[0, 1], [1, 0]], atol=1e-12)

    def test_momentum_shift_n2(self):
        np.testing.assert_allclose(momentum_shift(2), np.diag([1.0, -1.0]), atol=1e-12)

    def test_commutation_n3(self):
        u = position_shift(3)
        v = momentum_shift(3)
        assert max_abs(v @ u - np.exp(2j * np.pi / 3) * (u @ v)) <= 1e-12

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_unitarity(self, n):
        validate_unitary(position_shift(n))
        validate_unitary(momentum_shift(n))


class TestFourier:
    def test_n2(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(fourier_matrix(2), expected, atol=1e-12)

    def test_n1(self):
        np.testing.assert_allclose(fourier_matrix(1), [[1.0]], atol=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8))
    def test_unitary(self, n):
        f = fourier_matrix(n)
        assert max_abs(adjoint(f) @ f - np.eye(n)) <= 1e-12


class TestReflection:
    def test_n2_identity(self):
        np.testing.assert_allclose(reflection_operator(2), np.eye(2), atol=1e-12)

    def test_n3_swap(self):
        r = reflection_operator(3)
        basis = np.eye(3)
        np.testing.assert_allclose(r @ basis[:, 0], basis[:, 0], atol=1e-12)
        np.testing.assert_allclose(r @ basis[:, 1], basis[:, 2], atol=1e-12)
        np.testing.assert_allclose(r @ basis[:, 2], basis[:, 1], atol=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_fourier_square(self, n):
        f = fourier_matrix(n)
        assert max_abs(f @ f - reflection_operator(n)) <= 1e-12

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_inverts_shifts(self, n):
        u = position_shift(n)
        v = momentum_shift(n)
        r = reflection_operator(n)
        assert max_abs(u @ r - r @ adjoint(u)) <= 1e-12
        assert max_abs(v @ r - r @ adjoint(v)) <= 1e-12


class TestTranslation:
    def test_zero(self):
        np.testing.assert_allclose(translation_operator(0, 0, 3), np.eye(3), atol=1e-12)

    def test_n2_explicit(self):
        # multiply the explicit 2x2 factors: exp(i pi/2) U V
        expected = 1j * np.array([[0, -1], [1, 0]])
        np.testing.assert_allclose(translation_operator(1, 1, 2), expected, atol=1e-12)

    def test_square_at_n2(self):
        t = translation_operator(1, 1, 2)
        np.testing.assert_allclose(
            translation_operator(2, 2, 2), t @ t, atol=1e-12
        )

    @pytest.mark.parametrize("n", (2, 4, 6))
    @pytest.mark.parametrize("qp", [(1, 0), (0, 1), (1, 1), (2, 3)])
    def test_power_identity(self, n, qp):
        q, p = qp
        t = translation_operator(q, p, n)
        power = np.eye(n, dtype=complex)
        for lam in range(2 * n):
            assert max_abs(translation_operator(lam * q, lam * p, n) - power) <= 1e-12
            power = power @ t

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_order_divides_n_for_even_n(self, n):
        t = translation_operator(1, 1, n)
        assert max_abs(np.linalg.matrix_power(t, n) - np.eye(n)) <= 1e-12


class TestPointOperator:
    def test_n2_origin(self):
        np.testing.assert_allclose(point_operator(0, 0, 2), np.eye(2) / 4, atol=1e-12)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_hermitian_everywhere(self, n):
        for q, p in full_points(n):
            a = point_operator(q, p, n)
            assert max_abs(a - adjoint(a)) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_matches_fourier_sum(self, n):
        for q, p in full_points(n):
            oracle = point_operator_by_fourier_sum(q, p, n)
            assert max_abs(point_operator(q, p, n) - oracle) <= 1e-10

    @pytest.mark.parametrize("n", (2, 4))
    def test_symmetry_relation(self, n):
        for q in range(n):
            for p in range(n):
                base = point_operator(q, p, n)
                for sq in (0, 1):
                    for sp in (0, 1):
                        sign = (-1.0) ** ((sp * q + sq * p + sq * sp * n) % 2)
                        shifted = point_operator(q + sq * n, p + sp * n, n)
                        assert max_abs(shifted - sign * base) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_orthogonality_on_core(self, n):
        for qa, pa in core_points(n):
            a = point_operator(qa, pa, n)
            for qb, pb in core_points(n):
                b = point_operator(qb, pb, n)
                expected = (1 / (4 * n)) * (qa == qb) * (pa == pb)
                assert abs(trace_product([a, b]) - expected) <= 1e-12

    def test_stack_matches_and_is_safe(self):
        stack = point_operator_stack(2)
        for q, p in full_points(2):
            # the flat index of (q, p) is q*2N + p
            np.testing.assert_allclose(stack[q * 4 + p], point_operator(q, p, 2), atol=0)
        stack[0, 0, 0] = 99.0  # a new array: the next call must not see the write
        assert point_operator_stack(2)[0, 0, 0] == pytest.approx(0.25)

    def test_core_stack_shape(self):
        assert point_operator_stack(4, grid="core").shape == (16, 4, 4)
        with pytest.raises(ValueError):
            point_operator_stack(4, grid="half")


class TestDimension:
    @pytest.mark.parametrize("n", (0, -2, 2.5))
    @pytest.mark.parametrize(
        "build",
        (
            lambda n: point_operator(0, 0, n),
            lambda n: translation_operator(0, 0, n),
            reflection_operator,
            position_shift,
            momentum_shift,
            point_operator_stack,
            fourier_matrix,
            WeylConfig,
            lambda n: PhaseLine(1, 0, 0, n),
        ),
    )
    def test_non_positive_rejected(self, build, n):
        # not a ZeroDivisionError, an empty array, numpy's negative-shape or
        # TypeError, or a matrix of the rounded-up size
        with pytest.raises(ValueError, match="dimension must be positive"):
            build(n)


class TestLatticeCoordinates:
    @pytest.mark.parametrize(
        "build",
        (
            lambda x: point_operator(x, 0, 4),
            lambda x: translation_operator(x, 0, 4),
            lambda x: weyl_operator(WeylConfig(4), x, 0),
        ),
    )
    @pytest.mark.parametrize("x", (1.5, 0.9, 0.5, 2.0, np.array([0.0, 1.0])))
    def test_non_integer_rejected(self, build, x):
        # truncating would silently build the operator at the floor point
        with pytest.raises(ValueError, match="float64"):
            build(x)


class TestGammaKernel:
    def test_origin_triple_n2(self):
        # cube the explicit operator: tr((I/4)^3) = 2/64
        value = gamma_kernel((0, 0), (0, 0), (0, 0), 2)
        assert value == pytest.approx(1 / 32, abs=1e-12)

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            pts = [tuple(int(x) for x in rng.integers(0, 4, size=2)) for _ in range(3)]
            g1 = gamma_kernel(pts[0], pts[1], pts[2], 2)
            g2 = gamma_kernel(pts[1], pts[2], pts[0], 2)
            g3 = gamma_kernel(pts[2], pts[0], pts[1], 2)
            assert abs(g1 - g2) <= 1e-12
            assert abs(g1 - g3) <= 1e-12


class TestLines:
    def test_constant_p_line(self):
        pts = line_points(PhaseLine(1, 0, 0, 2))
        assert pts == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_constant_q_line(self):
        # 0*p - 1*q = 1 (mod 4) pins q = 3 and leaves p free
        pts = line_points(PhaseLine(0, 1, 1, 2))
        assert pts == [(3, 0), (3, 1), (3, 2), (3, 3)]

    def test_parallel_lines_disjoint(self):
        a = set(line_points(PhaseLine(1, 0, 0, 2)))
        b = set(line_points(PhaseLine(1, 0, 1, 2)))
        assert not a & b

    def test_membership_against_enumeration(self):
        # every direction in [-3, 2N + 1]^2, offsets beyond int64 included,
        # against the Python filter over the whole lattice
        for n in (1, 2, 3, 4, 8, 10):
            for n1 in range(-3, 2 * n + 2):
                for n2 in range(-3, 2 * n + 2):
                    if n1 % (2 * n) == 0 and n2 % (2 * n) == 0:
                        continue
                    for n3 in (0, 1, 2, 5, -7, 10**20):
                        expected = [
                            (q, p)
                            for q, p in full_points(n)
                            if (n1 * p - n2 * q - n3) % (2 * n) == 0
                        ]
                        line = PhaseLine(n1, n2, n3, n)
                        if expected:
                            with warnings.catch_warnings():
                                warnings.simplefilter("error", EmptyLineWarning)
                                assert line_points(line) == expected
                        else:
                            with pytest.warns(EmptyLineWarning):
                                assert line_points(line) == []

    def test_empty_line_warns(self):
        with pytest.warns(EmptyLineWarning):
            pts = line_points(PhaseLine(2, 0, 1, 2))
        assert pts == []

    def test_rejects_null_direction(self):
        with pytest.raises(ValueError):
            PhaseLine(0, 0, 1, 2)
        with pytest.raises(ValueError):
            PhaseLine(4, 8, 1, 2)


class TestLineProjectors:
    @pytest.mark.parametrize("n", (2, 4))
    def test_hermitian_idempotent_families(self, n):
        for n1, n2 in ((1, 0), (0, 1), (1, 1)):
            for n3 in range(2 * n):
                proj = line_projector(PhaseLine(n1, n2, n3, n))
                assert max_abs(proj - adjoint(proj)) <= 1e-10
                assert max_abs(proj @ proj - proj) <= 1e-10

    def test_constant_p_lines_project_on_momentum_states(self):
        # L(1, 0, n3) fixes p = n3; even n3 selects the momentum ket n3/2
        f = fourier_matrix(2)
        for n3 in (0, 2):
            proj = line_projector(PhaseLine(1, 0, n3, 2))
            k = n3 // 2
            expected = np.outer(f[:, k], np.conj(f[:, k]))
            assert max_abs(proj - expected) <= 1e-12
        for n3 in (1, 3):
            assert max_abs(line_projector(PhaseLine(1, 0, n3, 2))) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_constant_q_lines_project_on_position_states(self, n):
        # L(0, 1, n3) fixes q = -n3 mod 2N; even q selects the position ket q/2
        for n3 in range(2 * n):
            proj = line_projector(PhaseLine(0, 1, n3, n))
            q = (-n3) % (2 * n)
            if q % 2 == 0:
                expected = np.zeros((n, n))
                expected[q // 2, q // 2] = 1.0
            else:
                expected = np.zeros((n, n))
            assert max_abs(proj - expected) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_translation_eigensum_form(self, n):
        # (1/2N) sum_lam T(lam n1, lam n2) exp(2 pi i n3 lam / 2N)
        for n1, n2 in ((1, 0), (0, 1), (1, 1)):
            for n3 in range(2 * n):
                direct = line_projector(PhaseLine(n1, n2, n3, n))
                summed = sum(
                    translation_operator(lam * n1, lam * n2, n)
                    * np.exp(2j * np.pi * n3 * lam / (2 * n))
                    for lam in range(2 * n)
                ) / (2 * n)
                assert max_abs(direct - summed) <= 1e-10
