from fractions import Fraction

import numpy as np
import pytest

from dwigner.matrix_core import adjoint, max_abs, trace_product, validate_unitary
from dwigner.phase_space import translation_operator
from dwigner.weyl import (
    WeylConfig,
    clock_operator,
    shift_operator,
    symplectic_form,
    weyl_expand,
    weyl_operator,
    weyl_synthesize,
)

DIMS = (2, 3, 4, 5)


class TestConfig:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            WeylConfig(0)

    def test_rejects_phase_out_of_range(self):
        with pytest.raises(ValueError):
            WeylConfig(2, alpha_u=1.5)
        with pytest.raises(ValueError):
            WeylConfig(2, alpha_v=-0.1)


class TestClockOperator:
    def test_n2(self):
        np.testing.assert_allclose(
            clock_operator(WeylConfig(2)), np.diag([1.0, -1.0]), atol=1e-12
        )

    def test_n1(self):
        np.testing.assert_allclose(clock_operator(WeylConfig(1)), [[1.0]], atol=1e-12)

    def test_n4_with_phase(self):
        cfg = WeylConfig(4, alpha_u=0.5)
        expected = np.diag([np.exp(1j * np.pi / 2 * (0.5 + k)) for k in range(4)])
        np.testing.assert_allclose(clock_operator(cfg), expected, atol=1e-12)
        validate_unitary(clock_operator(cfg))


class TestShiftOperator:
    def test_n2_swap(self):
        np.testing.assert_allclose(
            shift_operator(WeylConfig(2)), [[0, 1], [1, 0]], atol=1e-12
        )

    def test_n3_cycle(self):
        # apply the definition column by column: e_l -> e_{l+1 mod 3}
        v = shift_operator(WeylConfig(3))
        for l in range(3):
            expected = np.zeros(3)
            expected[(l + 1) % 3] = 1.0
            np.testing.assert_allclose(v @ np.eye(3)[:, l], expected, atol=1e-12)

    def test_n2_with_phase(self):
        v = shift_operator(WeylConfig(2, alpha_v=0.5))
        np.testing.assert_allclose(v, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)


class TestWeylOperator:
    def test_zero_index_is_identity(self):
        for n in DIMS:
            np.testing.assert_allclose(
                weyl_operator(WeylConfig(n), 0, 0), np.eye(n), atol=1e-12
            )

    def test_n2_explicit(self):
        # multiply the explicit 2x2 factors: exp(-i pi/2) diag(1,-1) swap
        expected = -1j * np.array([[0, 1], [-1, 0]])
        np.testing.assert_allclose(
            weyl_operator(WeylConfig(2), 1, 1), expected, atol=1e-12
        )

    @pytest.mark.parametrize("n", DIMS)
    def test_trace(self, n):
        cfg = WeylConfig(n)
        for n1 in range(n):
            for n2 in range(n):
                expected = n if (n1, n2) == (0, 0) else 0.0
                assert abs(np.trace(weyl_operator(cfg, n1, n2)) - expected) <= 1e-12

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8))
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.25, 0.75)])
    def test_commutation_orientation(self, n, phases):
        cfg = WeylConfig(n, alpha_u=phases[0], alpha_v=phases[1])
        u = clock_operator(cfg)
        v = shift_operator(cfg)
        for n1 in range(n):
            for n2 in range(n):
                lhs = np.linalg.matrix_power(u, n1) @ np.linalg.matrix_power(v, n2)
                rhs = np.exp(2j * np.pi * n1 * n2 / n) * (
                    np.linalg.matrix_power(v, n2) @ np.linalg.matrix_power(u, n1)
                )
                assert max_abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("n", DIMS)
    def test_orthogonality(self, n):
        cfg = WeylConfig(n)
        ops = {(a, b): weyl_operator(cfg, a, b) for a in range(n) for b in range(n)}
        for na, wa in ops.items():
            for nb, wb in ops.items():
                expected = n if na == nb else 0.0
                assert abs(trace_product([adjoint(wa), wb]) - expected) <= 1e-12

    @pytest.mark.parametrize("n", DIMS)
    def test_adjoint_is_negated_index(self, n):
        cfg = WeylConfig(n)
        for n1 in range(n):
            for n2 in range(n):
                lhs = adjoint(weyl_operator(cfg, n1, n2))
                rhs = weyl_operator(cfg, -n1, -n2)
                assert max_abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("n", DIMS)
    def test_composition_law(self, n):
        cfg = WeylConfig(n)
        rng = np.random.default_rng(n)
        for _ in range(6):
            na = tuple(int(x) for x in rng.integers(-n, n + 1, size=2))
            nb = tuple(int(x) for x in rng.integers(-n, n + 1, size=2))
            lhs = weyl_operator(cfg, *na) @ weyl_operator(cfg, *nb)
            phase = np.exp(1j * np.pi * symplectic_form(na, nb) / n)
            rhs = phase * weyl_operator(cfg, na[0] + nb[0], na[1] + nb[1])
            assert max_abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize(
        "n1, n2",
        ((1, 2), (3, -7), (2**60 + 1, 0), (-(2**70) - 3, 5), (10**30, -(10**25) + 1)),
    )
    def test_offset_phase_is_exact_at_any_index(self, n1, n2):
        # the phase of the floats' exact binary values, reduced as a fraction
        cfg = WeylConfig(4, alpha_u=0.3, alpha_v=0.7)
        turns = (Fraction(cfg.alpha_u) * n1 + Fraction(cfg.alpha_v) * n2) / cfg.n % 1
        expected = np.exp(2j * np.pi * float(turns)) * translation_operator(n2, n1, cfg.n)
        assert max_abs(weyl_operator(cfg, n1, n2) - expected) <= 1e-12

    def test_large_index_equals_its_residue(self):
        # 2**60 times the float 0.3 is an integer multiple of N = 4
        cfg = WeylConfig(4, alpha_u=0.3)
        np.testing.assert_array_equal(weyl_operator(cfg, 2**60 + 1, 0), weyl_operator(cfg, 1, 0))
        # zero offsets keep a phase of exactly 1
        np.testing.assert_array_equal(
            weyl_operator(WeylConfig(4), 2**60 + 1, 3), translation_operator(3, 2**60 + 1, 4)
        )

    def test_unitary(self):
        cfg = WeylConfig(5, alpha_u=0.2, alpha_v=0.9)
        for n1, n2 in ((1, 0), (0, 1), (2, 3), (-1, 4)):
            validate_unitary(weyl_operator(cfg, n1, n2))


class TestExpansion:
    def test_identity_coefficients(self):
        cfg = WeylConfig(3)
        coeffs = weyl_expand(cfg, np.eye(3))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_weyl_operator_coefficients(self):
        cfg = WeylConfig(4)
        for m in ((1, 2), (3, 0)):
            coeffs = weyl_expand(cfg, weyl_operator(cfg, *m))
            expected = np.zeros((4, 4), dtype=complex)
            expected[m] = 1.0
            np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8))
    def test_roundtrip_random(self, n):
        cfg = WeylConfig(n)
        rng = np.random.default_rng(n + 10)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        back = weyl_synthesize(cfg, weyl_expand(cfg, a))
        assert max_abs(back - a) <= 1e-10

    def test_roundtrip_hermitian_n4(self):
        cfg = WeylConfig(4)
        rng = np.random.default_rng(42)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g + adjoint(g)
        back = weyl_synthesize(cfg, weyl_expand(cfg, a))
        assert max_abs(back - a) <= 1e-10

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 8, 16))
    @pytest.mark.parametrize("offsets", ((0.0, 0.0), (0.3, 0.7), (1.0, 1.0)))
    def test_matches_weyl_operators(self, n, offsets):
        # against tr(W(n)* A) / N and sum_n c[n] W(n), each W from weyl_operator
        cfg = WeylConfig(n, *offsets)
        k = np.arange(n)
        ops = weyl_operator(cfg, k[:, None], k)
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = np.einsum("abij,ij->ab", ops.conj(), a) / n
        assert max_abs(weyl_expand(cfg, a) - expected) <= 1e-12
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert max_abs(weyl_synthesize(cfg, c) - np.einsum("ab,abij->ij", c, ops)) <= 1e-12

    def test_dim_mismatch(self):
        from dwigner.matrix_core import DimMismatchError

        with pytest.raises(DimMismatchError):
            weyl_expand(WeylConfig(3), np.eye(2))
