"""The closed-form monomial operators against their dense-product definitions.

Every oracle here is written out in the test: shift and clock powers by
their action on basis vectors, T and A as products of those, and the Weyl
operators as repeated matrix products of the clock and shift.
"""

import numpy as np
import pytest

from dwigner.matrix_core import adjoint, max_abs
from dwigner.phase_space import (
    core_points,
    full_points,
    momentum_shift,
    point_operator,
    point_operator_stack,
    position_shift,
    reflection_operator,
    translation_operator,
)
from dwigner.weyl import WeylConfig, clock_operator, shift_operator, weyl_operator

DIMS = (1, 2, 3, 4, 6, 8)


def shift_power(n, m):
    """U^m |l> = |l + m mod N>, entry by entry."""
    u = np.zeros((n, n), dtype=complex)
    for l in range(n):
        u[(l + m) % n, l] = 1.0
    return u


def clock_power(n, m):
    """V^m = diag(exp(2*pi*i*m*l/N))."""
    l = np.arange(n)
    return np.diag(np.exp(2j * np.pi * ((m * l) % n) / n))


def reflection(n):
    r = np.zeros((n, n), dtype=complex)
    for l in range(n):
        r[(-l) % n, l] = 1.0
    return r


def translation(q, p, n):
    """T(q, p) = exp(i*pi*q*p/N) U^q V^p."""
    return np.exp(1j * np.pi * ((q * p) % (2 * n)) / n) * (shift_power(n, q) @ clock_power(n, p))


def point(q, p, n):
    """A(q, p) = exp(i*pi*p*q/N)/(2N) U^q R V^{-p}."""
    phase = np.exp(1j * np.pi * ((p * q) % (2 * n)) / n) / (2 * n)
    return phase * (shift_power(n, q) @ reflection(n) @ clock_power(n, -p))


def repeated_powers(base, ks):
    """{k: base^k} by repeated multiplication; negative k multiply the adjoint."""
    out = {0: np.eye(base.shape[0], dtype=complex)}
    for step, sign in ((base, 1), (adjoint(base), -1)):
        power = out[0]
        for k in range(1, max(abs(k) for k in ks) + 1):
            power = power @ step
            out[sign * k] = power
    return out


def indices(n):
    return range(-2 * n, 4 * n)


@pytest.mark.parametrize("n", DIMS)
def test_operators_match_dense_products(n):
    worst = max(
        max_abs(position_shift(n) - shift_power(n, 1)),
        max_abs(momentum_shift(n) - clock_power(n, 1)),
        max_abs(reflection_operator(n) - reflection(n)),
    )
    for m in indices(n):
        worst = max(worst, max_abs(translation_operator(m, 0, n) - shift_power(n, m)))
        worst = max(worst, max_abs(translation_operator(0, m, n) - clock_power(n, m)))
    for q in indices(n):
        for p in indices(n):
            worst = max(worst, max_abs(translation_operator(q, p, n) - translation(q, p, n)))
            worst = max(worst, max_abs(point_operator(q, p, n) - point(q, p, n)))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("alpha", [(0.0, 0.0), (0.3, 0.7)])
def test_weyl_matches_repeated_products(n, alpha):
    cfg = WeylConfig(n, *alpha)
    k = np.arange(n)
    clock = np.diag(np.exp(2j * np.pi * (alpha[0] + k) / n))
    shift = np.exp(2j * np.pi * alpha[1] / n) * shift_power(n, 1)
    clocks = repeated_powers(clock, indices(n))
    shifts = repeated_powers(shift, indices(n))
    worst = max(max_abs(clock_operator(cfg) - clock), max_abs(shift_operator(cfg) - shift))
    for n1 in indices(n):
        for n2 in indices(n):
            phase = np.exp(-1j * np.pi * ((n1 * n2) % (2 * n)) / n)
            dense = phase * (clocks[n1] @ shifts[n2])
            worst = max(worst, max_abs(weyl_operator(cfg, n1, n2) - dense))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", DIMS)
def test_weyl_names_the_shifts_the_other_way_round(n):
    np.testing.assert_array_equal(clock_operator(WeylConfig(n)), momentum_shift(n))
    np.testing.assert_array_equal(shift_operator(WeylConfig(n)), position_shift(n))


@pytest.mark.parametrize("n", DIMS)
def test_stacks_are_the_stacked_point_operators(n):
    for grid, points in (("full", full_points(n)), ("core", core_points(n))):
        expected = np.stack([point_operator(q, p, n) for q, p in points])
        np.testing.assert_array_equal(point_operator_stack(n, grid), expected)


@pytest.mark.parametrize("n", DIMS)
def test_array_arguments_stack_the_operators(n):
    q, p = np.meshgrid(indices(n), indices(n), indexing="ij")
    cfg = WeylConfig(n, 0.3, 0.7)
    # the monomial entries are exact; the Weyl alpha phase is evaluated
    # elementwise, where array and scalar exp may differ in the last bits
    for build, tol in (
        (lambda a, b: translation_operator(a, b, n), 0.0),
        (lambda a, b: point_operator(a, b, n), 0.0),
        (lambda a, b: weyl_operator(cfg, a, b), 1e-14),
    ):
        batched = build(q, p)
        assert batched.shape == q.shape + (n, n)
        for i, j in np.ndindex(q.shape):
            assert max_abs(batched[i, j] - build(int(q[i, j]), int(p[i, j]))) <= tol


@pytest.mark.parametrize("n", DIMS)
def test_indices_beyond_int64(n):
    # T and A have period 2N in q and p; products of unreduced indices
    # this large would wrap in 64-bit integers
    big = 2**62
    for q, p in ((big + 1, big + 3), (-big - 5, big + 2), (10**20 + 1, -(10**30))):
        for build in (translation_operator, point_operator):
            np.testing.assert_array_equal(
                build(q, p, n), build(q % (2 * n), p % (2 * n), n)
            )
