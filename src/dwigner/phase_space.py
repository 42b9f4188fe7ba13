"""Discrete phase space on the 2N x 2N lattice.

Conventions used throughout the package:

* The position shift U acts as U^m |n> = |n+m mod N>; the momentum shift V
  is diagonal, V^m |n> = exp(2*pi*i*m*n/N) |n>.  They satisfy
  V^p U^q = exp(2*pi*i*p*q/N) U^q V^p.
* The Fourier matrix F has entries exp(2*pi*i*n*k/N)/sqrt(N); its columns
  are the momentum basis, and F^2 equals the reflection R |n> = |-n mod N>.
* A phase-space point is a pair (q, p) of integers mod 2N.  Tables and
  operator stacks enumerate q as the row index and p as the column index,
  both ascending from 0; the flat index of (q, p) is q*2N + p.
* The translation operator is T(q, p) = U^q V^p exp(i*pi*q*p/N) and the
  phase-point operator at alpha = (q, p) is

      A(alpha) = (1/2N) U^q R V^{-p} exp(i*pi*p*q/N),

  a Hermitian matrix.  Phase exponents are reduced mod 2N as exact
  integers before exponentiation, so identities such as
  T(lam*q, lam*p) = T(q, p)^lam hold to machine precision.

Lines are solution sets of n1*p - n2*q = n3 (mod 2N); summing the point
operators along a line yields a projection operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix_core import trace_product


class EmptyLineWarning(UserWarning):
    """A line congruence with no solutions on the lattice."""


def position_shift(n: int) -> np.ndarray:
    """One-step position shift U: |l> -> |l+1 mod N>."""
    return _shift_power(n, 1)


def momentum_shift(n: int) -> np.ndarray:
    """One-step momentum shift V: diagonal with entries exp(2*pi*i*l/N)."""
    return _clock_power(n, 1)


def _shift_power(n: int, m: int) -> np.ndarray:
    # U^m, built directly from its action; exact for any integer m.
    u = np.zeros((n, n), dtype=complex)
    for l in range(n):
        u[(l + m) % n, l] = 1.0
    return u


def _clock_power(n: int, m: int) -> np.ndarray:
    # V^m = diag(exp(2*pi*i*m*l/N)); reduce m*l mod N to keep angles exact.
    l = np.arange(n)
    return np.diag(np.exp(2j * np.pi * ((m * l) % n) / n))


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, entry (j, k) = exp(2*pi*i*j*k/N)/sqrt(N)."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * ((j * k) % n) / n) / np.sqrt(n)


def reflection_operator(n: int) -> np.ndarray:
    """Reflection R: |l> -> |-l mod N>; equals the square of the Fourier matrix."""
    r = np.zeros((n, n), dtype=complex)
    for l in range(n):
        r[(-l) % n, l] = 1.0
    return r


def translation_operator(q: int, p: int, n: int) -> np.ndarray:
    """T(q, p) = U^q V^p exp(i*pi*q*p/N) for arbitrary integers q, p."""
    k = (q * p) % (2 * n)
    phase = np.exp(1j * np.pi * k / n)
    return phase * (_shift_power(n, q) @ _clock_power(n, p))


def point_operator(q: int, p: int, n: int) -> np.ndarray:
    """Phase-point operator A(q, p) = (1/2N) U^q R V^{-p} exp(i*pi*p*q/N).

    Hermitian for every lattice point; (q, p) is taken mod 2N.
    """
    k = (p * q) % (2 * n)
    phase = np.exp(1j * np.pi * k / n)
    return (phase / (2 * n)) * (
        _shift_power(n, q % (2 * n)) @ reflection_operator(n) @ _clock_power(n, -(p % (2 * n)))
    )


def core_points(n: int) -> list[tuple[int, int]]:
    """The N x N core sublattice, (q, p) with 0 <= q, p < N, in row-major order."""
    return [(q, p) for q in range(n) for p in range(n)]


def full_points(n: int) -> list[tuple[int, int]]:
    """The full 2N x 2N lattice in row-major order."""
    return [(q, p) for q in range(2 * n) for p in range(2 * n)]


def point_index(q: int, p: int, n: int) -> int:
    """Flat row-major index of (q, p) on the full lattice."""
    return (q % (2 * n)) * (2 * n) + (p % (2 * n))


# The dense stacks hold 4N^2 * N^2 (or N^4) complex entries.  Only a
# propagator's kernel ``z`` and the reference oracles use them; a small
# bound keeps a process that sweeps N from pinning every stack it built.
@lru_cache(maxsize=4)
def _point_stack_full(n: int) -> np.ndarray:
    stack = np.stack([point_operator(q, p, n) for q, p in full_points(n)])
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=4)
def _point_stack_core(n: int) -> np.ndarray:
    stack = np.stack([point_operator(q, p, n) for q, p in core_points(n)])
    stack.flags.writeable = False
    return stack


def point_operator_stack(n: int, grid: str = "full") -> np.ndarray:
    """All point operators as an array of shape (4N^2 or N^2, N, N).

    ``grid`` selects the full 2N x 2N lattice or its N x N core; ordering
    follows ``full_points`` / ``core_points``.
    """
    if grid == "full":
        return _point_stack_full(n).copy()
    if grid == "core":
        return _point_stack_core(n).copy()
    raise ValueError(f"grid must be 'full' or 'core', got {grid!r}")


def gamma_kernel(
    alpha: tuple[int, int], beta: tuple[int, int], gamma: tuple[int, int], n: int
) -> complex:
    """Three-point kernel tr(A(alpha) A(beta) A(gamma)).

    Evaluated as a trace product; invariant under cyclic rotation of the
    three points.
    """
    return trace_product(
        [
            point_operator(alpha[0], alpha[1], n),
            point_operator(beta[0], beta[1], n),
            point_operator(gamma[0], gamma[1], n),
        ]
    )


def gamma_tensor(n: int) -> np.ndarray:
    """All kernel values Gamma[a, b, c] with a on the full lattice and b, c
    on the core, flat indices in row-major grid order.  Shape (4N^2, N^2, N^2).
    """
    full = _point_stack_full(n)
    core = _point_stack_core(n)
    pairs = np.einsum("bij,cjk->bcik", core, core)
    return np.einsum("aij,bcji->abc", full, pairs)


@dataclass(frozen=True)
class PhaseLine:
    """Lattice line: points (q, p) with n1*p - n2*q = n3 (mod 2N)."""

    n1: int
    n2: int
    n3: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        period = 2 * self.n
        if self.n1 % period == 0 and self.n2 % period == 0:
            raise ValueError("line parameters (n1, n2) must not both vanish mod 2N")

    def contains(self, q: int, p: int) -> bool:
        return (self.n1 * p - self.n2 * q - self.n3) % (2 * self.n) == 0


def line_points(line: PhaseLine) -> list[tuple[int, int]]:
    """All lattice points on the line, in lexicographic (q, p) order.

    Some parameter triples have no solutions; that case is reported with an
    EmptyLineWarning and an empty list rather than an error.
    """
    pts = [(q, p) for q, p in full_points(line.n) if line.contains(q, p)]
    if not pts:
        warnings.warn(
            f"line (n1={line.n1}, n2={line.n2}, n3={line.n3}) contains no lattice points",
            EmptyLineWarning,
            stacklevel=2,
        )
    return pts


def line_projector(line: PhaseLine) -> np.ndarray:
    """Sum of the point operators along the line.

    The result is a Hermitian projector onto a span of eigenvectors of the
    translation operator T(n1, n2); the zero matrix for empty lines.
    """
    out = np.zeros((line.n, line.n), dtype=complex)
    for q, p in line_points(line):
        out += point_operator(q, p, line.n)
    return out
