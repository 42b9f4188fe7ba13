"""Clock and shift unitaries, the discrete Weyl operators and the Weyl expansion.

The clock operator U is diagonal with entries exp(2*pi*i*(alpha_u + k)/N);
the shift operator V maps |l> to exp(2*pi*i*alpha_v/N) |l+1 mod N>.  They
are the momentum shift and the position shift of
:mod:`dwigner.phase_space` (which names them the other way round) times
constant phases, and obey U^a V^b = exp(2*pi*i*a*b/N) V^b U^a, an
orientation this module's tests confirm by brute-force multiplication.

The Weyl operator attached to an integer pair (n1, n2) is

    W(n1, n2) = exp(-i*pi*n1*n2/N) U^n1 V^n2
              = exp(2*pi*i*(alpha_u*n1 + alpha_v*n2)/N) T(n2, n1),

with T the translation operator of :mod:`dwigner.phase_space`, a
monomial matrix built in closed form from exact integer exponents.

Indices are deliberately NOT reduced mod N here: the family is projective,
and reducing an index can flip the sign of the operator.  Exact-integer
indices keep the adjoint identity W(n)* = W(-n) and the composition law
W(n) W(m) = exp(i*pi*(n1*m2 - n2*m1)/N) W(n+m) true to machine precision.
Restricted to 0 <= n1, n2 < N the operators are orthogonal,
tr(W(n)* W(m)) = N [n == m], and span all N x N matrices.  Column m of
W(n1, n2) holds its one entry in row (n2 + m) mod N, so ``weyl_expand`` and
``weyl_synthesize`` are one gather or scatter of the wrapped diagonals of a
matrix and one row FFT each: O(N^2 log N) time and O(N^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import DimMismatchError, as_complex_matrix
from .phase_space import _require_positive, _roots, translation_operator


@dataclass(frozen=True)
class WeylConfig:
    """Hilbert dimension plus the two phase offsets in [0, 1]."""

    n: int
    alpha_u: float = 0.0
    alpha_v: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(self.n)
        if not 0.0 <= self.alpha_u <= 1.0:
            raise ValueError(f"alpha_u must lie in [0, 1], got {self.alpha_u}")
        if not 0.0 <= self.alpha_v <= 1.0:
            raise ValueError(f"alpha_v must lie in [0, 1], got {self.alpha_v}")


def clock_operator(cfg: WeylConfig) -> np.ndarray:
    """Diagonal clock unitary: entry exp(2*pi*i*(alpha_u + k)/N) at (k, k)."""
    return np.exp(2j * np.pi * cfg.alpha_u / cfg.n) * translation_operator(0, 1, cfg.n)


def shift_operator(cfg: WeylConfig) -> np.ndarray:
    """Cyclic shift unitary: |l> -> exp(2*pi*i*alpha_v/N) |l+1 mod N>."""
    return np.exp(2j * np.pi * cfg.alpha_v / cfg.n) * translation_operator(1, 0, cfg.n)


def symplectic_form(n: tuple[int, int], m: tuple[int, int]) -> int:
    """n1*m2 - n2*m1, the integer symplectic form on index pairs."""
    return n[0] * m[1] - n[1] * m[0]


def _offset_phase(cfg: WeylConfig, n1, n2) -> np.ndarray:
    """exp(2*pi*i*(alpha_u*n1 + alpha_v*n2)/N), exact at any integer index.

    Each offset is the exact ratio a/b of its float value, so the angle in
    turns is an integer over N*b_u*b_v, reduced in Python integers before
    the one float exp.  Zero offsets give a phase of exactly 1.
    """
    a_u, b_u = cfg.alpha_u.as_integer_ratio()
    a_v, b_v = cfg.alpha_v.as_integer_ratio()
    period = cfg.n * b_u * b_v
    turns = a_u * b_v * np.asarray(n1, dtype=object) + a_v * b_u * np.asarray(n2, dtype=object)
    return np.exp(2j * np.pi * np.asarray(turns % period / period, dtype=float))


def weyl_operator(cfg: WeylConfig, n1, n2) -> np.ndarray:
    """W(n1, n2) = exp(-i*pi*n1*n2/N) U^n1 V^n2 for arbitrary integers.

    ``n1`` and ``n2`` may be integer arrays of one shape; the result then
    stacks the operators along their leading axes.
    """
    return _offset_phase(cfg, n1, n2)[..., None, None] * translation_operator(n2, n1, cfg.n)


def _diagonals(cfg: WeylConfig) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Index of A[(n2 + m) mod N, m] at [n2, m], and grid[n2, n1]: column m
    of W(n1, n2) holds grid[n2, n1] * exp(2*pi*i*n1*m/N).
    """
    k = np.arange(cfg.n)
    grid = np.outer(_offset_phase(cfg, 0, k), _offset_phase(cfg, k, 0))
    grid *= _roots(cfg.n)[np.outer(k, k) % (2 * cfg.n)]
    return ((k[:, None] + k) % cfg.n, k), grid


def weyl_expand(cfg: WeylConfig, a) -> np.ndarray:
    """Coefficients c[n1, n2] = tr(W(n1,n2)* A) / N over 0 <= n1, n2 < N."""
    m = as_complex_matrix(a)
    if m.shape != (cfg.n, cfg.n):
        raise DimMismatchError(f"expected a {cfg.n}x{cfg.n} matrix, got shape {m.shape}")
    index, grid = _diagonals(cfg)
    return (np.fft.fft(m[index], axis=1) * grid.conj()).T / cfg.n


def weyl_synthesize(cfg: WeylConfig, coeffs) -> np.ndarray:
    """Rebuild sum_n c[n] W(n) from a coefficient table over Z_N x Z_N."""
    c = np.array(coeffs, dtype=complex)
    if c.shape != (cfg.n, cfg.n):
        raise DimMismatchError(f"expected a {cfg.n}x{cfg.n} coefficient table, got {c.shape}")
    index, grid = _diagonals(cfg)
    c[index] = np.fft.ifft(c.T * grid, axis=1, norm="forward")
    return c
