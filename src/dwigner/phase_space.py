"""Discrete phase space on the 2N x 2N lattice.

Conventions used throughout the package:

* The position shift U acts as U^m |n> = |n+m mod N>; the momentum shift V
  is diagonal, V^m |n> = exp(2*pi*i*m*n/N) |n>.  They satisfy
  V^p U^q = exp(2*pi*i*p*q/N) U^q V^p.  :mod:`dwigner.weyl` names the
  same pair the other way round: its clock operator is V and its shift
  operator is U, each times a constant phase set by ``WeylConfig``.
* The Fourier matrix F has entries exp(2*pi*i*n*k/N)/sqrt(N); its columns
  are the momentum basis, and F^2 equals the reflection R |n> = |-n mod N>.
* A phase-space point is a pair (q, p) of integers mod 2N.  Tables and
  operator stacks enumerate q as the row index and p as the column index,
  both ascending from 0; the flat index of (q, p) is q*2N + p.
* The translation operator is T(q, p) = U^q V^p exp(i*pi*q*p/N) and the
  phase-point operator at alpha = (q, p) is

      A(alpha) = (1/2N) U^q R V^{-p} exp(i*pi*p*q/N),

  a Hermitian matrix.

Every one of U, V, R, T and A is a monomial matrix: column m holds one
nonzero entry, a root exp(i*pi*k/N) in a single row.  They are all built
by one scatter from that row and the exponent k, reduced mod 2N as an
exact integer, so identities such as T(lam*q, lam*p) = T(q, p)^lam hold to
machine precision.  Column m of T(q, p) holds exp(i*pi*p*(2m + q)/N) in row
(q + m) mod N; column m of 2N A(q, p) holds exp(i*pi*p*(q - 2m)/N) in row
(q - m) mod N.  ``translation_operator`` and ``point_operator`` accept
integer arrays for q and p and then return the stack of operators, as
``point_operator_stack`` does afresh on every call for the whole lattice or
its core; the oracles' cached stacks live in :mod:`dwigner.reference`.

Lines are solution sets of n1*p - n2*q = n3 (mod 2N); summing the point
operators along a line yields a projection operator.

The dimension N must be positive; ``_require_positive`` is that rule's
one check, called by ``_reduced`` (so for every monomial operator),
``fourier_matrix``, ``PhaseLine`` and :class:`dwigner.weyl.WeylConfig`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class EmptyLineWarning(UserWarning):
    """A line congruence with no solutions on the lattice."""


@lru_cache(maxsize=16)
def _roots(n: int) -> np.ndarray:
    """exp(i*pi*k/N) for 0 <= k < 2N, read-only.

    The upper half is the exact negative of the lower half, so operators
    and tables built from it obey the sign rules bit for bit.
    """
    half = np.exp(1j * np.pi * np.arange(n) / n)
    roots = np.concatenate([half, -half])
    roots.flags.writeable = False
    return roots


def _monomial(rows, exponents, n: int, scale: float = 1.0) -> np.ndarray:
    """Dense N x N matrices whose column m holds scale * exp(i*pi*k/N) in one row.

    ``rows`` and ``exponents`` (integers, k taken mod 2N) end in an axis over
    m; their leading axes broadcast and index the returned stack.
    """
    rows, exponents = np.broadcast_arrays(rows, exponents)
    out = np.zeros(rows.shape[:-1] + (n, n), dtype=complex)
    values = scale * _roots(n)[exponents % (2 * n)]
    np.put_along_axis(out, rows[..., None, :], values[..., None, :], axis=-2)
    return out


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")


def _reduced(k, n: int) -> np.ndarray:
    """Integer indices mod 2N as int64 with a trailing axis for m.

    Reducing first keeps later products exact in fixed-width integers and
    accepts Python integers of any size; non-integers raise ValueError.
    """
    _require_positive(n)
    k = np.asarray(k)
    # Python integers beyond int64 arrive as an object array
    if k.dtype.kind not in "iu" and not (
        k.dtype == object and all(isinstance(x, (int, np.integer)) for x in k.flat)
    ):
        raise ValueError(f"lattice coordinates must be integers, got dtype {k.dtype}")
    return np.asarray(k % (2 * n), dtype=np.int64)[..., None]


def _point_entries(q, p, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and root exponent of column m of 2N A(q, p), with a trailing m axis.

    Column m holds exp(i*pi*p*(q - 2m)/N) in row (q - m) mod N; q and p
    broadcast.
    """
    q, p = _reduced(q, n), _reduced(p, n)
    m = np.arange(n)
    return (q - m) % n, (p * (q - 2 * m)) % (2 * n)


def position_shift(n: int) -> np.ndarray:
    """One-step position shift U: |l> -> |l+1 mod N>."""
    return translation_operator(1, 0, n)


def momentum_shift(n: int) -> np.ndarray:
    """One-step momentum shift V: diagonal with entries exp(2*pi*i*l/N)."""
    return translation_operator(0, 1, n)


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, entry (j, k) = exp(2*pi*i*j*k/N)/sqrt(N)."""
    _require_positive(n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * ((j * k) % n) / n) / np.sqrt(n)


def reflection_operator(n: int) -> np.ndarray:
    """Reflection R: |l> -> |-l mod N>; equals the square of the Fourier matrix."""
    # R = 2N A(0, 0)
    return _monomial(*_point_entries(0, 0, n), n)


def translation_operator(q, p, n: int) -> np.ndarray:
    """T(q, p) = U^q V^p exp(i*pi*q*p/N) for arbitrary integers q, p."""
    q, p = _reduced(q, n), _reduced(p, n)
    m = np.arange(n)
    return _monomial((q + m) % n, p * (2 * m + q), n)


def point_operator(q, p, n: int) -> np.ndarray:
    """Phase-point operator A(q, p) = (1/2N) U^q R V^{-p} exp(i*pi*p*q/N).

    Hermitian for every lattice point; (q, p) is taken mod 2N.
    """
    return _monomial(*_point_entries(q, p, n), n, 1 / (2 * n))


def core_points(n: int) -> list[tuple[int, int]]:
    """The N x N core sublattice, (q, p) with 0 <= q, p < N, in row-major order."""
    return [(q, p) for q in range(n) for p in range(n)]


def full_points(n: int) -> list[tuple[int, int]]:
    """The full 2N x 2N lattice in row-major order."""
    return [(q, p) for q in range(2 * n) for p in range(2 * n)]


def point_operator_stack(n: int, grid: str = "full") -> np.ndarray:
    """All point operators as a new array of shape (4N^2 or N^2, N, N).

    ``grid`` selects the full 2N x 2N lattice or its N x N core; ordering
    follows ``full_points`` / ``core_points``.  The stack holds 4N^2 * N^2
    (or N^4) complex entries and is built by one scatter on each call.
    """
    if grid not in ("full", "core"):
        raise ValueError(f"grid must be 'full' or 'core', got {grid!r}")
    k = np.arange(2 * n if grid == "full" else n)
    return point_operator(k[:, None], k, n).reshape(-1, n, n)


@dataclass(frozen=True)
class PhaseLine:
    """Lattice line: points (q, p) with n1*p - n2*q = n3 (mod 2N)."""

    n1: int
    n2: int
    n3: int
    n: int

    def __post_init__(self) -> None:
        _require_positive(self.n)
        period = 2 * self.n
        if self.n1 % period == 0 and self.n2 % period == 0:
            raise ValueError("line parameters (n1, n2) must not both vanish mod 2N")

    def contains(self, q, p):
        period = 2 * self.n
        # each parameter reduced first, so that products with int64 arrays stay exact
        return (self.n1 % period * p - self.n2 % period * q - self.n3 % period) % period == 0


def line_points(line: PhaseLine) -> list[tuple[int, int]]:
    """All lattice points on the line, in lexicographic (q, p) order.

    Some parameter triples have no solutions; that case is reported with an
    EmptyLineWarning and an empty list rather than an error.
    """
    q, p = np.indices((2 * line.n, 2 * line.n)).reshape(2, -1)
    on_line = line.contains(q, p)
    pts = list(zip(q[on_line].tolist(), p[on_line].tolist()))
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
    q, p = np.array(line_points(line), dtype=int).reshape(-1, 2).T
    return point_operator(q, p, line.n).sum(axis=0)
