"""Discrete Wigner tables for density operators on an even-dimensional space.

A Wigner table is a real 2N x 2N array W with W[q, p] = tr(A(q, p) rho),
where A is the phase-point operator of :mod:`dwigner.phase_space`.  Rows
are indexed by q, columns by p.  Key structural facts, all enforced or
checked here:

* the full table is determined by its N x N core through the sign rule
  W[q + sq*N, p + sp*N] = W[q, p] * (-1)^(sp*q + sq*p + sq*sp*N);
* summing row 2q gives the position probability <q|rho|q>, summing column
  2p gives the momentum probability, and odd-index sums vanish;
* rows with odd q vanish entrywise for states diagonal in the position
  basis; coherences between positions live exactly there;
* rho is recovered as 4N * sum over the core (or N * sum over the full
  lattice) of W(alpha) A(alpha).

Every A(q, p) is a monomial matrix: column m holds one nonzero entry, in
row (q - m) mod N.  The trace therefore collapses to the matrix-element sum

    W[q, p] = (1/2N) exp(-i*pi*p*q/N) sum_m rho[(q - m) mod N, m] exp(2*pi*i*p*m/N),

which for each row q is a length-N inverse DFT of a wrapped diagonal of
rho, periodic in p with period N.  ``wigner_table`` evaluates it that way
on the N x N core only and extends the core by the sign rule, in
O(N^2 log N) time and O(N^2) memory; the rows and phase roots come from
the monomial entries of :mod:`dwigner.phase_space`, and ``_kernel``
caches every index, sign and phase table of one N in one read-only
record with its scale folded in.  ``reconstruct`` inverts it exactly on
the core, one forward DFT per row, and ``purity_residual`` compares a
table with the table of the square of that inverse.  The row DFTs have
two arms: up to N = 16 they are one product with the record's N x N DFT
matrix, because there numpy's fixed cost per FFT call outweighs the
arithmetic; above it they are one FFT call.
The table and the full-lattice sum by the chord route (one 2N x 2N FFT
of the Weyl expansion, with no ``_kernel`` record and no sign rule) and
the direct momentum distribution are independent oracles for the tests
and ``verify``, in :mod:`dwigner.reference`.

Each input rule has one check: ``_table`` for every table argument here
(real, 2N x 2N, N even) and ``density_from_state`` for every state vector
(1-D, norm 1); :mod:`dwigner.phase_space` checks that N is positive.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .matrix_core import as_complex_matrix, max_abs
from .phase_space import _point_entries, _roots


class OddDimensionError(ValueError):
    """Wigner tables are only defined here for even N."""


class NonHermitianResultError(ValueError):
    """A table evaluation produced a non-negligible imaginary part."""


class InconsistentTableError(ValueError):
    """A table violates the core-extension symmetry relation."""


class DegenerateSuperpositionError(ValueError):
    """Two-term superposition with coinciding basis indices."""


class NotNormalizedError(ValueError):
    """State amplitudes do not satisfy the normalization constraint."""


def _require_even(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise OddDimensionError(f"N must be even and >= 2, got {n}")


def _require_indices(n: int, *qs: int) -> None:
    """Basis indices in [0, N) (IndexError), pairwise distinct when several."""
    for q in qs:
        if not 0 <= q < n:
            raise IndexError(f"basis index {q} out of range for dimension {n}")
    if len(set(qs)) < len(qs):
        raise DegenerateSuperpositionError(f"superposition indices coincide: {qs}")


def _require_finite_table(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise ValueError("table entries must be finite")


def table_dimension(table) -> int:
    """Recover N from a 2N x 2N table, validating the shape."""
    w = np.asarray(table, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 0:
        raise ValueError(f"expected a 2N x 2N table, got shape {w.shape}")
    return w.shape[0] // 2


def _table(table) -> tuple[np.ndarray, int]:
    """A table as a float array and its N: 2N x 2N, with N even."""
    w = np.asarray(table, dtype=float)
    n = table_dimension(w)
    _require_even(n)
    return w, n


def wigner_table(rho, imag_tol: float = 1e-10) -> np.ndarray:
    """Wigner table of a density operator (or any Hermitian matrix).

    Evaluates the matrix-element sum on the N x N core, one DFT per row,
    and extends the core by the sign rule.  Raises
    OddDimensionError for odd N and NonHermitianResultError if the
    imaginary residue of the evaluation exceeds ``imag_tol`` (which signals
    a non-Hermitian input or an operator bug upstream).
    """
    m = as_complex_matrix(rho)
    n = m.shape[0]
    _require_even(n)
    core = _table_lemma(m)
    residue = max_abs(core.imag)
    if not residue <= imag_tol:
        raise NonHermitianResultError(
            f"imaginary residue {residue:.3e} exceeds {imag_tol:g}"
        )
    return _extend(core.real)


# Largest N whose row DFT is a product with a cached DFT matrix.  Up to
# here numpy's fixed cost per FFT call outweighs the N^3 product; above it
# the FFT keeps O(N^2 log N).  The two cross near N = 48, but N = 32 stays
# on the FFT so that the benchmark workloads run both arms.
_MATRIX_DFT_MAX_N = 16

_Kernel = namedtuple("_Kernel", "wrap unwrap table inverse signs fold dft_pos dft_neg")


# Rebuilding the per-N constants cost a large part of each small-N kernel
# call.  The bound covers a few sizes in use at once.
@lru_cache(maxsize=8)
def _kernel(n: int) -> _Kernel:
    """Per-N constants of the row-DFT kernel, read-only and pre-scaled.

    ``wrap`` selects wrapped[q, m] = rho[(q - m) mod N, m] from the flat
    rho, and ``unwrap`` selects rho[r, m] = wrapped[(r + m) mod N, m] back
    from the flat wrapped rows.  ``table`` (N x N) turns the unnormalised
    inverse DFT of the wrapped rows into the table core; ``inverse``
    (N x N) turns a core into the spectra whose unnormalised DFT per row
    gives back the wrapped rows of 4N sum_core W A.  ``signs`` [sq, q, sp, p]
    is the sign rule's (-1)^(sp*q + sq*p); its sq*sp*N term is even for
    the even N used here.  ``fold``, indexed like ``signs``, does what
    ``inverse`` does for a whole table, with the sign rule and the mean
    over the four quadrants folded in.  ``dft_pos`` and ``dft_neg`` are
    exp(+-2*pi*i*m*p/N), 0 <= m, p < N, if N <= ``_MATRIX_DFT_MAX_N``, else None.
    """
    k = np.arange(n)
    rows, _ = _point_entries(k, 0, n)
    phases = _roots(n)[np.outer(k, k) % (2 * n)]
    s = np.arange(2)
    parity = s[None, None, :, None] * k[None, :, None, None] + s[:, None, None, None] * k
    signs = 1.0 - 2.0 * (parity % 2)
    inverse = 2 * phases
    dft_pos = dft_neg = None
    if n <= _MATRIX_DFT_MAX_N:
        dft_pos = _roots(n)[(2 * np.outer(k, k)) % (2 * n)]
        dft_neg = _roots(n)[(-2 * np.outer(k, k)) % (2 * n)]
    kernel = _Kernel(
        wrap=rows * n + k,
        unwrap=((k[:, None] + k) % n) * n + k,
        table=phases.conj() / (2 * n),
        inverse=inverse,
        signs=signs,
        fold=signs * inverse[None, :, None, :] / 4,
        dft_pos=dft_pos,
        dft_neg=dft_neg,
    )
    for constant in kernel:
        if constant is not None:
            constant.flags.writeable = False
    return kernel


def _row_dft(x: np.ndarray, sign: int) -> np.ndarray:
    """Unnormalised DFT of each row of an N x N array, exp(sign * 2*pi*i*m*p/N).

    Sign +1 is numpy's ``ifft(norm="forward")``, sign -1 its ``fft``.
    """
    kernel = _kernel(x.shape[1])
    matrix = kernel.dft_pos if sign > 0 else kernel.dft_neg
    if matrix is not None:
        return x @ matrix
    if sign > 0:
        return np.fft.ifft(x, axis=1, norm="forward")
    return np.fft.fft(x, axis=1)


def _table_lemma(rho: np.ndarray) -> np.ndarray:
    """Complex N x N core of the table of rho; ``_extend`` gives the full table."""
    kernel = _kernel(rho.shape[0])
    return _row_dft(rho.reshape(-1)[kernel.wrap], 1) * kernel.table


def _from_spectra(spectra: np.ndarray) -> np.ndarray:
    """The operator whose wrapped rows are the unnormalised DFTs of ``spectra``."""
    return _row_dft(spectra, -1).reshape(-1)[_kernel(spectra.shape[0]).unwrap]


def _core_inverse(core: np.ndarray) -> np.ndarray:
    """The operator whose table has the given N x N core: 4N sum_core W A.

    Undoes ``_table_lemma`` row by row; no symmetry check.
    """
    return _from_spectra(core * _kernel(core.shape[0]).inverse)


def _table_inverse(table: np.ndarray) -> np.ndarray:
    """N * sum over the full lattice of W A, for any real 2N x 2N table.

    A(alpha) obeys the sign rule, so this is the core inverse of the
    sign-corrected mean of the four quadrants; for a table that obeys the
    rule, that mean is its core.  One contraction with the fold kernel and
    one DFT per row.
    """
    n = table.shape[0] // 2
    spectra = (table.reshape(2, n, 2, n) * _kernel(n).fold).sum(axis=(0, 2))
    return _from_spectra(spectra)


def basis_state(q0: int, n: int) -> np.ndarray:
    """Position basis vector |q0> of dimension N."""
    _require_indices(n, q0)
    v = np.zeros(n, dtype=complex)
    v[q0] = 1.0
    return v


def superposition_state(q0: int, q1: int, phi: float, n: int) -> np.ndarray:
    """Normalized two-term superposition (|q0> + exp(-i*phi) |q1>)/sqrt(2)."""
    _require_indices(n, q0, q1)
    return (basis_state(q0, n) + np.exp(-1j * phi) * basis_state(q1, n)) / np.sqrt(2.0)


def density_from_state(psi) -> np.ndarray:
    """Rank-1 density operator |psi><psi| of a normalized state vector."""
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-12:
        raise NotNormalizedError(f"state vector has norm {norm:.15g}")
    return np.outer(v, np.conj(v))


def wigner_pure_position(q0: int, n: int) -> np.ndarray:
    """Closed-form table of the position eigenstate |q0><q0|.

    Supported on two rows: constant 1/2N on q = 2*q0 and alternating
    (-1)^p / 2N on the mirror row q = 2*q0 + N (mod 2N), the interference
    fringe of the periodic boundary.  Identical to
    ``wigner_table(|q0><q0|)`` to machine precision.
    """
    _require_even(n)
    _require_indices(n, q0)
    w = np.zeros((2 * n, 2 * n))
    w[(2 * q0) % (2 * n), :] = 1.0 / (2 * n)
    signs = np.where(np.arange(2 * n) % 2 == 0, 1.0, -1.0)
    w[(2 * q0 + n) % (2 * n), :] = signs / (2 * n)
    return w


def wigner_superposition(q0: int, q1: int, phi: float, n: int) -> np.ndarray:
    """Closed-form table of (|q0> + exp(-i*phi)|q1>)/sqrt(2).

    Average of the two position-eigenstate tables plus the interference
    term, which lives on rows with q0 + q1 - q = 0 (mod N) and there equals

        (1/N) * (-1)^(p*(q0+q1-q)/N) * cos(pi*p*(q1 - q0)/N + phi),

    a form derived from the matrix-element sum and identical to the trace
    evaluation of the rank-1 density matrix.
    """
    _require_even(n)
    _require_indices(n, q0, q1)
    w = 0.5 * (wigner_pure_position(q0, n) + wigner_pure_position(q1, n))
    k = np.arange(2 * n)
    q_tilde = q0 + q1 - k
    rows = q_tilde % n == 0
    signs = 1.0 - 2.0 * ((q_tilde[rows, None] // n * k) % 2)
    w[rows] += 0.5 * (signs * np.cos(np.pi * k * (q1 - q0) / n + phi) / n)
    return w


def symmetry_residual(table) -> float:
    """Max deviation of a table from its own core extension."""
    w, n = _table(table)
    return max_abs(w - _extend(w[:n, :n]))


def restrict_to_core(table) -> np.ndarray:
    """The independent N x N core of a 2N x 2N table."""
    w, n = _table(table)
    return w[:n, :n].copy()


def extend_by_symmetry(core) -> np.ndarray:
    """Fill the 2N x 2N table from its N x N core via the sign rule."""
    c = np.asarray(core, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square core, got shape {c.shape}")
    _require_even(c.shape[0])
    return _extend(c)


def _extend(core: np.ndarray) -> np.ndarray:
    """The sign-rule extension of a real or complex N x N core, unchecked."""
    n = core.shape[0]
    return (core[None, :, None, :] * _kernel(n).signs).reshape(2 * n, 2 * n)


def reconstruct(table, symmetry_tol: float = 1e-8) -> np.ndarray:
    """Density operator from its Wigner table.

    Evaluates 4N * sum over the N x N core of W(alpha) A(alpha) as the
    exact inverse of the row-wise DFT, in O(N^2 log N).  This equals
    N * sum over the whole lattice whenever the table satisfies the
    symmetry relation, which is checked first (InconsistentTableError
    beyond ``symmetry_tol``, or for a non-finite residual).
    """
    w, n = _table(table)
    residual = max_abs(w - _extend(w[:n, :n]))
    if not residual <= symmetry_tol:
        raise InconsistentTableError(
            f"table violates the symmetry relation (residual {residual:.3e})"
        )
    return _core_inverse(w[:n, :n])


def marginal_position(table) -> np.ndarray:
    """Position distribution: entry q is the sum of row 2q."""
    w, _ = _table(table)
    return w[0::2].sum(axis=1)


def marginal_momentum(table) -> np.ndarray:
    """Momentum distribution: entry p is the sum of column 2p."""
    w, _ = _table(table)
    return w[:, 0::2].sum(axis=0)


def w_transform(psi) -> np.ndarray:
    """Column sums phi(p) = sum_q W_psi(q, 2p mod 2N) for p = 0 .. 2N-1.

    For a normalized pure state the first N entries reproduce the squared
    Fourier amplitudes |(F psi)(p)|^2; the sequence repeats with period N.
    """
    return np.tile(marginal_momentum(wigner_table(density_from_state(psi))), 2)


def table_overlap(table1, table2) -> float:
    """N * sum over the full lattice of W1*W2; equals tr(rho1 rho2)."""
    w1, n = _table(table1)
    w2 = np.asarray(table2, dtype=float)
    if w2.shape != w1.shape:
        raise ValueError(f"table shapes differ: {w1.shape} vs {w2.shape}")
    return float(n * np.sum(w1 * w2))


def purity_residual(table) -> float:
    """Deviation of a table from the pure-state quadratic constraint.

    Returns the max over the full lattice of

        | W(alpha) - 16 N^2 * sum_{beta,gamma in core} Gamma(alpha,beta,gamma)
                                                       W(beta) W(gamma) |

    with Gamma the three-point trace kernel.  With rho_c = 4N sum_core W A
    the operator recovered from the core, the double sum equals
    tr(A(alpha) rho_c^2), so the quadratic side is the table of rho_c^2 and
    costs O(N^3) instead of a 4N^6 kernel.  No symmetry check is applied.
    Vanishes (to roundoff) exactly for tables of pure states; strictly
    positive for properly mixed ones.
    """
    w, n = _table(table)
    rho = _core_inverse(w[:n, :n])
    return max_abs(w - _extend(_table_lemma(rho @ rho)))
