"""Dense complex-matrix kernels shared by the phase-space modules.

Every quantity handled here is O(1): rationals and roots of unity at
dimensions of a few hundred at most.  Comparisons therefore use absolute
max-norm tolerances, with two tiers: ``TOL_ALGEBRAIC`` for identities that
are exact up to roundoff, and ``TOL_EIG`` for identities mediated by an
eigendecomposition.  Each rejection is written ``not residual <= tol``, so
that a residual which overflowed to NaN is rejected too.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

TOL_ALGEBRAIC = 1e-12
TOL_EIG = 1e-10


class DimMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NotHermitianError(ValueError):
    """Matrix fails the Hermitian symmetry check."""


class NotUnitaryError(ValueError):
    """Matrix fails the unitarity check."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def max_abs(a) -> float:
    """Entrywise max-norm; the norm used by every tolerance in the package."""
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


def trace_product(mats: Sequence[np.ndarray]) -> complex:
    """Trace of the left-to-right product of square matrices."""
    if len(mats) == 0:
        raise ValueError("trace_product needs at least one matrix")
    ms = [as_complex_matrix(m) for m in mats]
    dim = ms[0].shape[0]
    for m in ms:
        if m.shape != (dim, dim):
            raise DimMismatchError(f"expected {dim}x{dim} matrices, got {m.shape}")
    prod = ms[0]
    for m in ms[1:]:
        prod = prod @ m
    return complex(np.trace(prod))


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, paired with eigenvalues


def hermitian_eig(a, tol: float = TOL_EIG) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Each eigenvector is rescaled so its largest-magnitude component is real
    and positive, and eigenvectors inside a degenerate cluster (eigenvalues
    within ``tol`` of each other) are ordered by the index of that component.
    This pins the output for golden tests without affecting U D U* = A.
    """
    m = as_complex_matrix(a)
    residual = max_abs(m - adjoint(m))
    if not residual <= tol:
        raise NotHermitianError(
            f"matrix is not Hermitian within {tol:g} (residual {residual:.3e})"
        )
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs.copy()
    pivots = np.empty(vals.shape[0], dtype=int)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        k = int(np.argmax(np.abs(col)))
        vecs[:, j] = col * (np.conj(col[k]) / abs(col[k]))
        pivots[j] = k
    order = np.arange(vals.shape[0])
    start = 0
    for stop in range(1, vals.shape[0] + 1):
        if stop == vals.shape[0] or vals[stop] - vals[start] > tol:
            cluster = order[start:stop]
            order[start:stop] = cluster[np.argsort(pivots[start:stop], kind="stable")]
            start = stop
    return EigenDecomposition(vals[order].copy(), vecs[:, order].copy())


def validate_unitary(u, tol: float = TOL_ALGEBRAIC) -> np.ndarray:
    """Return ``u`` as a complex array, raising NotUnitaryError if U*U != I."""
    m = as_complex_matrix(u)
    residual = max_abs(adjoint(m) @ m - np.eye(m.shape[0]))
    if not residual <= tol:
        raise NotUnitaryError(f"matrix is not unitary within {tol:g} (residual {residual:.3e})")
    return m


def validate_density(
    rho,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> np.ndarray:
    """Check the density-operator contract: Hermitian, unit trace, PSD.

    Returns the matrix as a complex array on success.
    """
    m = as_complex_matrix(rho)
    herm_residual = max_abs(m - adjoint(m))
    if not herm_residual <= herm_tol:
        raise NotHermitianError(
            f"density operator not Hermitian within {herm_tol:g} (residual {herm_residual:.3e})"
        )
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= trace_tol:
        raise ValueError(f"density operator trace is {tr:.15g}, expected 1")
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + adjoint(m))).min())
    if not min_eig >= -psd_tol:
        raise ValueError(
            f"density operator not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    return m
