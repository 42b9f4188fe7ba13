"""Reference evaluations from the dense point-operator stack.

Each function evaluates a quantity straight from its definition as a
trace against the stack of point operators, independently of the row-wise
FFT kernel of :mod:`dwigner.wigner`.  They cost O(N^4) memory or more and
serve only as oracles for the tests and ``verify``; no production path
imports this module.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import trace_product
from .phase_space import _point_stack_core, _point_stack_full, point_operator

# Prefactor 16*N^2 of the Gamma-kernel form of the purity constraint,
# W = 16 N^2 sum_{beta,gamma in core} Gamma(alpha, beta, gamma) W(beta) W(gamma).
PURITY_PREFACTOR_SCALE = 16


def table_values(rho) -> np.ndarray:
    """tr(A(q, p) rho) over the full lattice as a complex 2N x 2N array.

    The imaginary part is kept, so callers can measure it.
    """
    m = np.asarray(rho, dtype=complex)
    n = m.shape[0]
    return np.einsum("aij,ji->a", _point_stack_full(n), m).reshape(2 * n, 2 * n)


def reconstruct_full(table) -> np.ndarray:
    """N * sum over the full lattice of W(alpha) A(alpha); no symmetry check."""
    w = np.asarray(table, dtype=float)
    n = w.shape[0] // 2
    return n * np.einsum("a,aij->ij", w.reshape(-1), _point_stack_full(n))


def gamma_kernel(
    alpha: tuple[int, int], beta: tuple[int, int], gamma: tuple[int, int], n: int
) -> complex:
    """Three-point kernel tr(A(alpha) A(beta) A(gamma)).

    Evaluated as a trace product; invariant under cyclic rotation of the
    three points.
    """
    return trace_product([point_operator(*point, n) for point in (alpha, beta, gamma)])


def gamma_tensor(n: int) -> np.ndarray:
    """All kernel values Gamma[a, b, c] with a on the full lattice and b, c
    on the core, flat indices in row-major grid order.  Shape (4N^2, N^2, N^2).
    """
    full = _point_stack_full(n)
    core = _point_stack_core(n)
    pairs = np.einsum("bij,cjk->bcik", core, core)
    return np.einsum("aij,bcji->abc", full, pairs)
