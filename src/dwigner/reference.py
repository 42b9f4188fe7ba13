"""Reference evaluations from the dense point-operator stack.

Each function evaluates a quantity straight from its definition, as a
trace against point operators or their closed-form square roots, or as
a matrix element or direct Fourier transform, independently of the
row-wise DFT kernel of :mod:`dwigner.wigner` and of ``KrausChannel.apply``.
The stack-based ones cost O(N^4) memory or more, and the propagator
kernel Z costs 16 N^4 entries.  The dense stacks are cached here, for
these oracles and ``verify`` alone; no production path imports this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channels import KrausChannel
from .matrix_core import adjoint, trace_product
from .phase_space import fourier_matrix, point_operator, point_operator_stack
from .wigner import NotNormalizedError, _require_indices


def _read_only_stack(n: int, grid: str) -> np.ndarray:
    stack = point_operator_stack(n, grid)
    stack.flags.writeable = False
    return stack


# The dense stacks hold 4N^2 * N^2 (or N^4) complex entries.  Only the
# oracles here and ``verify`` read them; a small bound keeps a process that
# sweeps N from pinning every stack it built.
@lru_cache(maxsize=4)
def _point_stack_full(n: int) -> np.ndarray:
    return _read_only_stack(n, "full")


@lru_cache(maxsize=4)
def _point_stack_core(n: int) -> np.ndarray:
    return _read_only_stack(n, "core")


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


def superposition_cross_term(
    a: complex, b: complex, q: int, p: int, n: int, q0: int = 0, q1: int = 1
) -> float:
    """Interference contribution 2*Re(a*conj(b)*<q1|A(q,p)|q0>) of a|q0>+b|q1>.

    The basis indices are validated as in ``wigner_superposition``.
    """
    _require_indices(n, q0, q1)
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12:
        raise NotNormalizedError(
            f"amplitudes not normalized: |a|^2+|b|^2 = {abs(a)**2 + abs(b)**2:.15g}"
        )
    element = point_operator(q, p, n)[q1, q0]
    return float(2.0 * np.real(a * np.conj(b) * element))


def momentum_distribution(psi) -> np.ndarray:
    """|(F psi)(p)|^2, the direct Fourier-side check for the W-transform."""
    v = np.asarray(psi, dtype=complex)
    return np.abs(fourier_matrix(v.shape[0]).conj().T @ v) ** 2


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


def propagator_kernel(u) -> np.ndarray:
    """Real 4N^2 x 4N^2 kernel Z[alpha, beta] = N tr(A(alpha) U A(beta) U*).

    Z is conjugation by U on flattened tables (row-major grid order), the
    dense counterpart of ``unitary_propagator(u).apply``, the table map of
    the one-term channel {U}.  The real part is returned; the imaginary
    part vanishes up to roundoff for unitary U.
    """
    mat = np.asarray(u, dtype=complex)
    n = mat.shape[0]
    stack = _point_stack_full(n)
    conjugated = mat @ stack @ adjoint(mat)
    z = n * (
        stack.reshape(4 * n * n, n * n)
        @ conjugated.transpose(0, 2, 1).reshape(4 * n * n, n * n).T
    )
    return z.real.copy()


def point_sqrt_factor(q: int, p: int, n: int) -> np.ndarray:
    """S with S @ S = A(q, p), the principal square root.

    B = 2N A(q, p) is Hermitian with eigenvalues +-1, so P+- = (I +- B)/2
    are its spectral projectors and S = (P+ + i P-)/sqrt(2N) in closed
    form.  Where A(q, p) has negative eigenvalues S is no longer Hermitian;
    S @ S = A holds regardless.
    """
    doubled = 2 * n * point_operator(q, p, n)
    return ((1 + 1j) * np.eye(n) + (1 - 1j) * doubled) / (2 * np.sqrt(2 * n))


def fano_sqrt_decomposition(
    channel: KrausChannel, q: int, p: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Operators M_i = S V_i with S the square-root factor of A(q, p).

    The cyclic identity sum_i tr(S V_i rho V_i* S) = W_{channel(rho)}(q, p)
    holds at every lattice point.  The adjoint form sum_i tr(M_i rho M_i*)
    agrees with it exactly when A(q, p) is positive semidefinite (S is then
    Hermitian); off the PSD cone it evaluates sum_i tr(|A| V_i rho V_i*)
    instead, so the two forms differ.
    """
    s = point_sqrt_factor(q, p, channel.n)
    return [s @ v for v in channel.kraus], s
