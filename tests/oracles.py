"""Dense oracles that only the tests use.

Each one evaluates a quantity straight from its definition: a trace
against the dense point-operator stack or against single point
operators, a matrix element, or the closed-form square root of a point
operator.  They cost O(N^4) memory or more (the propagator kernel Z has
16 N^4 entries), so the package itself keeps only the O(N^2) chord forms
of :mod:`dwigner.reference`; ``dense_table_values`` and
``dense_reconstruct_full`` are the stack forms those are checked against.
"""

import numpy as np

from dwigner.channels import KrausChannel, stochastic_channel
from dwigner.matrix_core import adjoint, trace_product
from dwigner.phase_space import point_operator, point_operator_stack
from dwigner.wigner import NotNormalizedError, _require_indices


# Prefactor 16*N^2 of the Gamma-kernel form of the purity constraint,
# W = 16 N^2 sum_{beta,gamma in core} Gamma(alpha, beta, gamma) W(beta) W(gamma).
PURITY_PREFACTOR_SCALE = 16


def dense_table_values(rho) -> np.ndarray:
    """tr(A(q, p) rho) over the full lattice, as traces against the full stack."""
    m = np.asarray(rho, dtype=complex)
    n = m.shape[0]
    return np.einsum("aij,ji->a", point_operator_stack(n), m).reshape(2 * n, 2 * n)


def dense_reconstruct_full(table) -> np.ndarray:
    """N * sum over the full lattice of W(alpha) A(alpha), over the full stack."""
    w = np.asarray(table, dtype=float)
    n = w.shape[0] // 2
    return n * np.einsum("a,aij->ij", w.reshape(-1), point_operator_stack(n))


def depolarizing_channel(n: int) -> KrausChannel:
    """Channel with Kraus operators |i><j| / sqrt(N); sends every state to I/N."""
    return stochastic_channel(np.full((n, n), 1 / n))


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
    full = point_operator_stack(n)
    core = point_operator_stack(n, "core")
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
    stack = point_operator_stack(n)
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
