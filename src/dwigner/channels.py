"""Kraus channels and their action on states and Wigner tables.

A channel is a finite family of N x N matrices V_i with
sum_i V_i* V_i = I, acting as rho -> sum_i V_i rho V_i*.  It keeps the
family stacked, so its completeness residual and its action are one
(KN x N)-shaped matrix product each; the residual is taken once per
channel, and every application compares it with its own tolerance.
``apply_channel`` maps states, and ``KrausChannel.apply`` maps Wigner
tables: it inverts a table through the row-wise DFT kernel of
:mod:`dwigner.wigner` (one contraction with the fold kernel of its cached
per-N record and one DFT per row: a product with the record's DFT matrix
up to N = 16, where numpy's fixed cost per FFT call dominates, and one
FFT call above), applies the same Kraus sum, and tabulates the core
again, in O(KN^3) time and O(N^2) memory.  Iterated, it is the quantum
iterated function system of the channel on tables.  The propagator of a
unitary U is the one-term channel {U}.  The dense 4N^2 x 4N^2 kernel Z
of a unitary and the per-point square-root factors of the decomposition
identities are oracles of the tests, not of the package.  Last come the
Fourier-conjugated channel with Kraus operators F V_i F*, and the report
that compares, at every lattice point, a channel's Wigner value with its
cyclic and adjoint square-root forms.  Like ``channel_wigner``, the
report needs no point-operator stack: it is evaluated from the monomial
entries of the point operators in O(N^3) time and O(N^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .matrix_core import (
    TOL_ALGEBRAIC,
    DimMismatchError,
    NotUnitaryError,
    adjoint,
    as_complex_matrix,
    max_abs,
    validate_unitary,
)
from .phase_space import _point_entries, _roots
from .wigner import (
    _extend,
    _require_even,
    _require_finite_table,
    _table_inverse,
    _table_lemma,
    wigner_table,
)


class InvalidChannelError(ValueError):
    """Kraus family fails the trace-preservation identity."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite Kraus family of equal-sized square matrices.

    Takes a sequence of N x N matrices or a (K, N, N) array and keeps the
    family as one read-only (K, N, N) complex array, the one that
    ``apply_channel`` and ``apply`` evaluate.  Channels compare and hash by
    identity.
    """

    kraus: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.kraus) == 0:
            raise ValueError("channel needs at least one Kraus operator")
        try:
            stacked = np.array(self.kraus, dtype=complex)
        except ValueError as exc:
            raise DimMismatchError(f"Kraus family is not a (K, N, N) array: {exc}") from exc
        if stacked.ndim != 3 or stacked.shape[1] != stacked.shape[2]:
            raise DimMismatchError(
                f"Kraus family must have shape (K, N, N), got {stacked.shape}"
            )
        if not np.isfinite(stacked).all():
            raise ValueError("matrix entries must be finite")
        stacked.flags.writeable = False
        object.__setattr__(self, "kraus", stacked)
        object.__setattr__(self, "n", stacked.shape[1])
        flat = stacked.reshape(-1, self.n)
        object.__setattr__(self, "_residual", max_abs(adjoint(flat) @ flat - np.eye(self.n)))

    def completeness_residual(self) -> float:
        """Max-norm deviation of sum_i V_i* V_i from the identity.

        The sum is one product of the K N x N operators stacked as a
        KN x N matrix, taken once when the channel is built: the family is
        a read-only copy, so the value cannot go stale.
        """
        return self._residual

    def _act(self, m: np.ndarray, completeness_tol: float) -> np.ndarray:
        """sum_i V_i m V_i* for an N x N complex m, once the family passes
        the trace-preservation check at ``completeness_tol``.

        The sum is one (N x KN)(KN x N) product: X[a, (i, b)] = (V_i m)[a, b]
        against the conjugate of Y[c, (i, b)] = V_i[c, b].
        """
        if not self._residual <= completeness_tol:
            raise InvalidChannelError(
                f"channel is not trace preserving (residual {self._residual:.3e})"
            )
        ops = self.kraus
        n, k = self.n, len(ops)
        terms = (ops @ m).transpose(1, 0, 2).reshape(n, k * n)
        return terms @ ops.transpose(1, 0, 2).reshape(n, k * n).conj().T

    def apply(self, table, completeness_tol: float = 1e-8) -> np.ndarray:
        """Table of Lambda(rho) with rho = N * sum over the full lattice of W A.

        Works on any real 2N x 2N table at even N: rho is the core inverse of
        the sign-corrected quadrant mean, so no symmetry check is applied.
        Lambda(rho) is the Kraus sum of ``apply_channel``, under the same
        trace-preservation check.  For one Kraus operator U this equals
        Z @ table.reshape(-1), with Z the dense propagator kernel
        Z[alpha, beta] = N tr(A(alpha) U A(beta) U*).
        """
        _require_even(self.n)
        w = np.asarray(table, dtype=float)
        if w.shape != (2 * self.n, 2 * self.n):
            raise DimMismatchError(
                f"expected a {2 * self.n}x{2 * self.n} table, got shape {w.shape}"
            )
        _require_finite_table(w)
        return _extend(_table_lemma(self._act(_table_inverse(w), completeness_tol)).real)


def stochastic_channel(p_matrix) -> KrausChannel:
    """Channel with Kraus operators sqrt(P[i, j]) |i><j| for a column-stochastic P.

    Acting on a state it replaces the diagonal d with P @ d and erases all
    off-diagonal entries.
    """
    p = np.asarray(p_matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square stochastic matrix, got shape {p.shape}")
    if np.any(p < 0) or not max_abs(p.sum(axis=0) - 1.0) <= 1e-12:
        raise ValueError("matrix must be column stochastic (nonnegative, columns sum to 1)")
    n = p.shape[0]
    # operator i*N + j holds its one entry at flat index i*N + j, so the
    # (N^2, N, N) family is a diagonal N^2 x N^2 matrix
    return KrausChannel(np.diag(np.sqrt(p).reshape(-1)).reshape(n * n, n, n))


def apply_channel(channel: KrausChannel, rho, completeness_tol: float = 1e-8) -> np.ndarray:
    """sum_i V_i rho V_i*; validates dimensions and trace preservation."""
    m = as_complex_matrix(rho)
    if m.shape != (channel.n, channel.n):
        raise DimMismatchError(
            f"state is {m.shape}, channel acts on {channel.n}x{channel.n}"
        )
    return channel._act(m, completeness_tol)


def channel_wigner(channel: KrausChannel, rho) -> np.ndarray:
    """Wigner table of the channel output sum_i V_i rho V_i*.

    One table of the output; by linearity it equals the sum of the tables
    of the Kraus terms up to roundoff.
    """
    return wigner_table(apply_channel(channel, rho))


def unitary_propagator(u) -> KrausChannel:
    """The one-term channel rho -> U rho U* of a unitary U on even dimension N.

    U must be unitary within 1e-12 and N even.  U*U - I is the completeness
    residual of {U}, so the check reads the one the channel takes.  Applying
    the channel to the table of rho yields the table of U rho U*.
    """
    channel = KrausChannel([u])
    residual = channel.completeness_residual()
    if not residual <= TOL_ALGEBRAIC:
        raise NotUnitaryError(
            f"matrix is not unitary within {TOL_ALGEBRAIC:g} (residual {residual:.3e})"
        )
    _require_even(channel.n)
    return channel


def fourier_conjugate_channel(channel: KrausChannel, f) -> KrausChannel:
    """Channel with Kraus operators F V_i F*; makes F o Lambda = G o F."""
    mat = validate_unitary(f)
    if mat.shape != (channel.n, channel.n):
        raise DimMismatchError(
            f"conjugating unitary is {mat.shape}, channel acts on "
            f"{channel.n}x{channel.n}"
        )
    return KrausChannel(mat @ channel.kraus @ adjoint(mat))


# Per-N constants of adjoint_form_report, O(N^2) and read-only.
@lru_cache(maxsize=8)
def _report_constants(n: int) -> tuple[np.ndarray, ...]:
    """Phase grid, gather index, scaled DFT factor, minimum-eigenvalue grid, PSD mask.

    Column m of B(q, p) = 2N A(q, p) holds root(p*q) * root(-2pm) in row
    rows[q, m] = (q - m) mod N, with root(k) = exp(i*pi*k/N).  ``phases``
    [q, p] is root(p*q) on the 2N x 2N lattice; root(k + N) is exactly
    -root(k), so its rows and columns from N on are the core's times the
    signs of the sign rule.  ``gather`` [q, m] is the flat index of
    Lambda[m, rows[q, m]], and ``dft`` [m, p] is root(-2pm) / 2N, so
    tr(A(q, p) Lambda) = phases[q, p] * (L @ dft)[q, p] with
    L = Lambda.flat[gather].

    ``psd`` is the B = I mask and ``min_eigs`` is +1/(2N) on it and
    -1/(2N) elsewhere.  B = I needs rows[q, m] = m, i.e. q = 2m (mod N),
    for every m; m = 0 and m = 1 give N | 2, so N = 2.  That leaves q in
    {0, 2}, where the diagonal entries root(p*q) * root(-2pm) are
    root(pq) and root(p(q - 2)): both are 1 exactly when p is in {0, 2}.
    So B = I holds only at N = 2 with q and p even.
    """
    k = np.arange(2 * n)
    m = np.arange(n)
    rows, _ = _point_entries(k, 0, n)
    phases = _roots(n)[np.outer(k, k) % (2 * n)]
    gather = m * n + rows
    dft = _roots(n)[np.outer(-2 * m, k) % (2 * n)] / (2 * n)
    even = k % 2 == 0
    psd = np.outer(even, even) & (n == 2)
    min_eigs = np.where(psd, 1, -1) / (2 * n)
    for constant in (phases, gather, dft, min_eigs, psd):
        constant.flags.writeable = False
    return phases, gather, dft, min_eigs, psd


def adjoint_form_report(channel: KrausChannel, rho) -> list[dict]:
    """Per-grid-point comparison of the two decomposition identities.

    For every lattice point, records the minimum eigenvalue of A(q, p),
    whether A is PSD, and the absolute residuals of the cyclic form
    sum tr(S V rho V* S) and the adjoint form sum tr(M rho M*) against the
    channel-output Wigner value.

    B = 2N A(q, p) is a monomial matrix with unit-modulus entries, hence
    unitary, and it is Hermitian, so B^2 = B B* = I and its spectrum is
    {-1, +1}: the minimum eigenvalue is -1/(2N) unless B = I, and A is PSD
    exactly where B = I, with no tolerance to choose.  Both forms are
    traces against the channel output Lambda = Lambda(rho): with
    S = ((1+i) I + (1-i) B)/(2 sqrt(2N)) and B^2 = I,

        tr(S^2 Lambda)  = tr(A Lambda) = tr(B Lambda)/(2N),
        tr(S* S Lambda) = tr(|A| Lambda) = tr(Lambda)/(2N).

    tr(B Lambda) is a sum over the monomial entries of B, evaluated for all
    points as one N-term matrix product, independent of the row DFT that
    tabulates the Wigner value: O(N^3) time and O(N^2) memory.
    """
    n = channel.n
    out_rho = apply_channel(channel, rho)
    phases, gather, dft, min_eigs, psd = _report_constants(n)
    cyclic = phases * (out_rho.reshape(-1)[gather] @ dft)
    adj = np.trace(out_rho) / (2 * n)
    w = wigner_table(out_rho)
    points = np.indices((2 * n, 2 * n)).reshape(2, -1).tolist()
    columns = (
        min_eigs.reshape(-1).tolist(),
        psd.reshape(-1).tolist(),
        np.abs(cyclic - w).reshape(-1).tolist(),
        np.abs(adj - w).reshape(-1).tolist(),
    )
    return [
        {
            "q": q,
            "p": p,
            "min_eigenvalue": min_eig,
            "psd": psd,
            "cyclic_residual": cyclic_residual,
            "adjoint_residual": adjoint_residual,
        }
        for q, p, min_eig, psd, cyclic_residual, adjoint_residual in zip(*points, *columns)
    ]
