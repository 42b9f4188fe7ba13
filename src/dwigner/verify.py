"""Seeded self-verification of the package's structural identities.

``run_checks(n, seed)`` exercises every invariant the library relies on at
one even dimension: Weyl algebra, phase-point operator structure, Wigner
table properties (through the one cached per-N row-DFT kernel of
:mod:`dwigner.wigner`), reconstruction, marginals, line projectors,
purity, and channel/propagator consistency.  Every check is a generator
that yields its residuals, arrays or scalars, against a closed form or an
independent evaluation, and ``@_check`` registers it in ``CHECKS`` under
a name and a tolerance.  One runner takes the max-norm of everything a
check yields and passes the check when it is at most the tolerance; the
max-norm keeps NaN, so a NaN residual fails, and a library error raised
inside a check fails that check and names the exception.  The CLI turns
the outcomes into pass/fail lines.  Independent evaluations come from
:mod:`dwigner.reference`, whose chord forms need no point stack; each of
the four ``phase_space.point_*`` checks builds the one dense stack it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import channels, phase_space, reference, sampling, weyl, wigner
from .matrix_core import adjoint, max_abs, trace_product


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


CHECKS: list = []


def _check(name: str, tol: float):
    """Register a generator of residuals as the check ``name`` at ``tol``.

    The registered function runs the generator to the end, takes the
    max-norm of all it yields (NaN if any entry is NaN) and passes when
    that is at most ``tol``.  A ``ValueError`` or ``IndexError`` raised on
    the way fails the check and names the exception; others propagate.
    """

    def register(residuals):
        @wraps(residuals)
        def run(n, rng) -> CheckOutcome:
            try:
                # map lets each yielded array go before the next is made
                worst = max_abs(np.fromiter(map(max_abs, residuals(n, rng)), float))
            except (ValueError, IndexError) as exc:
                return CheckOutcome(name, False, f"raised {type(exc).__name__}: {exc}")
            return CheckOutcome(name, worst <= tol, f"residual {worst:.3e} (tol {tol:.1e})")

        CHECKS.append(run)
        return run

    return register


def _powers(m, count):
    """m^0 .. m^(count-1) by repeated multiplication, stacked on a new first axis.

    ``m`` may be one matrix or a stack of them.
    """
    out = [np.broadcast_to(np.eye(m.shape[-1], dtype=complex), m.shape)]
    for _ in range(count - 1):
        out.append(out[-1] @ m)
    return np.stack(out)


@_check("weyl.commutation", 1e-12)
def _check_weyl_commutation(n, rng):
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n)[..., None, None]
    for cfg in (weyl.WeylConfig(n), weyl.WeylConfig(n, alpha_u=0.3, alpha_v=0.7)):
        # U^n1 V^n2 against V^n2 U^n1 for all pairs, indexed [n1, n2]
        us = _powers(weyl.clock_operator(cfg), n)[:, None]
        vs = _powers(weyl.shift_operator(cfg), n)[None, :]
        yield us @ vs - phases * (vs @ us)


@_check("weyl.orthogonality", 1e-12)
def _check_weyl_orthogonality(n, rng):
    k = np.arange(n)
    flat = weyl.weyl_operator(weyl.WeylConfig(n), k[:, None], k).reshape(n * n, n * n)
    # Gram matrix G[a, b] = tr(W_a* W_b) of all pairs in one product
    gram = flat.conj() @ flat.T
    yield gram - n * np.eye(n * n)


@_check("weyl.adjoint", 1e-12)
def _check_weyl_adjoint(n, rng):
    cfg = weyl.WeylConfig(n)
    k = np.arange(n)
    ops = weyl.weyl_operator(cfg, k[:, None], k)
    yield ops.conj().swapaxes(-1, -2) - weyl.weyl_operator(cfg, -k[:, None], -k)


@_check("weyl.expand_roundtrip", 1e-10)
def _check_weyl_roundtrip(n, rng):
    cfg = weyl.WeylConfig(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    yield weyl.weyl_synthesize(cfg, weyl.weyl_expand(cfg, a)) - a


@_check("phase_space.point_hermiticity", 1e-12)
def _check_point_hermiticity(n, rng):
    # a quarter of the stack at a time, so that no temporary is stack-sized
    for ops in phase_space.point_operator_stack(n).reshape(4, n * n, n, n):
        yield ops - ops.conj().swapaxes(-1, -2)


@_check("phase_space.point_fourier_form", 1e-10)
def _check_point_fourier_form(n, rng):
    # A(q, p) = (2N)^-2 sum_{lam, lam'} exp(-2 pi i (lam' q - lam p) / 2N) T(lam, lam')
    # for every point at once: a forward FFT over lam' gives the q axis and
    # an inverse FFT over lam the p axis, checked against the closed form
    lam = np.arange(2 * n)
    t_spectra = np.fft.fft(phase_space.translation_operator(lam[:, None], lam, n), axis=1)
    summed = np.fft.ifft(t_spectra, axis=0)
    del t_spectra
    summed /= 2 * n
    # summed is indexed [p, q]; the stack runs over (q, p) in row-major order
    summed -= phase_space.point_operator_stack(n).reshape(2 * n, 2 * n, n, n).swapaxes(0, 1)
    yield summed


@_check("phase_space.point_symmetry", 1e-12)
def _check_point_symmetry(n, rng):
    # every point of the full lattice, indexed [sq, q, sp, p] as (q + sq*N, p + sp*N)
    ops = phase_space.point_operator_stack(n).reshape(2, n, 2, n, n, n)
    sq, qc, sp, pc = np.indices((2, n, 2, n))
    sign = (-1.0) ** ((sp * qc + sq * pc + sq * sp * n) % 2)
    expected = sign[..., None, None] * ops[0, :, 0, :][None, :, None, :]
    expected -= ops
    yield expected


@_check("phase_space.point_orthogonality", 1e-12)
def _check_point_orthogonality(n, rng):
    stack = phase_space.point_operator_stack(n, "core")
    # G[a, b] = tr(A_a A_b) = sum_ij A_a[i, j] A_b[j, i], all pairs in one product
    gram = stack.reshape(n * n, n * n) @ stack.transpose(0, 2, 1).reshape(n * n, n * n).T
    q, p = np.array(phase_space.core_points(n)).T
    expected = (
        ((q[:, None] - q) % n == 0) & ((p[:, None] - p) % n == 0)
    ) / (4 * n)
    gram -= expected
    yield gram


@_check("phase_space.reflection_fourier", 1e-12)
def _check_reflection_fourier(n, rng):
    f = phase_space.fourier_matrix(n)
    r = phase_space.reflection_operator(n)
    yield f @ f - r
    for shift in (phase_space.position_shift(n), phase_space.momentum_shift(n)):
        yield shift @ r - r @ adjoint(shift)


@_check("phase_space.translation_power", 1e-12)
def _check_translation_power(n, rng):
    q, p = np.array(((1, 0), (0, 1), (1, 1), (1, 2))).T
    lam = np.arange(2 * n)
    direct = phase_space.translation_operator(np.outer(q, lam), np.outer(p, lam), n)
    powers = _powers(phase_space.translation_operator(q, p, n), 2 * n)
    yield direct - powers.swapaxes(0, 1)


@_check("phase_space.line_projector_idempotent", 1e-10)
def _check_line_projectors(n, rng):
    for n1, n2 in ((1, 0), (0, 1), (1, 1)):
        for n3 in range(2 * n):
            proj = phase_space.line_projector(phase_space.PhaseLine(n1, n2, n3, n))
            yield proj - adjoint(proj)
            yield proj @ proj - proj


@_check("wigner.table_realness", 1e-12)
def _check_table_realness(n, rng):
    for _ in range(5):
        yield reference.table_values(sampling.random_density(n, rng)).imag


@_check("wigner.lemma_vs_trace", 1e-10)
def _check_lemma_vs_trace(n, rng):
    for _ in range(5):
        rho = sampling.random_density(n, rng)
        yield reference.table_values(rho) - wigner.wigner_table(rho)


@_check("wigner.odd_rows_diagonal_states", 1e-12)
def _check_odd_rows(n, rng):
    # entrywise vanishing holds for position-diagonal states; for general
    # states only the odd row/column sums vanish (see _check_marginals)
    diag = rng.random(n)
    yield wigner.wigner_table(np.diag(diag / diag.sum()).astype(complex))[1::2, :]
    for q0 in range(n):
        yield wigner.wigner_table(wigner.density_from_state(wigner.basis_state(q0, n)))[1::2, :]


@_check("wigner.symmetry_extension", 1e-12)
def _check_symmetry_extension(n, rng):
    for _ in range(5):
        yield wigner.symmetry_residual(wigner.wigner_table(sampling.random_density(n, rng)))
    core = rng.standard_normal((n, n))
    yield wigner.restrict_to_core(wigner.extend_by_symmetry(core)) - core


@_check("wigner.marginals", 1e-10)
def _check_marginals(n, rng):
    f = phase_space.fourier_matrix(n)
    for _ in range(10):
        rho = sampling.random_density(n, rng)
        w = wigner.wigner_table(rho)
        yield wigner.marginal_position(w) - np.diag(rho).real
        yield wigner.marginal_momentum(w) - np.diag(adjoint(f) @ rho @ f).real
        yield np.array([w[2 * q + 1, :].sum() for q in range(n)])
        yield np.array([w[:, 2 * p + 1].sum() for p in range(n)])


@_check("wigner.w_transform", 1e-10)
def _check_w_transform(n, rng):
    for _ in range(5):
        psi = sampling.random_state_vector(n, rng)
        yield wigner.w_transform(psi)[:n] - reference.momentum_distribution(psi)


@_check("wigner.overlap_identity", 1e-10)
def _check_overlap(n, rng):
    for _ in range(5):
        rho1 = sampling.random_density(n, rng)
        rho2 = sampling.random_density(n, rng)
        lhs = np.trace(rho1 @ rho2).real
        yield lhs - wigner.table_overlap(wigner.wigner_table(rho1), wigner.wigner_table(rho2))


@_check("wigner.affine_mixing", 1e-12)
def _check_mixing(n, rng):
    rho1 = sampling.random_density(n, rng)
    rho2 = sampling.random_density(n, rng)
    a = 0.25
    mixed = wigner.wigner_table(a * rho1 + (1 - a) * rho2)
    yield mixed - (a * wigner.wigner_table(rho1) + (1 - a) * wigner.wigner_table(rho2))
    # an amplitude superposition does not mix affinely: its table is the
    # mixture of the two position tables plus the interference term
    psi = wigner.superposition_state(0, 1, 0.0, n)
    w_psi = wigner.wigner_table(wigner.density_from_state(psi))
    yield w_psi - wigner.wigner_superposition(0, 1, 0.0, n)


@_check("wigner.reconstruction", 1e-10)
def _check_reconstruction(n, rng):
    for _ in range(10):
        rho = sampling.random_density(n, rng)
        w = wigner.wigner_table(rho)
        via_core = wigner.reconstruct(w)
        yield via_core - reference.reconstruct_full(w)
        yield via_core - rho
        yield wigner.wigner_table(via_core) - w


@_check("wigner.purity_constraint", 1e-8)
def _check_purity(n, rng):
    for _ in range(3):
        yield wigner.purity_residual(wigner.wigner_table(sampling.random_pure_density(n, rng)))
    # a max-norm over the lattice, which for I/N is (1 - 1/N)/N^2
    yield wigner.purity_residual(wigner.wigner_table(np.eye(n) / n)) - (1 - 1 / n) / n**2


@_check("channels.wigner_commutation", 1e-12)
def _check_channel_commutation(n, rng):
    for terms in (2, 3, 4):
        ch = sampling.random_kraus_channel(n, terms, rng)
        rho = sampling.random_density(n, rng)
        # by linearity the output table is the sum of the Kraus terms' tables
        per_term = sum(wigner.wigner_table(v @ rho @ adjoint(v)) for v in ch.kraus)
        yield channels.channel_wigner(ch, rho) - per_term


@_check("channels.propagator_action", 1e-9)
def _check_propagator(n, rng):
    us = [np.eye(n, dtype=complex), phase_space.fourier_matrix(n)]
    us.extend(sampling.random_unitary(n, rng) for _ in range(3))
    for u in us:
        prop = channels.unitary_propagator(u)
        rho = sampling.random_density(n, rng)
        conjugated = u @ rho @ adjoint(u)
        evolved = prop.apply(wigner.wigner_table(rho))
        # the FFT path against the table of the conjugated state, taken by
        # the row-DFT kernel and by the trace against the point operators
        yield evolved - wigner.wigner_table(conjugated)
        yield evolved - reference.table_values(conjugated)


@_check("channels.gamma_invariance", 1e-8)
def _check_gamma_invariance(n, rng):
    # Gamma(a, b, c) = sum_{a', b', c'} z[a, a'] z[b, b'] z[c, c'] Gamma(a', b', c')
    # with the inner lattice sums regrouped into M_i = sum_a z[i, a] A_a.  Row i
    # of z is N times the table of U* A_i U, so M_i is that table's inverse.
    u = sampling.random_unitary(n, rng)
    count = 4 * n * n
    for _ in range(6):
        ia, ib, ic = (int(rng.integers(count)) for _ in range(3))
        ops = [phase_space.point_operator(*divmod(i, 2 * n), n) for i in (ia, ib, ic)]
        ms = [wigner._table_inverse(wigner.wigner_table(adjoint(u) @ a @ u)) for a in ops]
        yield trace_product(ms) - trace_product(ops)


@_check("channels.fourier_conjugation", 1e-12)
def _check_fourier_conjugation(n, rng):
    f = phase_space.fourier_matrix(n)
    for terms in (2, 3):
        ch = sampling.random_kraus_channel(n, terms, rng)
        conj = channels.fourier_conjugate_channel(ch, f)
        yield conj.completeness_residual()
        rho = sampling.random_density(n, rng)
        lhs = f @ channels.apply_channel(ch, rho) @ adjoint(f)
        yield lhs - channels.apply_channel(conj, f @ rho @ adjoint(f))


@_check("channels.sqrt_decomposition", 1e-10)
def _check_sqrt_decomposition(n, rng):
    ch = sampling.random_kraus_channel(n, 3, rng)
    for row in channels.adjoint_form_report(ch, sampling.random_density(n, rng)):
        yield row["cyclic_residual"]
        if row["psd"]:
            yield row["adjoint_residual"]


def run_checks(n: int, seed: int = 0) -> list[CheckOutcome]:
    """Run every registered check at dimension ``n`` with one seeded generator."""
    wigner._require_even(n)
    rng = np.random.default_rng(seed)
    return [check(n, rng) for check in CHECKS]
