"""Seeded self-verification of the package's structural identities.

``run_checks(n, seed)`` exercises every invariant the library relies on at
one even dimension: Weyl algebra, phase-point operator structure, Wigner
table properties, reconstruction, marginals, line projectors, purity, and
channel/propagator consistency.  Each check reports a measured residual
against its tolerance; the CLI turns the outcomes into pass/fail lines.
Independent evaluations come from :mod:`dwigner.reference`; its propagator
kernel Z (16 N^4 entries) and square-root factors are left to the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, phase_space, reference, sampling, weyl, wigner
from .matrix_core import adjoint, max_abs, trace_product


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _residual_outcome(name: str, residual: float, tol: float) -> CheckOutcome:
    return CheckOutcome(
        name=name,
        passed=residual <= tol,
        detail=f"residual {residual:.3e} (tol {tol:.1e})",
    )


def _powers(m, count):
    """m^0 .. m^(count-1) by repeated multiplication, stacked on a new first axis.

    ``m`` may be one matrix or a stack of them.
    """
    out = [np.broadcast_to(np.eye(m.shape[-1], dtype=complex), m.shape)]
    for _ in range(count - 1):
        out.append(out[-1] @ m)
    return np.stack(out)


def _check_weyl_commutation(n, rng):
    worst = 0.0
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n)[..., None, None]
    for cfg in (weyl.WeylConfig(n), weyl.WeylConfig(n, alpha_u=0.3, alpha_v=0.7)):
        # U^n1 V^n2 against V^n2 U^n1 for all pairs, indexed [n1, n2]
        us = _powers(weyl.clock_operator(cfg), n)[:, None]
        vs = _powers(weyl.shift_operator(cfg), n)[None, :]
        worst = max(worst, max_abs(us @ vs - phases * (vs @ us)))
    return _residual_outcome("weyl.commutation", worst, 1e-12)


def _check_weyl_orthogonality(n, rng):
    k = np.arange(n)
    flat = weyl.weyl_operator(weyl.WeylConfig(n), k[:, None], k).reshape(n * n, n * n)
    # Gram matrix G[a, b] = tr(W_a* W_b) of all pairs in one product
    gram = flat.conj() @ flat.T
    return _residual_outcome("weyl.orthogonality", max_abs(gram - n * np.eye(n * n)), 1e-12)


def _check_weyl_adjoint(n, rng):
    cfg = weyl.WeylConfig(n)
    k = np.arange(n)
    ops = weyl.weyl_operator(cfg, k[:, None], k)
    worst = max_abs(ops.conj().swapaxes(-1, -2) - weyl.weyl_operator(cfg, -k[:, None], -k))
    return _residual_outcome("weyl.adjoint", worst, 1e-12)


def _check_weyl_roundtrip(n, rng):
    cfg = weyl.WeylConfig(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    back = weyl.weyl_synthesize(cfg, weyl.weyl_expand(cfg, a))
    return _residual_outcome("weyl.expand_roundtrip", max_abs(back - a), 1e-10)


def _check_point_hermiticity(n, rng):
    # a quarter of the stack at a time, so that no temporary is stack-sized
    quarters = phase_space._point_stack_full(n).reshape(4, n * n, n, n)
    worst = max(max_abs(ops - ops.conj().swapaxes(-1, -2)) for ops in quarters)
    return _residual_outcome("phase_space.point_hermiticity", worst, 1e-12)


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
    summed -= phase_space._point_stack_full(n).reshape(2 * n, 2 * n, n, n).swapaxes(0, 1)
    worst = max_abs(summed)
    return _residual_outcome("phase_space.point_fourier_form", worst, 1e-10)


def _check_point_symmetry(n, rng):
    # every point of the full lattice, indexed [sq, q, sp, p] as (q + sq*N, p + sp*N)
    ops = phase_space._point_stack_full(n).reshape(2, n, 2, n, n, n)
    sq, qc, sp, pc = np.indices((2, n, 2, n))
    sign = (-1.0) ** ((sp * qc + sq * pc + sq * sp * n) % 2)
    expected = sign[..., None, None] * ops[0, :, 0, :][None, :, None, :]
    expected -= ops
    worst = max_abs(expected)
    return _residual_outcome("phase_space.point_symmetry", worst, 1e-12)


def _check_point_orthogonality(n, rng):
    stack = phase_space._point_stack_core(n)
    # G[a, b] = tr(A_a A_b) = sum_ij A_a[i, j] A_b[j, i], all pairs in one product
    gram = stack.reshape(n * n, n * n) @ stack.transpose(0, 2, 1).reshape(n * n, n * n).T
    q, p = np.array(phase_space.core_points(n)).T
    expected = (
        ((q[:, None] - q) % n == 0) & ((p[:, None] - p) % n == 0)
    ) / (4 * n)
    gram -= expected
    return _residual_outcome("phase_space.point_orthogonality", max_abs(gram), 1e-12)


def _check_reflection_fourier(n, rng):
    f = phase_space.fourier_matrix(n)
    r = phase_space.reflection_operator(n)
    u = phase_space.position_shift(n)
    v = phase_space.momentum_shift(n)
    worst = max_abs(f @ f - r)
    worst = max(worst, max_abs(u @ r - r @ adjoint(u)))
    worst = max(worst, max_abs(v @ r - r @ adjoint(v)))
    return _residual_outcome("phase_space.reflection_fourier", worst, 1e-12)


def _check_translation_power(n, rng):
    q, p = np.array(((1, 0), (0, 1), (1, 1), (1, 2))).T
    lam = np.arange(2 * n)
    direct = phase_space.translation_operator(np.outer(q, lam), np.outer(p, lam), n)
    powers = _powers(phase_space.translation_operator(q, p, n), 2 * n)
    worst = max_abs(direct - powers.swapaxes(0, 1))
    return _residual_outcome("phase_space.translation_power", worst, 1e-12)


def _check_line_projectors(n, rng):
    worst = 0.0
    for n1, n2 in ((1, 0), (0, 1), (1, 1)):
        for n3 in range(2 * n):
            proj = phase_space.line_projector(phase_space.PhaseLine(n1, n2, n3, n))
            worst = max(worst, max_abs(proj - adjoint(proj)))
            worst = max(worst, max_abs(proj @ proj - proj))
    return _residual_outcome("phase_space.line_projector_idempotent", worst, 1e-10)


def _check_table_realness(n, rng):
    worst = 0.0
    for _ in range(5):
        rho = sampling.random_density(n, rng)
        worst = max(worst, max_abs(reference.table_values(rho).imag))
    return _residual_outcome("wigner.table_realness", worst, 1e-12)


def _check_lemma_vs_trace(n, rng):
    worst = 0.0
    for _ in range(5):
        rho = sampling.random_density(n, rng)
        worst = max(worst, max_abs(reference.table_values(rho) - wigner.wigner_table(rho)))
    return _residual_outcome("wigner.lemma_vs_trace", worst, 1e-10)


def _check_odd_rows(n, rng):
    # entrywise vanishing holds for position-diagonal states; for general
    # states only the odd row/column sums vanish (see _check_marginals)
    worst = 0.0
    diag = rng.random(n)
    rho = np.diag(diag / diag.sum()).astype(complex)
    worst = max(worst, max_abs(wigner.wigner_table(rho)[1::2, :]))
    for q0 in range(n):
        w = wigner.wigner_table(wigner.density_from_state(wigner.basis_state(q0, n)))
        worst = max(worst, max_abs(w[1::2, :]))
    return _residual_outcome("wigner.odd_rows_diagonal_states", worst, 1e-12)


def _check_symmetry_extension(n, rng):
    worst = 0.0
    for _ in range(5):
        w = wigner.wigner_table(sampling.random_density(n, rng))
        worst = max(worst, wigner.symmetry_residual(w))
    core = rng.standard_normal((n, n))
    ext = wigner.extend_by_symmetry(core)
    worst = max(worst, max_abs(wigner.restrict_to_core(ext) - core))
    return _residual_outcome("wigner.symmetry_extension", worst, 1e-12)


def _check_marginals(n, rng):
    f = phase_space.fourier_matrix(n)
    worst = 0.0
    for _ in range(10):
        rho = sampling.random_density(n, rng)
        w = wigner.wigner_table(rho)
        pos = wigner.marginal_position(w)
        mom = wigner.marginal_momentum(w)
        worst = max(worst, max_abs(pos - np.diag(rho).real))
        worst = max(worst, max_abs(mom - np.diag(adjoint(f) @ rho @ f).real))
        odd_rows = np.array([w[2 * q + 1, :].sum() for q in range(n)])
        odd_cols = np.array([w[:, 2 * p + 1].sum() for p in range(n)])
        worst = max(worst, max_abs(odd_rows), max_abs(odd_cols))
    return _residual_outcome("wigner.marginals", worst, 1e-10)


def _check_w_transform(n, rng):
    worst = 0.0
    for _ in range(5):
        psi = sampling.random_state_vector(n, rng)
        phi = wigner.w_transform(psi)
        worst = max(worst, max_abs(phi[:n] - wigner.momentum_distribution(psi)))
    return _residual_outcome("wigner.w_transform", worst, 1e-10)


def _check_overlap(n, rng):
    worst = 0.0
    for _ in range(5):
        rho1 = sampling.random_density(n, rng)
        rho2 = sampling.random_density(n, rng)
        lhs = np.trace(rho1 @ rho2).real
        rhs = wigner.table_overlap(wigner.wigner_table(rho1), wigner.wigner_table(rho2))
        worst = max(worst, abs(lhs - rhs))
    return _residual_outcome("wigner.overlap_identity", worst, 1e-10)


def _check_mixing(n, rng):
    rho1 = sampling.random_density(n, rng)
    rho2 = sampling.random_density(n, rng)
    a = 0.25
    mixed = wigner.wigner_table(a * rho1 + (1 - a) * rho2)
    combo = a * wigner.wigner_table(rho1) + (1 - a) * wigner.wigner_table(rho2)
    worst = max_abs(mixed - combo)
    outcome = _residual_outcome("wigner.affine_mixing", worst, 1e-12)
    if not outcome.passed:
        return outcome
    # amplitude superposition must NOT mix affinely
    psi = wigner.superposition_state(0, 1, 0.0, n)
    w_psi = wigner.wigner_table(wigner.density_from_state(psi))
    w_avg = 0.5 * (wigner.wigner_pure_position(0, n) + wigner.wigner_pure_position(1, n))
    gap = max_abs(w_psi - w_avg)
    if gap <= 1e-6:
        return CheckOutcome(
            name="wigner.affine_mixing",
            passed=False,
            detail=f"superposition table coincides with the mixture (gap {gap:.3e})",
        )
    return CheckOutcome(
        name="wigner.affine_mixing",
        passed=True,
        detail=f"residual {worst:.3e} (tol 1.0e-12), superposition gap {gap:.3e}",
    )


def _check_reconstruction(n, rng):
    worst = 0.0
    for _ in range(10):
        rho = sampling.random_density(n, rng)
        w = wigner.wigner_table(rho)
        via_core = wigner.reconstruct(w)
        via_full = reference.reconstruct_full(w)
        worst = max(worst, max_abs(via_core - via_full))
        worst = max(worst, max_abs(via_core - rho))
        worst = max(worst, max_abs(wigner.wigner_table(via_core) - w))
    return _residual_outcome("wigner.reconstruction", worst, 1e-10)


def _check_purity(n, rng):
    worst_pure = 0.0
    for _ in range(3):
        rho = sampling.random_pure_density(n, rng)
        worst_pure = max(worst_pure, wigner.purity_residual(wigner.wigner_table(rho)))
    mixed = wigner.purity_residual(wigner.wigner_table(np.eye(n) / n))
    passed = worst_pure <= 1e-8 and mixed > 0.0
    return CheckOutcome(
        name="wigner.purity_constraint",
        passed=passed,
        detail=f"pure residual {worst_pure:.3e} (tol 1.0e-08), mixed residual {mixed:.3e} (> 0 required)",
    )


def _check_channel_commutation(n, rng):
    worst = 0.0
    for terms in (2, 3, 4):
        ch = sampling.random_kraus_channel(n, terms, rng)
        rho = sampling.random_density(n, rng)
        # by linearity the output table is the sum of the Kraus terms' tables
        per_term = sum(wigner.wigner_table(v @ rho @ adjoint(v)) for v in ch.kraus)
        worst = max(worst, max_abs(channels.channel_wigner(ch, rho) - per_term))
    return _residual_outcome("channels.wigner_commutation", worst, 1e-12)


def _check_propagator(n, rng):
    worst = 0.0
    us = [np.eye(n, dtype=complex), phase_space.fourier_matrix(n)]
    us.extend(sampling.random_unitary(n, rng) for _ in range(3))
    for u in us:
        prop = channels.unitary_propagator(u)
        rho = sampling.random_density(n, rng)
        conjugated = u @ rho @ adjoint(u)
        evolved = prop.apply(wigner.wigner_table(rho))
        # the FFT path against the table of the conjugated state, taken by
        # the row-DFT kernel and by the trace against the point operators
        worst = max(worst, max_abs(evolved - wigner.wigner_table(conjugated)))
        worst = max(worst, max_abs(evolved - reference.table_values(conjugated)))
    return _residual_outcome("channels.propagator_action", worst, 1e-9)


def _check_gamma_invariance(n, rng):
    # Gamma(a, b, c) = sum_{a', b', c'} z[a, a'] z[b, b'] z[c, c'] Gamma(a', b', c')
    # with the inner lattice sums regrouped into M_i = sum_a z[i, a] A_a.  Row i
    # of z is N times the table of U* A_i U, so M_i is that table's inverse.
    u = sampling.random_unitary(n, rng)
    count = 4 * n * n
    worst = 0.0
    for _ in range(6):
        ia, ib, ic = (int(rng.integers(count)) for _ in range(3))
        ops = [phase_space.point_operator(*divmod(i, 2 * n), n) for i in (ia, ib, ic)]
        ms = [wigner._table_inverse(wigner.wigner_table(adjoint(u) @ a @ u)) for a in ops]
        worst = max(worst, abs(trace_product(ms) - trace_product(ops)))
    return _residual_outcome("channels.gamma_invariance", worst, 1e-8)


def _check_fourier_conjugation(n, rng):
    f = phase_space.fourier_matrix(n)
    worst = 0.0
    for terms in (2, 3):
        ch = sampling.random_kraus_channel(n, terms, rng)
        conj = channels.fourier_conjugate_channel(ch, f)
        worst = max(worst, conj.completeness_residual())
        rho = sampling.random_density(n, rng)
        lhs = f @ channels.apply_channel(ch, rho) @ adjoint(f)
        rhs = channels.apply_channel(conj, f @ rho @ adjoint(f))
        worst = max(worst, max_abs(lhs - rhs))
    return _residual_outcome("channels.fourier_conjugation", worst, 1e-12)


def _check_sqrt_decomposition(n, rng):
    ch = sampling.random_kraus_channel(n, 3, rng)
    rho = sampling.random_density(n, rng)
    report = channels.adjoint_form_report(ch, rho)
    worst_cyclic = max(row["cyclic_residual"] for row in report)
    worst_psd_adjoint = max(
        (row["adjoint_residual"] for row in report if row["psd"]), default=0.0
    )
    worst = max(worst_cyclic, worst_psd_adjoint)
    return _residual_outcome("channels.sqrt_decomposition", worst, 1e-10)


CHECKS = (
    _check_weyl_commutation,
    _check_weyl_orthogonality,
    _check_weyl_adjoint,
    _check_weyl_roundtrip,
    _check_point_hermiticity,
    _check_point_fourier_form,
    _check_point_symmetry,
    _check_point_orthogonality,
    _check_reflection_fourier,
    _check_translation_power,
    _check_line_projectors,
    _check_table_realness,
    _check_lemma_vs_trace,
    _check_odd_rows,
    _check_symmetry_extension,
    _check_marginals,
    _check_w_transform,
    _check_overlap,
    _check_mixing,
    _check_reconstruction,
    _check_purity,
    _check_channel_commutation,
    _check_propagator,
    _check_gamma_invariance,
    _check_fourier_conjugation,
    _check_sqrt_decomposition,
)


def run_checks(n: int, seed: int = 0) -> list[CheckOutcome]:
    """Run every registered check at dimension ``n`` with one seeded generator."""
    wigner._require_even(n)
    rng = np.random.default_rng(seed)
    return [check(n, rng) for check in CHECKS]
