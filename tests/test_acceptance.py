"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import time

import numpy as np
import pytest

from goldens import TABLE_N2_KET0, TABLE_N2_KET1, TABLES_N4
from oracles import fano_sqrt_decomposition, propagator_kernel
from dwigner.channels import (
    adjoint_form_report,
    apply_channel,
    channel_wigner,
    fourier_conjugate_channel,
    stochastic_channel,
    unitary_propagator,
)
from dwigner.matrix_core import adjoint, hermitian_eig, max_abs, trace_product
from dwigner.phase_space import (
    PhaseLine,
    core_points,
    fourier_matrix,
    full_points,
    line_projector,
    point_operator,
    point_operator_stack,
    reflection_operator,
)
from dwigner.reference import reconstruct_full
from dwigner.sampling import (
    random_density,
    random_kraus_channel,
    random_pure_density,
    random_unitary,
)
from dwigner.weyl import (
    WeylConfig,
    clock_operator,
    shift_operator,
    weyl_expand,
    weyl_operator,
    weyl_synthesize,
)
from dwigner.wigner import (
    basis_state,
    density_from_state,
    marginal_momentum,
    marginal_position,
    purity_residual,
    reconstruct,
    superposition_state,
    w_transform,
    wigner_table,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def ket_density(q0, n):
    return density_from_state(basis_state(q0, n))


def test_c01_golden_tables_n2():
    start = time.perf_counter()
    r0 = max_abs(wigner_table(ket_density(0, 2)) - TABLE_N2_KET0)
    r1 = max_abs(wigner_table(ket_density(1, 2)) - TABLE_N2_KET1)
    elapsed = time.perf_counter() - start
    ok = r0 <= 1e-12 and r1 <= 1e-12 and elapsed < 1.0
    report(1, "golden tables N=2", ok, f"residual {max(r0, r1):.2e}, {elapsed:.3f}s")


def test_c02_golden_tables_n4():
    start = time.perf_counter()
    worst = max(
        max_abs(wigner_table(ket_density(q0, 4)) - golden)
        for q0, golden in enumerate(TABLES_N4)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "golden tables N=4", ok, f"residual {worst:.2e}, {elapsed:.3f}s")


def test_c03_marginal_propositions():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_diag = 0.0
    worst_odd = 0.0
    for n in (2, 4, 6, 8):
        f = fourier_matrix(n)
        for _ in range(100):
            rho = random_density(n, rng)
            w = wigner_table(rho)
            worst_diag = max(
                worst_diag, max_abs(marginal_position(w) - np.diag(rho).real)
            )
            worst_diag = max(
                worst_diag,
                max_abs(marginal_momentum(w) - np.diag(adjoint(f) @ rho @ f).real),
            )
            odd_rows = np.array([w[2 * q + 1, :].sum() for q in range(n)])
            odd_cols = np.array([w[:, 2 * p + 1].sum() for p in range(n)])
            worst_odd = max(worst_odd, max_abs(odd_rows), max_abs(odd_cols))
    elapsed = time.perf_counter() - start
    ok = worst_diag <= 1e-10 and worst_odd <= 1e-12 and elapsed < 10.0
    report(
        3,
        "marginal propositions",
        ok,
        f"diag residual {worst_diag:.2e}, odd-sum residual {worst_odd:.2e}, {elapsed:.2f}s",
    )


def test_c04_w_transform_worked_values():
    phi0 = w_transform(basis_state(0, 2))
    phi1 = w_transform(basis_state(1, 2))
    psi = superposition_state(0, 1, 0.0, 2)
    phis = w_transform(psi)
    w_psi = wigner_table(density_from_state(psi))
    residuals = [
        max_abs(phi0[:2] - [0.5, 0.5]),
        max_abs(phi1[:2] - [0.5, 0.5]),
        max_abs(phis[:2] - [1.0, 0.0]),
        abs(w_psi[1, 0] - 0.25),
        abs(w_psi[1, 2] + 0.25),
    ]
    worst = max(residuals)
    report(4, "W-transform worked values", worst <= 1e-12, f"residual {worst:.2e}")


def test_c05_weyl_algebra():
    worst = 0.0
    for n in (2, 3, 4, 5):
        cfg = WeylConfig(n)
        u = clock_operator(cfg)
        v = shift_operator(cfg)
        ops = {(a, b): weyl_operator(cfg, a, b) for a in range(n) for b in range(n)}
        for na, wa in ops.items():
            for nb, wb in ops.items():
                expected = n if na == nb else 0.0
                worst = max(worst, abs(trace_product([adjoint(wa), wb]) - expected))
        for n1 in range(n):
            for n2 in range(n):
                lhs = np.linalg.matrix_power(u, n1) @ np.linalg.matrix_power(v, n2)
                rhs = np.exp(2j * np.pi * n1 * n2 / n) * (
                    np.linalg.matrix_power(v, n2) @ np.linalg.matrix_power(u, n1)
                )
                worst = max(worst, max_abs(lhs - rhs))
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, max_abs(weyl_synthesize(cfg, weyl_expand(cfg, a)) - a))
    report(5, "Weyl algebra", worst <= 1e-10, f"residual {worst:.2e}")


def test_c06_phase_point_operator_suite():
    worst = 0.0
    for n in (2, 4):
        for q, p in full_points(n):
            a = point_operator(q, p, n)
            worst = max(worst, max_abs(a - adjoint(a)))
        for qa, pa in core_points(n):
            a = point_operator(qa, pa, n)
            for qb, pb in core_points(n):
                b = point_operator(qb, pb, n)
                expected = (1 / (4 * n)) * (qa == qb) * (pa == pb)
                worst = max(worst, abs(trace_product([a, b]) - expected))
        for q in range(n):
            for p in range(n):
                base = point_operator(q, p, n)
                for sq in (0, 1):
                    for sp in (0, 1):
                        sign = (-1.0) ** ((sp * q + sq * p + sq * sp * n) % 2)
                        worst = max(
                            worst,
                            max_abs(point_operator(q + sq * n, p + sp * n, n) - sign * base),
                        )
        f = fourier_matrix(n)
        worst = max(worst, max_abs(f @ f - reflection_operator(n)))
    report(6, "phase-point operator suite", worst <= 1e-10, f"residual {worst:.2e}")


def test_c07_line_projectors():
    worst_proj = 0.0
    worst_sum = 0.0
    rng = np.random.default_rng(7)
    for n in (2, 4):
        f = fourier_matrix(n)
        rho = random_density(n, rng)
        w = wigner_table(rho)
        for n1, n2 in ((1, 0), (0, 1), (1, 1)):
            for n3 in range(2 * n):
                proj = line_projector(PhaseLine(n1, n2, n3, n))
                worst_proj = max(worst_proj, max_abs(proj - adjoint(proj)))
                worst_proj = max(worst_proj, max_abs(proj @ proj - proj))
        # vertical (constant-q) line sums: position probabilities
        for n3 in range(2 * n):
            total = w[n3, :].sum()
            expected = rho[n3 // 2, n3 // 2].real if n3 % 2 == 0 else 0.0
            worst_sum = max(worst_sum, abs(total - expected))
        # the L(1,0,*) family pins p instead; its projector expectation
        # returns the matching momentum-basis probabilities
        rho_mom = adjoint(f) @ rho @ f
        for n3 in range(2 * n):
            total = sum(w[q, n3] for q in range(2 * n))
            expected = rho_mom[n3 // 2, n3 // 2].real if n3 % 2 == 0 else 0.0
            worst_sum = max(worst_sum, abs(total - expected))
    ok = worst_proj <= 1e-10 and worst_sum <= 1e-10
    report(
        7,
        "line projectors",
        ok,
        f"projector residual {worst_proj:.2e}, line-sum residual {worst_sum:.2e}",
    )


def test_c08_reconstruction():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (2, 4, 6):
        for _ in range(50):
            rho = random_density(n, rng)
            w = wigner_table(rho)
            via_core = reconstruct(w)
            via_full = reconstruct_full(w)
            worst = max(worst, max_abs(via_core - via_full))
            worst = max(worst, max_abs(via_core - rho))
    report(8, "reconstruction", worst <= 1e-10, f"residual {worst:.2e}")


def test_c09_evolution():
    rng = np.random.default_rng(9)
    worst_action = 0.0
    for n in (2, 4):
        unitaries = [np.eye(n, dtype=complex), fourier_matrix(n)]
        unitaries.extend(random_unitary(n, rng) for _ in range(20))
        for u in unitaries:
            prop = unitary_propagator(u)
            rho = random_density(n, rng)
            evolved = prop.apply(wigner_table(rho))
            direct = wigner_table(u @ rho @ adjoint(u))
            worst_action = max(worst_action, max_abs(evolved - direct))
    # Gamma invariance, literal triple contraction at N=2
    stack = point_operator_stack(2)
    pairs = np.einsum("bij,cjk->bcik", stack, stack)
    gamma_full = np.einsum("aij,bcji->abc", stack, pairs)
    z = propagator_kernel(random_unitary(2, rng))
    worst_gamma = 0.0
    for _ in range(10):
        ia, ib, ic = rng.integers(0, 16, size=3)
        contracted = np.einsum("a,b,c,abc->", z[ia], z[ib], z[ic], gamma_full)
        worst_gamma = max(worst_gamma, abs(contracted - gamma_full[ia, ib, ic]))
    ok = worst_action <= 1e-9 and worst_gamma <= 1e-8
    report(
        9,
        "evolution",
        ok,
        f"action residual {worst_action:.2e}, gamma residual {worst_gamma:.2e}",
    )


def test_c10_channel_suite():
    rng = np.random.default_rng(10)
    worst_commute = 0.0
    for n in (2, 4):
        for terms in (2, 3, 4):
            ch = random_kraus_channel(n, terms, rng)
            rho = random_density(n, rng)
            worst_commute = max(
                worst_commute,
                max_abs(channel_wigner(ch, rho) - wigner_table(apply_channel(ch, rho))),
            )
    f = fourier_matrix(2)
    worst_example = 0.0
    for _ in range(20):
        p11, p12 = rng.uniform(0, 1, size=2)
        rho11 = rng.uniform(0, 1)
        p = np.array([[p11, p12], [1 - p11, 1 - p12]])
        ch = stochastic_channel(p)
        conj = fourier_conjugate_channel(ch, f)
        expected_ops = [
            np.sqrt(p11) / 2 * np.array([[1, 1], [1, 1]]),
            np.sqrt(p12) / 2 * np.array([[1, -1], [1, -1]]),
            np.sqrt(1 - p11) / 2 * np.array([[1, 1], [-1, -1]]),
            np.sqrt(1 - p12) / 2 * np.array([[1, -1], [-1, 1]]),
        ]
        for v, e in zip(conj.kraus, expected_ops):
            worst_example = max(worst_example, max_abs(v - e))
        rho = np.array([[rho11, 0.0], [0.0, 1 - rho11]], dtype=complex)
        composite = f @ apply_channel(ch, rho) @ adjoint(f)
        x = p11 * rho11 + p12 * (1 - rho11) - 0.5
        worst_example = max(
            worst_example, max_abs(composite - np.array([[0.5, x], [x, 0.5]]))
        )
    ok = worst_commute <= 1e-12 and worst_example <= 1e-12
    report(
        10,
        "channel suite",
        ok,
        f"commutation residual {worst_commute:.2e}, example residual {worst_example:.2e}",
    )


def test_c11_final_lemma_decomposition(tmp_path):
    rng = np.random.default_rng(11)
    worst_cyclic = 0.0
    worst_psd_adjoint = 0.0
    emitted = {}
    for n in (2, 4):
        ch = random_kraus_channel(n, 3, rng)
        rho = random_density(n, rng)
        w_out = channel_wigner(ch, rho)
        for q, p in full_points(n):
            ms, s = fano_sqrt_decomposition(ch, q, p)
            cyclic = sum(trace_product([s, v, rho, adjoint(v), s]) for v in ch.kraus)
            worst_cyclic = max(worst_cyclic, abs(cyclic - w_out[q, p]))
            eigs = hermitian_eig(point_operator(q, p, n)).eigenvalues
            if eigs[0] >= -1e-12:
                adj = sum(trace_product([mi, rho, adjoint(mi)]) for mi in ms)
                worst_psd_adjoint = max(worst_psd_adjoint, abs(adj - w_out[q, p]))
        rows = adjoint_form_report(ch, rho)
        emitted[n] = [row for row in rows if not row["psd"]]
    report_path = tmp_path / "adjoint_form_residuals.json"
    report_path.write_text(json.dumps(emitted, indent=2, sort_keys=True, default=int))
    parsed = json.loads(report_path.read_text())
    summary = {
        n: f"{len(rows)} non-PSD points, max adjoint residual "
        f"{max(r['adjoint_residual'] for r in rows):.3e}"
        for n, rows in parsed.items()
    }
    print(f"criterion 11 adjoint-form report written to {report_path}")
    print(f"criterion 11 non-PSD summary: {summary}")
    ok = (
        worst_cyclic <= 1e-10
        and worst_psd_adjoint <= 1e-10
        and all(len(rows) > 0 for rows in emitted.values())
    )
    report(
        11,
        "final-lemma decomposition",
        ok,
        f"cyclic residual {worst_cyclic:.2e}, PSD adjoint residual {worst_psd_adjoint:.2e}",
    )


def test_c12_purity_constraint():
    rng = np.random.default_rng(12)
    worst_pure = 0.0
    mixed_residuals = {}
    for n in (2, 4):
        for _ in range(5):
            worst_pure = max(
                worst_pure, purity_residual(wigner_table(random_pure_density(n, rng)))
            )
        mixed_residuals[n] = purity_residual(wigner_table(np.eye(n) / n))
    ok = worst_pure <= 1e-8 and all(v > 0.1 for v in mixed_residuals.values())
    detail = (
        f"pure residual {worst_pure:.2e}, mixed residuals "
        + ", ".join(f"N={n}: {v:.6f}" for n, v in mixed_residuals.items())
        + " (required > 0.1)"
    )
    report(12, "purity constraint", ok, detail)
