"""Independent references for the outputs the benchmark keeps.

Everything here is plain numpy and uses no dwigner code, so a defect in
the package cannot hide in its own reference.  Each checker returns a list
of messages, empty when the output matches.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TOL_ALGEBRAIC = 1e-12
TOL_RECONSTRUCT = 1e-10
TOL_PROPAGATED = 1e-9
TOL_PURITY = 1e-8


def reference_table(rho) -> np.ndarray:
    """W[q, p] = (1/2N) sum_m rho[(q - m) mod N, m] exp(i pi p (2m - q) / N).

    The matrix-element sum for the 2N x 2N table; the phase exponent is
    reduced mod 2N as an exact integer before exponentiation.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    q = np.arange(2 * n)[:, None]
    m = np.arange(n)[None, :]
    elements = rho[(q - m) % n, m]
    return (np.einsum("qm,qpm->qp", elements, _phases(n)) / (2 * n)).real


@lru_cache(maxsize=8)
def _phases(n: int) -> np.ndarray:
    q = np.arange(2 * n)[:, None, None]
    p = np.arange(2 * n)[None, :, None]
    m = np.arange(n)[None, None, :]
    return np.exp(1j * np.pi * ((p * (2 * m - q)) % (2 * n)) / n)


def fourier(n: int) -> np.ndarray:
    """F[j, k] = exp(2 pi i j k / N) / sqrt(N); its columns are the momentum basis."""
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(2j * np.pi * jk / n) / np.sqrt(n)


def momentum_probabilities(rho) -> np.ndarray:
    f = fourier(rho.shape[0])
    return np.diag(f.conj().T @ rho @ f).real


def random_pure_density(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_mixed_density(n: int, rng) -> np.ndarray:
    """G G* / tr(G G*) for a complex Gaussian G: full rank with probability 1."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_kraus(n: int, terms: int, rng) -> list[np.ndarray]:
    """Blocks of a (terms*N) x N isometry, so sum V_i* V_i = I to roundoff."""
    z = rng.standard_normal((terms * n, n)) + 1j * rng.standard_normal((terms * n, n))
    q, _ = np.linalg.qr(z)
    return [q[i * n : (i + 1) * n, :] for i in range(terms)]


def apply_kraus(kraus, rho) -> np.ndarray:
    return sum(v @ rho @ v.conj().T for v in kraus)


def deviation(label, got, want, tol) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    # `not dev <= tol` also catches NaN.
    if not dev <= tol:
        return [f"{label}: deviation {dev:.3e} exceeds {tol:g}"]
    return []


def check_roundtrip(rho, out) -> list[str]:
    """Outputs of one table-roundtrip op against the input density."""
    table, mx, mp, back, overlap = out
    errors = deviation("wigner_table", table, reference_table(rho), TOL_ALGEBRAIC)
    errors += deviation("marginal_position", mx, np.diag(rho).real, TOL_ALGEBRAIC)
    errors += deviation("marginal_momentum", mp, momentum_probabilities(rho), TOL_ALGEBRAIC)
    errors += deviation("reconstruct", back, rho, TOL_RECONSTRUCT)
    errors += deviation("table_overlap", overlap, np.trace(rho @ rho).real, TOL_ALGEBRAIC)
    return errors


def check_adjoint_report(rows, table, n) -> list[str]:
    """Rows of ``adjoint_form_report`` against the channel-output table.

    The spectrum of 2N A(q, p) is {-1, +1}, so the minimum eigenvalue is
    -1/(2N) off the PSD cone and +1/(2N) on it.  There sqrt(A)* sqrt(A) = |A|
    = I/(2N), so the adjoint form of a trace-preserving channel equals
    1/(2N) at every non-PSD point, while the cyclic form is exact everywhere.
    """
    size = 2 * n
    if len(rows) != size * size:
        return [f"adjoint_form_report: {len(rows)} rows, expected {size * size}"]
    worst = {"point order": 0.0, "min_eigenvalue": 0.0, "cyclic": 0.0, "adjoint": 0.0}
    for index, row in enumerate(rows):
        q, p = divmod(index, size)
        worst["point order"] = max(worst["point order"], abs(row["q"] - q) + abs(row["p"] - p))
        psd = row["min_eigenvalue"] > 0
        expected_min = (1.0 if psd else -1.0) / size
        worst["min_eigenvalue"] = max(
            worst["min_eigenvalue"],
            abs(row["min_eigenvalue"] - expected_min) + (row["psd"] != psd),
        )
        worst["cyclic"] = max(worst["cyclic"], row["cyclic_residual"])
        expected_adjoint = 0.0 if psd else abs(1.0 / size - table[q, p])
        worst["adjoint"] = max(worst["adjoint"], abs(row["adjoint_residual"] - expected_adjoint))
    return [
        f"adjoint_form_report {key}: deviation {dev:.3e} exceeds {TOL_RECONSTRUCT:g}"
        for key, dev in worst.items()
        if not dev <= TOL_RECONSTRUCT
    ]


def check_dynamics(inputs, out) -> list[str]:
    """Outputs of one dynamics session against references built from its inputs."""
    rho, u, kraus = inputs
    propagated, rho_t, channel_table, purity, report = out
    u4 = np.linalg.matrix_power(u, 4)
    rho4 = u4 @ rho @ u4.conj().T
    errors = deviation("PhasePropagator.apply x4", propagated, reference_table(rho4), TOL_PROPAGATED)
    errors += deviation("reconstruct", rho_t, rho4, TOL_RECONSTRUCT)
    channel_ref = reference_table(apply_kraus(kraus, rho_t))
    errors += deviation("channel_wigner", channel_table, channel_ref, TOL_ALGEBRAIC)
    if not purity <= TOL_PURITY:
        errors.append(f"purity_residual of a pure state: {purity:.3e} exceeds {TOL_PURITY:g}")
    errors += check_adjoint_report(report, channel_ref, rho.shape[0])
    return errors
