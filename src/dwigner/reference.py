"""Reference evaluations, independent of the row-DFT kernel of :mod:`dwigner.wigner`.

A(q, p) = (2N)^-2 sum_{lam, lam'} exp(-2 pi i (lam' q - lam p) / 2N) T(lam, lam')
(Leonhardt's lattice), so a table is one 2N x 2N DFT of the chord
coefficients tr(T rho).  At zero offsets W(n1, n2) = T(n2, n1), so the
chords are the Weyl expansion of rho tiled onto the 2N x 2N grid, each
alias W(a + s*N, b + t*N) = +-W(a, b) with the sign of ``_alias_sign``.
``table_values`` is that expansion and one FFT; ``reconstruct_full`` is one
FFT, the signed sum of the four aliases and one ``weyl_synthesize``.  Both
run in O(N^2 log N) time and O(N^2) memory and use neither the ``_kernel``
record nor the sign rule of :mod:`dwigner.wigner`, so they check its
extension too.  ``momentum_distribution`` is the direct Fourier transform.
Only the tests and ``verify`` import this module.
"""

from __future__ import annotations

import numpy as np

from .phase_space import fourier_matrix
from .weyl import WeylConfig, weyl_expand, weyl_synthesize


def _alias_sign(n: int) -> np.ndarray:
    """(-1)^(s*b + t*a + s*t*N) = W(a + s*N, b + t*N) / W(a, b) at zero offsets."""
    s, a = np.divmod(np.arange(2 * n), n)
    return 1 - 2 * ((np.outer(s, a) + np.outer(a, s) + n * np.outer(s, s)) % 2)


def table_values(rho) -> np.ndarray:
    """tr(A(q, p) rho) over the full lattice, complex 2N x 2N; the imaginary part is kept."""
    n = np.shape(rho)[0]
    chords = np.tile(weyl_expand(WeylConfig(n), rho), (2, 2)) * _alias_sign(n)
    return np.fft.ifft(np.fft.fft(chords, axis=1), axis=0) / 2


def reconstruct_full(table) -> np.ndarray:
    """N * sum over the full lattice of W(alpha) A(alpha); no symmetry check."""
    w = np.asarray(table, dtype=float)
    n = w.shape[0] // 2
    chords = np.fft.fft(np.fft.ifft(w, axis=1), axis=0) * _alias_sign(n)
    return weyl_synthesize(WeylConfig(n), chords.reshape(2, n, 2, n).sum(axis=(0, 2)) / 2)


def momentum_distribution(psi) -> np.ndarray:
    """|(F psi)(p)|^2, the direct Fourier-side check for the W-transform."""
    v = np.asarray(psi, dtype=complex)
    return np.abs(fourier_matrix(v.shape[0]).conj().T @ v) ** 2
