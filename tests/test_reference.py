"""The chord forms of ``dwigner.reference`` against the dense stack oracles."""

import tracemalloc

import numpy as np
import pytest

from oracles import dense_reconstruct_full, dense_table_values
from dwigner.matrix_core import max_abs
from dwigner.reference import reconstruct_full, table_values
from dwigner.sampling import random_density
from dwigner.weyl import WeylConfig, weyl_expand, weyl_synthesize


@pytest.mark.parametrize("n", range(2, 33, 2))
def test_chord_forms_match_dense_stack(n):
    rng = np.random.default_rng(200 + n)
    for rho in (
        random_density(n, rng),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    ):
        assert max_abs(table_values(rho) - dense_table_values(rho)) <= 1e-12
    table = rng.standard_normal((2 * n, 2 * n))
    assert max_abs(reconstruct_full(table) - dense_reconstruct_full(table)) <= 1e-12


@pytest.mark.parametrize(
    "run",
    (
        lambda rng, n: table_values(random_density(n, rng)),
        lambda rng, n: reconstruct_full(rng.standard_normal((2 * n, 2 * n))),
        lambda rng, n: weyl_expand(WeylConfig(n, 0.3, 0.7), rng.standard_normal((n, n))),
        lambda rng, n: weyl_synthesize(WeylConfig(n, 0.3, 0.7), rng.standard_normal((n, n))),
    ),
)
def test_oracles_need_no_stack(run):
    # at N = 64 the full point stack is 1 GiB and the dense Weyl basis 256 MiB
    tracemalloc.start()
    try:
        run(np.random.default_rng(0), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
