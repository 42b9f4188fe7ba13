import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from goldens import TABLE_N2_KET0, TABLE_N2_KET1, TABLES_N4
from test_channels import NEARLY_COMPLETE
from dwigner.channels import (
    _report_constants,
    adjoint_form_report,
    channel_wigner,
    unitary_propagator,
)
from dwigner.matrix_core import adjoint, max_abs, trace_product
from dwigner.phase_space import (
    _roots,
    core_points,
    fourier_matrix,
    full_points,
    point_operator,
)
from dwigner.reference import (
    PURITY_PREFACTOR_SCALE,
    _point_stack_core,
    _point_stack_full,
    gamma_tensor,
    momentum_distribution,
    propagator_kernel,
    reconstruct_full,
    superposition_cross_term,
    table_values,
)
from dwigner.sampling import (
    random_density,
    random_kraus_channel,
    random_pure_density,
    random_state_vector,
    random_unitary,
)
from dwigner import verify as verify_module
from dwigner import wigner as wigner_module
from dwigner.verify import (
    CheckOutcome,
    _check,
    _check_lemma_vs_trace,
    _check_marginals,
    _check_odd_rows,
    _check_overlap,
    _check_symmetry_extension,
    run_checks,
)
from dwigner.wigner import (
    DegenerateSuperpositionError,
    InconsistentTableError,
    NonHermitianResultError,
    NotNormalizedError,
    OddDimensionError,
    _MATRIX_DFT_MAX_N,
    _Kernel,
    _kernel,
    _row_dft,
    basis_state,
    density_from_state,
    extend_by_symmetry,
    marginal_momentum,
    marginal_position,
    purity_residual,
    reconstruct,
    restrict_to_core,
    superposition_state,
    symmetry_residual,
    table_overlap,
    w_transform,
    wigner_pure_position,
    wigner_superposition,
    wigner_table,
)

EVEN_DIMS = (2, 4, 6, 8)

# random even N <= 64 and a seed for the state generator
EVEN_N = st.integers(min_value=1, max_value=32).map(lambda k: 2 * k)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def ket_density(q0, n):
    return density_from_state(basis_state(q0, n))


class TestGoldenTables:
    def test_n2(self):
        assert max_abs(wigner_table(ket_density(0, 2)) - TABLE_N2_KET0) <= 1e-12
        assert max_abs(wigner_table(ket_density(1, 2)) - TABLE_N2_KET1) <= 1e-12

    def test_n4(self):
        for q0, golden in enumerate(TABLES_N4):
            assert max_abs(wigner_table(ket_density(q0, 4)) - golden) <= 1e-12

    def test_closed_form_matches_goldens(self):
        assert max_abs(wigner_pure_position(0, 2) - TABLE_N2_KET0) <= 1e-12
        assert max_abs(wigner_pure_position(1, 2) - TABLE_N2_KET1) <= 1e-12
        for q0, golden in enumerate(TABLES_N4):
            assert max_abs(wigner_pure_position(q0, 4) - golden) <= 1e-12

    def test_golden_tables_sum_to_one(self):
        assert TABLE_N2_KET0.sum() == pytest.approx(1.0)
        for golden in TABLES_N4:
            assert golden.sum() == pytest.approx(1.0)


class TestWignerTable:
    @pytest.mark.parametrize("n", (*EVEN_DIMS, 16))
    def test_lemma_matches_trace(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            rho = random_density(n, rng)
            assert max_abs(table_values(rho) - wigner_table(rho)) <= 1e-10

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_realness(self, n):
        rng = np.random.default_rng(100 + n)
        stack = np.stack([point_operator(q, p, n) for q, p in full_points(n)])
        for _ in range(5):
            rho = random_density(n, rng)
            values = np.einsum("aij,ji->a", stack, rho)
            assert max_abs(values.imag) <= 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimensionError):
            wigner_table(np.eye(3) / 3)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NonHermitianResultError):
            wigner_table(bad)

    def test_overflowing_residue_rejected(self):
        # the row DFTs of these finite entries overflow, leaving a NaN residue
        huge = np.array([[1e308, 1e308j], [-1e308j, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonHermitianResultError):
                wigner_table(huge)

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_grid_sum_is_trace(self, n):
        rng = np.random.default_rng(200 + n)
        rho = random_density(n, rng)
        assert wigner_table(rho).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", (2, 4))
    def test_odd_rows_vanish_for_diagonal_states(self, n):
        rng = np.random.default_rng(300 + n)
        weights = rng.random(n)
        rho = np.diag(weights / weights.sum()).astype(complex)
        assert max_abs(wigner_table(rho)[1::2, :]) <= 1e-12

    def test_odd_rows_carry_coherences(self):
        # a superposition puts interference weight on odd rows
        rho = density_from_state(superposition_state(0, 1, 0.0, 2))
        assert wigner_table(rho)[1, 0] == pytest.approx(0.25, abs=1e-12)


class TestPurePositionTable:
    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_matches_trace_definition(self, n):
        for q0 in range(n):
            direct = wigner_table(ket_density(q0, n))
            assert max_abs(wigner_pure_position(q0, n) - direct) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_sums_to_one(self, n):
        for q0 in range(n):
            assert wigner_pure_position(q0, n).sum() == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self):
        amp = 1 / np.sqrt(2)
        with pytest.raises(IndexError):
            wigner_pure_position(4, 4)
        for q0, q1 in ((0, -1), (0, 4), (-1, 2), (4, 0)):
            with pytest.raises(IndexError, match="out of range"):
                superposition_cross_term(amp, amp, 1, 0, 4, q0=q0, q1=q1)

    def test_odd_dimension(self):
        with pytest.raises(OddDimensionError):
            wigner_pure_position(0, 3)


class TestSuperposition:
    def test_worked_values_n2(self):
        w = wigner_superposition(0, 1, 0.0, 2)
        assert w[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert w[1, 0] == pytest.approx(0.25, abs=1e-12)
        assert w[1, 2] == pytest.approx(-0.25, abs=1e-12)
        assert w[3, 2] == pytest.approx(-0.25, abs=1e-12)

    def test_interference_confined_to_matching_rows(self):
        # rows with q = q0 + q1 (mod N) carry the cross term; here odd rows
        w = wigner_superposition(0, 1, 0.0, 2)
        pure_avg = 0.5 * (wigner_pure_position(0, 2) + wigner_pure_position(1, 2))
        delta = w - pure_avg
        assert max_abs(delta[0::2, :]) <= 1e-12
        assert max_abs(delta[1::2, :]) > 0.2

    @pytest.mark.parametrize("n", (2, 4))
    def test_matches_rank_one_density(self, n):
        rng = np.random.default_rng(17 + n)
        for _ in range(6):
            q0, q1 = rng.choice(n, size=2, replace=False)
            phi = float(rng.uniform(0, 2 * np.pi))
            direct = wigner_table(density_from_state(superposition_state(q0, q1, phi, n)))
            closed = wigner_superposition(int(q0), int(q1), phi, n)
            assert max_abs(closed - direct) <= 1e-10

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 16, 18, 32, 64))
    def test_matches_loop_definition(self, n):
        # the closed form entry by entry, bit for bit
        rng = np.random.default_rng(101 + n)
        for _ in range(10):
            q0, q1 = (int(q) for q in rng.choice(n, size=2, replace=False))
            phi = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            w = 0.5 * (wigner_pure_position(q0, n) + wigner_pure_position(q1, n))
            for q in range(2 * n):
                q_tilde = q0 + q1 - q
                if q_tilde % n != 0:
                    continue
                for p in range(2 * n):
                    sign = -1.0 if (q_tilde // n * p) % 2 else 1.0
                    w[q, p] += 0.5 * (sign * np.cos(np.pi * p * (q1 - q0) / n + phi) / n)
            assert np.array_equal(wigner_superposition(q0, q1, phi, n), w)

    def test_phase_flip(self):
        w0 = wigner_superposition(0, 1, 0.0, 2)
        wpi = wigner_superposition(0, 1, np.pi, 2)
        # cos picks up a sign everywhere on the interference rows
        assert wpi[1, 0] == pytest.approx(-w0[1, 0], abs=1e-12)
        assert wpi[1, 2] == pytest.approx(-w0[1, 2], abs=1e-12)

    def test_degenerate_indices_rejected(self):
        with pytest.raises(DegenerateSuperpositionError):
            wigner_superposition(1, 1, 0.0, 2)
        with pytest.raises(DegenerateSuperpositionError):
            superposition_state(0, 0, 0.0, 2)
        with pytest.raises(DegenerateSuperpositionError):
            superposition_cross_term(1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0, 4, q0=1, q1=1)

    def test_non_finite_phase_rejected(self):
        with pytest.raises(NotNormalizedError):
            density_from_state(superposition_state(0, 1, float("nan"), 2))


class TestCrossTerm:
    def test_vanishes_without_coherence(self):
        for q, p in full_points(2):
            assert superposition_cross_term(1.0, 0.0, q, p, 2) == pytest.approx(0.0)

    def test_worked_values(self):
        amp = 1 / np.sqrt(2)
        assert superposition_cross_term(amp, amp, 1, 0, 2) == pytest.approx(0.25, abs=1e-12)
        assert superposition_cross_term(amp, amp, 1, 2, 2) == pytest.approx(-0.25, abs=1e-12)

    def test_full_assembly(self):
        rng = np.random.default_rng(5)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        psi = a * basis_state(0, 2) + b * basis_state(1, 2)
        direct = wigner_table(np.outer(psi, np.conj(psi)))
        w0 = wigner_table(ket_density(0, 2))
        w1 = wigner_table(ket_density(1, 2))
        for q, p in full_points(2):
            assembled = (
                abs(a) ** 2 * w0[q, p]
                + abs(b) ** 2 * w1[q, p]
                + superposition_cross_term(a, b, q, p, 2)
            )
            assert assembled == pytest.approx(direct[q, p], abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            superposition_cross_term(1.0, 1.0, 0, 0, 2)
        with pytest.raises(NotNormalizedError):
            superposition_cross_term(float("nan"), 1.0, 0, 0, 2)


class TestSymmetryExtension:
    def test_golden_core_extends_to_golden_table(self):
        core = TABLE_N2_KET0[:2, :2]
        assert max_abs(extend_by_symmetry(core) - TABLE_N2_KET0) <= 1e-12

    def test_zero_core(self):
        assert max_abs(extend_by_symmetry(np.zeros((4, 4)))) == 0.0

    def test_sign_rule_oracle(self):
        rng = np.random.default_rng(11)
        core = rng.standard_normal((4, 4))
        full = extend_by_symmetry(core)
        for q in range(4):
            for p in range(4):
                for sq in (0, 1):
                    for sp in (0, 1):
                        sign = (-1.0) ** ((sp * q + sq * p + sq * sp * 4) % 2)
                        assert full[q + sq * 4, p + sp * 4] == pytest.approx(
                            sign * core[q, p]
                        )

    @given(
        core=arrays(
            np.float64,
            (2, 2),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        )
    )
    def test_roundtrip(self, core):
        ext = extend_by_symmetry(core)
        assert symmetry_residual(ext) == 0.0
        np.testing.assert_array_equal(restrict_to_core(ext), core)

    @pytest.mark.parametrize("n", (2, 4))
    def test_state_tables_satisfy_relation(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            w = wigner_table(random_density(n, rng))
            assert symmetry_residual(w) <= 1e-12


class TestReconstruction:
    def test_golden_table_reconstructs_projector(self):
        rho = reconstruct(TABLE_N2_KET0)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert max_abs(rho - expected) <= 1e-12

    def test_maximally_mixed(self):
        w = wigner_table(np.eye(2) / 2)
        assert max_abs(reconstruct(w) - np.eye(2) / 2) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4, 6, 16))
    def test_roundtrip_and_formula_agreement(self, n):
        rng = np.random.default_rng(23 + n)
        for _ in range(10):
            rho = random_density(n, rng)
            w = wigner_table(rho)
            via_core = reconstruct(w)
            via_full = reconstruct_full(w)
            assert max_abs(via_core - via_full) <= 1e-10
            assert max_abs(via_core - rho) <= 1e-10
            assert max_abs(wigner_table(via_core) - w) <= 1e-10

    def test_inconsistent_table_rejected(self):
        w = wigner_table(ket_density(0, 2)).copy()
        w[2, 1] += 1e-3
        with pytest.raises(InconsistentTableError):
            reconstruct(w)

    def test_non_finite_table_rejected(self):
        w = wigner_table(ket_density(0, 2))
        w[3, 2] = np.nan
        with pytest.raises(InconsistentTableError):
            reconstruct(w)

    @pytest.mark.parametrize("size", (2, 6, 10))
    @pytest.mark.parametrize(
        "consumer",
        (
            reconstruct,
            purity_residual,
            symmetry_residual,
            marginal_position,
            marginal_momentum,
            lambda w: table_overlap(w, w),
            restrict_to_core,
        ),
    )
    def test_odd_n_table_rejected(self, consumer, size):
        # tables are defined here for even N only, so their consumers refuse N = 1, 3, 5
        with pytest.raises(OddDimensionError):
            consumer(np.zeros((size, size)))


class TestFastPathProperties:
    """Identities of the FFT path at random even N <= 64, where no dense oracle fits."""

    @settings(max_examples=25, deadline=None)
    @given(n=EVEN_N, seed=SEEDS)
    def test_reconstruct_round_trip(self, n, seed):
        rho = random_density(n, np.random.default_rng(seed))
        assert max_abs(reconstruct(wigner_table(rho)) - rho) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(n=EVEN_N, seed=SEEDS)
    def test_marginals(self, n, seed):
        rho = random_density(n, np.random.default_rng(seed))
        w = wigner_table(rho)
        f = fourier_matrix(n)
        assert max_abs(marginal_position(w) - np.diag(rho).real) <= 1e-10
        assert max_abs(marginal_momentum(w) - np.diag(adjoint(f) @ rho @ f).real) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(n=EVEN_N, seed=SEEDS)
    def test_overlap(self, n, seed):
        rng = np.random.default_rng(seed)
        rho1 = random_density(n, rng)
        rho2 = random_density(n, rng)
        lhs = np.trace(rho1 @ rho2).real
        assert abs(table_overlap(wigner_table(rho1), wigner_table(rho2)) - lhs) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(n=EVEN_N, seed=SEEDS)
    def test_symmetry_residual_is_zero(self, n, seed):
        w = wigner_table(random_density(n, np.random.default_rng(seed)))
        assert symmetry_residual(w) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(n=EVEN_N, seed=SEEDS)
    def test_propagator_conjugates(self, n, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(n, rng)
        u = random_unitary(n, rng)
        evolved = unitary_propagator(u).apply(wigner_table(rho))
        assert max_abs(evolved - wigner_table(u @ rho @ adjoint(u))) <= 1e-12

    def test_default_paths_build_no_stack(self):
        # a cached stack would count a hit, a new one a miss
        n = 10
        rng = np.random.default_rng(83)
        w = wigner_table(random_density(n, rng))
        u = random_unitary(n, rng)
        ch = random_kraus_channel(n, 3, rng)
        before = (_point_stack_full.cache_info(), _point_stack_core.cache_info())
        wigner_table(reconstruct(w))
        purity_residual(w)
        unitary_propagator(u).apply(w)
        channel_wigner(ch, reconstruct(w))
        adjoint_form_report(ch, reconstruct(w))
        assert (_point_stack_full.cache_info(), _point_stack_core.cache_info()) == before

    def test_one_kernel_build_per_n(self):
        # wigner_table, reconstruct, purity_residual and apply share one record per N
        _kernel.cache_clear()
        for builds, n in enumerate((6, 18), start=1):
            rng = np.random.default_rng(n)
            w = wigner_table(random_density(n, rng))
            reconstruct(w)
            purity_residual(w)
            unitary_propagator(random_unitary(n, rng)).apply(w)
            assert _kernel.cache_info().misses == builds

    def test_stack_caches_are_bounded(self):
        assert _point_stack_full.cache_info().maxsize == 4
        assert _point_stack_core.cache_info().maxsize == 4

    @pytest.mark.parametrize(
        "constant",
        (
            # one per field of the per-N kernel record (N = 6 has both DFT matrices)
            *(lambda n, field=field: getattr(_kernel(n), field) for field in _Kernel._fields),
            # one per adjoint-form report constant
            *(lambda n, i=i: _report_constants(n)[i] for i in range(5)),
            lambda n: _roots(n),
            lambda n: NEARLY_COMPLETE.kraus,
        ),
    )
    def test_cached_kernel_constants_are_read_only(self, constant):
        # every FFT-kernel call shares these arrays, so a write must fail
        arr = constant(6)
        with pytest.raises(ValueError):
            arr[0, ...] = 0
        assert constant(6) is arr


class TestRowDftArms:
    """Both arms of ``_row_dft``: a DFT-matrix product up to N = 16, np.fft above."""

    DIMS = (2, 4, 6, 8, 16, 18, 32)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("n", DIMS)
    def test_matches_numpy_fft(self, n, sign):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x /= np.linalg.norm(x)
        expected = np.fft.ifft(x, axis=1, norm="forward") if sign > 0 else np.fft.fft(x, axis=1)
        assert max_abs(_row_dft(x, sign) - expected) <= 1e-14
        # the kernel record holds the DFT matrix of the product arm, and no more
        matrix = _kernel(n).dft_pos if sign > 0 else _kernel(n).dft_neg
        assert (matrix is None) == (n > _MATRIX_DFT_MAX_N)
        if matrix is not None:
            assert np.array_equal(_row_dft(x, sign), x @ matrix)

    @pytest.mark.parametrize("n", DIMS)
    def test_kernels_match_dense_oracles(self, n):
        rng = np.random.default_rng(89 + n)
        rho = random_density(n, rng)
        u = random_unitary(n, rng)
        w = wigner_table(rho)
        assert max_abs(table_values(rho) - w) <= 1e-10
        rho_full = reconstruct_full(w)
        assert max_abs(reconstruct(w) - rho_full) <= 1e-10
        oracle = max_abs(w - table_values(rho_full @ rho_full))
        assert purity_residual(w) == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        prop = unitary_propagator(u)
        assert max_abs(prop.apply(w) - table_values(u @ rho @ adjoint(u))) <= 1e-10
        if n <= 18:  # Z has 16 N^4 entries: 268 MB of complex intermediate at N = 32
            via_kernel = (propagator_kernel(u) @ w.reshape(-1)).reshape(2 * n, 2 * n)
            assert max_abs(prop.apply(w) - via_kernel) <= 1e-12

    @pytest.mark.parametrize("n", (16, 18))
    def test_verify_passes(self, n):
        failed = [o.name for o in run_checks(n, seed=0) if not o.passed]
        assert failed == []


VERIFY_CHECK_NAMES = [
    "weyl.commutation",
    "weyl.orthogonality",
    "weyl.adjoint",
    "weyl.expand_roundtrip",
    "phase_space.point_hermiticity",
    "phase_space.point_fourier_form",
    "phase_space.point_symmetry",
    "phase_space.point_orthogonality",
    "phase_space.reflection_fourier",
    "phase_space.translation_power",
    "phase_space.line_projector_idempotent",
    "wigner.table_realness",
    "wigner.lemma_vs_trace",
    "wigner.odd_rows_diagonal_states",
    "wigner.symmetry_extension",
    "wigner.marginals",
    "wigner.w_transform",
    "wigner.overlap_identity",
    "wigner.affine_mixing",
    "wigner.reconstruction",
    "wigner.purity_constraint",
    "channels.wigner_commutation",
    "channels.propagator_action",
    "channels.gamma_invariance",
    "channels.fourier_conjugation",
    "channels.sqrt_decomposition",
]


class TestVerifyRunner:
    def test_registry_names_and_order(self):
        assert [o.name for o in run_checks(4, 0)] == VERIFY_CHECK_NAMES

    @pytest.mark.parametrize(
        "check",
        (_check_lemma_vs_trace, _check_odd_rows, _check_symmetry_extension,
         _check_marginals, _check_overlap),
    )
    def test_nan_residual_fails(self, check, monkeypatch):
        def nan_table(rho, imag_tol=1e-10):
            return np.full((2 * len(rho), 2 * len(rho)), np.nan)

        monkeypatch.setattr(wigner_module, "wigner_table", nan_table)
        outcome = check(4, np.random.default_rng(0))
        assert not outcome.passed
        assert "nan" in outcome.detail

    def test_nan_after_finite_residual_fails(self, monkeypatch):
        monkeypatch.setattr(verify_module, "CHECKS", [])

        @_check("nan_last", 1.0)
        def residuals(n, rng):
            yield 0.5
            yield np.array([0.0, np.nan])

        assert verify_module.CHECKS == [residuals]
        assert residuals(2, None) == CheckOutcome("nan_last", False, "residual nan (tol 1.0e+00)")

    def test_nan_tables_fail_without_ending_the_run(self, monkeypatch):
        # reconstruct raises on the NaN tables; the other 25 checks still run
        def nan_table(rho, imag_tol=1e-10):
            return np.full((2 * len(rho), 2 * len(rho)), np.nan)

        monkeypatch.setattr(wigner_module, "wigner_table", nan_table)
        outcomes = run_checks(4, 0)
        assert [o.name for o in outcomes] == VERIFY_CHECK_NAMES
        reconstruction = outcomes[VERIFY_CHECK_NAMES.index("wigner.reconstruction")]
        assert not reconstruction.passed
        assert reconstruction.detail.startswith("raised InconsistentTableError: ")

    @pytest.mark.parametrize("error", (ValueError("bad value"), IndexError("bad index")))
    def test_library_error_fails_its_check(self, error, monkeypatch):
        monkeypatch.setattr(verify_module, "CHECKS", [])

        @_check("raises", 1.0)
        def residuals(n, rng):
            yield 0.0
            raise error

        detail = f"raised {type(error).__name__}: {error}"
        assert residuals(2, None) == CheckOutcome("raises", False, detail)

    def test_memory_error_propagates(self, monkeypatch):
        monkeypatch.setattr(verify_module, "CHECKS", [])

        @_check("out_of_memory", 1.0)
        def residuals(n, rng):
            raise MemoryError
            yield

        with pytest.raises(MemoryError):
            residuals(2, None)


class TestMarginals:
    def test_ket0_position(self):
        w = wigner_table(ket_density(0, 2))
        np.testing.assert_allclose(marginal_position(w), [1.0, 0.0], atol=1e-12)

    def test_superposition_momentum(self):
        w = wigner_table(density_from_state(superposition_state(0, 1, 0.0, 2)))
        np.testing.assert_allclose(marginal_momentum(w), [1.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        w = wigner_table(np.eye(2) / 2)
        np.testing.assert_allclose(marginal_position(w), [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(marginal_momentum(w), [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_random_states(self, n):
        rng = np.random.default_rng(31 + n)
        f = fourier_matrix(n)
        for _ in range(10):
            rho = random_density(n, rng)
            w = wigner_table(rho)
            np.testing.assert_allclose(
                marginal_position(w), np.diag(rho).real, atol=1e-10
            )
            np.testing.assert_allclose(
                marginal_momentum(w), np.diag(adjoint(f) @ rho @ f).real, atol=1e-10
            )
            assert marginal_position(w).sum() == pytest.approx(1.0, abs=1e-10)
            assert marginal_momentum(w).sum() == pytest.approx(1.0, abs=1e-10)
            for q in range(n):
                assert w[2 * q + 1, :].sum() == pytest.approx(0.0, abs=1e-12)
            for p in range(n):
                assert w[:, 2 * p + 1].sum() == pytest.approx(0.0, abs=1e-12)


class TestWTransform:
    def test_worked_values_n2(self):
        np.testing.assert_allclose(
            w_transform(basis_state(0, 2))[:2], [0.5, 0.5], atol=1e-12
        )
        np.testing.assert_allclose(
            w_transform(basis_state(1, 2))[:2], [0.5, 0.5], atol=1e-12
        )
        np.testing.assert_allclose(
            w_transform(superposition_state(0, 1, 0.0, 2))[:2], [1.0, 0.0], atol=1e-12
        )

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_matches_fourier_probabilities(self, n):
        rng = np.random.default_rng(41 + n)
        for _ in range(5):
            psi = random_state_vector(n, rng)
            phi = w_transform(psi)
            np.testing.assert_allclose(phi[:n], momentum_distribution(psi), atol=1e-10)
            # period N in the transform index
            np.testing.assert_allclose(phi[n:], phi[:n], atol=1e-12)

    @pytest.mark.parametrize("build", (density_from_state, w_transform))
    @pytest.mark.parametrize("psi", (np.eye(2) / np.sqrt(2), np.array(1.0)))
    def test_non_vector_rejected(self, build, psi):
        # both have norm 1, so only the 1-D rule of density_from_state refuses them
        with pytest.raises(ValueError, match="expected a state vector"):
            build(psi)


class TestOverlapAndMixing:
    @pytest.mark.parametrize("n", (2, 4))
    def test_overlap_identity(self, n):
        rng = np.random.default_rng(53 + n)
        for _ in range(5):
            rho1 = random_density(n, rng)
            rho2 = random_density(n, rng)
            lhs = np.trace(rho1 @ rho2).real
            rhs = table_overlap(wigner_table(rho1), wigner_table(rho2))
            assert abs(lhs - rhs) <= 1e-10

    def test_affine_mixing(self):
        rng = np.random.default_rng(59)
        rho1 = random_density(4, rng)
        rho2 = random_density(4, rng)
        a = 0.3
        mixed = wigner_table(a * rho1 + (1 - a) * rho2)
        combo = a * wigner_table(rho1) + (1 - a) * wigner_table(rho2)
        assert max_abs(mixed - combo) <= 1e-12

    def test_amplitude_superposition_is_not_affine(self):
        w_psi = wigner_table(density_from_state(superposition_state(0, 1, 0.0, 2)))
        w_avg = 0.5 * (wigner_pure_position(0, 2) + wigner_pure_position(1, 2))
        assert max_abs(w_psi - w_avg) > 0.2


class TestLineSums:
    @pytest.mark.parametrize("n", (2, 4))
    def test_line_sum_equals_projector_expectation(self, n):
        from dwigner.phase_space import PhaseLine, line_points, line_projector

        rng = np.random.default_rng(61 + n)
        rho = random_density(n, rng)
        w = wigner_table(rho)
        for n1, n2 in ((1, 0), (0, 1), (1, 1)):
            for n3 in range(2 * n):
                line = PhaseLine(n1, n2, n3, n)
                total = sum(w[q, p] for q, p in line_points(line))
                expected = np.trace(line_projector(line) @ rho).real
                assert abs(total - expected) <= 1e-10
                assert -1e-10 <= total <= 1 + 1e-10

    def test_constant_q_lines_give_position_probabilities(self):
        rng = np.random.default_rng(67)
        rho = random_density(2, rng)
        w = wigner_table(rho)
        for n3 in range(4):
            total = w[n3, :].sum()
            if n3 % 2 == 0:
                assert total == pytest.approx(rho[n3 // 2, n3 // 2].real, abs=1e-10)
            else:
                assert total == pytest.approx(0.0, abs=1e-12)


class TestPurityConstraint:
    def test_prefactor_oracle_n2(self):
        # fit the constant against tr(A(alpha) rho^2) with rho recovered
        # from the table; the quadratic kernel sum is evaluated with
        # explicit loops, independent of the library's tensor path
        n = 2
        rng = np.random.default_rng(71)
        w = wigner_table(random_pure_density(n, rng))
        rho = reconstruct(w)
        core = core_points(n)
        lhs, quads = [], []
        for q, p in full_points(n):
            a_op = point_operator(q, p, n)
            lhs.append(np.trace(a_op @ rho @ rho).real)
            quad = 0.0 + 0.0j
            for qb, pb in core:
                for qc, pc in core:
                    quad += (
                        trace_product(
                            [a_op, point_operator(qb, pb, n), point_operator(qc, pc, n)]
                        )
                        * w[qb, pb]
                        * w[qc, pc]
                    )
            quads.append(quad)
        lhs_arr = np.array(lhs)
        quad_arr = np.array(quads)
        fitted = float(np.real(np.vdot(quad_arr, lhs_arr) / np.vdot(quad_arr, quad_arr)))
        assert fitted == pytest.approx(16 * n * n, abs=1e-8)
        # the fitted constant closes the purity identity on the table itself
        assert max_abs(w.reshape(-1) - fitted * quad_arr.real) <= 1e-10

    @pytest.mark.parametrize("n", (2, 4))
    def test_pure_states_satisfy_constraint(self, n):
        rng = np.random.default_rng(73 + n)
        for _ in range(3):
            w = wigner_table(random_pure_density(n, rng))
            assert purity_residual(w) <= 1e-8

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_matches_gamma_tensor_oracle(self, n):
        rng = np.random.default_rng(79 + n)
        tables = [
            wigner_table(random_pure_density(n, rng)),
            wigner_table(random_density(n, rng)),
            rng.standard_normal((2 * n, 2 * n)),  # violates the symmetry relation
        ]
        gamma = gamma_tensor(n)
        for w in tables:
            core = w[:n, :n].reshape(-1)
            quad = np.einsum("abc,b,c->a", gamma, core, core)
            oracle = max_abs(w.reshape(-1) - PURITY_PREFACTOR_SCALE * n * n * quad)
            assert purity_residual(w) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", (2, 4))
    def test_mixed_state_violates_constraint(self, n):
        w = wigner_table(np.eye(n) / n)
        residual = purity_residual(w)
        # rho^2 = rho/N scales the quadratic side down by exactly 1/N, so
        # the residual is (1 - 1/N) * max|W| = (1 - 1/N) / N^2
        assert residual == pytest.approx((1 - 1 / n) / n**2, abs=1e-12)
        assert residual > 0
