import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from dwigner.channels import (
    InvalidChannelError,
    KrausChannel,
    adjoint_form_report,
    apply_channel,
    channel_wigner,
    depolarizing_channel,
    fourier_conjugate_channel,
    stochastic_channel,
    unitary_propagator,
)
from dwigner.matrix_core import (
    DimMismatchError,
    NotUnitaryError,
    adjoint,
    hermitian_eig,
    max_abs,
    trace_product,
)
from dwigner.phase_space import (
    fourier_matrix,
    full_points,
    point_operator,
    point_operator_stack,
)
from dwigner.reference import (
    _point_stack_core,
    _point_stack_full,
    fano_sqrt_decomposition,
    point_sqrt_factor,
    propagator_kernel,
    reconstruct_full,
    table_values,
)
from dwigner.sampling import random_density, random_kraus_channel, random_unitary
from dwigner.verify import (
    _check_gamma_invariance,
    _check_point_fourier_form,
    _check_point_hermiticity,
    _check_point_orthogonality,
    _check_point_symmetry,
    _check_propagator,
)
from dwigner.wigner import (
    OddDimensionError,
    basis_state,
    density_from_state,
    wigner_table,
)


# sum V* V = (1 + 1e-6) I: between the default completeness tolerance and 1e-3
NEARLY_COMPLETE = KrausChannel([np.sqrt(1 + 1e-6) * np.eye(6)])


def eigh_sqrt_factor(q, p, n):
    """Principal square root of A(q, p) through its eigendecomposition."""
    decomp = hermitian_eig(point_operator(q, p, n))
    roots = np.sqrt(decomp.eigenvalues.astype(complex))
    return (decomp.eigenvectors * roots) @ adjoint(decomp.eigenvectors)


def assert_report_matches_oracle(ch, rho, report):
    """Every report row against eigh square roots and traces at its point."""
    n = ch.n
    w_out = channel_wigner(ch, rho)
    assert len(report) == 4 * n * n
    for row, (q, p) in zip(report, full_points(n)):
        assert (row["q"], row["p"]) == (q, p)
        min_eig = hermitian_eig(point_operator(q, p, n)).eigenvalues[0]
        assert row["min_eigenvalue"] == pytest.approx(min_eig, abs=1e-12)
        assert row["psd"] == (min_eig >= -1e-12)
        s = eigh_sqrt_factor(q, p, n)
        cyclic = sum(trace_product([s, v, rho, adjoint(v), s]) for v in ch.kraus)
        adj = sum(trace_product([s, v, rho, adjoint(s @ v)]) for v in ch.kraus)
        assert row["cyclic_residual"] == pytest.approx(abs(cyclic - w_out[q, p]), abs=1e-12)
        assert row["adjoint_residual"] == pytest.approx(abs(adj - w_out[q, p]), abs=1e-12)


def stochastic_2x2(p11, p12):
    return np.array([[p11, p12], [1 - p11, 1 - p12]])


class TestKrausChannel:
    def test_requires_operators(self):
        with pytest.raises(ValueError):
            KrausChannel([])

    def test_requires_matching_shapes(self):
        # ragged, 1-d operators, and a (K, N, M) family
        for kraus in ([np.eye(2), np.eye(3)], [np.ones(2)], [np.ones(2)] * 2, np.ones((3, 2, 4))):
            with pytest.raises(DimMismatchError):
                KrausChannel(kraus)

    def test_accepts_stacked_array(self):
        rng = np.random.default_rng(13)
        ops = random_kraus_channel(4, 3, rng).kraus
        from_list = KrausChannel(list(ops))
        from_array = KrausChannel(np.stack(ops))
        assert from_array.n == 4
        assert from_array.kraus.shape == (3, 4, 4)
        assert np.array_equal(from_array.kraus, from_list.kraus)
        rho = random_density(4, rng)
        assert np.array_equal(apply_channel(from_array, rho), apply_channel(from_list, rho))

    def test_kraus_is_the_evaluated_family(self):
        # the stored family is a read-only copy: neither the caller's arrays
        # nor writes through .kraus can change what apply_channel evaluates
        ops = [np.eye(2, dtype=complex)]
        ch = KrausChannel(ops)
        ops[0][0, 0] = 0.0
        assert ch.kraus[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 0.0
        with pytest.raises(AttributeError):
            ch.kraus = np.zeros((1, 2, 2))
        assert max_abs(apply_channel(ch, np.eye(2) / 2) - np.eye(2) / 2) == 0.0

    def test_equality_is_identity(self):
        # the ndarray fields make value equality ambiguous, so both classes
        # compare and hash by identity
        for make in (lambda n: KrausChannel([np.eye(n)]), lambda n: unitary_propagator(np.eye(n))):
            a, b = make(2), make(2)
            assert a == a
            assert a != b
            assert hash(a) != hash(b)
            assert len({a, a, b}) == 2

    def test_rejects_non_finite_operator(self):
        with pytest.raises(ValueError, match="finite"):
            KrausChannel([np.array([[1.0, np.nan], [0.0, 1.0]])])

    def test_completeness_residual(self):
        assert KrausChannel([np.eye(3)]).completeness_residual() <= 1e-15
        broken = KrausChannel([0.5 * np.eye(2)])
        assert broken.completeness_residual() == pytest.approx(0.75)

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_stochastic_matches_loop_definition(self, n):
        # zero entries of P still get their (zero) operator at index i*N + j
        rng = np.random.default_rng(83 + n)
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        p[0] += p.sum(axis=0) == 0
        p /= p.sum(axis=0)
        ch = stochastic_channel(p)
        assert ch.kraus.shape == (n * n, n, n)
        for i in range(n):
            for j in range(n):
                v = np.zeros((n, n), dtype=complex)
                v[i, j] = np.sqrt(p[i, j])
                assert np.array_equal(ch.kraus[i * n + j], v)

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_depolarizing_is_uniform_stochastic(self, n):
        ops = depolarizing_channel(n).kraus
        ulp = np.spacing(1 / np.sqrt(n))
        assert max_abs(ops - stochastic_channel(np.full((n, n), 1 / n)).kraus) <= ulp
        for i in range(n):
            for j in range(n):
                v = np.zeros((n, n), dtype=complex)
                v[i, j] = 1 / np.sqrt(n)
                assert max_abs(ops[i * n + j] - v) <= ulp

    def test_stochastic_requires_column_stochastic(self):
        with pytest.raises(ValueError):
            stochastic_channel(np.array([[0.5, 0.5], [0.4, 0.5]]))
        with pytest.raises(ValueError):
            stochastic_channel(np.array([[1.2, 0.0], [-0.2, 1.0]]))


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(1)
        rho = random_density(3, rng)
        assert max_abs(apply_channel(KrausChannel([np.eye(3)]), rho) - rho) <= 1e-15

    def test_stochastic_action_on_diagonal(self):
        # multiply the four explicit 2x2 Kraus terms by hand
        p11, p12, r = 0.7, 0.4, 0.3
        p = stochastic_2x2(p11, p12)
        rho = np.diag([r, 1 - r]).astype(complex)
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                v = np.zeros((2, 2), dtype=complex)
                v[i, j] = np.sqrt(p[i, j])
                expected += v @ rho @ adjoint(v)
        out = apply_channel(stochastic_channel(p), rho)
        assert max_abs(out - expected) <= 1e-15
        np.testing.assert_allclose(
            np.diag(out).real,
            [p11 * r + p12 * (1 - r), (1 - p11) * r + (1 - p12) * (1 - r)],
            atol=1e-12,
        )

    def test_stochastic_erases_coherences(self):
        p = stochastic_2x2(0.6, 0.2)
        rho = np.array([[0.5, 0.3 + 0.1j], [0.3 - 0.1j, 0.5]])
        out = apply_channel(stochastic_channel(p), rho)
        assert abs(out[0, 1]) <= 1e-15

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_depolarizing(self, n):
        rng = np.random.default_rng(n)
        rho = random_density(n, rng)
        out = apply_channel(depolarizing_channel(n), rho)
        assert max_abs(out - np.eye(n) / n) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_preserves_density_contract(self, n):
        rng = np.random.default_rng(10 + n)
        ch = random_kraus_channel(n, 3, rng)
        out = apply_channel(ch, random_density(n, rng))
        assert max_abs(out - adjoint(out)) <= 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    @pytest.mark.parametrize("k", (1, 2, 4))
    def test_stacked_matches_per_term_loop(self, k):
        rng = np.random.default_rng(20 + k)
        ch = random_kraus_channel(6, k, rng)
        rho = random_density(6, rng)
        loop = sum(v @ rho @ adjoint(v) for v in ch.kraus)
        assert max_abs(apply_channel(ch, rho) - loop) <= 1e-15
        gram = sum(adjoint(v) @ v for v in ch.kraus)
        assert ch.completeness_residual() == pytest.approx(
            max_abs(gram - np.eye(6)), abs=1e-15
        )

    def test_stacked_matches_per_term_loop_stochastic(self):
        # N^2 rank-one terms
        rng = np.random.default_rng(29)
        p = rng.random((5, 5))
        ch = stochastic_channel(p / p.sum(axis=0))
        assert len(ch.kraus) == 25
        rho = random_density(5, rng)
        loop = sum(v @ rho @ adjoint(v) for v in ch.kraus)
        assert max_abs(apply_channel(ch, rho) - loop) <= 1e-15

    def test_rejects_invalid_channel(self):
        broken = KrausChannel([0.9 * np.eye(2)])
        with pytest.raises(InvalidChannelError):
            apply_channel(broken, np.eye(2) / 2)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            apply_channel(KrausChannel([np.eye(2)]), np.eye(3) / 3)

    def test_completeness_tol_is_per_call(self):
        # the residual is kept on the channel; the tolerance is not
        assert NEARLY_COMPLETE.completeness_residual() == pytest.approx(1e-6, rel=1e-6)
        rho = np.eye(6) / 6
        with pytest.raises(InvalidChannelError):
            apply_channel(NEARLY_COMPLETE, rho)
        out = apply_channel(NEARLY_COMPLETE, rho, completeness_tol=1e-3)
        assert max_abs(out - (1 + 1e-6) * rho) <= 1e-15
        with pytest.raises(InvalidChannelError):
            apply_channel(NEARLY_COMPLETE, rho)


class TestChannelWigner:
    def test_identity_channel(self):
        rho = density_from_state(basis_state(0, 2))
        assert max_abs(channel_wigner(KrausChannel([np.eye(2)]), rho) - wigner_table(rho)) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_commutes_with_apply(self, n):
        rng = np.random.default_rng(20 + n)
        for terms in (2, 3, 4):
            ch = random_kraus_channel(n, terms, rng)
            rho = random_density(n, rng)
            fused = channel_wigner(ch, rho)
            direct = wigner_table(apply_channel(ch, rho))
            assert max_abs(fused - direct) <= 1e-12
            # linearity: the sum of the per-term tables is the reference
            per_term = sum(wigner_table(v @ rho @ adjoint(v)) for v in ch.kraus)
            assert max_abs(fused - per_term) <= 1e-12

    def test_stationary_input(self):
        # symmetric P has the uniform vector as its fixed point
        p = stochastic_2x2(0.7, 0.3)
        rho = np.eye(2, dtype=complex) / 2
        w_in = wigner_table(rho)
        w_out = channel_wigner(stochastic_channel(p), rho)
        assert max_abs(w_out - w_in) <= 1e-12

    def test_output_odd_rows_vanish_for_stochastic(self):
        # stochastic channels produce position-diagonal outputs
        p = stochastic_2x2(0.6, 0.1)
        rho = density_from_state((basis_state(0, 2) + 1j * basis_state(1, 2)) / np.sqrt(2))
        w_out = channel_wigner(stochastic_channel(p), rho)
        assert max_abs(w_out[1::2, :]) <= 1e-12


class TestChannelTableMap:
    """``KrausChannel.apply``: the table of Lambda(rho(W)) for any real table."""

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 16, 18, 32))
    def test_matches_channel_wigner(self, n):
        rng = np.random.default_rng(300 + n)
        ch = random_kraus_channel(n, 3, rng)
        rho = random_density(n, rng)
        assert max_abs(ch.apply(wigner_table(rho)) - channel_wigner(ch, rho)) <= 1e-15

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 16, 18))
    def test_asymmetric_tables_against_full_lattice_sum(self, n):
        # rho(W) is N * sum over the full lattice of W A, with no symmetry check
        rng = np.random.default_rng(320 + n)
        ch = random_kraus_channel(n, 3, rng)
        for _ in range(3):
            w = rng.standard_normal((2 * n, 2 * n))
            expected = wigner_table(apply_channel(ch, reconstruct_full(w)))
            assert max_abs(ch.apply(w) - expected) <= 1e-12

    def test_trace_preservation_rule_of_apply_channel(self):
        # refused at the default tolerance, accepted at a looser one, as in
        # apply_channel
        w = wigner_table(np.eye(6) / 6)
        with pytest.raises(InvalidChannelError):
            NEARLY_COMPLETE.apply(w)
        loose = NEARLY_COMPLETE.apply(w, completeness_tol=1e-3)
        expected = wigner_table(apply_channel(NEARLY_COMPLETE, np.eye(6) / 6, 1e-3))
        assert max_abs(loose - expected) <= 1e-15

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_stochastic_iteration_reaches_its_attractor(self, n):
        # the QIFS of stochastic_channel(P) sends every state to diag(pi),
        # with P pi = pi; pi from an independent eigensolve
        rng = np.random.default_rng(340 + n)
        p = rng.uniform(size=(n, n)) + 0.1
        p /= p.sum(axis=0)
        values, vectors = np.linalg.eig(p)
        pi = vectors[:, np.argmin(abs(values - 1))].real
        pi /= pi.sum()
        ch = stochastic_channel(p)
        w = wigner_table(random_density(n, rng))
        for _ in range(100):
            w = ch.apply(w)
        assert max_abs(w - wigner_table(np.diag(pi))) <= 1e-12


class TestUnitaryPropagator:
    def test_rejects_non_unitary(self):
        # the constructor checks U; a one-term channel built directly from a
        # non-unitary operator is refused when applied, at its even N
        for u, refused in (
            (np.diag([1.0, 2.0]), InvalidChannelError),
            (2 * np.eye(2), InvalidChannelError),
            (np.ones((3, 3)), OddDimensionError),
        ):
            with pytest.raises(NotUnitaryError):
                unitary_propagator(u)
            with pytest.raises(refused):
                KrausChannel([u]).apply(np.zeros((4, 4)))

    def test_u_is_the_evaluated_unitary(self):
        # the stored U is a read-only copy, like a channel's Kraus family
        u = fourier_matrix(2)
        prop = unitary_propagator(u)
        w = wigner_table(density_from_state(basis_state(0, 2)))
        before = prop.apply(w)
        u[0, 0] = 0.0
        with pytest.raises(ValueError):
            prop.kraus[0][0, 0] = 0.0
        assert np.array_equal(prop.apply(w), before)

    def test_identity_acts_as_identity_on_tables(self):
        rng = np.random.default_rng(31)
        prop = unitary_propagator(np.eye(2))
        for _ in range(3):
            w = wigner_table(random_density(2, rng))
            assert max_abs(prop.apply(w) - w) <= 1e-12

    def test_fourier_on_ket(self):
        f = fourier_matrix(2)
        rho = density_from_state(basis_state(0, 2))
        evolved = unitary_propagator(f).apply(wigner_table(rho))
        direct = wigner_table(f @ rho @ adjoint(f))
        assert max_abs(evolved - direct) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_random_unitaries(self, n):
        rng = np.random.default_rng(37 + n)
        for _ in range(5):
            u = random_unitary(n, rng)
            prop = unitary_propagator(u)
            rho = random_density(n, rng)
            evolved = prop.apply(wigner_table(rho))
            direct = wigner_table(u @ rho @ adjoint(u))
            assert max_abs(evolved - direct) <= 1e-9

    def test_propagator_entries_real_shape(self):
        # row i of Z is N times the table of U* A_i U, whose imaginary
        # residue is at most 1e-12
        for n in (2, 4):
            u = fourier_matrix(n)
            z = propagator_kernel(u)
            assert z.shape == (4 * n * n, 4 * n * n)
            assert z.dtype == float
            for i, (q, p) in enumerate(full_points(n)):
                row = n * table_values(adjoint(u) @ point_operator(q, p, n) @ u).reshape(-1)
                assert max_abs(row.imag) <= 1e-12
                assert max_abs(row.real - z[i]) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 16, 18))
    def test_apply_matches_kernel(self, n):
        # symmetric tables of states and arbitrary real 2N x 2N tables alike
        rng = np.random.default_rng(43 + n)
        prop = unitary_propagator(random_unitary(n, rng))
        z = propagator_kernel(prop.kraus[0])
        tables = [wigner_table(random_density(n, rng)) for _ in range(3)]
        tables.extend(rng.standard_normal((2 * n, 2 * n)) for _ in range(3))
        for w in tables:
            via_kernel = (z @ w.reshape(-1)).reshape(2 * n, 2 * n)
            assert max_abs(prop.apply(w) - via_kernel) <= 1e-12

    def test_apply_rejects_wrong_shape(self):
        # the propagator and a four-term channel share one table map
        for ch in (unitary_propagator(np.eye(2)), depolarizing_channel(2)):
            with pytest.raises(DimMismatchError):
                ch.apply(np.zeros((6, 6)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_apply_rejects_non_finite(self, bad):
        w = wigner_table(density_from_state(basis_state(0, 2)))
        w[1, 3] = bad
        for ch in (unitary_propagator(fourier_matrix(2)), depolarizing_channel(2)):
            with pytest.raises(ValueError, match="table entries must be finite"):
                ch.apply(w)

    def test_rejects_odd_dimension(self):
        with pytest.raises(OddDimensionError):
            unitary_propagator(fourier_matrix(3))
        for ch in (KrausChannel([fourier_matrix(3)]), depolarizing_channel(3)):
            with pytest.raises(OddDimensionError):
                ch.apply(np.zeros((6, 6)))

    def test_tolerances_are_not_settable(self):
        # the kernel and report tolerances are fixed, not caller options
        assert list(inspect.signature(unitary_propagator).parameters) == ["u"]
        assert list(inspect.signature(adjoint_form_report).parameters) == ["channel", "rho"]
        assert list(inspect.signature(channel_wigner).parameters) == ["channel", "rho"]
        assert [f.name for f in dataclasses.fields(unitary_propagator(np.eye(2)))] == [
            "kraus",
            "n",
        ]

    def test_gamma_invariance_n2(self):
        # literal triple contraction of Z against the full kernel tensor
        rng = np.random.default_rng(41)
        u = random_unitary(2, rng)
        z = propagator_kernel(u)
        stack = point_operator_stack(2)
        pairs = np.einsum("bij,cjk->bcik", stack, stack)
        gamma_full = np.einsum("aij,bcji->abc", stack, pairs)
        for _ in range(8):
            ia, ib, ic = rng.integers(0, 16, size=3)
            contracted = np.einsum(
                "a,b,c,abc->", z[ia], z[ib], z[ic], gamma_full
            )
            assert abs(contracted - gamma_full[ia, ib, ic]) <= 1e-8

    @pytest.mark.parametrize(
        "check, bound",
        # the propagator check may build the 64 MiB full stack of the
        # reference table; a dense Z at N = 32 alone is 128 MiB
        ((_check_propagator, 80 * 2**20), (_check_gamma_invariance, 4 * 2**20)),
    )
    def test_verify_checks_build_no_kernel(self, check, bound):
        tracemalloc.start()
        try:
            outcome = check(32, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.passed
        assert peak < bound

    @pytest.mark.parametrize(
        "check, bound",
        # the 64 MiB full stack (16 MiB core) is cached before the check runs;
        # the Fourier form holds the translation stack and its transform, the
        # symmetry check one stack-sized expected array
        (
            (_check_point_hermiticity, 40 * 2**20),
            (_check_point_fourier_form, 136 * 2**20),
            (_check_point_symmetry, 104 * 2**20),
            (_check_point_orthogonality, 40 * 2**20),
        ),
    )
    def test_verify_point_checks_copy_no_stack(self, check, bound):
        _point_stack_full(32)
        _point_stack_core(32)
        tracemalloc.start()
        try:
            outcome = check(32, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.passed
        assert peak < bound


class TestFourierConjugation:
    def test_identity_conjugation(self):
        ch = stochastic_channel(stochastic_2x2(0.5, 0.5))
        conj = fourier_conjugate_channel(ch, np.eye(2))
        for v, w in zip(ch.kraus, conj.kraus):
            assert max_abs(v - w) <= 1e-15

    def test_printed_operators(self):
        p11, p12 = 0.7, 0.4
        p21, p22 = 1 - p11, 1 - p12
        ch = stochastic_channel(stochastic_2x2(p11, p12))
        conj = fourier_conjugate_channel(ch, fourier_matrix(2))
        expected = [
            np.sqrt(p11) / 2 * np.array([[1, 1], [1, 1]]),
            np.sqrt(p12) / 2 * np.array([[1, -1], [1, -1]]),
            np.sqrt(p21) / 2 * np.array([[1, 1], [-1, -1]]),
            np.sqrt(p22) / 2 * np.array([[1, -1], [-1, 1]]),
        ]
        for v, e in zip(conj.kraus, expected):
            assert max_abs(v - e) <= 1e-12

    def test_printed_composite(self):
        rng = np.random.default_rng(43)
        f = fourier_matrix(2)
        for _ in range(10):
            p11, p12 = rng.uniform(0, 1, size=2)
            rho11 = rng.uniform(0, 1)
            off = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3)
            rho = np.array([[rho11, off], [np.conj(off), 1 - rho11]])
            ch = stochastic_channel(stochastic_2x2(p11, p12))
            lhs = f @ apply_channel(ch, rho) @ adjoint(f)
            x = p11 * rho11 + p12 * (1 - rho11) - 0.5
            expected = np.array([[0.5, x], [x, 0.5]])
            assert max_abs(lhs - expected) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_diagram_commutes(self, n):
        rng = np.random.default_rng(47 + n)
        f = fourier_matrix(n)
        ch = random_kraus_channel(n, 3, rng)
        conj = fourier_conjugate_channel(ch, f)
        assert conj.completeness_residual() <= 1e-10
        for _ in range(5):
            rho = random_density(n, rng)
            lhs = f @ apply_channel(ch, rho) @ adjoint(f)
            rhs = apply_channel(conj, f @ rho @ adjoint(f))
            assert max_abs(lhs - rhs) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            fourier_conjugate_channel(KrausChannel([np.eye(2)]), np.diag([1.0, 2.0]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            fourier_conjugate_channel(KrausChannel([np.eye(2)]), np.eye(3))


class TestSqrtDecomposition:
    @pytest.mark.parametrize("n", (2, 4))
    def test_square_root_property(self, n):
        for q, p in full_points(n):
            s = point_sqrt_factor(q, p, n)
            assert max_abs(s @ s - point_operator(q, p, n)) <= 1e-10

    def test_origin_factor_n2(self):
        assert max_abs(point_sqrt_factor(0, 0, 2) - np.eye(2) / 2) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_closed_form_matches_eigendecomposition(self, n):
        for q, p in full_points(n):
            assert max_abs(point_sqrt_factor(q, p, n) - eigh_sqrt_factor(q, p, n)) <= 1e-10

    def test_identity_channel_reduction(self):
        rng = np.random.default_rng(53)
        rho = random_density(2, rng)
        w = wigner_table(rho)
        ch = KrausChannel([np.eye(2)])
        for q, p in full_points(2):
            ms, s = fano_sqrt_decomposition(ch, q, p)
            value = trace_product([s, rho, s])
            assert abs(value - w[q, p]) <= 1e-12

    @pytest.mark.parametrize("n", (2, 4))
    def test_cyclic_identity_exhaustive(self, n):
        rng = np.random.default_rng(59 + n)
        ch = random_kraus_channel(n, 3, rng)
        rho = random_density(n, rng)
        w_out = channel_wigner(ch, rho)
        for q, p in full_points(n):
            _, s = fano_sqrt_decomposition(ch, q, p)
            value = sum(
                trace_product([s, v, rho, adjoint(v), s]) for v in ch.kraus
            )
            assert abs(value - w_out[q, p]) <= 1e-10

    def test_adjoint_form_on_psd_points(self):
        rng = np.random.default_rng(61)
        ch = random_kraus_channel(2, 2, rng)
        rho = random_density(2, rng)
        w_out = channel_wigner(ch, rho)
        psd_seen = 0
        for q, p in full_points(2):
            eigs = hermitian_eig(point_operator(q, p, 2)).eigenvalues
            if eigs[0] < -1e-12:
                continue
            psd_seen += 1
            ms, _ = fano_sqrt_decomposition(ch, q, p)
            value = sum(trace_product([mi, rho, adjoint(mi)]) for mi in ms)
            assert abs(value - w_out[q, p]) <= 1e-10
        assert psd_seen > 0

    def test_report_structure(self):
        rng = np.random.default_rng(67)
        ch = random_kraus_channel(2, 3, rng)
        rho = random_density(2, rng)
        report = adjoint_form_report(ch, rho)
        assert len(report) == 16
        assert {"q", "p", "min_eigenvalue", "psd", "cyclic_residual", "adjoint_residual"} <= set(
            report[0]
        )
        assert max(row["cyclic_residual"] for row in report) <= 1e-10
        non_psd = [row for row in report if not row["psd"]]
        assert non_psd, "the 2x2 lattice has points with a negative eigenvalue"
        # adjoint form evaluates tr(|A| Lambda(rho)); record, do not assert zero
        assert all(np.isfinite(row["adjoint_residual"]) for row in non_psd)

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_report_matches_per_point_oracle(self, n):
        rng = np.random.default_rng(71 + n)
        ch = random_kraus_channel(n, 3, rng)
        rho = random_density(n, rng)
        assert_report_matches_oracle(ch, rho, adjoint_form_report(ch, rho))

    def test_report_sizes_in_turn_match_oracle(self):
        # the per-N report constants are cached; alternating sizes must not mix them
        rng = np.random.default_rng(79)
        for n in (4, 6, 4, 2):
            ch = random_kraus_channel(n, 2, rng)
            rho = random_density(n, rng)
            assert_report_matches_oracle(ch, rho, adjoint_form_report(ch, rho))

    def test_report_memory_is_quadratic(self):
        # one 4N^3 complex intermediate at N = 64 is 16 MiB; the report needs none
        rng = np.random.default_rng(97)
        ch = random_kraus_channel(64, 3, rng)
        rho = random_density(64, rng)
        tracemalloc.start()
        try:
            adjoint_form_report(ch, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_psd_branch_empty_beyond_n2(self, n):
        # 2N A(q, p) = I only at N = 2, so every point has eigenvalue -1/(2N)
        rng = np.random.default_rng(89 + n)
        report = adjoint_form_report(random_kraus_channel(n, 2, rng), random_density(n, rng))
        assert [row for row in report if row["psd"]] == []
        assert all(row["min_eigenvalue"] == -1 / (2 * n) for row in report)
