import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import TABLE_N2_KET0
from dwigner.channels import KrausChannel, stochastic_channel
from dwigner.io import (
    _sign_rule_table,
    dump_json,
    kraus_from_json_obj,
    kraus_to_json_obj,
    matrix_from_json_obj,
    matrix_to_json_obj,
    table_from_csv_text,
    table_from_json_obj,
    table_to_csv_text,
    table_to_json_obj,
    table_to_pgm_bytes,
)
from dwigner.matrix_core import max_abs
from dwigner.sampling import random_density, random_kraus_channel, random_pure_density
from dwigner.wigner import _extend, wigner_table

EVEN_N = st.integers(min_value=1, max_value=32).map(lambda k: 2 * k)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# magnitudes at the edges of float64: zero, subnormals, the normal limits, +-1e+-300
EDGE_MAGNITUDES = (
    0.0,
    5e-324,
    1e-310,
    2.2250738585072014e-308,
    1e-300,
    1e300,
    1.7976931348623157e308,
)


def per_value_csv(table) -> str:
    """The CSV text by one ``%.17g`` call per entry: the writer's reference."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(table))


def full_parse_reference(text: str) -> np.ndarray:
    """The table by one ``np.loadtxt`` over all 4N^2 cells: the reader's reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        w = np.atleast_2d(np.loadtxt(io.StringIO(text), delimiter=","))
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 or not np.isfinite(w).all():
        raise ValueError("rejected table")
    return w


def assert_reads_like_reference(text: str) -> None:
    """The reader returns the reference's bytes, or raises where the reference does."""
    try:
        expected = full_parse_reference(text)
    except ValueError:
        with pytest.raises(ValueError):
            table_from_csv_text(text)
        return
    got = table_from_csv_text(text)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def negated_cell(cell: str) -> str:
    return cell[1:] if cell.startswith("-") else "-" + cell


def sign_rule_text(core_cells, trailing_newline=True) -> str:
    """CSV text whose outer cells are the core cells' text with the sign rule's ``-`` toggled."""
    n = len(core_cells)
    rows = []
    for sq in range(2):
        for q in range(n):
            row = []
            for sp in range(2):
                for p in range(n):
                    cell = core_cells[q][p]
                    row.append(negated_cell(cell) if (sp * q + sq * p) % 2 else cell)
            rows.append(",".join(row))
    return "\n".join(rows) + ("\n" if trailing_newline else "")


@st.composite
def repeated_magnitude_tables(draw):
    """2k x 2k tables drawn from a few magnitudes with random signs."""
    side = 2 * draw(st.integers(min_value=1, max_value=8))
    pool = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_MAGNITUDES),
            min_size=1,
            max_size=6,
        )
    )
    cells = side * side
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=cells, max_size=cells))
    signs = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    values = [-pool[i] if neg else pool[i] for i, neg in zip(picks, signs)]
    return np.array(values, dtype=float).reshape(side, side)


class TestTableCsv:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(2)
        table = rng.standard_normal((4, 4))
        back = table_from_csv_text(table_to_csv_text(table))
        np.testing.assert_array_equal(back, table)  # 17 digits round-trip doubles

    def test_matches_per_value_formatter(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5):
            shape = (2 * n, 2 * n)
            table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
            table.flat[:3] = (-0.0, 1e-300, 1e300)
            expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table)
            assert table_to_csv_text(table) == expected

    @settings(max_examples=25, deadline=None)
    @given(n=EVEN_N, seed=SEEDS, pure=st.booleans())
    def test_state_tables_match_per_value_formatter(self, n, seed, pure):
        rng = np.random.default_rng(seed)
        rho = random_pure_density(n, rng) if pure else random_density(n, rng)
        table = wigner_table(rho)
        assert table_to_csv_text(table) == per_value_csv(table)

    def test_large_state_table_matches_per_value_formatter(self):
        table = wigner_table(random_density(256, np.random.default_rng(11)))
        assert table_to_csv_text(table) == per_value_csv(table)

    @settings(max_examples=200, deadline=None)
    @given(table=repeated_magnitude_tables())
    def test_repeated_magnitudes_match_per_value_formatter(self, table):
        assert table_to_csv_text(table) == per_value_csv(table)

    def test_edge_values_match_per_value_formatter(self):
        edges = np.array(EDGE_MAGNITUDES)
        values = np.concatenate([edges, -edges, [np.inf, -np.inf, np.nan, -np.nan]])
        table = np.resize(values, (6, 6))
        assert np.signbit(table).any() and np.isnan(table).any()
        assert table_to_csv_text(table) == per_value_csv(table)
        assert table_to_csv_text(table.T) == per_value_csv(table.T)

    def test_golden_layout(self):
        text = table_to_csv_text(TABLE_N2_KET0)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "0.25,0.25,0.25,0.25"
        assert lines[2] == "0.25,-0.25,0.25,-0.25"

    def test_rejects_odd_shape(self):
        with pytest.raises(ValueError):
            table_from_csv_text("1,2,3\n4,5,6\n7,8,9\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            table_from_csv_text(f"0.5,0\n0,{bad}\n")

    @pytest.mark.parametrize("text", ["", "\n\n", "# comments only\n"])
    def test_rejects_empty_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2N x 2N"):
                table_from_csv_text(text)


# Cell spellings for sign-rule texts: what ``%.17g`` prints, other spellings
# np.loadtxt accepts, and spellings it accepts in one sign but not the other.
CELL_SPELLINGS = (
    "0.25",
    "-0.25",
    "0",
    "-0",
    "1e+300",
    "5e-324",
    ".5",
    "5.",
    "1E5",
    "1e999",
    "+0.25",
    " 0.25",
    "0.25 ",
    "\xa00.25",
    "\u20030.25",
    "-\xa00.25",
    "",
    "x",
    "--1",
    "nan",
)


class TestTableCsvReader:
    @settings(max_examples=40, deadline=None)
    @given(n=EVEN_N, seed=SEEDS, pure=st.booleans(), trailing=st.booleans())
    def test_state_tables_match_full_parse(self, n, seed, pure, trailing):
        rng = np.random.default_rng(seed)
        rho = random_pure_density(n, rng) if pure else random_density(n, rng)
        text = table_to_csv_text(wigner_table(rho))
        if not trailing:
            text = text.rstrip("\n")
        assert _sign_rule_table(text) is not None  # the core-only path
        assert_reads_like_reference(text)

    @pytest.mark.parametrize("trailing", [True, False])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_edge_and_signed_zero_cores_match_full_parse(self, n, trailing):
        rng = np.random.default_rng(n)
        edges = np.array(EDGE_MAGNITUDES + (0.25, 1.0))
        core = rng.choice(edges, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
        core[0, :2] = (0.0, -0.0)
        table = _extend(core)
        text = table_to_csv_text(table)
        assert_reads_like_reference(text if trailing else text.rstrip("\n"))
        np.testing.assert_array_equal(np.signbit(table_from_csv_text(text)), np.signbit(table))

    @pytest.mark.parametrize("cell", ["\xa00.25", "\u20030.25", " 0.25", "+0.25"])
    @pytest.mark.parametrize("core_side", [True, False])
    def test_spellings_loadtxt_rejects_when_negated_raise(self, cell, core_side):
        # np.loadtxt reads the cell but not the cell with a leading "-", so
        # the text is rejected whichever of the two sits in the core
        core = [["0.25", "0.5"], ["-0.125", "1"]]
        core[1][1] = cell if core_side else "-" + cell
        text = sign_rule_text(core)
        assert {cell, "-" + cell} <= set(text.replace("\n", ",").split(","))
        with pytest.raises(ValueError):
            full_parse_reference(text)
        with pytest.raises(ValueError):
            table_from_csv_text(text)

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from(CELL_SPELLINGS), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        trailing=st.booleans(),
    )
    def test_sign_rule_texts_of_any_spelling_match_full_parse(self, cells, trailing):
        assert_reads_like_reference(sign_rule_text(cells, trailing))

    def test_texts_that_break_the_sign_rule_match_full_parse(self):
        rng = np.random.default_rng(8)
        text = table_to_csv_text(wigner_table(random_density(4, rng)))
        for i in range(0, len(text), 3):
            for cell in ("0", "-", "\n", ",", "1\r"):
                assert_reads_like_reference(text[:i] + cell + text[i + 1 :])


class TestTableJson:
    def test_roundtrip(self):
        obj = table_to_json_obj(TABLE_N2_KET0)
        assert obj["n"] == 2
        assert obj["grid"] == "2N"
        back = table_from_json_obj(json.loads(dump_json(obj)))
        assert max_abs(back - TABLE_N2_KET0) == 0.0

    def test_rejects_wrong_n(self):
        obj = table_to_json_obj(TABLE_N2_KET0)
        obj["n"] = 3
        with pytest.raises(ValueError):
            table_from_json_obj(obj)

    def test_rejects_unknown_grid(self):
        obj = table_to_json_obj(TABLE_N2_KET0)
        obj["grid"] = "N"
        with pytest.raises(ValueError):
            table_from_json_obj(obj)

    def test_dump_matches_per_value_construction(self):
        rng = np.random.default_rng(4)
        for table in (wigner_table(random_density(6, rng)), rng.standard_normal((4, 4))):
            table.flat[:2] = (-0.0, 5e-324)
            values = [[float(v) for v in row] for row in table]
            expected = {"n": table.shape[0] // 2, "grid": "2N", "values": values}
            assert dump_json(table_to_json_obj(table)) == dump_json(expected)

    @pytest.mark.parametrize(
        "obj",
        [
            [[0.25, 0.25], [0.25, 0.25]],
            {"n": 1},
            {"values": [[1.0, 0.0], [0.0, 0.0]]},
            {"n": "1", "values": []},
        ],
    )
    def test_rejects_malformed_structure(self, obj):
        with pytest.raises(ValueError):
            table_from_json_obj(obj)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite(self, bad):
        text = f'{{"n": 1, "grid": "2N", "values": [[0.5, 0], [0, {bad}]]}}'
        with pytest.raises(ValueError, match="finite"):
            table_from_json_obj(json.loads(text))


class TestMatrixJson:
    def test_roundtrip_complex(self):
        rng = np.random.default_rng(3)
        rho = random_density(3, rng)
        back = matrix_from_json_obj(json.loads(dump_json(matrix_to_json_obj(rho))))
        assert max_abs(back - rho) == 0.0

    def test_rejects_wrong_n(self):
        obj = matrix_to_json_obj(np.eye(2))
        obj["n"] = 4
        with pytest.raises(ValueError):
            matrix_from_json_obj(obj)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            matrix_from_json_obj({"n": 2, "matrix": [[1, 2], [3, 4]]})

    def test_dump_matches_per_value_construction(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            rho = random_density(n, rng)
            rho[0, 0] = complex(-0.0, -0.0)
            pairs = [[[float(v.real), float(v.imag)] for v in row] for row in rho]
            expected = {"n": n, "matrix": pairs}
            assert dump_json(matrix_to_json_obj(rho)) == dump_json(expected)

    @pytest.mark.parametrize(
        "obj",
        [
            [[[1.0, 0.0]]],
            {"n": 1},
            {"matrix": [[[1.0, 0.0]]]},
            {"n": True, "matrix": [[[1.0, 0.0]]]},
            {"n": 1, "matrix": [[{"re": 1.0}]]},
        ],
    )
    def test_rejects_malformed_structure(self, obj):
        with pytest.raises(ValueError):
            matrix_from_json_obj(obj)


class TestKrausJson:
    def test_roundtrip(self):
        ch = stochastic_channel(np.array([[0.7, 0.4], [0.3, 0.6]]))
        obj = json.loads(dump_json(kraus_to_json_obj(ch)))
        back = kraus_from_json_obj(obj)
        assert back.n == 2
        assert len(back.kraus) == len(ch.kraus)
        for v, w in zip(back.kraus, ch.kraus):
            assert max_abs(v - w) == 0.0
        assert back.completeness_residual() <= 1e-12

    def test_flat_row_major_layout(self):
        ch = KrausChannel([np.array([[1, 2j], [3, 4]], dtype=complex)])
        obj = kraus_to_json_obj(ch)
        assert obj["kraus"][0] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            kraus_from_json_obj({"n": 2, "kraus": [[[1.0, 0.0]] * 3]})

    def test_dump_matches_per_value_construction(self):
        rng = np.random.default_rng(6)
        for n, k in ((1, 1), (2, 3), (4, 2)):
            ch = random_kraus_channel(n, k, rng)
            ops = [[[float(x.real), float(x.imag)] for x in v.reshape(-1)] for v in ch.kraus]
            assert dump_json(kraus_to_json_obj(ch)) == dump_json({"n": n, "kraus": ops})

    @pytest.mark.parametrize(
        "obj",
        [
            [[[1.0, 0.0]]],
            {"kraus": [[[1.0, 0.0]]]},
            {"n": 1},
            {"n": 1.0, "kraus": [[[1.0, 0.0]]]},
            {"n": 0, "kraus": [[]]},
            {"n": -1, "kraus": [[[1.0, 0.0]]]},
            {"n": 1, "kraus": "op"},
        ],
    )
    def test_rejects_malformed_structure(self, obj):
        with pytest.raises(ValueError):
            kraus_from_json_obj(obj)


class TestPgm:
    def test_header_and_midgray(self):
        data = table_to_pgm_bytes(np.zeros((4, 4)))
        lines = data.decode("ascii").strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "4 4"
        assert lines[2] == "255"
        assert all(v == "128" for row in lines[3:] for v in row.split())

    def test_scaling(self):
        table = np.array(
            [
                [0.25, -0.25, 0.0, 0.125],
                [0.0, 0.0, 0.0, 0.0],
                [0.25, -0.25, 0.25, -0.25],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        lines = table_to_pgm_bytes(table).decode("ascii").strip().split("\n")
        first_row = [int(v) for v in lines[3].split()]
        assert first_row == [255, 1, 128, 192]  # 128 +/- 127, 128 + 64

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((4, 4))
        assert table_to_pgm_bytes(table) == table_to_pgm_bytes(table.copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_without_warning(self, bad):
        table = np.full((4, 4), 0.25)
        table[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                table_to_pgm_bytes(table)

    def test_matches_per_pixel_join(self):
        rng = np.random.default_rng(7)
        state = wigner_table(random_density(8, rng))
        for table in (state, rng.standard_normal((6, 6)), np.zeros((2, 2))):
            peak = np.max(np.abs(table))
            if peak == 0:
                pixels = np.full(table.shape, 128)
            else:
                pixels = 128 + np.rint(127.0 * table / peak).astype(int)
            lines = ["P2", f"{table.shape[1]} {table.shape[0]}", "255"]
            lines.extend(" ".join(str(v) for v in row) for row in np.clip(pixels, 0, 255))
            assert table_to_pgm_bytes(table) == ("\n".join(lines) + "\n").encode("ascii")
