import json

import numpy as np
import pytest

from goldens import TABLE_N2_KET0
from dwigner.channels import KrausChannel, stochastic_channel
from dwigner.io import (
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
from dwigner.sampling import random_density


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
