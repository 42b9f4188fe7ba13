import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from goldens import TABLE_N2_KET0
import dwigner
from dwigner.cli import main
from dwigner.io import (
    dump_json,
    kraus_to_json_obj,
    matrix_from_json_obj,
    matrix_to_json_obj,
    table_from_csv_text,
    table_from_json_obj,
    table_to_csv_text,
)
from dwigner.channels import stochastic_channel
from dwigner.matrix_core import max_abs
from dwigner.phase_space import fourier_matrix
from dwigner.wigner import (
    basis_state,
    density_from_state,
    superposition_state,
    wigner_table,
)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWignerCommand:
    def test_golden_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(
            ["wigner", "--n", "2", "--state", "ket:0", "--format", "csv", "--output", str(out)],
            capsys,
        )
        assert code == 0
        table = table_from_csv_text(out.read_text())
        assert max_abs(table - TABLE_N2_KET0) <= 1e-12
        assert "sum 1" in stdout
        assert "position 1 0" in stdout
        assert "momentum 0.5 0.5" in stdout

    def test_superposition_values(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, _ = run(
            ["wigner", "--n", "2", "--state", "sup:0,1,0.0", "--output", str(out)],
            capsys,
        )
        assert code == 0
        table = table_from_csv_text(out.read_text())
        assert table[1, 0] == pytest.approx(0.25, abs=1e-12)
        assert table[1, 2] == pytest.approx(-0.25, abs=1e-12)

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code, _, _ = run(
            ["wigner", "--n", "4", "--state", "ket:3", "--format", "json", "--output", str(out)],
            capsys,
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 4 and obj["grid"] == "2N"
        table = table_from_json_obj(obj)
        nonzero_rows = [q for q in range(8) if np.abs(table[q]).max() > 1e-14]
        assert nonzero_rows == [2, 6]

    def test_pgm_format(self, tmp_path, capsys):
        out = tmp_path / "table.pgm"
        code, _, _ = run(
            ["wigner", "--n", "2", "--state", "ket:0", "--format", "pgm", "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_bytes().startswith(b"P2\n4 4\n255\n")

    def test_stdout_output(self, capsys):
        code, stdout, _ = run(["wigner", "--n", "2", "--state", "ket:0"], capsys)
        assert code == 0
        assert stdout.startswith("0.25,0.25,0.25,0.25\n")

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                ["wigner", "--n", "4", "--state", "sup:1,3,0.5", "--output", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_density_file_state(self, tmp_path, capsys):
        rho = density_from_state(basis_state(1, 2))
        state_file = tmp_path / "rho.json"
        state_file.write_text(dump_json(matrix_to_json_obj(rho)))
        out = tmp_path / "table.csv"
        code, _, _ = run(
            ["wigner", "--n", "2", "--state", f"file:{state_file}", "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert max_abs(table_from_csv_text(out.read_text()) - wigner_table(rho)) <= 1e-12

    def test_malformed_state(self, capsys):
        code, _, err = run(["wigner", "--n", "2", "--state", "ket:9"], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(["wigner", "--n", "2", "--state", "file:/nonexistent.json"], capsys)
        assert code == 2

    def test_invalid_density_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(dump_json(matrix_to_json_obj(np.eye(2))))  # trace 2
        code, _, err = run(["wigner", "--n", "2", "--state", f"file:{bad}"], capsys)
        assert code == 2
        assert "trace" in err

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_phase_rejected(self, capsys, phi):
        code, stdout, err = run(["wigner", "--n", "4", "--state", f"sup:0,1,{phi}"], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_odd_n_rejected(self, capsys):
        code, _, err = run(["wigner", "--n", "3", "--state", "ket:0"], capsys)
        assert code == 2
        assert "N must be even" in err

    @pytest.mark.parametrize("spec", ["ket:-1", "ket:4", "sup:0,4,0.5", "sup:2,2,0.5"])
    def test_bad_basis_indices_rejected(self, capsys, spec):
        code, stdout, err = run(["wigner", "--n", "4", "--state", spec], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestMarginalsCommand:
    def test_superposition(self, capsys):
        code, stdout, _ = run(["marginals", "--n", "2", "--state", "sup:0,1,0.0"], capsys)
        assert code == 0
        lines = dict(
            (line.split()[0], [float(v) for v in line.split()[1:]])
            for line in stdout.strip().split("\n")
        )
        np.testing.assert_allclose(lines["position"], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(lines["momentum"], [1.0, 0.0], atol=1e-12)


class TestEvolveCommand:
    def test_double_fourier_is_reflection(self, tmp_path, capsys):
        out = tmp_path / "evolved.csv"
        code, _, _ = run(
            [
                "evolve", "--n", "2", "--state", "ket:0",
                "--unitary", "fourier", "--steps", "2", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        # F^2 = R and R|0> = |0>, so the table is unchanged
        assert max_abs(table_from_csv_text(out.read_text()) - TABLE_N2_KET0) <= 1e-10

    def test_single_fourier(self, tmp_path, capsys):
        out = tmp_path / "evolved.csv"
        code, _, _ = run(
            [
                "evolve", "--n", "2", "--state", "ket:0",
                "--unitary", "fourier", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        f = fourier_matrix(2)
        rho = density_from_state(basis_state(0, 2))
        expected = wigner_table(f @ rho @ f.conj().T)
        assert max_abs(table_from_csv_text(out.read_text()) - expected) <= 1e-10

    def test_unitary_file(self, tmp_path, capsys):
        u_file = tmp_path / "u.json"
        u_file.write_text(dump_json(matrix_to_json_obj(fourier_matrix(2))))
        out = tmp_path / "evolved.csv"
        code, _, _ = run(
            [
                "evolve", "--n", "2", "--state", "ket:0",
                "--unitary", f"file:{u_file}", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0

    def test_rejects_non_unitary_file(self, tmp_path, capsys):
        u_file = tmp_path / "u.json"
        u_file.write_text(dump_json(matrix_to_json_obj(np.diag([1.0, 2.0]))))
        code, _, _ = run(
            ["evolve", "--n", "2", "--state", "ket:0", "--unitary", f"file:{u_file}"],
            capsys,
        )
        assert code == 2

    def test_large_n_double_fourier(self, tmp_path, capsys):
        table_path = tmp_path / "evolved.csv"
        code, _, _ = run(
            [
                "evolve", "--n", "256", "--state", "sup:3,10,0.7",
                "--unitary", "fourier", "--steps", "2", "--output", str(table_path),
            ],
            capsys,
        )
        assert code == 0
        density_path = tmp_path / "rho.json"
        code, _, _ = run(
            ["reconstruct", "--input", str(table_path), "--output", str(density_path)],
            capsys,
        )
        assert code == 0
        rho = matrix_from_json_obj(json.loads(density_path.read_text()))
        f2 = np.linalg.matrix_power(fourier_matrix(256), 2)
        psi = superposition_state(3, 10, 0.7, 256)
        expected = f2 @ density_from_state(psi) @ f2.conj().T
        assert max_abs(rho - expected) <= 1e-10

    def test_rejects_bad_steps(self, capsys):
        code, _, _ = run(
            ["evolve", "--n", "2", "--state", "ket:0", "--unitary", "fourier", "--steps", "0"],
            capsys,
        )
        assert code == 2


class TestChannelCommand:
    def test_stochastic_file(self, tmp_path, capsys):
        p = np.array([[0.7, 0.4], [0.3, 0.6]])
        kraus_file = tmp_path / "channel.json"
        kraus_file.write_text(dump_json(kraus_to_json_obj(stochastic_channel(p))))
        out = tmp_path / "table.csv"
        code, _, _ = run(
            [
                "channel", "--n", "2", "--state", "ket:0",
                "--kraus", str(kraus_file), "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        expected = wigner_table(np.diag(p @ np.array([1.0, 0.0])).astype(complex))
        assert max_abs(table_from_csv_text(out.read_text()) - expected) <= 1e-12

    def test_rejects_non_trace_preserving(self, tmp_path, capsys):
        obj = {"n": 2, "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}
        kraus_file = tmp_path / "broken.json"
        kraus_file.write_text(json.dumps(obj))
        code, _, err = run(
            ["channel", "--n", "2", "--state", "ket:0", "--kraus", str(kraus_file)],
            capsys,
        )
        assert code == 2
        assert "trace preserving" in err

    def test_invalid_channel_is_one_error_line(self, tmp_path, capsys):
        obj = {"n": 2, "kraus": [[[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]]]}
        kraus_file = tmp_path / "lossy.json"
        kraus_file.write_text(json.dumps(obj))
        code, out, err = run(
            ["channel", "--n", "2", "--state", "ket:0", "--kraus", str(kraus_file)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: channel is not trace preserving")
        assert err.count("\n") == 1

    def test_kraus_file_spellings_agree(self, tmp_path, capsys):
        # file:<path>, as for --state and --unitary, and the bare path
        kraus_file = tmp_path / "channel.json"
        p = np.array([[0.7, 0.4], [0.3, 0.6]])
        kraus_file.write_text(dump_json(kraus_to_json_obj(stochastic_channel(p))))
        outputs = []
        for spec in (f"file:{kraus_file}", str(kraus_file)):
            code, stdout, err = run(
                ["channel", "--n", "2", "--state", "sup:0,1,0.3", "--kraus", spec], capsys
            )
            assert (code, err) == (0, "")
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_scales_imaginary_residue_check(self, tmp_path):
        # off-diagonal entries 1e-7i apart leave an imaginary residue of 2.5e-8;
        # under DWIGNER_TOL=1e6 the identity channel tabulates it as wigner does
        rho = density_from_state(superposition_state(0, 1, 0.0, 2)).copy()
        rho[0, 1] += 1e-7j
        state_file = tmp_path / "rho.json"
        state_file.write_text(dump_json(matrix_to_json_obj(rho)))
        kraus_file = tmp_path / "identity.json"
        kraus_file.write_text(json.dumps({"n": 2, "kraus": KRAUS_N2_IDENTITY}))
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(dwigner.__file__).resolve().parent.parent),
            DWIGNER_TOL="1e6",
        )
        outputs = []
        for command in (["wigner"], ["channel", "--kraus", str(kraus_file)]):
            out = tmp_path / f"{command[0]}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "dwigner.cli", *command, "--n", "2",
                 "--state", f"file:{state_file}", "--output", str(out)],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def roundtrip_specs():
    for n in (2, 4):
        for q0 in range(n):
            yield n, f"ket:{q0}"
        for q0 in range(n):
            for q1 in range(q0 + 1, n):
                yield n, f"sup:{q0},{q1},0.0"
                yield n, f"sup:{q0},{q1},1.25"


class TestReconstructCommand:
    @pytest.mark.parametrize("n,state", list(roundtrip_specs()))
    def test_roundtrip(self, tmp_path, capsys, n, state):
        table_path = tmp_path / "table.csv"
        code, _, _ = run(
            ["wigner", "--n", str(n), "--state", state, "--output", str(table_path)],
            capsys,
        )
        assert code == 0
        density_path = tmp_path / "rho.json"
        code, _, _ = run(
            ["reconstruct", "--input", str(table_path), "--output", str(density_path)],
            capsys,
        )
        assert code == 0
        obj = json.loads(density_path.read_text())
        rho = np.asarray(obj["matrix"], dtype=float)
        rho = rho[..., 0] + 1j * rho[..., 1]
        from dwigner.cli import _parse_state

        expected = _parse_state(state, n, 1.0)
        assert max_abs(rho - expected) <= 1e-10

    def test_golden_table(self, tmp_path, capsys):
        table_path = tmp_path / "golden.csv"
        table_path.write_text(table_to_csv_text(TABLE_N2_KET0))
        code, stdout, _ = run(["reconstruct", "--input", str(table_path)], capsys)
        assert code == 0
        obj = json.loads(stdout)
        assert obj["matrix"][0][0] == [1.0, 0.0]

    def test_json_table_input(self, tmp_path, capsys):
        table_path = tmp_path / "golden.json"
        from dwigner.io import table_to_json_obj

        table_path.write_text(dump_json(table_to_json_obj(TABLE_N2_KET0)))
        code, _, _ = run(["reconstruct", "--input", str(table_path)], capsys)
        assert code == 0

    def test_inconsistent_table_exits_3(self, tmp_path, capsys):
        corrupted = TABLE_N2_KET0.copy()
        corrupted[2, 1] += 1e-3
        table_path = tmp_path / "bad.csv"
        table_path.write_text(table_to_csv_text(corrupted))
        code, _, err = run(["reconstruct", "--input", str(table_path)], capsys)
        assert code == 3
        assert "symmetry" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, _ = run(["reconstruct", "--input", "/nonexistent.csv"], capsys)
        assert code == 2

    def test_non_finite_table_exits_2(self, tmp_path, capsys):
        table = TABLE_N2_KET0.copy()
        table[1, 2] = np.nan
        table_path = tmp_path / "nan.csv"
        table_path.write_text(table_to_csv_text(table))
        code, stdout, err = run(["reconstruct", "--input", str(table_path)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    def test_odd_n_table_exits_2(self, tmp_path, capsys):
        # a 6 x 6 table has N = 3, where the sign rule does not hold
        table_path = tmp_path / "six.csv"
        table_path.write_text(table_to_csv_text(np.zeros((6, 6))))
        code, stdout, err = run(["reconstruct", "--input", str(table_path)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == "error: N must be even and >= 2, got 3\n"

    def test_large_n_roundtrip(self, tmp_path, capsys):
        table_path = tmp_path / "table.csv"
        code, _, _ = run(
            ["wigner", "--n", "256", "--state", "ket:5", "--output", str(table_path)],
            capsys,
        )
        assert code == 0
        density_path = tmp_path / "rho.json"
        code, _, _ = run(
            ["reconstruct", "--input", str(table_path), "--output", str(density_path)],
            capsys,
        )
        assert code == 0
        rho = matrix_from_json_obj(json.loads(density_path.read_text()))
        assert max_abs(rho - density_from_state(basis_state(5, 256))) <= 1e-10


class TestVerifyCommand:
    def test_passes_at_n2(self, capsys):
        code, stdout, _ = run(["verify", "--n", "2", "--seed", "0"], capsys)
        assert code == 0
        assert "checks passed" in stdout
        assert "FAIL" not in stdout

    def test_odd_n_exits_2(self, capsys):
        code, _, err = run(["verify", "--n", "3"], capsys)
        assert code == 2
        assert "N must be even" in err

    def test_negative_seed_exits_2(self, capsys):
        code, stdout, err = run(["verify", "--n", "2", "--seed", "-1"], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "seed" in err

    def test_deterministic_report(self, capsys):
        code1, out1, _ = run(["verify", "--n", "4", "--seed", "7"], capsys)
        code2, out2, _ = run(["verify", "--n", "4", "--seed", "7"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestToleranceEnv:
    def test_scales_validation(self, tmp_path, capsys, monkeypatch):
        # a density with a trace error of 1e-9 fails at the default
        # tolerance and passes once DWIGNER_TOL loosens it
        rho = density_from_state(basis_state(0, 2)).copy()
        rho[0, 0] += 1e-9
        state_file = tmp_path / "near.json"
        state_file.write_text(dump_json(matrix_to_json_obj(rho)))
        code, _, _ = run(["wigner", "--n", "2", "--state", f"file:{state_file}"], capsys)
        assert code == 2
        monkeypatch.setenv("DWIGNER_TOL", "1e5")
        code, _, _ = run(["wigner", "--n", "2", "--state", f"file:{state_file}"], capsys)
        assert code == 0

    def test_scales_evolve_unitarity(self, tmp_path, capsys, monkeypatch):
        # U = I with U[0, 0] = 1 + 1e-10 fails the 1e-12 unitarity check and
        # passes once DWIGNER_TOL loosens it, in every evolve step as well
        u = np.eye(4, dtype=complex)
        u[0, 0] = 1 + 1e-10
        u_file = tmp_path / "u.json"
        u_file.write_text(dump_json(matrix_to_json_obj(u)))
        args = ["evolve", "--n", "4", "--state", "ket:0", "--unitary", f"file:{u_file}"]
        code, _, err = run(args, capsys)
        assert code == 2
        assert "not unitary" in err
        monkeypatch.setenv("DWIGNER_TOL", "1000")
        code, stdout, err = run([*args, "--steps", "3"], capsys)
        assert code == 0
        assert err == ""
        evolved = table_from_csv_text(stdout)
        assert max_abs(evolved - wigner_table(density_from_state(basis_state(0, 4)))) <= 1e-9

    def test_rejects_bad_factor(self, capsys, monkeypatch):
        monkeypatch.setenv("DWIGNER_TOL", "-1")
        code, _, err = run(["wigner", "--n", "2", "--state", "ket:0"], capsys)
        assert code == 2
        assert "DWIGNER_TOL" in err

    @pytest.mark.parametrize("factor", ["inf", "nan"])
    def test_rejects_non_finite_factor(self, capsys, monkeypatch, factor):
        monkeypatch.setenv("DWIGNER_TOL", factor)
        code, stdout, err = run(["wigner", "--n", "2", "--state", "ket:0"], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: DWIGNER_TOL") and err.count("\n") == 1


KRAUS_N2_IDENTITY = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]


class TestFileDimension:
    @pytest.mark.parametrize(
        "kind, args, obj",
        (
            ("density", ["wigner", "--state", "file:{}"], matrix_to_json_obj(np.eye(2) / 2)),
            (
                "unitary",
                ["evolve", "--state", "ket:0", "--unitary", "file:{}"],
                matrix_to_json_obj(np.eye(2)),
            ),
            (
                "Kraus",
                ["channel", "--state", "ket:0", "--kraus", "file:{}"],
                {"n": 2, "kraus": KRAUS_N2_IDENTITY},
            ),
        ),
    )
    def test_wrong_n_is_one_error_line(self, tmp_path, capsys, kind, args, obj):
        path = tmp_path / "input.json"
        path.write_text(dump_json(obj))
        code, stdout, err = run([*(a.format(path) for a in args), "--n", "4"], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {kind} file has N=2, expected 4\n"


class TestMalformedJsonInput:
    """Well-formed JSON of the wrong structure exits 2 with one error line."""

    @pytest.mark.parametrize(
        "content,args",
        [
            pytest.param(
                [[0.25, 0.25], [0.25, 0.25]], ["reconstruct", "--input", "{path}"], id="table-list"
            ),
            pytest.param(
                {"n": 1, "grid": "2N"}, ["reconstruct", "--input", "{path}"], id="table-no-values"
            ),
            pytest.param(
                {"kraus": KRAUS_N2_IDENTITY},
                ["channel", "--n", "2", "--state", "ket:0", "--kraus", "{path}"],
                id="kraus-no-n",
            ),
            pytest.param(
                KRAUS_N2_IDENTITY,
                ["channel", "--n", "2", "--state", "ket:0", "--kraus", "{path}"],
                id="kraus-list",
            ),
            pytest.param(
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                ["wigner", "--n", "2", "--state", "file:{path}"],
                id="state-list",
            ),
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, content, args):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, stdout, err = run([a.format(path=path) for a in args], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["wigner", "evolve", "channel", "reconstruct"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command, target):
        table_path = tmp_path / "table.csv"
        table_path.write_text(table_to_csv_text(TABLE_N2_KET0))
        kraus_path = tmp_path / "kraus.json"
        kraus_path.write_text(json.dumps({"n": 2, "kraus": KRAUS_N2_IDENTITY}))
        state = ["--n", "2", "--state", "sup:0,1,0"]
        args = {
            "wigner": ["wigner", *state],
            "evolve": ["evolve", *state, "--unitary", "fourier"],
            "channel": ["channel", *state, "--kraus", str(kraus_path)],
            "reconstruct": ["reconstruct", "--input", str(table_path)],
        }[command]
        output = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path
        code, stdout, err = run([*args, "--output", str(output)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=400, deadline=None)
@given(prefix=st.sampled_from(["ket:", "sup:", "file:", ""]), text=st.text(max_size=20))
@example(prefix="file:", text="\x00")
def test_state_spec_exits_0_or_2_with_one_error_line(prefix, text):
    # the --state= form keeps a leading "-" from being read as an option
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["marginals", "--n", "4", "--state=" + prefix + text])
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert stdout.getvalue() == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestOutOfMemory:
    def test_oversized_n_exits_2_with_one_error_line(self):
        # the 20000 x 20000 density alone needs 6 GB, past a 2 GiB address space
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(
            os.environ,
            PYTHONPATH=str(Path(dwigner.__file__).resolve().parent.parent),
            OPENBLAS_NUM_THREADS="1",  # keeps BLAS start-up buffers well under the cap
            OMP_NUM_THREADS="1",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "dwigner.cli", "wigner", "--n", "20000", "--state", "ket:0"],
            capture_output=True,
            env=env,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: out of memory at N=20000")
        assert proc.stderr.count(b"\n") == 1


def test_cli_import_leaves_scipy_unloaded():
    # scipy is not a dependency, and the oracle modules serve only `dwigner verify`;
    # importing either would add to every command's start-up
    env = dict(os.environ, PYTHONPATH=str(Path(dwigner.__file__).resolve().parent.parent))
    oracles = ("dwigner.verify", "dwigner.reference", "dwigner.sampling", "dwigner.weyl")
    code = (
        "import sys, dwigner.cli; "
        f"print([m for m in sys.modules if m.split('.')[0] == 'scipy' or m in {oracles!r}])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


class TestOverflowingInput:
    # the validation residuals of these finite entries overflow to inf or NaN;
    # run in a subprocess, since pytest captures numpy's warnings in-process
    @pytest.mark.parametrize(
        "args, obj",
        (
            (
                ["evolve", "--state", "ket:0", "--unitary", "file:{}"],
                {"n": 2, "matrix": [[[1e200, 0], [-1e200, 0]], [[1e200, 0], [1e200, 0]]]},
            ),
            (
                ["channel", "--state", "ket:0", "--kraus", "{}"],
                {"n": 2, "kraus": [[[1e200, 0], [-1e200, 0], [1e200, 0], [1e200, 0]]]},
            ),
            (
                ["wigner", "--state", "file:{}"],
                {"n": 2, "matrix": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]},
            ),
        ),
        ids=["evolve", "channel", "wigner"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, args, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        env = dict(os.environ, PYTHONPATH=str(Path(dwigner.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "dwigner.cli", *(a.format(path) for a in args), "--n", "2"],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")
        assert proc.stderr.count(b"\n") == 1


# valid tables at N = 2 and 4, single-cell mutations of their CSV text,
# malformed rows and structures, non-finite values and raw text
VALID_TABLES = [
    wigner_table(density_from_state(superposition_state(0, 1, 0.3, 2))),
    wigner_table(np.eye(4) / 4),
]
VALID_TABLE_TEXTS = [table_to_csv_text(w) for w in VALID_TABLES]
CSV_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-2, 2).map(str),
    st.sampled_from(
        ["", " ", "x", "1e999", "nan", "-inf", "--1", "0x1", "1,", '"1"', "\xa01", "+1", "-0", "\u20031"]
    ),
)
CSV_TEXTS = st.one_of(
    st.lists(st.lists(CSV_CELLS, min_size=1, max_size=5), min_size=1, max_size=5).map(
        lambda rows: "\n".join(",".join(row) for row in rows)
    ),
    st.sampled_from(VALID_TABLE_TEXTS),
    st.tuples(st.sampled_from(VALID_TABLE_TEXTS), st.integers(0, 200), CSV_CELLS).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1 :]
    ),
    st.text(max_size=40),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=20,
)
TABLE_OBJECTS = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 4) | JSON_VALUES,
        "values": st.lists(st.lists(st.floats(), min_size=4, max_size=4), min_size=4, max_size=4)
        | st.sampled_from([w.tolist() for w in VALID_TABLES])
        | JSON_VALUES,
    },
    optional={"grid": st.sampled_from(["2N", "N"]) | JSON_VALUES},
)
JSON_TEXTS = st.one_of(
    TABLE_OBJECTS.map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=40),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    case=st.tuples(st.just(".csv"), CSV_TEXTS) | st.tuples(st.just(".json"), JSON_TEXTS)
)
def test_table_loaders_exit_0_2_or_3_with_one_error_line(tmp_path, capsysbinary, case):
    suffix, text = case
    path = tmp_path / f"table{suffix}"
    path.write_text(text, encoding="utf-8")
    capsysbinary.readouterr()
    code = main(["reconstruct", "--input", str(path)])
    out, err = capsysbinary.readouterr()
    event(f"exit {code}")
    if code == 0:
        assert err == b""
        assert np.isfinite(matrix_from_json_obj(json.loads(out))).all()
    else:
        assert code in (2, 3)
        assert out == b""
        assert err.startswith(b"error:") and err.count(b"\n") == 1
