"""Tests of the benchmark itself: run with ``python3 -m pytest -q bench/test_bench.py``."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import clicmd  # noqa: E402
import inproc  # noqa: E402

TINY = {"table-roundtrip": (4,), "dynamics": (2, 4), "cli": (4, 4, 2)}


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_metric_with_its_unit(name, trace, capsys):
    result = run.run_workload(name, seed=3, seconds=0.2, trace=trace, sizes=TINY[name])
    line = run.report(name, 3, trace, result, run.environment(TINY[name]))
    printed = capsys.readouterr().out
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    got = {metric: value["unit"] for metric, value in line["metrics"].items()}
    assert got == declared("per_layer" if trace else "end_to_end")
    assert line["attempted"] >= 1
    if name == "cli":
        # The two NaN inputs are known defects: failed, but not incorrect.
        assert line["failed"] == 2 * line["attempted"] // 11
    else:
        assert line["failed"] == 0
    assert line["correct"]
    if not trace:
        assert "error_rate" in printed and "op_tail_ms" in printed
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_corrupted_table_counts_as_failure():
    class Corrupted(inproc.TableRoundtrip):
        def op(self, t, rho):
            table, mx, mp, back, overlap = super().op(t, rho)
            table = table.copy()
            table[1, 2] += 1e-6
            return table, mx, mp, back, overlap

    (phase,) = inproc.run_loop(Corrupted((4,)), np.random.default_rng(0), 1e-9, [inproc.NullTracer()])
    assert phase["attempted"] == 2
    assert phase["failed"] == 2
    assert "wigner_table" in phase["failures"][0]


def test_wrong_exit_code_counts_as_failure(tmp_path):
    out = tmp_path / "out"
    err = tmp_path / "err"
    out.write_text("")
    err.write_text("error: N must be even and >= 2\n")
    odd = clicmd.Command("malformed.odd-n", ["wigner", "--n", "5"], clicmd._expect_error(2))
    nan = clicmd.Command("malformed.sup-nan", ["wigner", "--n", "8"], clicmd._expect_error(2))
    records = [
        (odd, 2, 0.1, 30.0, out, err),  # documented result
        (odd, 1, 0.1, 30.0, out, err),  # wrong exit code
        (nan, 1, 0.1, 30.0, out, err),  # the known defect's exit code
    ]
    phase = clicmd._summarise(records)
    assert phase["attempted"] == 3
    assert phase["failed"] == 2
    assert phase["unexpected"] == 1


def test_reference_table_matches_the_trace_path():
    from dwigner.wigner import wigner_table

    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        rho = checks.random_mixed_density(n, rng)
        assert np.max(np.abs(checks.reference_table(rho) - wigner_table(rho))) < 1e-14
