"""File formats for Wigner tables, density matrices, and Kraus channels.

* Table CSV: 2N rows by 2N comma-separated columns, row index q, column
  index p, floats printed with 17 significant digits.
* Table JSON: ``{"n": N, "grid": "2N", "values": [[...], ...]}``.
* Matrix JSON (densities, unitaries): ``{"n": N, "matrix": [[[re, im],
  ...], ...]}`` with one [re, im] pair per entry, nested by rows.
* Kraus JSON: ``{"n": N, "kraus": [flat row-major list of [re, im] pairs,
  ...]}``.
* PGM: 8-bit grayscale (plain P2), pixel 128 + round(127 * W / max|W|),
  so zero is mid-gray and negative values are darker.
"""

from __future__ import annotations

import io as _stdio
import json

import numpy as np

from .channels import KrausChannel
from .wigner import table_dimension

FLOAT_FMT = "%.17g"


def table_to_csv_text(table) -> str:
    w = np.asarray(table, dtype=float)
    table_dimension(w)
    row_fmt = ",".join([FLOAT_FMT] * w.shape[1])
    return "".join([row_fmt % tuple(row) + "\n" for row in w.tolist()])


def _require_finite(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise ValueError("table entries must be finite")


def table_from_csv_text(text: str) -> np.ndarray:
    w = np.atleast_2d(np.loadtxt(_stdio.StringIO(text), delimiter=","))
    table_dimension(w)
    _require_finite(w)
    return w


def table_to_json_obj(table) -> dict:
    w = np.asarray(table, dtype=float)
    n = table_dimension(w)
    return {"n": n, "grid": "2N", "values": [[float(v) for v in row] for row in w]}


def table_from_json_obj(obj) -> np.ndarray:
    w = np.asarray(obj["values"], dtype=float)
    n = table_dimension(w)
    if int(obj["n"]) != n:
        raise ValueError(f"declared n={obj['n']} does not match a {w.shape} table")
    if obj.get("grid", "2N") != "2N":
        raise ValueError(f"unsupported grid {obj.get('grid')!r}")
    _require_finite(w)
    return w


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_pairs(rows) -> np.ndarray:
    data = np.asarray(rows, dtype=float)
    if data.ndim != 3 or data.shape[2] != 2:
        raise ValueError("matrix entries must be [re, im] pairs nested by rows")
    return data[..., 0] + 1j * data[..., 1]


def matrix_to_json_obj(m) -> dict:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return {"n": arr.shape[0], "matrix": _matrix_to_pairs(arr)}


def matrix_from_json_obj(obj) -> np.ndarray:
    m = _matrix_from_pairs(obj["matrix"])
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if int(obj["n"]) != m.shape[0]:
        raise ValueError(f"declared n={obj['n']} does not match a {m.shape} matrix")
    return m


def kraus_to_json_obj(channel: KrausChannel) -> dict:
    ops = []
    for v in channel.kraus:
        flat = v.reshape(-1)
        ops.append([[float(x.real), float(x.imag)] for x in flat])
    return {"n": channel.n, "kraus": ops}


def kraus_from_json_obj(obj) -> KrausChannel:
    n = int(obj["n"])
    ops = []
    for flat in obj["kraus"]:
        data = np.asarray(flat, dtype=float)
        if data.ndim != 2 or data.shape != (n * n, 2):
            raise ValueError(
                f"each Kraus operator must be a flat row-major list of {n * n} [re, im] pairs"
            )
        ops.append((data[:, 0] + 1j * data[:, 1]).reshape(n, n))
    return KrausChannel(ops)


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace surprises."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def table_to_pgm_bytes(table) -> bytes:
    w = np.asarray(table, dtype=float)
    table_dimension(w)
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        pixels = np.full(w.shape, 128, dtype=int)
    else:
        pixels = 128 + np.rint(127.0 * w / peak).astype(int)
    pixels = np.clip(pixels, 0, 255)
    lines = ["P2", f"{w.shape[1]} {w.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    return ("\n".join(lines) + "\n").encode("ascii")
