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
import warnings

import numpy as np

from .channels import KrausChannel
from .matrix_core import as_complex_matrix
from .wigner import _require_finite_table, table_dimension

FLOAT_FMT = "%.17g"


def table_to_csv_text(table) -> str:
    """CSV text of a table, each entry printed with ``FLOAT_FMT``.

    A table that obeys the sign rule W(q + N, p) = ±W(q, p) (and likewise
    in p) holds at most N^2 distinct magnitudes among its 4N^2 entries, so
    each magnitude is formatted once and every cell is looked up by its
    magnitude and sign bit.  ``"%.17g" % -x == "-" + "%.17g" % x`` for
    every x but NaN, which prints as ``nan`` whatever its sign bit, so the
    text is the per-value formatting of every entry, byte for byte.
    """
    w = np.asarray(table, dtype=float)
    table_dimension(w)
    magnitudes, inverse = np.unique(np.abs(w), return_inverse=True)
    m = len(magnitudes)
    cells = np.empty(2 * m, dtype=object)
    cells[:m] = [FLOAT_FMT % v for v in magnitudes.tolist()]
    cells[m:] = "-" + cells[:m]
    negative = np.signbit(w) & ~np.isnan(w)
    rows = cells[inverse.reshape(w.shape) + m * negative].tolist()
    return "".join([",".join(row) + "\n" for row in rows])


def table_from_csv_text(text: str) -> np.ndarray:
    with warnings.catch_warnings():
        # text without data rows (empty, blank or comments only) warns and
        # loads as an empty array, which the shape check rejects
        warnings.simplefilter("ignore", UserWarning)
        w = np.atleast_2d(np.loadtxt(_stdio.StringIO(text), delimiter=","))
    table_dimension(w)
    _require_finite_table(w)
    return w


def table_to_json_obj(table) -> dict:
    w = np.asarray(table, dtype=float)
    n = table_dimension(w)
    return {"n": n, "grid": "2N", "values": w.tolist()}


def _require_fields(obj, what: str, **types) -> None:
    """Check that a parsed JSON value is an object with each key of its type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(obj).__name__}")
    for key, kind in types.items():
        if key not in obj:
            raise ValueError(f"{what} JSON has no {key!r} key")
        value = obj[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                f"{what} JSON {key!r} must be a {kind.__name__}, got {type(value).__name__}"
            )


def _float_array(data, what: str) -> np.ndarray:
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be nested lists of numbers") from exc


def table_from_json_obj(obj) -> np.ndarray:
    _require_fields(obj, "table", n=int, values=list)
    w = _float_array(obj["values"], "table values")
    n = table_dimension(w)
    if obj["n"] != n:
        raise ValueError(f"declared n={obj['n']} does not match a {w.shape} table")
    if obj.get("grid", "2N") != "2N":
        raise ValueError(f"unsupported grid {obj.get('grid')!r}")
    _require_finite_table(w)
    return w


def _matrix_to_pairs(m: np.ndarray) -> list:
    """Nested [re, im] lists of a complex array, one pair per entry."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _matrix_from_pairs(rows) -> np.ndarray:
    data = _float_array(rows, "matrix entries")
    if data.ndim != 3 or data.shape[2] != 2:
        raise ValueError("matrix entries must be [re, im] pairs nested by rows")
    return data[..., 0] + 1j * data[..., 1]


def matrix_to_json_obj(m) -> dict:
    arr = as_complex_matrix(m)
    return {"n": arr.shape[0], "matrix": _matrix_to_pairs(arr)}


def matrix_from_json_obj(obj) -> np.ndarray:
    _require_fields(obj, "matrix", n=int, matrix=list)
    m = as_complex_matrix(_matrix_from_pairs(obj["matrix"]))
    if obj["n"] != m.shape[0]:
        raise ValueError(f"declared n={obj['n']} does not match a {m.shape} matrix")
    return m


def kraus_to_json_obj(channel: KrausChannel) -> dict:
    return {"n": channel.n, "kraus": [_matrix_to_pairs(v.reshape(-1)) for v in channel.kraus]}


def kraus_from_json_obj(obj) -> KrausChannel:
    _require_fields(obj, "Kraus", n=int, kraus=list)
    n = obj["n"]
    if n < 1:
        raise ValueError(f"Kraus JSON 'n' must be positive, got {n}")
    data = _float_array(obj["kraus"], "Kraus operators")
    if data.ndim != 3 or data.shape[1:] != (n * n, 2):
        raise ValueError(
            f"each Kraus operator must be a flat row-major list of {n * n} [re, im] pairs"
        )
    return KrausChannel((data[..., 0] + 1j * data[..., 1]).reshape(-1, n, n))


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace surprises."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_PIXEL_TEXT = np.array([str(v) for v in range(256)], dtype=object)


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
    lines.extend(" ".join(row) for row in _PIXEL_TEXT[pixels].tolist())
    return ("\n".join(lines) + "\n").encode("ascii")
