"""File formats for Wigner tables, density matrices, and Kraus channels.

* Table CSV: 2N rows by 2N comma-separated columns, row index q, column
  index p, floats printed with 17 significant digits.  The reader checks
  the text first: when every cell outside the N x N core is, character
  for character, the sign-rule copy of its core cell (the same text, or
  that text with a leading ``-`` added or removed), and the core holds
  only characters ``%.17g`` prints for finite values with no cell
  starting with ``+``, it parses the N^2 core cells alone and extends
  them by the sign rule.  That costs a few string passes per line plus
  an N^2 ``np.loadtxt`` instead of the 4N^2 one.  Every other text
  (other spellings, spaces, comments, blank lines, CRLF, tables that
  break the sign rule, malformed input) gets the full 4N^2
  ``np.loadtxt`` parse, so the result or the error is the full parse's
  in every case.
* Table JSON: ``{"n": N, "grid": "2N", "values": [[...], ...]}``.
* Matrix JSON (densities, unitaries): ``{"n": N, "matrix": [[[re, im],
  ...], ...]}`` with one [re, im] pair per entry, nested by rows.
* Kraus JSON: ``{"n": N, "kraus": [flat row-major list of [re, im] pairs,
  ...]}``.
* PGM: 8-bit grayscale (plain P2), pixel 128 + round(127 * W / max|W|),
  so zero is mid-gray and negative values are darker.  A table with a
  NaN or infinite entry raises ValueError.
"""

from __future__ import annotations

import io as _stdio
import json
import warnings

import numpy as np

from .channels import KrausChannel
from .matrix_core import as_complex_matrix
from .wigner import _extend, _require_finite_table, table_dimension

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


def _sign_rule_table(text: str):
    """The table of a CSV whose outer cells copy its core, or None.

    Each top line q must be the core row A followed by A (q even) or its
    negation C (q odd), and each bottom line the alternating mix
    B = a0,-a1,a2,... followed by B (q even) or D = -a0,a1,-a2,... (q odd),
    the cells ``_extend`` puts there.  Negating a row is two replaces on
    its text, and the lines are compared whole.  Only then is the core
    parsed, and extended by the sign rule.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]
    n = len(lines) // 2
    if n == 0 or len(lines) != 2 * n:
        return None
    rows = []
    for q in range(n):
        cells = lines[q].split(",", n)
        if len(cells) != n + 1:
            return None
        rest = cells.pop()
        a = ",".join(cells)
        c = ("-" + a.replace(",", ",-")).replace("--", "")
        negated = c.split(",")
        mixed = negated[:]
        mixed[::2] = cells[::2]
        b = ",".join(mixed)
        if q % 2:
            negated[1::2] = cells[1::2]
            right, bottom = c, b + "," + ",".join(negated)
        else:
            right, bottom = a, b + "," + b
        if rest != right or lines[n + q] != bottom:
            return None
        rows.append(a)
    core = "\n".join(rows)
    # only characters "%.17g" prints for a finite float, and the separators
    if not core.isascii() or core.encode().translate(None, b"0123456789.e+-,\n"):
        return None
    if core.startswith("+") or ",+" in core or "\n+" in core:
        return None
    try:
        parsed = _load_csv(core)
    except ValueError:
        return None
    return _extend(parsed) if parsed.shape == (n, n) else None


def _load_csv(text: str) -> np.ndarray:
    with warnings.catch_warnings():
        # text without data rows (empty, blank or comments only) warns and
        # loads as an empty array, which the shape check rejects
        warnings.simplefilter("ignore", UserWarning)
        return np.atleast_2d(np.loadtxt(_stdio.StringIO(text), delimiter=","))


def table_from_csv_text(text: str) -> np.ndarray:
    """The table of a CSV text, bit for bit what ``np.loadtxt`` reads.

    A text whose outer cells are sign-rule copies of its core is read by
    parsing the core alone.  Any other text, or a core that does not load
    as N x N, is parsed whole, so its table or its error is the full
    parse's.
    """
    w = _sign_rule_table(text)
    if w is None:
        w = _load_csv(text)
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
    _require_finite_table(w)
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        pixels = np.full(w.shape, 128, dtype=int)
    else:
        pixels = 128 + np.rint(127.0 * w / peak).astype(int)
    pixels = np.clip(pixels, 0, 255)
    lines = ["P2", f"{w.shape[1]} {w.shape[0]}", "255"]
    lines.extend(" ".join(row) for row in _PIXEL_TEXT[pixels].tolist())
    return ("\n".join(lines) + "\n").encode("ascii")
