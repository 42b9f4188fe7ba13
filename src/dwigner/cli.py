"""Command-line interface.

Subcommands: ``wigner`` (table of a state), ``marginals``, ``evolve``
(steps of a unitary U, applied to the table as the one-term channel {U}),
``channel`` (one Kraus-channel application), ``reconstruct`` (table back
to a density matrix), and ``verify`` (the seeded invariant suite).

States are given as ``ket:<q0>``, ``sup:<q0>,<q1>,<phi-radians>``, or
``file:<path>`` pointing at a density-matrix JSON file; unitary and Kraus
files are ``file:<path>`` too (a Kraus file may also be a bare path).
Exit codes: 0 success, 1 invariant failure, 2 input error, 3 consistency
error.  ``main`` is the one place that maps an exception to an exit code:
``InconsistentTableError`` and ``NonHermitianResultError`` exit 3, and
every other library validation error (a ``ValueError``, or an
``IndexError`` for a basis index), every unreadable or unwritable path
(an ``OSError``) and an N too large for the available memory (a
``MemoryError``) exits 2, each with one ``error:`` line on stderr.

The environment variable ``DWIGNER_TOL`` scales every input-validation
tolerance by a finite positive factor (default 1); computational
tolerances used by the verification checks are not affected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import KrausChannel, apply_channel
from .io import (
    FLOAT_FMT,
    dump_json,
    kraus_from_json_obj,
    matrix_from_json_obj,
    matrix_to_json_obj,
    table_from_csv_text,
    table_from_json_obj,
    table_to_csv_text,
    table_to_json_obj,
    table_to_pgm_bytes,
)
from .matrix_core import validate_density, validate_unitary
from .phase_space import fourier_matrix
from .wigner import (
    InconsistentTableError,
    NonHermitianResultError,
    _require_even,
    basis_state,
    density_from_state,
    marginal_momentum,
    marginal_position,
    reconstruct,
    superposition_state,
    wigner_table,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3


class InputError(ValueError):
    """Bad command-line syntax: a spec, an option value, or a file of the wrong N."""


def _tol_factor() -> float:
    raw = os.environ.get("DWIGNER_TOL")
    if raw is None:
        return 1.0
    try:
        factor = float(raw)
    except ValueError as exc:
        raise InputError(f"DWIGNER_TOL must be a number, got {raw!r}") from exc
    if not (math.isfinite(factor) and factor > 0):
        raise InputError(f"DWIGNER_TOL must be finite and positive, got {factor}")
    return factor


def _parse_state(spec: str, n: int, tol_factor: float) -> np.ndarray:
    """Density matrix from a state spec string."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise InputError(f"malformed state spec {spec!r}")
    if kind == "ket":
        try:
            q0 = int(rest)
        except ValueError as exc:
            raise InputError(f"malformed ket spec {spec!r}") from exc
        return density_from_state(basis_state(q0, n))
    if kind == "sup":
        parts = rest.split(",")
        if len(parts) != 3:
            raise InputError(f"sup spec needs q0,q1,phi; got {spec!r}")
        try:
            q0, q1 = int(parts[0]), int(parts[1])
            phi = float(parts[2])
        except ValueError as exc:
            raise InputError(f"malformed sup spec {spec!r}") from exc
        if not math.isfinite(phi):
            raise InputError(f"sup phase must be finite, got {parts[2]!r}")
        return density_from_state(superposition_state(q0, q1, phi, n))
    if kind == "file":
        return _load_json_file(
            "density",
            spec,
            n,
            lambda obj: validate_density(
                matrix_from_json_obj(obj),
                herm_tol=1e-12 * tol_factor,
                trace_tol=1e-12 * tol_factor,
                psd_tol=1e-10 * tol_factor,
            ),
        )
    raise InputError(f"unknown state kind {kind!r} (use ket:, sup:, or file:)")


def _load(path: str, parse):
    """``parse`` applied to the UTF-8 text of a file; any failure names the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot use file {path!r}: {exc}") from exc


def _load_json_file(kind: str, spec: str, n: int, parse):
    """``parse`` of the JSON in a ``kind`` file ``[file:]<path>``: matrix or channel, N = ``n``."""
    value = _load(spec.removeprefix("file:"), lambda text: parse(json.loads(text)))
    size = value.n if isinstance(value, KrausChannel) else value.shape[0]
    if size != n:
        raise InputError(f"{kind} file has N={size}, expected {n}")
    return value


def _write_bytes(data: bytes, output: str | None) -> None:
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()


def _render_table(table, fmt: str) -> bytes:
    if fmt == "csv":
        return table_to_csv_text(table).encode("ascii")
    if fmt == "json":
        return dump_json(table_to_json_obj(table)).encode("ascii")
    return table_to_pgm_bytes(table)


def _fmt_vector(values) -> str:
    return " ".join(FLOAT_FMT % v for v in values)


def cmd_wigner(args, tol_factor: float) -> int:
    _require_even(args.n)
    rho = _parse_state(args.state, args.n, tol_factor)
    table = wigner_table(rho, imag_tol=1e-10 * tol_factor)
    _write_bytes(_render_table(table, args.format), args.output)
    print(f"sum {FLOAT_FMT % table.sum()}")
    print(f"position {_fmt_vector(marginal_position(table))}")
    print(f"momentum {_fmt_vector(marginal_momentum(table))}")
    return EXIT_OK


def cmd_marginals(args, tol_factor: float) -> int:
    _require_even(args.n)
    rho = _parse_state(args.state, args.n, tol_factor)
    table = wigner_table(rho, imag_tol=1e-10 * tol_factor)
    print(f"position {_fmt_vector(marginal_position(table))}")
    print(f"momentum {_fmt_vector(marginal_momentum(table))}")
    return EXIT_OK


def _load_unitary(spec: str, n: int, tol_factor: float) -> np.ndarray:
    if spec == "fourier":
        return fourier_matrix(n)
    if spec == "identity":
        return np.eye(n, dtype=complex)
    if spec.startswith("file:"):
        return _load_json_file(
            "unitary",
            spec,
            n,
            lambda obj: validate_unitary(matrix_from_json_obj(obj), tol=1e-12 * tol_factor),
        )
    raise InputError(f"unknown unitary {spec!r} (use fourier, identity, or file:<path>)")


def cmd_evolve(args, tol_factor: float) -> int:
    _require_even(args.n)
    if args.steps < 1:
        raise InputError(f"steps must be positive, got {args.steps}")
    rho = _parse_state(args.state, args.n, tol_factor)
    # not unitary_propagator: its fixed 1e-12 would undo DWIGNER_TOL's scaling
    propagator = KrausChannel([_load_unitary(args.unitary, args.n, tol_factor)])
    table = wigner_table(rho, imag_tol=1e-10 * tol_factor)
    for _ in range(args.steps):
        table = propagator.apply(table, completeness_tol=1e-8 * tol_factor)
    _write_bytes(_render_table(table, args.format), args.output)
    return EXIT_OK


def cmd_channel(args, tol_factor: float) -> int:
    _require_even(args.n)
    rho = _parse_state(args.state, args.n, tol_factor)
    channel = _load_json_file("Kraus", args.kraus, args.n, kraus_from_json_obj)
    # not channel_wigner: its fixed imag_tol would undo DWIGNER_TOL's scaling
    out_rho = apply_channel(channel, rho, completeness_tol=1e-8 * tol_factor)
    table = wigner_table(out_rho, imag_tol=1e-10 * tol_factor)
    _write_bytes(_render_table(table, args.format), args.output)
    return EXIT_OK


def cmd_reconstruct(args, tol_factor: float) -> int:
    if Path(args.input).suffix.lower() == ".json":
        table = _load(args.input, lambda text: table_from_json_obj(json.loads(text)))
    else:
        table = _load(args.input, table_from_csv_text)
    rho = reconstruct(table, symmetry_tol=1e-8 * tol_factor)
    _write_bytes(dump_json(matrix_to_json_obj(rho)).encode("ascii"), args.output)
    return EXIT_OK


def cmd_verify(args, tol_factor: float) -> int:
    # the oracle modules load only here, so the other commands start without them
    from .verify import run_checks

    if args.seed < 0:
        raise InputError(f"seed must be nonnegative, got {args.seed}")
    outcomes = run_checks(args.n, seed=args.seed)
    width = max(len(o.name) for o in outcomes)
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"check {outcome.name:<{width}}  {status}  {outcome.detail}")
    failed = [o for o in outcomes if not o.passed]
    print(
        f"verify: {len(outcomes) - len(failed)}/{len(outcomes)} checks passed "
        f"(n={args.n}, seed={args.seed})"
    )
    if failed:
        print(f"verify: first failure at {failed[0].name}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwigner",
        description="Discrete Wigner tables on the 2Nx2N phase-space lattice.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        p.add_argument("--n", type=int, required=True, help="Hilbert dimension (even)")
        p.add_argument(
            "--state",
            required=True,
            help="ket:<q0> | sup:<q0>,<q1>,<phi> | file:<density.json>",
        )

    def add_output_args(p):
        p.add_argument("--format", choices=("csv", "json", "pgm"), default="csv")
        p.add_argument("--output", help="output path (default: stdout)")

    p = sub.add_parser("wigner", help="Wigner table of a state")
    add_state_args(p)
    add_output_args(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("marginals", help="position and momentum marginals of a state")
    add_state_args(p)
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("evolve", help="apply a unitary via the phase-space propagator")
    add_state_args(p)
    p.add_argument(
        "--unitary",
        required=True,
        help="fourier | identity | file:<matrix.json>",
    )
    p.add_argument("--steps", type=int, default=1)
    add_output_args(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("channel", help="apply a Kraus channel once")
    add_state_args(p)
    p.add_argument("--kraus", required=True, help="file:<kraus.json> | <kraus.json>")
    add_output_args(p)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("reconstruct", help="density matrix from a Wigner table file")
    p.add_argument("--input", required=True, help="table file (.csv or .json)")
    p.add_argument("--output", help="output path for the density JSON (default: stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    p.add_argument("--n", type=int, required=True, help="Hilbert dimension (even)")
    p.add_argument("--seed", type=int, default=0, help="nonnegative generator seed")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # residuals of huge finite entries overflow to inf or NaN, which the
        # tolerance tests reject with the one error line below
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, _tol_factor())
    except (InconsistentTableError, NonHermitianResultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        at_n = f" at N={args.n}" if hasattr(args, "n") else ""
        print(f"error: out of memory{at_n}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
