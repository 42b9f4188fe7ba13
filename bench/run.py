"""dwigner benchmark: one closed-loop workload per run against the checkout's src/.

    python3 bench/run.py --workload table-roundtrip --seed 1 --seconds 30 --trace 0

Workloads: ``table-roundtrip``, ``dynamics`` and ``cli`` (see bench/README.md),
or ``all`` to run the three in turn.  With ``--trace 0`` the run prints the
end-to-end metrics.  With ``--trace 1`` it hands the loop's cycles to an
untraced and a traced side in turn, prints the per-layer metrics, including
``trace.overhead``, and writes the spans to
``.bench_out/trace-<workload>-<seed>.json``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import children
import clicmd
from tracing import layer_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SIZES = {"table-roundtrip": (32,), "dynamics": (4, 6, 8), "cli": (32, 8, 6)}
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
# Module functions the in-process workloads call, traced as <name>.<stat>.
LAYER_FUNCTIONS = (
    "phase_space.point_operator_stack",
    "wigner.wigner_table",
    "wigner.reconstruct",
    "io.table_to_csv_text",
    "io.table_from_csv_text",
    "wigner.marginal_position",
    "wigner.marginal_momentum",
    "wigner.table_overlap",
    "wigner.purity_residual",
    "channels.adjoint_form_report",
    "channels.unitary_propagator",
    "channels.PhasePropagator.apply",
    "channels.channel_wigner",
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The tail percentile each workload reports: the highest with at least ten
# samples beyond it at the op counts the package gave when the benchmark was
# defined.  Fixing it keeps runs comparable when op counts change.
TAIL = {"table-roundtrip": 95.0, "dynamics": 90.0, "cli": 75.0}


def tail_percentile(latencies, preferred):
    """``preferred``, or failing that the highest percentile with ten samples beyond it."""
    n = len(latencies)
    for p in (preferred,) + tuple(p for p in TAIL_PERCENTILES if p < preferred):
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g}", float(np.percentile(latencies, p))
    return "max", float(max(latencies))


def run_inproc(name, seed, seconds, trace, sizes):
    """The loop in a fresh child, with set-up samples in fresh children around it.

    Set-up samples are taken before and after the loop, so that their median
    spans the run rather than one moment of it.
    """
    argv = [sys.executable, str(BENCH / "inproc.py"), name, str(seed), "0", "1" if trace else "0"]
    argv.append(",".join(str(n) for n in sizes))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = 1 if trace else SETUP_SAMPLES
    setup, payload, rss_mb = [], b"", 0.0
    for i in range(samples):
        work = i == samples // 2
        argv[4] = str(seconds) if work else "0"
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            with children.deadline(SETUP_TIMEOUT_S + (2 * seconds if work else 0)):
                ready = proc.stdout.readline()
                setup.append(time.perf_counter() - start)
                out = proc.stdout.read()
                code, rss = children.reap(proc)
        finally:
            proc.stdout.close()
            children.kill(proc)
        if code != 0 or ready != b"ready\n":
            raise RuntimeError(f"{name} child exited {code} (first line {ready[:200]!r})")
        if work:
            payload, rss_mb = out, rss
    result = json.loads(payload)
    result["setup_samples"] = setup
    result["peak_rss_mb"] = rss_mb
    return result


def run_cli(seed, seconds, trace, sizes):
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        return clicmd.run(workdir, SRC, seed, seconds, trace, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name, seed, seconds, trace, sizes=None):
    sizes = sizes or SIZES[name]
    if name == "cli":
        return run_cli(seed, seconds, trace, sizes)
    return run_inproc(name, seed, seconds, trace, sizes)


def end_to_end(name, result):
    phase = result["untraced"]
    latencies = phase["latencies"]
    label, tail = tail_percentile(latencies, TAIL[name])
    metrics = {
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "ops_per_s": (len(latencies) / phase["elapsed"], "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} set-ups",
        "op_tail_ms": f"{label} of {len(latencies)} ops",
    }
    return metrics, notes


def per_layer(result):
    traced = result["traced"]
    metrics = layer_stats(traced["spans"], LAYER_FUNCTIONS, traced["elapsed"])
    cli = result.get("layer", {})
    metrics["cli.cold_start_ms"] = cli.get("cli.cold_start_ms", (0.0, "ms"))
    for sub in clicmd.SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = cli.get(f"cli.{sub}.p50_ms", (0.0, "ms"))
        metrics[f"cli.{sub}.peak_rss_mb"] = cli.get(f"cli.{sub}.peak_rss_mb", (0.0, "MB"))
    untraced_rate = len(result["untraced"]["latencies"]) / result["untraced"]["elapsed"]
    traced_rate = len(traced["latencies"]) / traced["elapsed"]
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
    return metrics


def environment(sizes):
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dwigner").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "dense_stack_bytes_computed": {str(n): 4 * n**4 * 16 for n in sizes},
    }


def blas_threads():
    """Threads OpenBLAS uses in this process, or None where it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def report(name, seed, trace, result, env):
    """Print one workload's figures; return its result object (the last stdout line)."""
    phases = [result[key] for key in ("untraced", "traced") if key in result]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    unexpected = sum(p["unexpected"] for p in phases)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{name} seed={seed} trace={int(trace)}: {attempted} ops attempted, {failed} failed")
    if trace:
        metrics, notes = per_layer(result), {}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-{seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "env": env,
                    "workload": name,
                    "seed": seed,
                    "span_fields": ["id", "name", "start", "end", "parent", "op", "ok"],
                    "spans": result["traced"]["spans"],
                    "metrics": metrics,
                }
            )
        )
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(name, result)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<44} {value:>14.6g} {unit:<6} {notes.get(metric, '')}".rstrip())
    if not trace:
        # error_rate is failed/attempted; the result object carries it as those two counts.
        print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio  {failed}/{attempted} ops")
    for phase in phases:
        for message in phase["failures"]:
            print(f"failure: {message}")
    return {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(SIZES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dwigner" / "__init__.py").is_file():
        print(f"error: no dwigner package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dwigner

    if Path(dwigner.__file__).resolve().parent != SRC / "dwigner":
        print(f"error: dwigner imported from {dwigner.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(SIZES) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, args.trace, result, environment(SIZES[name]))
    if len(results) == 1:
        (line,) = results.values()
    else:
        # One object for all workloads, each metric prefixed with its workload.
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
