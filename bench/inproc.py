"""Child process for the in-process workloads (``table-roundtrip``, ``dynamics``).

    python3 bench/inproc.py <workload> <seed> <seconds> <trace 0|1> <sizes>

Imports dwigner from the checkout's ``src/`` (PYTHONPATH), runs one warm-up
op at each N, prints ``ready`` and, unless ``seconds`` is 0, runs the closed
loop and prints one JSON line with the raw per-op latencies, failures and
(traced phase only) spans.  One client, no threads of its own.

The timed loop keeps each op's outputs and checks them in batches with the
clock paused, so checking costs no op time and memory stays bounded.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
from dwigner import channels, io, phase_space, wigner

import checks
from tracing import NullTracer, Tracer

CHECK_BATCH = 16


class TableRoundtrip:
    """wigner_table -> marginals -> CSV text and back -> reconstruct -> overlap."""

    def __init__(self, sizes):
        (self.n,) = sizes
        self.sizes = sizes

    def cycle(self, rng):
        """Alternate a random pure and a random full-rank mixed density."""
        return [checks.random_pure_density(self.n, rng), checks.random_mixed_density(self.n, rng)]

    def op(self, t, rho):
        table = t.call("wigner.wigner_table", wigner.wigner_table, rho)
        mx = t.call("wigner.marginal_position", wigner.marginal_position, table)
        mp = t.call("wigner.marginal_momentum", wigner.marginal_momentum, table)
        text = t.call("io.table_to_csv_text", io.table_to_csv_text, table)
        parsed = t.call("io.table_from_csv_text", io.table_from_csv_text, text)
        back = t.call("wigner.reconstruct", wigner.reconstruct, parsed)
        overlap = t.call("wigner.table_overlap", wigner.table_overlap, table, parsed)
        return table, mx, mp, back, overlap

    check = staticmethod(checks.check_roundtrip)


class Dynamics:
    """One session: table, propagator and 4 steps, reconstruct, channel, purity, report."""

    steps = 4
    kraus_terms = 3

    def __init__(self, sizes):
        self.sizes = sizes

    def cycle(self, rng):
        return [
            (
                checks.random_pure_density(n, rng),
                checks.random_unitary(n, rng),
                checks.random_kraus(n, self.kraus_terms, rng),
            )
            for n in self.sizes
        ]

    def op(self, t, inputs):
        rho, u, kraus = inputs
        channel = channels.KrausChannel(list(kraus))
        table = t.call("wigner.wigner_table", wigner.wigner_table, rho)
        propagator = t.call("channels.unitary_propagator", channels.unitary_propagator, u)
        for _ in range(self.steps):
            table = t.call("channels.PhasePropagator.apply", propagator.apply, table)
        rho_t = t.call("wigner.reconstruct", wigner.reconstruct, table)
        channel_table = t.call("channels.channel_wigner", channels.channel_wigner, channel, rho_t)
        purity = t.call("wigner.purity_residual", wigner.purity_residual, table)
        report = t.call("channels.adjoint_form_report", channels.adjoint_form_report, channel, rho_t)
        return table, rho_t, channel_table, purity, report

    check = staticmethod(checks.check_dynamics)


WORKLOADS = {"table-roundtrip": TableRoundtrip, "dynamics": Dynamics}


def run_loop(workload, rng, seconds, tracers):
    """Closed loop of whole input cycles until ``seconds`` of loop time have passed.

    Cycles go to the tracers in turn, so with an untraced and a traced tracer
    both halves see the same machine conditions.  Returns one phase per tracer.
    """
    phases = [
        {"attempted": 0, "failed": 0, "failures": [], "latencies": [], "elapsed": 0.0}
        for _ in tracers
    ]
    pending = []

    def drain():
        for phase, op_id, inputs, out in pending:
            errors = workload.check(inputs, out)
            if errors:
                phase["failed"] += 1
                phase["failures"].append(f"op {op_id}: " + "; ".join(errors))
        pending.clear()

    cycle = 0
    while sum(phase["elapsed"] for phase in phases) < seconds or cycle < len(tracers):
        phase, tracer = phases[cycle % len(tracers)], tracers[cycle % len(tracers)]
        segment = time.perf_counter()
        for inputs in workload.cycle(rng):
            op_id = phase["attempted"]
            phase["attempted"] += 1
            start = time.perf_counter()
            try:
                with tracer.op(op_id):
                    out = workload.op(tracer, inputs)
            except Exception as exc:  # an op that raises counts as failed, the loop goes on
                phase["failed"] += 1
                phase["failures"].append(f"op {op_id}: {type(exc).__name__}: {exc}")
                continue
            phase["latencies"].append(time.perf_counter() - start)
            pending.append((phase, op_id, inputs, out))
        phase["elapsed"] += time.perf_counter() - segment
        cycle += 1
        if len(pending) >= CHECK_BATCH:
            drain()
    drain()
    for phase in phases:
        phase["unexpected"] = phase["failed"]
        phase["failures"] = phase["failures"][:10]
    return phases


def main(argv) -> int:
    name, seed, seconds, trace, sizes = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workload = WORKLOADS[name](tuple(int(s) for s in sizes.split(",")))

    src = Path(__file__).resolve().parent.parent / "src" / "dwigner"
    if Path(wigner.__file__).resolve().parent != src:
        print(f"error: dwigner imported from {wigner.__file__}, not {src}", file=sys.stderr)
        return 2

    warm_tracer = Tracer() if trace else NullTracer()
    if trace:
        # Only the traced run calls this: the copy it returns would inflate the
        # peak RSS that the untraced run reports.
        for n in workload.sizes:
            for grid in ("full", "core"):
                warm_tracer.call("phase_space.point_operator_stack", phase_space.point_operator_stack, n, grid)
    warm_rng = np.random.default_rng([seed, 1])
    for inputs in workload.cycle(warm_rng)[: len(workload.sizes)]:
        workload.op(NullTracer(), inputs)
    print("ready", flush=True)
    if seconds <= 0:
        return 0

    rng = np.random.default_rng([seed, 0])
    if trace:
        untraced, traced = run_loop(workload, rng, seconds, [NullTracer(), warm_tracer])
        traced["spans"] = warm_tracer.spans
        result = {"untraced": untraced, "traced": traced}
    else:
        (untraced,) = run_loop(workload, rng, seconds, [NullTracer()])
        result = {"untraced": untraced}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
