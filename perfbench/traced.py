"""Traced stand-in for one qfilab CLI invocation, in a fresh process.

Usage: python3 perfbench/traced.py <workload> <seed> <command index> <out dir>

Calls the public functions of qfilab's modules in the order the CLI does,
with a span around each layer's calls, and writes the same output files
the CLI would, so the caller can compare them byte for byte. Prints one
JSON object {"spans": {name: seconds}, "counts": {name: n}}. Nothing
inside qfilab is instrumented.

A layer the command never calls still gets an empty span, so its value
is the cost of the span itself (about a microsecond) and its counts are 0.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import qfilab
from qfilab import catalog, curves, estimation, fisher, fock

import workloads

CURVE_TOL = 1e-12  # the CLI's default --tol


class Trace:
    """Per-name span totals (seconds) and counts, kept in memory."""

    def __init__(self):
        self.spans = {}
        self.counts = dict.fromkeys(workloads.COUNTS, 0)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - start

    def add(self, name: str, n: int) -> None:
        self.counts[name] += int(n)


def _splitters(trace: Trace, state) -> None:
    """Build the splitter of every occupied sector cold, before any layer
    above fock asks for it."""
    sectors = state.occupied_sectors()
    with trace.span("fock.splitter_s"):
        mats = [fock.beamsplitter_matrix(n) for n in sectors]
    trace.add("fock.splitter_bytes", sum(m.nbytes for m in mats))
    trace.add("fock.sectors", len(sectors))
    trace.add("fock.max_dim", max(m.shape[0] for m in mats))


def run_curve(cmd: workloads.Curve, trace: Trace) -> dict[str, str]:
    x_min, x_max = cmd.x_range
    point_fn = curves.fig3a_point if cmd.figure == "fig3a" else curves.fig3b_point
    means = np.linspace(x_min, x_max, cmd.points)
    with trace.span("curves.point_s"):
        points = [point_fn(float(m), CURVE_TOL) for m in means]
    divergent_rows = [
        {"mean_n": p.mean_n, "columns": list(p.divergent_columns)}
        for p in points
        if p.divergent_columns
    ]
    trace.add("curves.points", len(points))
    trace.add("curves.divergent_rows", len(divergent_rows))
    with trace.span("curves.provenance_s"):
        crossing = curves.crossing_mean(cmd.scale, CURVE_TOL)
        trend = curves.truncated_mean_square_trend(3.0, [100, 1000, 10_000, 100_000], cmd.scale)

    columns = ["mean_n", *points[0].values]
    header = (
        f"# qfilab {qfilab.__version__} | {cmd.figure} | points={cmd.points} "
        f"x_min={x_min:.12g} x_max={x_max:.12g} tol={CURVE_TOL:g} cutoff=inf"
    )
    lines = [header, ",".join(columns)]
    lines += [",".join(f"{v:.12g}" for v in [p.mean_n, *p.values.values()]) for p in points]
    sidecar = {
        "figure": cmd.figure,
        "family": "zeta-weighted two-branch family"
        if cmd.figure == "fig3a"
        else "zeta-weighted doubled two-branch and equal-occupation families",
        "crossing_mean": crossing,
        "exponent_at_divergence": 3.0,
        "divergence": "second moment of the photon distribution grows without "
        "bound with the cutoff for weight exponents x <= 3",
        "mean_square_trend": [{"cutoff": k, "mean_square": v} for k, v in trend],
        "divergent_rows": divergent_rows,
    }
    return {
        cmd.out_name: "\n".join(lines) + "\n",
        cmd.out_name + ".provenance.json": json.dumps(sidecar, indent=1) + "\n",
    }


def run_qfi(cmd: workloads.Qfi, trace: Trace) -> dict[str, str]:
    with trace.span("catalog.state_s"):
        state, dist = catalog.zeta_noon(3.0, cmd.cutoff)
    trace.add("catalog.entries", len(state))
    _splitters(trace, state)  # MMZI: the source state is the pre-measurement state
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    with trace.span("fisher.scan_s"):
        scan = fisher.fi_scan(state, phis, "MMZI")
    dims = [n + 1 for n in state.occupied_sectors()]
    trace.add("fisher.scan_evals", phis.size * len(dims))
    trace.add("fisher.scan_amp_bytes", 2 * 16 * phis.size * sum(dims))  # out and dout
    with trace.span("fisher.qfi_s"):
        qfi = fisher.qfi_pure(state)
    best = int(np.argmax(scan))
    divergent = dist.mean_square.divergent
    report = fisher.FisherReport(
        phi=float(phis[best]), fi=float(scan[best]), qfi=qfi,
        povm="counting:na_nb", pipeline="MMZI", qfi_divergent=divergent,
    )
    payload = report.to_json_dict()
    payload["state"] = cmd.spec
    if divergent:
        payload["divergence"] = {
            "family": dist.family,
            "truncated_qfi": qfi,
            "truncated_crb": report.crb_single,
            "note": "family QFI grows without bound with the cutoff; "
            "CRB reported as exactly 0",
        }
    return {cmd.out_name: json.dumps(payload, indent=1) + "\n"}


def run_estimate(cmd: workloads.Estimate, trace: Trace) -> dict[str, str]:
    """The CLI's estimate loop with run_estimation unrolled: per repetition
    the same SeedSequence spawn key, sample, MLE, FI and period."""
    with trace.span("catalog.state_s"):
        state, _ = catalog.zeta_dual_fock(3.0, cmd.cutoff)
    trace.add("catalog.entries", len(state))
    _splitters(trace, state)  # the MZI's first splitter keeps every sector
    with trace.span("estimation.window_s"):
        window = estimation.default_window(state, cmd.phi_true, "MZI")
    lines = []
    for rep in range(cmd.reps):
        sub = np.random.SeedSequence(cmd.seed, spawn_key=(rep,))
        with trace.span("estimation.sample_s"):
            outcomes = estimation.sample_outcomes(state, cmd.phi_true, "MZI", cmd.trials, sub)
        with trace.span("estimation.mle_s"):
            phi_hat = estimation.mle_phase(outcomes, state, "MZI", window)
        with trace.span("fisher.fi_s"):
            fi = fisher.classical_fi(state, cmd.phi_true, "MZI").fi
        with trace.span("estimation.window_s"):
            period = estimation.likelihood_period(state, "MZI")
        trace.add("estimation.outcomes", len(outcomes))
        run = estimation.EstimationRun(
            phi_true=cmd.phi_true, m_trials=cmd.trials, seed=cmd.seed,
            repetition=rep, window=window, pipeline="MZI", outcomes=outcomes,
            phi_hat=phi_hat, empirical_mse=(phi_hat - cmd.phi_true) ** 2,
            crb_m=1.0 / (cmd.trials * fi) if fi > 1e-12 else None, period=period,
        )
        lines.append(run.to_json_line())
    return {cmd.out_name: "\n".join(lines) + "\n"}


RUNNERS = {"curve": run_curve, "qfi": run_qfi, "estimate": run_estimate}


def main(argv: list[str]) -> int:
    workload, seed, index, out_dir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    cmd = workloads.commands(workload, seed)[index]
    trace = Trace()
    outputs = RUNNERS[cmd.kind](cmd, trace)
    for name in workloads.SPANS:
        if name not in trace.spans:
            with trace.span(name):
                pass
    for name, text in outputs.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")
    print(json.dumps({"spans": trace.spans, "counts": trace.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
