"""Tests of the benchmark itself: each oracle accepts real CLI output and
rejects a slightly wrong one, a wrong exit code is a failure, and
BENCHMARK.json lists the metrics run.py reports.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
from workloads import Curve, Estimate, Qfi

ROOT = Path(__file__).resolve().parent.parent

# Small versions of the workloads' commands, so the suite takes seconds.
SMALL = {
    "fig3a": Curve("fig3a", 400),
    "fig3b": Curve("fig3b", 400),
    "qfi": Qfi(cutoff=40),
    "estimate": Estimate(cutoff=8, trials=2000, reps=3, seed=7),
}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """name -> (exit code, output files) of one real CLI run each."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = {}
    for name, cmd in SMALL.items():
        out = tmp_path_factory.mktemp(name)
        proc = subprocess.run(
            [sys.executable, "-m", "qfilab", *cmd.argv(str(out / cmd.out_name))],
            env=env, capture_output=True, timeout=120,
        )
        results[name] = proc.returncode, {p.name: p.read_bytes() for p in out.iterdir()}
    return results


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_output_passes(cli_runs, name):
    code, files = cli_runs[name]
    assert oracles.check(SMALL[name], code, files) == []


@pytest.mark.parametrize("field", ["fi", "truncated_qfi"])
def test_qfi_oracle_rejects_relative_error_1e6(cli_runs, field):
    code, files = cli_runs["qfi"]
    rep = json.loads(files["qfi.json"])
    target = rep if field == "fi" else rep["divergence"]
    target[field] *= 1.0 + 1e-6
    problems = oracles.check(SMALL["qfi"], code, {"qfi.json": json.dumps(rep).encode()})
    assert any(p.startswith(field) for p in problems)


@pytest.mark.parametrize("figure", ["fig3a", "fig3b"])
def test_curve_oracle_rejects_nonzero_row_past_crossing(cli_runs, figure):
    cmd = SMALL[figure]
    code, files = cli_runs[figure]
    lines = files[cmd.out_name].decode().split("\n")
    last = lines[-2].split(",")  # the sweep's last row lies past the crossing
    assert last[-1] == "0"
    last[-1] = "1e-3"
    lines[-2] = ",".join(last)
    perturbed = dict(files, **{cmd.out_name: "\n".join(lines).encode()})
    assert "nonzero bound at or past the crossing" in oracles.check(cmd, code, perturbed)


def test_curve_oracle_rejects_wrong_finite_row(cli_runs):
    cmd = SMALL["fig3a"]
    code, files = cli_runs["fig3a"]
    lines = files[cmd.out_name].decode().split("\n")
    row = lines[2].split(",")
    row[-1] = repr(float(row[-1]) * (1 + 1e-7))
    lines[2] = ",".join(row)
    perturbed = dict(files, **{cmd.out_name: "\n".join(lines).encode()})
    assert any("vs mpmath" in p for p in oracles.check(cmd, code, perturbed))


@pytest.mark.parametrize("shift", [1e-4, -1e-4])
def test_estimate_oracle_rejects_phi_hat_off_the_maximum(cli_runs, shift):
    cmd = SMALL["estimate"]
    code, files = cli_runs["estimate"]
    lines = files[cmd.out_name].decode().split("\n")
    run_line = json.loads(lines[1])
    run_line["phi_hat"] += shift  # still inside the window
    run_line["empirical_mse"] = (run_line["phi_hat"] - cmd.phi_true) ** 2
    lines[1] = json.dumps(run_line, separators=(",", ":"))
    problems = oracles.check(cmd, code, {cmd.out_name: "\n".join(lines).encode()})
    assert any("is not the maximum" in p for p in problems)


@pytest.mark.parametrize("name, code", [("qfi", 0), ("qfi", 2), ("estimate", 1), ("fig3a", 3)])
def test_wrong_exit_code_is_a_failure(cli_runs, name, code):
    _, files = cli_runs[name]
    assert oracles.check(SMALL[name], code, files) == [
        f"exit code {code}, expected {SMALL[name].expected_exit}"
    ]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.workloads.unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WHY)
