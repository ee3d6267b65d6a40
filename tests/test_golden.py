"""CLI outputs pinned to files under tests/golden.

Outcome histograms, strings and exit codes must match exactly; floats
agree to 1e-12 relative, so a change in summation order passes and a
change in the numbers does not. The estimate outputs are also pinned
byte for byte: their draws and their windowed MLE are deterministic, so a
change that reorganizes the same arithmetic must not move a bit. Bits
move only with a new route to the numbers, in a change of its own that
follows oracle tests of that route (dense expm splitters, mpmath, closed
forms) and lists every old and new value in CHANGES.md; a histogram,
window or period never moves, and phi_hat only within the likelihood's
rounding band, which the dense-oracle test below checks. The MZI
estimate goldens moved so when their sectors, all single inputs |J,J>,
left the first splitter and the phase kernel for the rotation; the 1e-12
golden and its byte-exact twin (*.exact.jsonl, kept apart since an
earlier FI reordering moved the 1e-12 golden's crb_m by 2e-16) now hold
the same bytes. Their phi_hat moved again, by at most 1.1e-8, when the
golden-section refinement gave way to zoomed grids, and each line gained
its window_edge flag. The qfi report of the benchmark's
headline command is pinned byte for byte too, as are the fig3a/fig3b CSVs
at 200 points with their provenance sidecars, and so are the CLI's fixed
texts (cli_text.json): `catalog list`, every --help at COLUMNS=80, the
usage errors, and the stderr and exit code of malformed catalog URIs.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qfilab import dual_fock, fi_scan, likelihood, qfi_pure, sector_decompose, zeta_dual_fock, zeta_noon
from qfilab.cli import main
from qfilab.fisher import premeasurement_state
from sector_operators import counting_probabilities

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("qfi_zeta_noon_3_40.json", ["qfi", "catalog:zeta_noon:3:40"], 3),
    ("qfi_dual_fock_5_mzi.json", ["qfi", "catalog:dual_fock:5", "--pipeline", "MZI"], 0),
    (
        "fi_scan_zeta_dual_fock_3_20_mzi.csv",
        ["fi-scan", "catalog:zeta_dual_fock:3:20", "--pipeline", "MZI", "--points", "101"],
        0,
    ),
    (
        "estimate_zeta_dual_fock_3_8_mzi.jsonl",
        ["estimate", "catalog:zeta_dual_fock:3:8", "--pipeline", "MZI", "--phi-true", "0.3",
         "--trials", "2000", "--reps", "3", "--seed", "7"],
        0,
    ),
]


BYTE_EXACT = [
    ("qfi_zeta_noon_3_300.json", ["qfi", "catalog:zeta_noon:3:300"], 3),
    ("estimate_zeta_dual_fock_3_8_mzi.exact.jsonl",) + CASES[3][1:],
    (
        "estimate_zeta_dual_fock_3_30_mzi.jsonl",
        ["estimate", "catalog:zeta_dual_fock:3:30", "--pipeline", "MZI", "--phi-true", "0.3",
         "--trials", "10000", "--reps", "10", "--seed", "1"],
        0,
    ),
    ("fig3a_200.csv", ["fig3a", "--points", "200"], 0),
    ("fig3b_200.csv", ["fig3b", "--points", "200"], 0),
]

# more records than one MLE chunk holds, so the grouping of records into
# chunks is pinned, on rotation sectors via MZI and on the phase kernel; at
# 200 trials some estimates sit on a window edge, which the dense-oracle
# test below checks against the window's grid points only
CHUNKED = [
    (
        "estimate_zeta_dual_fock_3_8_mzi_130reps.jsonl",
        ["estimate", "catalog:zeta_dual_fock:3:8", "--pipeline", "MZI", "--phi-true", "0.3",
         "--trials", "200", "--reps", "130", "--seed", "5"],
        0,
    ),
    (
        "estimate_zeta_noon_3_40_130reps.jsonl",
        ["estimate", "catalog:zeta_noon:3:40", "--phi-true", "0.3",
         "--trials", "200", "--reps", "130", "--seed", "5"],
        0,
    ),
]

# the curve goldens also pin the provenance sidecar written next to the CSV
SIDECARS = [c for c in BYTE_EXACT if (GOLDEN / f"{c[0]}.provenance.json").exists()]


def assert_matches(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def parse(name, text):
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    # CSV: compare the column line and the data rows; the '#' header
    # records flags and is covered by the CLI tests
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [lines[0].split(",")] + [[float(v) for v in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    want = parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    assert_matches(parse(name, out.read_text(encoding="utf-8")), want)


@pytest.mark.parametrize("name,argv,code", BYTE_EXACT + CHUNKED, ids=[c[0] for c in BYTE_EXACT + CHUNKED])
def test_estimate_output_is_byte_identical_to_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv,code", SIDECARS, ids=[c[0] for c in SIDECARS])
def test_curve_sidecar_is_byte_identical_to_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    sidecar = f"{name}.provenance.json"
    assert (tmp_path / sidecar).read_bytes() == (GOLDEN / sidecar).read_bytes()


TEXT_CASES = json.loads((GOLDEN / "cli_text.json").read_text(encoding="utf-8"))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors leave through argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", TEXT_CASES, ids=[" ".join(c["argv"]) or "<none>" for c in TEXT_CASES])
def test_cli_text_is_byte_identical_to_golden(case, monkeypatch):
    # argparse words its help and usage per Python version; these were
    # recorded with Python 3.11
    if "--help" in case["argv"] or case["code"] == 2 and "usage:" in case["stderr"]:
        if sys.version_info[:2] != (3, 11):
            pytest.skip("argparse text recorded with Python 3.11")
    monkeypatch.setenv("COLUMNS", "80")
    assert _run_captured(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def _reference_loglik(state, pipeline, outcomes, phi):
    probs = likelihood(state, phi, pipeline)
    return math.fsum(count * math.log(probs[key]) for key, count in outcomes.items())


def test_estimate_golden_phi_hat_attains_the_likelihood_maximum(tmp_path):
    # The log-likelihood is flat to rounding over a few 1e-8 around its peak,
    # so phi_hat is resolved to that band, not to the refinement tolerance
    # of the zoomed grids: it must score within a few ulps of |ll| of the
    # best point on a 1e-9 grid of +-1e-7, summed independently from
    # likelihood().
    name, argv, code = CASES[3]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    state, _ = zeta_dual_fock(3.0, 8)
    for run in parse(name, out.read_text(encoding="utf-8")):
        outcomes = {
            tuple(int(v) for v in key.split(",")): count
            for key, count in run["outcomes"].items()
        }
        phi_hat = run["phi_hat"]
        grid = [
            _reference_loglik(state, "MZI", outcomes, phi)
            for phi in np.linspace(phi_hat - 1e-7, phi_hat + 1e-7, 201)
        ]
        hat = _reference_loglik(state, "MZI", outcomes, phi_hat)
        assert hat >= max(grid) - 8 * np.finfo(float).eps * abs(hat)
        # the band is narrow: 1e-7 off the peak is already far below it
        assert min(grid[0], grid[-1]) < hat - 64 * np.finfo(float).eps * abs(hat)


ESTIMATE_GOLDENS = [c[:2] for c in CASES + BYTE_EXACT + CHUNKED if c[0].startswith("estimate_")]


@pytest.mark.parametrize("name,argv", ESTIMATE_GOLDENS, ids=[c[0] for c in ESTIMATE_GOLDENS])
def test_estimate_golden_agrees_with_dense_oracles(name, argv):
    # The golden files themselves, against oracles that share no code with
    # the library's splitter or kernel: phi_hat maximizes an expm likelihood
    # to rounding on a 1e-9 grid of +-1e-7 (+-2e-7 below FI = 4) clipped to
    # the window, and crb_m
    # is 1/(M * FI) with FI = sum P_N FI_N over the sectors, FI_N the
    # counting FI 2J(J+1) of |J,J> via MZI at every phase, or N^2 of an
    # equal-weight N00N sector via MMZI. On a window_edge line the window,
    # not the data, set phi_hat, so it need only score at least as well as
    # every in-window grid point.
    family, _, cutoff = argv[1].split(":")[1:]
    cutoff, pipeline = int(cutoff), "MZI" if "MZI" in argv else "MMZI"
    if family == "zeta_dual_fock":
        state, spread, fi_n = zeta_dual_fock(3.0, cutoff)[0], 2 * cutoff, lambda n: n * (n // 2 + 1)
    else:
        state, spread, fi_n = zeta_noon(3.0, cutoff)[0], cutoff, lambda n: n * n
    fi = math.fsum(c.probability * fi_n(c.n_total) for c in sector_decompose(state))
    period = 2.0 * math.pi / spread  # 2 pi over the largest n_a spread
    # the log-likelihood falls by M FI d^2 / 2 at d off its peak, against
    # rounding of order M, so its band narrows like 1/sqrt(FI): about 1e-7
    # wide at FI = 4, where the grid's reach of 1e-7 is doubled
    reach = math.ceil(math.sqrt(4.0 / fi))
    for run in parse(name, (GOLDEN / name).read_text(encoding="utf-8")):
        assert run["pipeline"] == pipeline
        assert math.isclose(run["period"], period, rel_tol=1e-15)
        lo, hi = run["window"]
        assert np.allclose([lo, hi], [0.3 - period / 8, 0.3 + period / 8], rtol=1e-15, atol=0)
        assert math.isclose(run["crb_m"], 1.0 / (run["m_trials"] * fi), rel_tol=1e-15)
        assert run["empirical_mse"] == (run["phi_hat"] - run["phi_true"]) ** 2
        phi_hat = run["phi_hat"]
        assert lo <= phi_hat <= hi
        phis = np.linspace(phi_hat - 1e-7 * reach, phi_hat + 1e-7 * reach, 200 * reach + 1)
        phis = np.append(np.clip(phis, lo, hi), phi_hat)
        outcomes = {tuple(int(v) for v in key.split(",")): count for key, count in run["outcomes"].items()}
        probs = counting_probabilities(state, phis, pipeline, outcomes)
        terms = [count * np.log(probs[key]) for key, count in outcomes.items()]
        *grid, hat = (math.fsum(col) for col in np.array(terms).T)
        assert hat >= max(grid) - 8 * np.finfo(float).eps * abs(hat)
        if not run["window_edge"]:
            assert min(grid[0], grid[-1]) < hat - 64 * np.finfo(float).eps * abs(hat)


def test_dual_fock_mzi_golden_is_flat_at_the_quantum_limit(tmp_path):
    # |N,N> through an MZI: the counting FI equals the QFI 2N(N+1) at every
    # phase, so the golden's phi is any point of the grid and fi and qfi are
    # 60 up to rounding
    n = 5
    bound = 2 * n * (n + 1)
    pre = premeasurement_state(dual_fock(n), "MZI")
    assert abs(qfi_pure(pre) / bound - 1.0) <= 1e-15
    scan = fi_scan(dual_fock(n), np.linspace(0.0, 2.0 * math.pi, 181), "MZI")
    assert np.abs(scan / bound - 1.0).max() <= 1e-13
    out = tmp_path / "qfi.json"
    assert main(["qfi", "catalog:dual_fock:5", "--pipeline", "MZI", "--out", str(out)]) == 0
    for report in (json.loads(out.read_text()), json.loads((GOLDEN / "qfi_dual_fock_5_mzi.json").read_text())):
        assert abs(report["qfi"] / bound - 1.0) <= 1e-15
        assert abs(report["fi"] / bound - 1.0) <= 1e-13
        assert report["phi"] in np.linspace(0.0, 2.0 * math.pi, 181).tolist()


@pytest.mark.parametrize("cutoff", [40, 300, 1000])
def test_zeta_noon_qfi_fi_equals_the_mpmath_second_moment(tmp_path, cutoff):
    # the oracles behind the qfi_zeta_noon goldens: every sector is an
    # equal-weight two-branch state, whose counting FI is N^2 at every
    # phase, so the FI is <N^2> = sum 1/N / sum 1/N^3 over N <= K, and the
    # scan is exactly flat (test_fisher pins its bits), so the reported phi
    # is the first phase, 0.0
    out = tmp_path / "qfi.json"
    assert main(["qfi", f"catalog:zeta_noon:3:{cutoff}", "--out", str(out)]) == 3
    report = json.loads(out.read_text(encoding="utf-8"))
    with mpmath.workdps(50):
        n = [mpmath.mpf(k) for k in range(1, cutoff + 1)]
        expected = float(mpmath.fsum(1 / k for k in n) / mpmath.fsum(k**-3 for k in n))
    assert math.isclose(report["fi"], expected, rel_tol=1e-14, abs_tol=0.0)
    assert report["divergence"]["truncated_crb"] == 1.0 / math.sqrt(report["fi"])
    assert report["phi"] == 0.0
