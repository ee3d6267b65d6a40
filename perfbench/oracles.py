"""Independent checks of the outputs of qfilab command lines.

Nothing here imports qfilab. The references are closed forms, mpmath
(zeta, root solving, harmonic sums) and a splitter built with
scipy.linalg.expm from the J1 block, so a defect in the library's own
code paths cannot hide in its own oracle.

Each check takes the command and its output files (name -> bytes) and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np
from scipy.linalg import expm

_DPS = 30


def check(cmd, exit_code: int, files: dict[str, bytes]) -> list[str]:
    """Problems with one invocation: wrong exit code or wrong output."""
    problems = []
    if exit_code != cmd.expected_exit:
        problems.append(f"exit code {exit_code}, expected {cmd.expected_exit}")
    oracle = {"curve": check_curve, "qfi": check_qfi, "estimate": check_estimate}[cmd.kind]
    try:
        problems += oracle(cmd, files)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


# ---------------------------------------------------------------------------
# curves: fig3a / fig3b

@functools.lru_cache(maxsize=None)
def crossing_mean(scale: int) -> float:
    """scale * zeta(2)/zeta(3): the mean where the x = 3 member sits."""
    with mpmath.workdps(_DPS):
        return float(scale * mpmath.zeta(2) / mpmath.zeta(3))


@functools.lru_cache(maxsize=None)
def zeta_family(mean: float, scale: int) -> tuple[float, float, float]:
    """(x, zeta(x-1)/zeta(x), zeta(x-2)/zeta(x)) for the exponent x > 3 at
    which the family mean scale*zeta(x-1)/zeta(x) equals `mean`."""
    with mpmath.workdps(_DPS):
        def gap(x):
            return scale * mpmath.zeta(x - 1) / mpmath.zeta(x) - mean

        x = mpmath.findroot(gap, (3, 80), solver="illinois", verify=False)
        z = mpmath.zeta(x)
        return float(x), float(mpmath.zeta(x - 1) / z), float(mpmath.zeta(x - 2) / z)


def _expected_bounds(figure: str, mean: float, scale: int) -> tuple[float, dict]:
    x, r1, r2 = zeta_family(mean, scale)
    if figure == "fig3a":
        return x, {"zeta_noon_crb": 1.0 / math.sqrt(r2)}
    return x, {
        "noon_crb": 1.0 / math.sqrt(4.0 * r2),
        "dualfock_crb": 1.0 / math.sqrt(2.0 * r2 + 2.0 * r1),
    }


CURVE_COLUMNS = {
    "fig3a": ["mean_n", "snl", "hl", "tmsv_crb", "tmsv_noon_crb", "zeta_noon_crb"],
    "fig3b": ["mean_n", "noon_crb", "dualfock_crb"],
}
# Means within this distance below the crossing may print 0: the library
# keeps a pole guard of 2e-6 on the exponent, about 1e-6 in the mean.
_GUARD_BAND = 1e-5
_SAMPLED_ROWS = 24


def check_curve(cmd, files: dict[str, bytes]) -> list[str]:
    """fig3a/fig3b CSV and sidecar against closed forms and mpmath.

    Closed-form columns must match to 1e-11 (the CSV prints 12 significant
    digits). Zeta columns must be exactly 0 at and past the mpmath crossing
    and positive before it; a sample of finite rows is compared with an
    mpmath root solve, to 1e-9 plus 1e-13/(x-3), which is what the
    library's brentq tolerance of 1e-13 on x becomes near the crossing.
    """
    problems = []
    text = files[cmd.out_name].decode("utf-8")
    lines = text.split("\n")
    columns = CURVE_COLUMNS[cmd.figure]
    if not lines[0].startswith("# qfilab ") or f"| {cmd.figure} | points={cmd.points} " not in lines[0]:
        problems.append(f"bad header line {lines[0][:80]!r}")
    if lines[1] != ",".join(columns):
        problems.append(f"bad column line {lines[1]!r}")
    if lines[-1] != "" or len(lines) != cmd.points + 3:
        return problems + [f"expected {cmd.points} rows ending in a newline"]
    cells = [line.split(",") for line in lines[2:-1]]
    x_min, x_max = cmd.x_range
    means = np.linspace(x_min, x_max, cmd.points)
    bad_means = [i for i, m in enumerate(means) if cells[i][0] != f"{m:.12g}"]
    if bad_means:
        problems.append(f"{len(bad_means)} mean_n cells differ from the sweep, first row {bad_means[0]}")
    values = np.array([[float(c) for c in row[1:]] for row in cells])

    if cmd.figure == "fig3a":
        closed = np.column_stack([
            1.0 / np.sqrt(means), 1.0 / means,
            1.0 / np.sqrt(means * means + 2.0 * means),
            1.0 / np.sqrt(2.0 * means * means + 2.0 * means),
        ])
        err = np.abs(values[:, :4] / closed - 1.0)
        if err.max() > 1e-11:
            row, col = np.unravel_index(int(err.argmax()), err.shape)
            problems.append(f"{columns[col + 1]} off its closed form by {err.max():.3g} at row {row}")
        zeta_cols = [4]
    else:
        zeta_cols = [0, 1]

    crossing = crossing_mean(cmd.scale)
    zeta_vals = values[:, zeta_cols]
    past = means >= crossing
    if np.any(zeta_vals[past] != 0.0):
        problems.append("nonzero bound at or past the crossing")
    before = means < crossing - _GUARD_BAND
    if np.any(zeta_vals[before] <= 0.0):
        problems.append("zero or negative bound before the crossing")

    finite = np.flatnonzero(np.all(zeta_vals > 0.0, axis=1) & ~past)
    if finite.size:
        picks = sorted({int(i) for i in finite[np.linspace(0, finite.size - 1, _SAMPLED_ROWS).astype(int)]})
        for i in picks:
            x, want = _expected_bounds(cmd.figure, float(means[i]), cmd.scale)
            tol = 1e-9 + 1e-13 / (x - 3.0)
            for j, name in zip(zeta_cols, want):
                if _rel(values[i, j], want[name]) > tol:
                    problems.append(f"{name} at mean {means[i]:.12g}: {values[i, j]!r} vs mpmath {want[name]!r}")

    problems += _check_sidecar(cmd, files, int(np.count_nonzero(np.any(zeta_vals == 0.0, axis=1))))
    return problems


@functools.lru_cache(maxsize=None)
def _mean_square_trend(cutoff: int, scale: int) -> float:
    """scale^2 * H_K / sum_{N<=K} N^-3: the truncated x = 3 second moment."""
    with mpmath.workdps(_DPS):
        s3 = mpmath.zeta(3) - mpmath.zeta(3, cutoff + 1)
        return float(scale * scale * mpmath.harmonic(cutoff) / s3)


def _check_sidecar(cmd, files: dict[str, bytes], zero_rows: int) -> list[str]:
    name = cmd.out_name + ".provenance.json"
    if name not in files:
        return [f"missing sidecar {name}"]
    side = json.loads(files[name])
    problems = []
    if side["figure"] != cmd.figure:
        problems.append(f"sidecar figure {side['figure']!r}")
    if _rel(side["crossing_mean"], crossing_mean(cmd.scale)) > 1e-9:
        problems.append(f"sidecar crossing_mean {side['crossing_mean']!r}")
    if len(side["divergent_rows"]) != zero_rows:
        problems.append(f"sidecar lists {len(side['divergent_rows'])} divergent rows, CSV has {zero_rows}")
    for row in side["mean_square_trend"]:
        if _rel(row["mean_square"], _mean_square_trend(row["cutoff"], cmd.scale)) > 1e-10:
            problems.append(f"sidecar mean_square at cutoff {row['cutoff']}: {row['mean_square']!r}")
    return problems


# ---------------------------------------------------------------------------
# qfi on zeta_noon

@functools.lru_cache(maxsize=None)
def zeta_noon_qfi(cutoff: int) -> float:
    """QFI of the 1/N^3 two-branch family truncated at K: sum N^-1 / sum N^-3."""
    with mpmath.workdps(_DPS):
        return float(mpmath.harmonic(cutoff) / (mpmath.zeta(3) - mpmath.zeta(3, cutoff + 1)))


def check_qfi(cmd, files: dict[str, bytes]) -> list[str]:
    """Divergent report: qfi "divergent", crb exactly 0, and fi and
    truncated_qfi equal to sum N^-1 / sum N^-3 over N <= K to 1e-9."""
    rep = json.loads(files[cmd.out_name])
    want = zeta_noon_qfi(cmd.cutoff)
    problems = []
    if rep["qfi"] != "divergent":
        problems.append(f"qfi is {rep['qfi']!r}, expected 'divergent'")
    if rep["crb"] != 0 or isinstance(rep["crb"], bool):
        problems.append(f"crb is {rep['crb']!r}, expected 0")
    if rep["state"] != cmd.spec or rep["pipeline"] != "MMZI":
        problems.append(f"state/pipeline {rep['state']!r}/{rep['pipeline']!r}")
    for label, got in (("fi", rep["fi"]), ("truncated_qfi", rep["divergence"]["truncated_qfi"])):
        if _rel(got, want) > 1e-9:
            problems.append(f"{label} {got!r} vs {want!r}")
    return problems


# ---------------------------------------------------------------------------
# estimate on zeta_dual_fock through the MZI

def _j1_block(n: int) -> np.ndarray:
    """J1 on the n-photon sector, basis indexed by n_a."""
    k = np.arange(n)
    off = 0.5 * np.sqrt((k + 1.0) * (n - k))
    return np.diag(off, 1) + np.diag(off, -1)


class MziDualFock:
    """Counting likelihood of sum_N sqrt(p_N)|N,N>, p_N ~ N^-3 (N <= K),
    through splitter, phase exp(-i phi J3), splitter; the splitter is
    expm(i pi J1 / 2) per sector."""

    def __init__(self, cutoff: int):
        n = np.arange(1, cutoff + 1, dtype=float)
        self.cutoff = cutoff
        self.p = n ** -3.0 / np.sum(n ** -3.0)
        self.columns = {}  # (n_a, n_b) -> column of the amplitude table
        self.sectors = []  # (m values, first-splitter image, splitter, first column)
        col = 0
        for big_n, p in zip(range(1, cutoff + 1), self.p):
            photons = 2 * big_n
            bs = expm(0.5j * np.pi * _j1_block(photons))
            self.sectors.append((np.arange(photons + 1) - big_n, math.sqrt(p) * bs[:, big_n], bs, col))
            for a in range(photons + 1):
                self.columns[(a, photons - a)] = col
                col += 1

    def fisher(self) -> float:
        """Counting FI sum_N p_N 2N(N+1), the same at every phase."""
        n = np.arange(1, self.cutoff + 1, dtype=float)
        return float(np.sum(self.p * 2.0 * n * (n + 1.0)))

    def log_probs(self, phis: np.ndarray) -> np.ndarray:
        """log P(outcome | phi), rows phis, columns self.columns."""
        out = np.empty((phis.size, len(self.columns)))
        for m, chi, bs, col in self.sectors:
            amp = (np.exp(-1j * np.outer(phis, m)) * chi) @ bs.T
            with np.errstate(divide="ignore"):
                out[:, col:col + m.size] = np.log(np.abs(amp) ** 2)
        return out


@functools.lru_cache(maxsize=4)
def _mzi_model(cutoff: int) -> MziDualFock:
    return MziDualFock(cutoff)


@functools.lru_cache(maxsize=4)
def _grid_log_probs(cutoff: int, lo: float, hi: float, points: int) -> np.ndarray:
    return _mzi_model(cutoff).log_probs(np.linspace(lo, hi, points))


_GRID_POINTS = 2001
_LL_SLACK = 1e-6  # log-likelihood units; rounding is ~1e-9 at 1e4 trials


def check_estimate(cmd, files: dict[str, bytes]) -> list[str]:
    """Each JSON line: fields echo the inputs; the histogram sums to the
    trial count over even-photon sectors <= 2K; the window is phi_true +-
    pi/(8K) (a quarter of the pi/K fringe period) and holds phi_hat;
    crb_m = 1/(M sum p_N 2N(N+1)) to 1e-9; and phi_hat attains the
    largest log-likelihood on a 2001-point grid over the window, to 1e-6.
    """
    text = files[cmd.out_name].decode("utf-8")
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != cmd.reps + 1:
        return [f"expected {cmd.reps} lines ending in a newline"]
    model = _mzi_model(cmd.cutoff)
    half = math.pi / (8 * cmd.cutoff)
    crb_want = 1.0 / (cmd.trials * model.fisher())
    problems = []
    for rep, line in enumerate(lines[:-1]):
        run = json.loads(line)
        where = f"line {rep}"
        echo = {"phi_true": cmd.phi_true, "m_trials": cmd.trials, "seed": cmd.seed,
                "repetition": rep, "pipeline": "MZI"}
        for key, want in echo.items():
            if run[key] != want:
                problems.append(f"{where}: {key} {run[key]!r}, expected {want!r}")
        lo, hi = run["window"]
        if abs(lo - (cmd.phi_true - half)) > 1e-12 or abs(hi - (cmd.phi_true + half)) > 1e-12:
            problems.append(f"{where}: window {run['window']!r}")
        if _rel(run["period"], math.pi / cmd.cutoff) > 1e-12:
            problems.append(f"{where}: period {run['period']!r}")
        cols, counts = [], []
        for key, count in run["outcomes"].items():
            a, b = (int(s) for s in key.split(","))
            if (a + b) % 2 or not 2 <= a + b <= 2 * cmd.cutoff or count < 1:
                problems.append(f"{where}: impossible outcome {key}: {count}")
                continue
            cols.append(model.columns[(a, b)])
            counts.append(count)
        if sum(run["outcomes"].values()) != cmd.trials:
            problems.append(f"{where}: outcomes sum to {sum(run['outcomes'].values())}")
        phi_hat = run["phi_hat"]
        if not lo <= phi_hat <= hi:
            problems.append(f"{where}: phi_hat {phi_hat!r} outside the window")
            continue
        if _rel(run["crb_m"], crb_want) > 1e-9:
            problems.append(f"{where}: crb_m {run['crb_m']!r} vs {crb_want!r}")
        if _rel(run["empirical_mse"], (phi_hat - cmd.phi_true) ** 2) > 1e-12:
            problems.append(f"{where}: empirical_mse {run['empirical_mse']!r}")
        counts = np.array(counts, dtype=float)
        grid_ll = _grid_log_probs(cmd.cutoff, lo, hi, _GRID_POINTS)[:, cols] @ counts
        hat_ll = float((model.log_probs(np.array([phi_hat]))[:, cols] @ counts)[0])
        if hat_ll < grid_ll.max() - _LL_SLACK:
            problems.append(
                f"{where}: phi_hat {phi_hat!r} is not the maximum "
                f"(log-likelihood {hat_ll!r} < grid maximum {grid_ll.max()!r})"
            )
    return problems
