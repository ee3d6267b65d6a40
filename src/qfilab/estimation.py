"""Seeded Monte-Carlo phase estimation against the Cramer-Rao bound.

Sampling draws from the flat probability vector of the fisher outcome
table with numpy's counter-based Philox generator (algorithm id
"philox4x64") seeded through SeedSequence: spawn keys (rep,) in
run_estimation, (m_index, rep) in crb_convergence_study. Identical seeds
give bit-identical histograms and serialized runs, and only drawn outcomes
are keyed, so trial counts up to 1e8 stay cheap.

The estimator is a windowed maximum-likelihood search: a coarse grid over
the window followed by golden-section refinement. run_estimation and
crb_convergence_study do their set-up once per command, before any draw
(_setup): the first splitter, the likelihood period, the window and its
check, the FI behind the bound, and the outcome table every repetition
draws from. Per record, the log-likelihood grid (_loglik_grid) has the
fisher kernel evaluate only the sectors and outcomes the record observed,
so splitter columns are built for those alone (the kernel's phase blocks
and exponentials are described in fisher). Windows must stay
narrower than the likelihood's fundamental period (2*pi over the largest
occupied J3 spread), otherwise the phase is not identifiable; the bound
being probed is local in exactly that sense. The log-likelihood is flat to
rounding over ~1e-8 rad around its maximum at 2000 trials, much wider than
the refinement tolerance, so the estimate is resolved only to that band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fisher import _amplitudes, _outcome_table, _sectors, classical_fi, premeasurement_state
from .fock import TwoModeState, sector_bounds

RNG_ALGORITHM = "philox4x64"
MLE_GRID_POINTS = 10_000
MLE_REFINE_TOL = 1e-10
_LOG_FLOOR = 1e-300
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class DegenerateLikelihoodError(ValueError):
    """Log-likelihood carries no phase dependence over the window."""


def _rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(seed))


def likelihood_period(state: TwoModeState, pipeline: str = "MMZI") -> float:
    """Fundamental phase period of the counting likelihood.

    Interference fringes oscillate at integer multiples of the J3-eigenvalue
    differences inside each occupied sector; the fastest is the largest
    occupied n_a spread. A single-entry state has no fringes (infinite
    period).
    """
    pre = premeasurement_state(state, pipeline)
    _, lo, hi = sector_bounds(pre)
    spread = np.max(pre.na[hi - 1] - pre.na[lo])
    return 2.0 * math.pi / spread if spread else math.inf


def _quarter_window(period: float, phi_true: float) -> tuple[float, float]:
    half = math.pi / 2.0 if math.isinf(period) else period / 8.0
    return (phi_true - half, phi_true + half)


def default_window(
    state: TwoModeState, phi_true: float, pipeline: str = "MMZI"
) -> tuple[float, float]:
    """Quarter-period window centered on the true phase.

    Fringe probabilities are even about their extrema, so a window that
    strays further than a quarter period can contain the mirror image of
    the likelihood peak and the estimate may flip to it; a quarter period
    keeps the reflected peak outside for any fringe alignment.
    """
    return _quarter_window(likelihood_period(state, pipeline), phi_true)


def _checked_window(window, period: float) -> tuple[float, float]:
    """The window as floats (lo, hi), once it is known to be narrower than
    the likelihood period."""
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive width")
    if hi - lo > period + 1e-12:
        raise ValueError(
            f"window width {hi - lo:.6g} exceeds the likelihood period "
            f"{period:.6g}; the phase is not identifiable"
        )
    return lo, hi


def _sampler(pre: TwoModeState, phi_true: float):
    """Function (m_trials, seed) -> histogram of m_trials draws at phi_true
    from the pre-measurement state pre; the outcome table is built here,
    once for every draw."""
    na, nb, z, _ = _outcome_table(pre, phi_true, False)  # no derivative
    p = np.abs(z) ** 2
    probs = p / p.sum()

    def draw(m_trials: int, seed) -> dict[tuple[int, int], int]:
        counts = _rng(seed).multinomial(m_trials, probs)
        drawn = np.flatnonzero(counts)
        return dict(zip(zip(na[drawn].tolist(), nb[drawn].tolist()), counts[drawn].tolist()))

    return draw


def sample_outcomes(
    state: TwoModeState,
    phi_true: float,
    pipeline: str,
    m_trials: int,
    seed,
) -> dict[tuple[int, int], int]:
    """Histogram of m_trials i.i.d. counting outcomes at the true phase.

    Deterministic for a given seed (int or numpy SeedSequence); outcomes
    with zero draws are omitted.
    """
    if m_trials < 1:
        raise ValueError("m_trials must be >= 1")
    return _sampler(premeasurement_state(state, pipeline), phi_true)(m_trials, seed)


def _loglik_grid(
    pre: TwoModeState, outcomes: dict[tuple[int, int], int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Log-likelihood of an outcome histogram on a phase grid, for the
    pre-measurement state pre. The histogram is checked, grouped by sector
    and cut into the kernel's observed sectors and columns once, here; the
    returned function of phis sums counts times log p over them.
    """
    by_sector = {}
    for (a, b), cnt in outcomes.items():
        if a < 0 or b < 0 or cnt < 0:
            raise ValueError(f"outcome {(a, b)} with count {cnt}: port counts and counts must be >= 0")
        by_sector.setdefault(a + b, []).append((a, cnt))
    totals = np.array(list(by_sector))
    missing = set(totals[~np.isin(totals, sector_bounds(pre)[0])].tolist())
    stray = [k for k in outcomes if k[0] + k[1] in missing]
    if stray:
        raise ValueError(f"outcomes {stray} lie outside the occupied sectors")
    cols = {n: [a for a, _ in group] for n, group in by_sector.items()}
    counts = {n: np.array([c for _, c in group], dtype=float) for n, group in by_sector.items()}
    sectors = list(_sectors(pre, cols))

    def loglik(phis: np.ndarray) -> np.ndarray:
        ll = np.zeros(phis.size)
        for rows, n, amp, _ in _amplitudes(pre, phis, sectors, False):
            ll[rows] += np.log(np.maximum(np.abs(amp) ** 2, _LOG_FLOOR)) @ counts[n]
        return ll

    return loglik


def _golden_max(fun, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer; deterministic, returns the smaller phase
    on exact ties."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc >= fd:  # keep the left interval on ties
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _mle(pre: TwoModeState, outcomes: dict[tuple[int, int], int], lo: float, hi: float) -> float:
    """Grid-plus-golden maximum-likelihood search on a checked window."""
    loglik = _loglik_grid(pre, outcomes)
    if sum(outcomes.values()) == 0:
        raise DegenerateLikelihoodError("empty outcome record")
    phis = np.linspace(lo, hi, MLE_GRID_POINTS)
    ll = loglik(phis)
    span = float(ll.max() - ll.min())
    if span <= 1e-9 * max(1.0, abs(float(ll.max()))):
        raise DegenerateLikelihoodError("log-likelihood is constant over the window")
    best = int(np.argmax(ll))  # first maximum = smallest phase
    a = phis[max(best - 1, 0)]
    b = phis[min(best + 1, MLE_GRID_POINTS - 1)]

    def scalar_ll(phi: float) -> float:
        return float(loglik(np.array([phi]))[0])

    return float(_golden_max(scalar_ll, float(a), float(b), MLE_REFINE_TOL))


def mle_phase(
    outcomes: dict[tuple[int, int], int],
    state: TwoModeState,
    pipeline: str,
    window: tuple[float, float],
) -> float:
    """Maximum-likelihood phase on a window.

    Coarse grid search (MLE_GRID_POINTS samples) followed by golden-section
    refinement to MLE_REFINE_TOL; grid ties resolve toward the smallest
    phase. The estimate is resolved only to the log-likelihood's rounding
    band (~1e-8 at 2000 trials), coarser than MLE_REFINE_TOL. Raises
    DegenerateLikelihoodError when the outcome record carries no phase
    information over the window.
    """
    pre = premeasurement_state(state, pipeline)
    return _mle(pre, outcomes, *_checked_window(window, likelihood_period(pre)))


@dataclass(frozen=True)
class EstimationRun:
    """One seeded estimation experiment and its accuracy bookkeeping.

    empirical_mse is the squared error of this run's estimate; crb_m is
    the m-trial Cramer-Rao bound 1/(M * FI(phi_true)) in the same squared
    units. period records the fundamental likelihood period, making the
    window's periodic-ambiguity context explicit.
    """

    phi_true: float
    m_trials: int
    seed: int
    repetition: int
    window: tuple[float, float]
    pipeline: str
    outcomes: dict[tuple[int, int], int]
    phi_hat: float
    empirical_mse: float
    crb_m: float | None
    period: float
    rng_algorithm: str = RNG_ALGORITHM

    def to_json_dict(self) -> dict:
        keyed = {
            f"{a},{b}": self.outcomes[(a, b)]
            for (a, b) in sorted(self.outcomes, key=lambda k: (k[0] + k[1], k[0]))
        }
        return {
            "phi_true": self.phi_true,
            "m_trials": self.m_trials,
            "seed": self.seed,
            "repetition": self.repetition,
            "window": [self.window[0], self.window[1]],
            "pipeline": self.pipeline,
            "rng": self.rng_algorithm,
            "period": self.period if math.isfinite(self.period) else "inf",
            "outcomes": keyed,
            "phi_hat": self.phi_hat,
            "empirical_mse": self.empirical_mse,
            "crb_m": self.crb_m,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _setup(state: TwoModeState, phi_true: float, pipeline: str, window):
    """The per-command set-up of run_estimation and crb_convergence_study,
    done once before any draw: (pre-measurement state, likelihood period,
    checked window, FI at phi_true, sampler at phi_true)."""
    pre = premeasurement_state(state, pipeline)
    period = likelihood_period(pre)
    window = _checked_window(_quarter_window(period, phi_true) if window is None else window, period)
    fi = classical_fi(pre, phi_true, "MMZI").fi
    return pre, period, window, fi, _sampler(pre, phi_true)


def run_estimation(
    state: TwoModeState,
    phi_true: float,
    pipeline: str,
    m_trials: int,
    seed: int,
    reps: int = 1,
    window: tuple[float, float] | None = None,
) -> list[EstimationRun]:
    """Sample, estimate, and record reps runs; run r draws from the substream
    SeedSequence(seed, spawn_key=(r,)). The first splitter, the period, the
    window and its check, the FI behind crb_m and the outcome table the
    draws come from are computed once, before any draw (_setup).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if m_trials < 1:
        raise ValueError("m_trials must be >= 1")
    pre, period, (lo, hi), fi, draw = _setup(state, phi_true, pipeline, window)
    crb_m = 1.0 / (m_trials * fi) if fi > 1e-12 else None
    runs = []
    for rep in range(reps):
        outcomes = draw(m_trials, np.random.SeedSequence(int(seed), spawn_key=(rep,)))
        phi_hat = _mle(pre, outcomes, lo, hi)
        runs.append(EstimationRun(
            phi_true=float(phi_true),
            m_trials=int(m_trials),
            seed=int(seed),
            repetition=rep,
            window=(lo, hi),
            pipeline=pipeline,
            outcomes=outcomes,
            phi_hat=float(phi_hat),
            empirical_mse=float((phi_hat - phi_true) ** 2),
            crb_m=crb_m,
            period=period,
        ))
    return runs


@dataclass(frozen=True)
class ConvergenceRow:
    m_trials: int
    empirical_mse: float
    crb_m: float | None
    ratio: float | None
    flagged: bool


def crb_convergence_study(
    state: TwoModeState,
    phi_true: float,
    pipeline: str,
    m_list,
    repetitions: int,
    seed: int,
    window: tuple[float, float] | None = None,
) -> list[ConvergenceRow]:
    """Empirical MSE of the windowed MLE against the m-trial bound.

    The ratio column is expected to approach 1 from above as trials grow.
    A true phase where the measurement carries (numerically) no
    information is flagged and excluded from ratios. Each (m, repetition)
    cell draws from the substream SeedSequence(seed, spawn_key=(mi, rep)),
    so rows are reproducible and independent. Like run_estimation, it
    does its set-up once, before any draw (_setup).
    """
    m_list = [int(m) for m in m_list]
    if any(m < 10 for m in m_list):
        raise ValueError("each trial count must be >= 10")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    pre, _, (lo, hi), fi, draw = _setup(state, phi_true, pipeline, window)
    flagged = fi < 1e-12
    rows = []
    for mi, m in enumerate(m_list):
        sq_errors = []
        for rep in range(repetitions):
            outcomes = draw(m, np.random.SeedSequence(int(seed), spawn_key=(mi, rep)))
            try:
                phi_hat = _mle(pre, outcomes, lo, hi)
            except DegenerateLikelihoodError:
                flagged = True
                continue
            sq_errors.append((phi_hat - phi_true) ** 2)
        mse = float(np.mean(sq_errors)) if sq_errors else math.nan
        crb = None if flagged else 1.0 / (m * fi)
        ratio = None if (flagged or crb is None) else mse / crb
        rows.append(ConvergenceRow(m, mse, crb, ratio, flagged))
    return rows
