"""Seeded Monte-Carlo phase estimation against the Cramer-Rao bound.

Sampling uses numpy's counter-based Philox generator (algorithm id
"philox4x64"), seeded through SeedSequence so repetitions can be derived
deterministically with spawn keys; identical seeds give bit-identical
outcome histograms and serialized runs. Outcomes are stored as histograms
rather than raw sequences so trial counts up to 1e8 stay cheap.

The estimator is a windowed maximum-likelihood search: a coarse grid over
the window followed by golden-section refinement. Windows must stay
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

from .fisher import _sectors, classical_fi, likelihood, premeasurement_state
from .fock import TwoModeState, sector_blocks

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
    spread = max(np.ptp(np.flatnonzero(vec)) for _, vec, _ in sector_blocks(pre))
    return 2.0 * math.pi / spread if spread else math.inf


def default_window(
    state: TwoModeState, phi_true: float, pipeline: str = "MMZI"
) -> tuple[float, float]:
    """Quarter-period window centered on the true phase.

    Fringe probabilities are even about their extrema, so a window that
    strays further than a quarter period can contain the mirror image of
    the likelihood peak and the estimate may flip to it; a quarter period
    keeps the reflected peak outside for any fringe alignment.
    """
    period = likelihood_period(state, pipeline)
    half = math.pi / 2.0 if math.isinf(period) else period / 8.0
    return (phi_true - half, phi_true + half)


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
    probs = likelihood(state, phi_true, pipeline)  # canonical (N, n_a) order
    pvec = np.array(list(probs.values()))
    pvec = pvec / pvec.sum()
    counts = _rng(seed).multinomial(m_trials, pvec)
    return {k: int(c) for k, c in zip(probs, counts) if c > 0}


def _loglik_grid(
    state: TwoModeState,
    pipeline: str,
    outcomes: dict[tuple[int, int], int],
) -> Callable[[np.ndarray], np.ndarray]:
    """Log-likelihood of an outcome histogram as a function of a phase grid.

    The per-histogram set-up (the fisher kernel's sectors, restricted to
    their occupied inputs, and the splitter columns of the observed
    outcomes with their counts) is done once here; the returned function of
    phis only contracts those columns, which is all a record needs.
    """
    blocks, occupied = [], set()
    for n, vec, m, bs_t in _sectors(state, pipeline):
        occupied.add(n)
        wanted = [(k[0], cnt) for k, cnt in outcomes.items() if k[0] + k[1] == n]
        if wanted:
            cols, counts = zip(*wanted)
            blocks.append((vec, m, bs_t[:, list(cols)], np.array(counts, dtype=float)))
    stray = [k for k in outcomes if k[0] + k[1] not in occupied]
    if stray:
        raise ValueError(f"outcomes {stray} lie outside the occupied sectors")

    def loglik(phis: np.ndarray) -> np.ndarray:
        ll = np.zeros(phis.size)
        for vec, m, cols_t, counts in blocks:
            amp = (np.exp(-1j * np.outer(phis, m)) * vec) @ cols_t
            p = np.maximum(np.abs(amp) ** 2, _LOG_FLOOR)
            ll += np.log(p) @ counts
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
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive width")
    period = likelihood_period(state, pipeline)
    if hi - lo > period + 1e-12:
        raise ValueError(
            f"window width {hi - lo:.6g} exceeds the likelihood period "
            f"{period:.6g}; the phase is not identifiable"
        )
    if not outcomes or sum(outcomes.values()) == 0:
        raise DegenerateLikelihoodError("empty outcome record")
    phis = np.linspace(lo, hi, MLE_GRID_POINTS)
    loglik = _loglik_grid(state, pipeline, outcomes)
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


def run_estimation(
    state: TwoModeState,
    phi_true: float,
    pipeline: str,
    m_trials: int,
    seed: int,
    repetition: int = 0,
    window: tuple[float, float] | None = None,
) -> EstimationRun:
    """Sample, estimate, and record one run; repetitions derive independent
    substreams via SeedSequence spawn keys on top of the root seed.

    The pipeline's first splitter is applied once, and every step runs on
    that pre-measurement state as "MMZI", which gives the same sectors.
    """
    pre = premeasurement_state(state, pipeline)
    if window is None:
        window = default_window(pre, phi_true, "MMZI")
    sub = np.random.SeedSequence(int(seed), spawn_key=(int(repetition),))
    outcomes = sample_outcomes(pre, phi_true, "MMZI", m_trials, sub)
    phi_hat = mle_phase(outcomes, pre, "MMZI", window)
    fi = classical_fi(pre, phi_true, "MMZI").fi
    crb_m = 1.0 / (m_trials * fi) if fi > 1e-12 else None
    return EstimationRun(
        phi_true=float(phi_true),
        m_trials=int(m_trials),
        seed=int(seed),
        repetition=int(repetition),
        window=(float(window[0]), float(window[1])),
        pipeline=pipeline,
        outcomes=outcomes,
        phi_hat=float(phi_hat),
        empirical_mse=float((phi_hat - phi_true) ** 2),
        crb_m=crb_m,
        period=likelihood_period(pre, "MMZI"),
    )


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
    applies the pipeline's first splitter once.
    """
    m_list = [int(m) for m in m_list]
    if any(m < 10 for m in m_list):
        raise ValueError("each trial count must be >= 10")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    pre = premeasurement_state(state, pipeline)
    if window is None:
        window = default_window(pre, phi_true, "MMZI")
    fi = classical_fi(pre, phi_true, "MMZI").fi
    flagged = fi < 1e-12
    rows = []
    for mi, m in enumerate(m_list):
        sq_errors = []
        for rep in range(repetitions):
            sub = np.random.SeedSequence(int(seed), spawn_key=(mi, rep))
            outcomes = sample_outcomes(pre, phi_true, "MMZI", m, sub)
            try:
                phi_hat = mle_phase(outcomes, pre, "MMZI", window)
            except DegenerateLikelihoodError:
                flagged = True
                continue
            sq_errors.append((phi_hat - phi_true) ** 2)
        mse = float(np.mean(sq_errors)) if sq_errors else math.nan
        crb = None if flagged else 1.0 / (m * fi)
        ratio = None if (flagged or crb is None) else mse / crb
        rows.append(ConvergenceRow(m, mse, crb, ratio, flagged))
    return rows
