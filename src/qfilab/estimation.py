"""Seeded Monte-Carlo phase estimation against the Cramer-Rao bound.

Sampling draws from the flat probability vector of the fisher outcome
table with numpy's counter-based Philox generator (algorithm id
"philox4x64") seeded through SeedSequence, spawn key (rep,) for
repetition rep of run_estimation. Identical seeds give bit-identical
histograms and serialized runs, and only drawn outcomes are keyed, so
trial counts up to 1e8 stay cheap.

The estimator is a windowed maximum-likelihood search by grids alone: a
coarse grid over the window, then grids of MLE_ZOOM_POINTS phases zoomed
onto the bracket around the best point so far. run_estimation does its
set-up once per command, before any draw: the state sorted by sector
kind (fisher._split, which applies an MZI's first splitter where a kind
needs it), the likelihood period, the window and its checks, the FI
behind the bound, and the outcome table every repetition draws from. It
then draws every record and takes them in chunks of MLE_CHUNK, setting
the log-likelihood up once per chunk (fisher._logliks). The coarse grid
depends only on the state and the window, so one pass serves the whole
chunk; then the chunk's records zoom in lockstep, one call per step
holding each live record's own grid (_estimates). A record without phase
information over the window raises DegenerateLikelihoodError when its
chunk comes, before any of the chunk zooms. Windows must stay
narrower than the likelihood's fundamental period (2*pi over the largest
occupied J3 spread), otherwise the phase is not identifiable; the bound
being probed is local in exactly that sense. They must also span many
floats at the true phase (_WINDOW_ULPS), or they round to a few points.
The log-likelihood is flat to rounding over ~1e-8 rad around its maximum
at 2000 trials, much wider than the refinement tolerance, so the estimate
is resolved only to that band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fisher import (
    _PHASE_BLOCK,
    _fi_reduce,
    _logliks,
    _outcome_table,
    _period,
    _phase_blocks,
    _split,
    _Split,
    likelihood_period,
)
from .fock import TwoModeState

RNG_ALGORITHM = "philox4x64"
MLE_GRID_POINTS = 10_000
MLE_REFINE_TOL = 1e-10
MLE_ZOOM_POINTS = 33
MLE_CHUNK = _PHASE_BLOCK // MLE_ZOOM_POINTS  # records per kernel set-up: as many zoomed grids as one phase block holds
_WINDOW_ULPS = 1000  # fewest float spacings at the phase that a window must span


class DegenerateLikelihoodError(ValueError):
    """Log-likelihood carries no phase dependence over the window."""


def _rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(seed))


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


def _checked_window(window, period: float, phi_true=None) -> tuple[float, float]:
    """The window as floats (lo, hi), by default the quarter-period window
    about phi_true, once it spans _WINDOW_ULPS float spacings at its edges
    and at phi_true, if given (at 3e15 the default window of noon(3) rounds
    to 1.0 wide, not 0.52, and at 1e16 to one point, refused for that; a
    given window with no width is refused for its width), and is narrower
    than the likelihood period."""
    default = window is None
    lo, hi = (float(edge) for edge in (_quarter_window(period, phi_true) if default else window))
    spacing = max(math.ulp(lo), math.ulp(hi), 0.0 if phi_true is None else math.ulp(float(phi_true)))
    if (default or hi > lo) and hi - lo < _WINDOW_ULPS * spacing:
        what = "the phases are" if phi_true is None else f"phi_true {phi_true!r} is"
        raise ValueError(
            f"{what} too large for the window [{lo!r}, {hi!r}]: floats there lie "
            f"{spacing:.3g} apart, more than 1/{_WINDOW_ULPS} of its width {hi - lo:.3g}"
        )
    if not hi > lo:
        raise ValueError("window must have positive width")
    if hi - lo > period + 1e-12:
        raise ValueError(
            f"window width {hi - lo:.6g} exceeds the likelihood period "
            f"{period:.6g}; the phase is not identifiable"
        )
    return lo, hi


def _sampler(split: _Split, phi_true: float):
    """Function (m_trials, seed) -> histogram of m_trials draws at phi_true
    from the split state; the outcome table is built here, once for every
    draw."""
    na, nb, z = _outcome_table(split, phi_true)
    probs = np.abs(z)
    probs *= probs  # |z|^2 in place, the bits of np.abs(z) ** 2
    probs /= probs.sum()

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

    Deterministic for a given seed (int >= 0 or numpy SeedSequence);
    outcomes with zero draws are omitted.
    """
    if m_trials < 1:
        raise ValueError("m_trials must be >= 1")
    if not isinstance(seed, np.random.SeedSequence) and int(seed) < 0:
        raise ValueError("seed must be >= 0")
    return _sampler(_split(state, pipeline), phi_true)(m_trials, seed)


def _mle(split: _Split, records, lo: float, hi: float):
    """Grid maximum-likelihood estimates of records on a checked window,
    yielded record by record; a record without phase information over the
    window raises DegenerateLikelihoodError when its chunk comes. The
    kernels are set up once per chunk of MLE_CHUNK records (_logliks),
    which share the coarse grid and zoom in lockstep (_estimates)."""
    coarse = np.linspace(lo, hi, MLE_GRID_POINTS)
    for start in range(0, len(records), MLE_CHUNK):
        chunk = records[start:start + MLE_CHUNK]
        yield from _estimates(_logliks(split, chunk), chunk, coarse)


def _estimates(loglik, chunk, phis: np.ndarray) -> list[float]:
    """The estimates of a chunk of records from one coarse pass over phis,
    cut here into phase blocks (_phase_blocks), one loglik call each, so
    that only a block's rows are held: per record and block its maximum,
    first maximizer and minimum. Every record is checked for phase
    information before any zoom. Then each record's grids of MLE_ZOOM_POINTS
    zoom onto the bracket of its best point's neighbours, until the bracket
    is at most MLE_REFINE_TOL wide or a zoom no longer narrows it (beyond
    |phi| = 2**19 an ulp exceeds the tolerance); the live records zoom
    together, one loglik call per step, each on its own grid. Ties resolve
    to the first maximum, the smallest phase."""
    blocks = _phase_blocks(phis.size)
    tops, ats, lows = (np.empty((len(chunk), len(blocks)), dtype) for dtype in (float, int, float))
    for i, rows in enumerate(blocks):
        ll = loglik(phis[rows])
        tops[:, i], ats[:, i], lows[:, i] = ll.max(axis=1), ll.argmax(axis=1) + rows.start, ll.min(axis=1)
    for outcomes, top, low in zip(chunk, tops, lows):
        peak = float(top.max())
        if sum(outcomes.values()) == 0:
            raise DegenerateLikelihoodError("empty outcome record")
        if peak - float(low.min()) <= 1e-9 * max(1.0, abs(peak)):
            raise DegenerateLikelihoodError("log-likelihood is constant over the window")
    live, width, found = np.arange(len(chunk)), np.inf, np.empty(len(chunk))
    grids = np.broadcast_to(phis, (live.size, phis.size))  # a row per live record
    best = ats[live, tops.argmax(axis=1)]
    while live.size:
        k = np.arange(live.size)
        a, b = grids[k, np.maximum(best - 1, 0)], grids[k, np.minimum(best + 1, grids.shape[1] - 1)]
        done = (b - a <= MLE_REFINE_TOL) | (b - a >= width)
        found[live[done]] = grids[k[done], best[done]]
        live, width, a, b = live[~done], (b - a)[~done], a[~done], b[~done]
        if live.size:
            grids = np.linspace(a, b, MLE_ZOOM_POINTS, axis=1)
            best = loglik(grids.ravel(), live).argmax(axis=1)
    return found.tolist()


def mle_phase(
    outcomes: dict[tuple[int, int], int],
    state: TwoModeState,
    pipeline: str,
    window: tuple[float, float],
) -> float:
    """Maximum-likelihood phase on a window.

    Coarse grid search (MLE_GRID_POINTS samples), then grids of
    MLE_ZOOM_POINTS zoomed onto the best point's bracket until it is at
    most MLE_REFINE_TOL wide or stops narrowing; ties on every grid resolve
    toward the smallest phase, and the estimate never leaves the window.
    The estimate is resolved only to the log-likelihood's rounding band
    (~1e-8 at 2000 trials), coarser than MLE_REFINE_TOL. The window is
    checked as run_estimation's (_checked_window); a record without phase
    information over it raises DegenerateLikelihoodError.
    """
    split = _split(state, pipeline)
    (phi_hat,) = _mle(split, [outcomes], *_checked_window(window, _period(split)))
    return phi_hat


@dataclass(frozen=True)
class EstimationRun:
    """One seeded estimation experiment and its accuracy bookkeeping.

    empirical_mse is the squared error of this run's estimate; crb_m is
    the m-trial Cramer-Rao bound 1/(M * FI(phi_true)) in the same squared
    units. period records the fundamental likelihood period, making the
    window's periodic-ambiguity context explicit. The JSON form adds
    window_edge: whether phi_hat lies within MLE_REFINE_TOL of a window
    edge, where the window, not the data, may have set it.
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
        lo, hi = self.window
        keyed = {
            f"{a},{b}": self.outcomes[(a, b)]
            for (a, b) in sorted(self.outcomes, key=lambda k: (k[0] + k[1], k[0]))
        }
        return {
            "phi_true": self.phi_true,
            "m_trials": self.m_trials,
            "seed": self.seed,
            "repetition": self.repetition,
            "window": [lo, hi],
            "pipeline": self.pipeline,
            "rng": self.rng_algorithm,
            "period": self.period if math.isfinite(self.period) else "inf",
            "outcomes": keyed,
            "phi_hat": self.phi_hat,
            "window_edge": bool(min(self.phi_hat - lo, hi - self.phi_hat) <= MLE_REFINE_TOL),
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
    reps: int = 1,
    window: tuple[float, float] | None = None,
) -> list[EstimationRun]:
    """Sample, estimate, and record reps runs; run r draws from the substream
    SeedSequence(seed, spawn_key=(r,)). The first splitter, the period, the
    window and its checks, the FI behind crb_m and the outcome table the
    draws come from are computed once, before any draw; after every draw,
    the likelihood kernels and the coarse grid once per chunk of MLE_CHUNK
    records, for the sectors its records observed, whose zooms then run in
    lockstep (_mle). A phase too large
    for its window is refused (_checked_window). Raises
    DegenerateLikelihoodError at the first record without phase
    information over the window.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if m_trials < 1:
        raise ValueError("m_trials must be >= 1")
    if int(seed) < 0:
        raise ValueError("seed must be >= 0")
    split = _split(state, pipeline)
    period = _period(split)
    lo, hi = _checked_window(window, period, phi_true)
    fi = float(_fi_reduce(split, np.array([float(phi_true)]))[0])
    draw = _sampler(split, phi_true)
    crb_m = 1.0 / (m_trials * fi) if fi > 1e-12 else None
    records = [draw(m_trials, np.random.SeedSequence(int(seed), spawn_key=(rep,))) for rep in range(reps)]
    runs = []
    for rep, (outcomes, phi_hat) in enumerate(zip(records, _mle(split, records, lo, hi))):
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
