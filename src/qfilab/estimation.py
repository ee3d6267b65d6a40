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
then draws every record and sets up the log-likelihood kernels once, for
the union of the sectors the records observed (_grid): for the phase
kernel the splitter columns, the distinct J3 eigenvalues and the gather
indices; for the rotation of the MZI's |J,J> inputs the sectors and
their weights. The coarse grid depends only on the state and the window,
so one pass of each kernel serves a chunk of MLE_CHUNK records (_logliks,
_estimates); only the zoomed grids run per record. A record without
phase information over the window raises DegenerateLikelihoodError where
its estimate is due. A record's log-likelihood is the same to the last bit
whether it is evaluated alone or with others. Windows must stay
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
from typing import Callable, NamedTuple

import numpy as np

from .fisher import (
    _distinct,
    _fi_reduce,
    _outcome_table,
    _period,
    _phase_blocks,
    _phased,
    _rotation,
    _sectors,
    _split,
    _Split,
    likelihood_period,
)
from .fock import TwoModeState

RNG_ALGORITHM = "philox4x64"
MLE_GRID_POINTS = 10_000
MLE_REFINE_TOL = 1e-10
MLE_ZOOM_POINTS = 33
MLE_CHUNK = 64  # records per coarse-grid pass
_WINDOW_ULPS = 1000  # fewest float spacings at the phase that a window must span
_LOG_FLOOR = 1e-300


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
    na, nb, z, _ = _outcome_table(split, phi_true, False)  # no derivative
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

    Deterministic for a given seed (int or numpy SeedSequence); outcomes
    with zero draws are omitted.
    """
    if m_trials < 1:
        raise ValueError("m_trials must be >= 1")
    return _sampler(_split(state, pipeline), phi_true)(m_trials, seed)


class _Grid(NamedTuple):
    """The log-likelihood kernels of one command, set up once for the union
    of its records' observed sectors (_grid). held is the phase kernel's
    (_phased): the distinct J3 eigenvalues of sub and, by N, each sector's
    (N, vec, m, gather indices, bs_t). rot maps N = 2J to the index of an
    observed rotation sector |J, J> in j (ascending), weight their
    |amplitude|^2."""

    sub: TwoModeState
    unique_m: np.ndarray
    held: dict
    rot: dict
    j: np.ndarray
    weight: np.ndarray


def _grid(split: _Split, records) -> _Grid:
    """The _Grid of split for the sectors any of records observed."""
    observed = sorted({a + b for outcomes in records for a, b in outcomes})
    sub = split.table.subset(np.isin(split.table.n_total, observed))
    unique_m = _distinct(sub.j3_values)
    held = {n: (n, vec, m, unique_m.searchsorted(m), bs_t) for n, vec, m, bs_t in _sectors(sub)}
    single = split.single
    rot = single.subset((single.na == single.nb) & np.isin(single.n_total, observed))
    index = {2 * jj: i for i, jj in enumerate(rot.na.tolist())}
    return _Grid(sub, unique_m, held, index, rot.na, np.abs(rot.amps) ** 2)


def _logliks(grid: _Grid, records) -> Callable[[np.ndarray], np.ndarray]:
    """Log-likelihoods of outcome histograms on a phase grid, a row per
    record. Once, here, the histograms are checked and each one's share of
    the grid's kernels is set up: the observed columns of each phase-kernel
    sector, and each rotation sector's counts per ladder step, m and -m
    together, as P is even in m. A call of the returned function of phis
    runs each kernel once for every record, over the sectors any of them
    observed, and takes each rotation step's log-probabilities once; each
    record then adds its own counts on its own row, by the products it
    would take alone (a matmul's bits depend on its operands' shapes), and
    sector rows do not interact, so its row equals its row alone, bit for
    bit."""
    users, ladders = {}, []  # N -> [(record, columns, counts)]; (record, step, sectors, counts)
    for r, outcomes in enumerate(records):
        by_sector = {}
        for (a, b), cnt in outcomes.items():
            if a < 0 or b < 0 or cnt < 0:
                raise ValueError(f"outcome {(a, b)} with count {cnt}: port counts and counts must be >= 0")
            by_sector.setdefault(a + b, []).append((a, cnt))
        stray = [k for k in outcomes if k[0] + k[1] not in grid.held and k[0] + k[1] not in grid.rot]
        if stray:
            raise ValueError(f"outcomes {stray} lie outside the occupied sectors")
        steps = {}  # (t, sector): counts of n_a = J +- (J - t)
        for n, group in by_sector.items():
            if n in grid.held:
                cols = grid.held[n][4][:, [a for a, _ in group]]
                users.setdefault(n, []).append((r, cols, np.array([c for _, c in group], dtype=float)))
                continue
            for a, cnt in group:
                key = (n // 2 - abs(a - n // 2), grid.rot[n])
                steps[key] = steps.get(key, 0.0) + cnt
        rungs = {}
        for (t, i), cnt in sorted(steps.items()):
            if cnt:
                rungs.setdefault(t, []).append((i, cnt))
        for t, rung in rungs.items():
            ladders.append((r, t, np.array([i for i, _ in rung]), np.array([c for _, c in rung], dtype=float)))
    held = (grid.unique_m, [grid.held[n] for n in sorted(users)])
    used = np.zeros(grid.j.size, dtype=bool)
    for _, _, sectors, _ in ladders:
        used[sectors] = True
    local = np.cumsum(used) - 1  # an observed rotation sector's place among the used ones
    j, weight = grid.j[used], grid.weight[used]
    seen = np.zeros((j.max(initial=-1) + 1, j.size), dtype=bool)
    for _, t, sectors, _ in ladders:
        seen[t, local[sectors]] = True
    seen = [np.flatnonzero(row) for row in seen]
    by_step = [[] for _ in seen]
    for r, t, sectors, counts in ladders:
        by_step[t].append((r, seen[t].searchsorted(local[sectors]), counts))

    def loglik(phis: np.ndarray) -> np.ndarray:
        ll = np.zeros((len(records), phis.size))
        if users:
            for rows, n, _, chi, _ in _phased(grid.sub, phis, held):
                for r, cols, counts in users[n]:
                    ll[r, rows] += np.log(np.maximum(np.abs(chi @ cols) ** 2, _LOG_FLOOR)) @ counts
        for rows, t, sel, d, _ in _rotation(j, phis, False, seen):
            logp = np.log(np.maximum(weight[sel, None] * (d * d), _LOG_FLOOR))
            for r, ix, counts in by_step[t]:
                ll[r, rows] += counts @ logp[ix]
        return ll

    return loglik


def _mle(split: _Split, records, lo: float, hi: float):
    """Grid maximum-likelihood estimates of records on a checked window,
    yielded record by record; a record without phase information over the
    window raises DegenerateLikelihoodError when its turn comes. The
    kernels are set up once (_grid), and the coarse grid runs once per
    MLE_CHUNK records (_estimates)."""
    grid = _grid(split, records)
    coarse = np.linspace(lo, hi, MLE_GRID_POINTS)
    for start in range(0, len(records), MLE_CHUNK):
        yield from _estimates(grid, records[start:start + MLE_CHUNK], coarse)


def _estimates(grid: _Grid, chunk, phis: np.ndarray):
    """The estimates of a chunk of records from one coarse pass over phis,
    taken block by block (_phase_blocks, as the kernels cut it) so that
    only a block's rows are held: per record and block its maximum, first
    maximizer and minimum. Then each record's own grids of MLE_ZOOM_POINTS
    zoom onto the bracket of its best point's neighbours, until the bracket
    is at most MLE_REFINE_TOL wide or a zoom no longer narrows it (beyond
    |phi| = 2**19 an ulp exceeds the tolerance). Ties resolve to the first
    maximum, the smallest phase."""
    loglik, blocks = _logliks(grid, chunk), _phase_blocks(phis.size)
    tops, ats, lows = (np.empty((len(chunk), len(blocks)), dtype) for dtype in (float, int, float))
    for i, rows in enumerate(blocks):
        ll = loglik(phis[rows])
        tops[:, i], ats[:, i], lows[:, i] = ll.max(axis=1), ll.argmax(axis=1) + rows.start, ll.min(axis=1)
    for outcomes, top, at, low in zip(chunk, tops, ats, lows):
        peak = float(top.max())
        if sum(outcomes.values()) == 0:
            raise DegenerateLikelihoodError("empty outcome record")
        if peak - float(low.min()) <= 1e-9 * max(1.0, abs(peak)):
            raise DegenerateLikelihoodError("log-likelihood is constant over the window")
        yield _zoom(_logliks(grid, [outcomes]), phis, int(at[np.argmax(top)]))


def _zoom(loglik, phis: np.ndarray, best: int) -> float:
    """The phase that grids of MLE_ZOOM_POINTS on loglik find from the best
    point of phis."""
    width = math.inf
    while True:
        a, b = phis[max(best - 1, 0)], phis[min(best + 1, phis.size - 1)]
        if b - a <= MLE_REFINE_TOL or b - a >= width:
            return float(phis[best])
        width = b - a
        phis = np.linspace(a, b, MLE_ZOOM_POINTS)
        best = int(np.argmax(loglik(phis)[0]))


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
    draws come from are computed once, before any draw; the likelihood
    kernels once, after every draw, for the sectors any record observed;
    the coarse grid once per MLE_CHUNK records (_mle). A phase too large
    for its window is refused (_checked_window). Raises
    DegenerateLikelihoodError at the first record without phase
    information over the window.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if m_trials < 1:
        raise ValueError("m_trials must be >= 1")
    split = _split(state, pipeline)
    period = _period(split)
    lo, hi = _checked_window(window, period, phi_true)
    fi = float(_fi_reduce(split, np.array([float(phi_true)]))[0][0])
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
