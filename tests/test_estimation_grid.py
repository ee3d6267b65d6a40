"""The estimation stage's once-per-command work, pinned bit for bit.

The log-likelihood grid (phases in blocks, one exponential per distinct J3
eigenvalue, splitter columns only for the observed sectors) must equal the
per-sector formula it replaced to the last bit; run_estimation and
crb_convergence_study must equal compositions of the public sample_outcomes
and mle_phase; and the set-up they share runs once per command.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qfilab import (
    classical_fi,
    crb_convergence_study,
    default_window,
    estimation,
    fisher,
    likelihood_period,
    mle_phase,
    noon,
    run_estimation,
    sample_outcomes,
    zeta_dual_fock,
    zeta_noon,
)
from qfilab.estimation import _loglik_grid
from qfilab.fisher import _PHASE_BLOCK, _sectors, _split, premeasurement_state


def reference_loglik(pre, outcomes, phis):
    """The per-sector formula: exp(-i phi m) of each sector's own eigenvalues
    over the whole grid, contracted with its observed splitter columns."""
    by_sector = {}
    for (a, b), cnt in outcomes.items():
        by_sector.setdefault(a + b, []).append((a, cnt))
    ll = np.zeros(phis.size)
    for n, vec, m, bs_t in _sectors(pre):
        if n in by_sector:
            cols, counts = zip(*by_sector[n])
            amp = (np.exp(-1j * np.outer(phis, m)) * vec) @ bs_t[:, list(cols)]
            p = np.maximum(np.abs(amp) ** 2, 1e-300)
            ll += np.log(p) @ np.array(counts, dtype=float)
    return ll


def record_with_a_lone_outcome(state, pipeline):
    """A sampled record in which the highest observed sector keeps exactly
    one outcome, so its splitter columns form a single column."""
    record = sample_outcomes(state, 0.3, pipeline, 10_000, seed=1)
    top = max(a + b for a, b in record)
    lone = min(k for k in record if sum(k) == top)
    record = {k: c for k, c in record.items() if sum(k) != top or k == lone}
    assert sum(1 for k in record if sum(k) == top) == 1
    return record


CASES = {
    "dual_fock_mzi": (zeta_dual_fock(3.0, 30)[0], "MZI"),
    "two_branch_noon": (zeta_noon(3.0, 200)[0], "MMZI"),
}
SIZES = [1, _PHASE_BLOCK - 1, _PHASE_BLOCK, _PHASE_BLOCK + 1, 10_000]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", list(CASES))
def test_loglik_grid_is_bit_identical_to_the_per_sector_formula(case, size):
    state, pipeline = CASES[case]
    pre = premeasurement_state(state, pipeline)
    record = record_with_a_lone_outcome(state, pipeline)
    lo, hi = default_window(state, 0.3, pipeline)
    phis = np.array([0.3]) if size == 1 else np.linspace(lo, hi, size)
    # the phase kernel's grid on the pre-measurement state, read as an MMZI source
    grid = _loglik_grid(_split(pre, "MMZI"), record)
    assert np.array_equal(grid(phis), reference_loglik(pre, record, phis))


def test_loglik_grid_peak_memory_stays_below_the_per_sector_formula():
    state, pipeline = CASES["dual_fock_mzi"]
    pre = premeasurement_state(state, pipeline)
    record = sample_outcomes(state, 0.3, pipeline, 10_000, seed=1)
    phis = np.linspace(*default_window(state, 0.3, pipeline), 10_000)
    # warm-up: first-call set-up stays out of the traced peak
    reference_loglik(pre, record, phis)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid = peak(lambda: _loglik_grid(_split(pre, "MMZI"), record)(phis))
    reference = peak(lambda: reference_loglik(pre, record, phis))
    assert grid <= reference


def test_loglik_grid_calls_only_evaluate_the_kernel_set_up_once(monkeypatch):
    # after the set-up, a call neither scans sectors, nor builds splitter
    # columns, nor finds the distinct eigenvalues
    state, pipeline = CASES["dual_fock_mzi"]
    record = sample_outcomes(state, 0.3, pipeline, 10_000, seed=7)
    loglik = _loglik_grid(_split(premeasurement_state(state, pipeline), "MMZI"), record)
    grids = [np.array([0.3]), np.linspace(*default_window(state, 0.3, pipeline), 10_000)]
    expected = [loglik(phis) for phis in grids]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("per-record set-up repeated in a call")

    monkeypatch.setattr(fisher, "sector_bounds", forbidden)
    monkeypatch.setattr(fisher, "splitter_columns", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    monkeypatch.setattr(estimation, "_distinct", forbidden)
    monkeypatch.setattr(fisher, "_distinct", forbidden)
    for phis, ll in zip(grids, expected):
        assert np.array_equal(loglik(phis), ll)


def test_run_estimation_equals_public_composition():
    state = zeta_dual_fock(3.0, 8)[0]
    runs = run_estimation(state, 0.3, "MZI", 2000, seed=7, reps=3)
    window = default_window(state, 0.3, "MZI")
    for rep, run in enumerate(runs):
        sub = np.random.SeedSequence(7, spawn_key=(rep,))
        outcomes = sample_outcomes(state, 0.3, "MZI", 2000, sub)
        assert run.outcomes == outcomes
        assert run.phi_hat == mle_phase(outcomes, state, "MZI", window)
        assert run.window == window
        assert run.period == likelihood_period(state, "MZI")


def test_convergence_rows_equal_public_composition():
    state = zeta_dual_fock(3.0, 8)[0]
    m_list = [100, 1000]
    rows = crb_convergence_study(state, 0.3, "MZI", m_list, repetitions=3, seed=5)
    window = default_window(state, 0.3, "MZI")
    fi = classical_fi(state, 0.3, "MZI").fi
    for mi, (m, row) in enumerate(zip(m_list, rows)):
        sq = []
        for rep in range(3):
            sub = np.random.SeedSequence(5, spawn_key=(mi, rep))
            outcomes = sample_outcomes(state, 0.3, "MZI", m, sub)
            sq.append((mle_phase(outcomes, state, "MZI", window) - 0.3) ** 2)
        assert row.m_trials == m
        assert row.empirical_mse == float(np.mean(sq))
        assert row.crb_m == 1.0 / (m * fi)
        assert not row.flagged


def counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapped)


def test_run_estimation_does_its_set_up_once(monkeypatch):
    state = zeta_noon(3.0, 200)[0]
    tables, periods, columns = [], [], []
    counting(monkeypatch, estimation, "_outcome_table", tables)
    counting(monkeypatch, estimation, "_period", periods)
    counting(monkeypatch, fisher, "splitter_columns", columns)
    runs = run_estimation(state, 0.3, "MMZI", 10_000, seed=3, reps=3)
    assert len(tables) == 1
    assert len(periods) == 1
    sectors = sorted({int(n) for n in state.n_total})
    # the FI behind crb_m takes every two-branch sector in closed form, so
    # the fisher kernel walks every sector once first, for the sampling
    # table; the grids then ask only for the sectors each record saw
    table_side, grid_side = columns[:len(sectors)], columns[len(sectors):]
    assert [n for n, _ in table_side] == sectors
    observed = [sorted({a + b for a, b in run.outcomes}) for run in runs]
    assert [n for n, _ in grid_side] == [n for seen in observed for n in seen]
    assert max(len(seen) for seen in observed) < len(sectors)


@pytest.mark.parametrize("m_trials", [0, -5])
def test_run_estimation_rejects_trial_counts_below_one(m_trials):
    with pytest.raises(ValueError, match="m_trials must be >= 1"):
        run_estimation(noon(1), 0.3, "MMZI", m_trials, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: run_estimation(noon(2), 0.4, "MMZI", 200, seed=1, window=w),
        lambda w: crb_convergence_study(noon(2), 0.4, "MMZI", [100], 2, seed=1, window=w),
    ],
    ids=["run_estimation", "crb_convergence_study"],
)
def test_window_wider_than_the_period_raises_before_any_draw(monkeypatch, call):
    def refuse(_seed):
        raise AssertionError("drew outcomes before checking the window")

    monkeypatch.setattr(estimation, "_rng", refuse)
    with pytest.raises(ValueError, match="exceeds the likelihood period 3.14159; "
                                         "the phase is not identifiable"):
        call((0.0, 2 * math.pi))


def grid_sizes_per_record(monkeypatch):
    """Wrap _loglik_grid so that each record's calls append their phase
    counts to a list of their own."""
    records = []
    real = estimation._loglik_grid

    def counted(split, outcomes):
        loglik = real(split, outcomes)
        sizes = []
        records.append(sizes)

        def call(phis):
            sizes.append(phis.size)
            return loglik(phis)

        return call

    monkeypatch.setattr(estimation, "_loglik_grid", counted)
    return records


def test_mle_evaluates_only_whole_grids_in_a_few_calls(monkeypatch):
    records = grid_sizes_per_record(monkeypatch)
    state, pipeline = CASES["dual_fock_mzi"]
    run_estimation(state, 0.3, pipeline, 10_000, seed=1, reps=3)
    big = noon(3)  # one ulp of 6e5 exceeds MLE_REFINE_TOL: the no-progress stop ends it
    outcomes = sample_outcomes(big, 6e5, "MMZI", 100, seed=0)
    mle_phase(outcomes, big, "MMZI", default_window(big, 6e5))
    assert len(records) == 4
    for sizes in records:
        assert sizes[0] == estimation.MLE_GRID_POINTS
        assert min(sizes) >= estimation.MLE_ZOOM_POINTS
        assert len(sizes) <= 8


def synthetic_mle(monkeypatch, loglik, lo, hi):
    """_mle on a window, with loglik standing in for the record's grid."""
    monkeypatch.setattr(estimation, "_loglik_grid", lambda split, outcomes: loglik)
    return estimation._mle(None, {(0, 1): 1}, lo, hi)


def test_mle_takes_the_smallest_phase_of_an_exact_plateau(monkeypatch):
    # flat, bit for bit, on [0.3, 0.4]: the first maximum of every grid wins
    phi_hat = synthetic_mle(monkeypatch, lambda p: -np.maximum(np.maximum(0.3 - p, p - 0.4), 0.0), 0.0, 1.0)
    assert 0.3 <= phi_hat <= 0.3 + estimation.MLE_REFINE_TOL
    # a plateau that starts at the window's left edge returns the edge itself
    assert synthetic_mle(monkeypatch, lambda p: -np.maximum(p - 0.4, 0.0), 0.25, 1.0) == 0.25


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["right-edge", "left-edge"])
def test_mle_returns_a_window_edge_that_holds_the_maximum(monkeypatch, sign):
    lo, hi = 0.1, 0.7
    assert synthetic_mle(monkeypatch, lambda p: sign * p, lo, hi) == (hi if sign > 0 else lo)


@pytest.mark.parametrize("center", [0.3, 6e5, -3e9, 1e12])
def test_mle_never_leaves_the_window(monkeypatch, center):
    lo, hi = center - 0.26, center + 0.26
    rng = np.random.default_rng(3)
    for _ in range(20):
        k, shift = rng.uniform(1.0, 200.0), rng.uniform(0.0, 2.0 * math.pi)
        phi_hat = synthetic_mle(monkeypatch, lambda p: np.cos(k * (p - center) + shift), lo, hi)
        assert lo <= phi_hat <= hi


def test_window_edge_flags_estimates_the_window_set():
    # zeta_noon at K=1000 through 10,000 trials: the likelihood's peak lies
    # outside the narrow window in four of five repetitions, and those
    # estimates sit exactly on an edge
    runs = run_estimation(zeta_noon(3.0, 1000)[0], 0.3, "MMZI", 10_000, seed=1, reps=5)
    flags = [run.to_json_dict()["window_edge"] for run in runs]
    assert flags == [True, True, False, True, True]
    for run, flag in zip(runs, flags):
        assert flag == (run.phi_hat in run.window)
    # the flag reaches MLE_REFINE_TOL inside the window, and no further
    lo, hi = runs[2].window
    near = dataclasses.replace(runs[2], phi_hat=lo + estimation.MLE_REFINE_TOL / 2)
    far = dataclasses.replace(runs[2], phi_hat=hi - 2 * estimation.MLE_REFINE_TOL)
    assert near.to_json_dict()["window_edge"] is True
    assert far.to_json_dict()["window_edge"] is False
