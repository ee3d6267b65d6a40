"""The estimation stage's once-per-command work, pinned bit for bit.

The log-likelihood grid (phases in blocks, one exponential per distinct J3
eigenvalue, splitter columns only for the observed sectors) must equal the
per-sector formula it replaced to the last bit; run_estimation must equal
a composition of the public sample_outcomes and mle_phase; its set-up runs
once per command, and the log-likelihood's once per MLE_CHUNK records,
which share one coarse grid and zoom together.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qfilab
from qfilab import (
    default_window,
    estimation,
    fisher,
    fock,
    likelihood_period,
    make_state,
    mle_phase,
    noon,
    run_estimation,
    sample_outcomes,
    zeta_dual_fock,
    zeta_noon,
)
from qfilab.fisher import _PHASE_BLOCK, _logliks, _phase_blocks, _sectors, _split, premeasurement_state


def loglik_grid(split, record):
    """One record's log-likelihood on a phase grid, through kernels set up
    for it alone."""
    loglik = _logliks(split, [record])
    return lambda phis: loglik(phis)[0]


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
    grid = loglik_grid(_split(pre, "MMZI"), record)
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

    grid = peak(lambda: loglik_grid(_split(pre, "MMZI"), record)(phis))
    reference = peak(lambda: reference_loglik(pre, record, phis))
    assert grid <= reference


def test_loglik_grid_calls_only_evaluate_the_kernel_set_up_once(monkeypatch):
    # after the set-up, a call neither scans sectors, nor builds splitter
    # columns, nor finds the distinct eigenvalues
    state, pipeline = CASES["dual_fock_mzi"]
    record = sample_outcomes(state, 0.3, pipeline, 10_000, seed=7)
    loglik = loglik_grid(_split(premeasurement_state(state, pipeline), "MMZI"), record)
    grids = [np.array([0.3]), np.linspace(*default_window(state, 0.3, pipeline), 10_000)]
    expected = [loglik(phis) for phis in grids]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("per-record set-up repeated in a call")

    monkeypatch.setattr(fock.TwoModeState, "__post_init__", forbidden)
    monkeypatch.setattr(fisher, "splitter_columns", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
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
    # table; the log-likelihood set-up, once per chunk of MLE_CHUNK records
    # (here the three records make one chunk), then asks once for the
    # sectors any of its records saw
    table_side, grid_side = columns[:len(sectors)], columns[len(sectors):]
    assert [n for n, _ in table_side] == sectors
    observed = sorted({a + b for run in runs for a, b in run.outcomes})
    assert [n for n, _ in grid_side] == observed
    assert len(observed) < len(sectors)


@pytest.mark.parametrize("m_trials", [0, -5])
def test_run_estimation_rejects_trial_counts_below_one(m_trials):
    with pytest.raises(ValueError, match="m_trials must be >= 1"):
        run_estimation(noon(1), 0.3, "MMZI", m_trials, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: run_estimation(noon(2), 0.4, "MMZI", 200, seed=1, window=w),
    ],
    ids=["run_estimation"],
)
def test_window_wider_than_the_period_raises_before_any_draw(monkeypatch, call):
    def refuse(_seed):
        raise AssertionError("drew outcomes before checking the window")

    monkeypatch.setattr(estimation, "_rng", refuse)
    with pytest.raises(ValueError, match="exceeds the likelihood period 3.14159; "
                                         "the phase is not identifiable"):
        call((0.0, 2 * math.pi))


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_estimation(noon(2), 0.3, "MMZI", 100, seed=-1),
        lambda: sample_outcomes(noon(2), 0.3, "MMZI", 100, -1),
    ],
    ids=["run_estimation", "sample_outcomes"],
)
def test_negative_seed_raises_before_any_table(monkeypatch, call):
    def refuse(*_args):
        raise AssertionError("built the outcome table before checking the seed")

    monkeypatch.setattr(estimation, "_outcome_table", refuse)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        call()


def grid_sizes_per_set_up(monkeypatch):
    """Wrap _logliks so that each set-up's calls append (phases, records
    evaluated, or None for all) to a list of their own, after the number of
    records it serves."""
    set_ups = []
    real = estimation._logliks

    def counted(split, records):
        loglik = real(split, records)
        sizes = [len(records)]
        set_ups.append(sizes)

        def call(phis, own=None):
            sizes.append((phis.size, None if own is None else len(own)))
            return loglik(phis, own)

        return call

    monkeypatch.setattr(estimation, "_logliks", counted)
    return set_ups


def test_mle_evaluates_only_whole_grids_in_a_few_calls(monkeypatch):
    set_ups = grid_sizes_per_set_up(monkeypatch)
    state, pipeline = CASES["dual_fock_mzi"]
    run_estimation(state, 0.3, pipeline, 10_000, seed=1, reps=3)
    big = noon(3)  # one ulp of 6e5 exceeds MLE_REFINE_TOL: the no-progress stop ends it
    outcomes = sample_outcomes(big, 6e5, "MMZI", 100, seed=0)
    mle_phase(outcomes, big, "MMZI", default_window(big, 6e5))
    run_estimation(zeta_dual_fock(3.0, 8)[0], 0.3, "MZI", 200, seed=5, reps=130)
    # one set-up per chunk of MLE_CHUNK records, never one per record: the
    # three records of the first run, the one of mle_phase, then 130 records
    # in chunks of 62, 62 and 6. Each chunk passes the coarse grid block by
    # block over all its records, then zooms its live records together: a
    # call takes one grid of MLE_ZOOM_POINTS per live record, and records
    # only leave
    blocks = [rows.stop - rows.start for rows in _phase_blocks(estimation.MLE_GRID_POINTS)]
    assert [sizes[0] for sizes in set_ups] == [3, 1, 62, 62, 6]
    for records, *calls in set_ups:
        coarse, zooms = calls[:len(blocks)], calls[len(blocks):]
        assert coarse == [(size, None) for size in blocks]
        assert 1 <= len(zooms) <= 8
        live = [n for _, n in zooms]
        assert all(size == estimation.MLE_ZOOM_POINTS * n for size, n in zooms)
        assert live == sorted(live, reverse=True) and live[0] <= records <= estimation.MLE_CHUNK


def test_a_chunk_of_zoomed_grids_fits_one_phase_block():
    # no phase block cuts a record's zoomed grid, so each record takes the
    # products it would take alone
    assert estimation.MLE_CHUNK * estimation.MLE_ZOOM_POINTS <= _PHASE_BLOCK


def test_coarse_grid_runs_once_per_chunk_whatever_the_reps(monkeypatch):
    # via MZI, |1,1> and |2,2> take the rotation and N = 3 the phase kernel;
    # each kernel passes over the coarse grid block by block, once per
    # chunk: one exponential table (np.outer of the phases and the J3
    # eigenvalues) and one _rotation per block
    state = make_state([(1, 1, 1.0), (2, 2, 0.5), (0, 3, 0.6), (1, 2, 0.4j)], 4)
    monkeypatch.setattr(estimation, "MLE_CHUNK", 4)
    blocks = _phase_blocks(estimation.MLE_GRID_POINTS)
    block = blocks[0].stop - blocks[0].start
    passes = {"table": 0, "_rotation": 0}
    real_outer, real_rotation = np.outer, fisher._rotation

    def outer(phis, m):
        passes["table"] += np.size(phis) == block
        return real_outer(phis, m)

    def rotation(j, phis, *args):
        passes["_rotation"] += phis.size == block
        return real_rotation(j, phis, *args)

    monkeypatch.setattr(np, "outer", outer)
    monkeypatch.setattr(fisher, "_rotation", rotation)
    for reps in (1, 4, 9):
        passes.update(table=0, _rotation=0)
        run_estimation(state, 0.3, "MZI", 2000, seed=1, reps=reps)
        chunks = -(-reps // estimation.MLE_CHUNK)
        assert passes == {"table": chunks * len(blocks), "_rotation": chunks * len(blocks)}


def peak_rss_kib(argv):
    """The peak resident memory (VmHWM, KiB) of a fresh process that runs
    the CLI on argv: its own high-water mark, not one it inherits."""
    code = ("import sys; from qfilab.cli import main; main(sys.argv[1:]); "
            "print([line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')][0])")
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", os.devnull],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_estimate_memory_does_not_grow_with_the_reps():
    # a thousand records keep their histograms and JSON lines (about 4.4
    # MiB here), a chunk's block of coarse rows (1 MiB) and the kernels of
    # more sectors; the coarse grid's rows of every record are never held
    argv = ["estimate", "catalog:zeta_dual_fock:3:30", "--pipeline", "MZI", "--phi-true", "0.3",
            "--trials", "1000"]
    few, many = (peak_rss_kib(argv + ["--reps", reps]) for reps in ("10", "1000"))
    assert many - few < 8 * 1024


def synthetic_mle(monkeypatch, loglik, lo, hi):
    """_mle on a window, with loglik standing in for every record's grid."""
    def set_up(split, records):
        def call(phis, own=None):
            return loglik(np.broadcast_to(phis, (len(records), phis.size)) if own is None
                          else phis.reshape(len(own), -1))
        return call

    monkeypatch.setattr(estimation, "_logliks", set_up)
    (phi_hat,) = estimation._mle(None, [{(0, 1): 1}], lo, hi)
    return phi_hat


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
