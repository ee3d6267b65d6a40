"""The sector walk against a brute-force scan, and the canonical-order
invariant of TwoModeState that the walk relies on.

Every reader of a state's sectors (the table TwoModeState.sectors that a
state finds when it is built, and the readers built on it:
occupied_sectors, sector_decompose, likelihood_period and the fisher
kernel's _sectors) must see exactly what a scan of every entry for every
photon number up to the cutoff sees. The readers that take a
maximum, a membership test or a subset of the sectors must do so without
walking them one by one.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qfilab import (
    TwoModeState,
    apply_beamsplitter,
    fisher,
    fock,
    likelihood_period,
    make_state,
    noon,
    sector_decompose,
    splitter_columns,
    vacuum,
    zeta_noon,
)
from qfilab.cli import main

MAX_SECTOR = 7

pipelines = st.sampled_from(("MZI", "MMZI"))
parts = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def states(draw):
    """Up to four of the sectors 0..MAX_SECTOR, so occupied sectors are
    usually gapped and sometimes include the vacuum, each with any nonempty
    set of n_a."""
    sectors = draw(
        st.lists(st.integers(0, MAX_SECTOR), min_size=1, max_size=4, unique=True)
    )
    entries = []
    for n in sectors:
        for k in draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True)):
            entries.append((k, n - k, complex(draw(parts), draw(parts))))
    assume(max(abs(e[2]) for e in entries) > 1e-3)
    return make_state(entries, cutoff=MAX_SECTOR)


def scan_sectors(state):
    """(N, na, nb, amps) for each occupied sector, found by scanning every
    entry once per photon number up to the cutoff."""
    found = []
    for n in range(state.cutoff + 1):
        hit = [i for i in range(len(state)) if state.na[i] + state.nb[i] == n]
        if hit:
            found.append((n, state.na[hit], state.nb[hit], state.amps[hit]))
    return found


GAPPED = make_state([(0, 0, 0.5), (2, 1, 0.5j), (0, 3, -0.5), (6, 0, 0.5)], cutoff=MAX_SECTOR)
# a direct construction, since make_state rejects an empty table; the
# log-likelihood grid cuts an empty record to this sub-state
NO_ENTRIES = np.array([], dtype=np.int64)
EMPTY = TwoModeState(NO_ENTRIES, NO_ENTRIES, np.array([], dtype=complex), MAX_SECTOR)


@given(states())
@example(vacuum(MAX_SECTOR))
@example(GAPPED)
@example(EMPTY)
def test_sector_bounds_match_scan(state):
    n, lo, hi = state.sectors
    ref = scan_sectors(state)
    assert n.tolist() == [m for m, *_ in ref]
    assert lo.size == hi.size == n.size
    for start, stop, (_, na, nb, amps) in zip(lo.tolist(), hi.tolist(), ref):
        assert state.na[start:stop].tolist() == na.tolist()
        assert state.nb[start:stop].tolist() == nb.tolist()
        assert state.amps[start:stop].tolist() == amps.tolist()


def test_scalar_sector_readers_walk_no_sector(monkeypatch):
    # 200,000 sectors: the period, the sector list, the kinds and the
    # likelihood set-up of a record that touches three sectors all answer
    # from the one scan made when the state was built, with the walks over
    # every sector made to raise
    def forbidden(*_args, **_kwargs):
        raise AssertionError("sector walk")

    for module in (fock, fisher):
        for walk in ("apply_beamsplitter", "sector_decompose"):
            monkeypatch.setattr(module, walk, forbidden)
    k = 200_000
    state = zeta_noon(3.0, k)[0]
    assert likelihood_period(state, "MMZI") == 2.0 * math.pi / k
    assert state.occupied_sectors() == list(range(1, k + 1))
    split = fisher._split(state, "MMZI")
    assert (split.kind == fisher._TWO_BRANCH).sum() == k and split.n.size == k
    record = {(1, 0): 4, (0, 2): 3, (5, 0): 2}
    loglik = fisher._logliks(split, [record])
    assert np.isfinite(loglik(np.array([0.3]))).all()

    # the set-up scans only the sub-state of the record's sectors
    observed = int(np.isin(state.n_total, [a + b for a, b in record]).sum())
    real_scan, sizes = TwoModeState.__post_init__, []

    def sized_scan(s):
        sizes.append(len(s))
        assert len(s) <= observed, f"a sector scan of {len(s)} entries"
        real_scan(s)

    monkeypatch.setattr(TwoModeState, "__post_init__", sized_scan)
    fisher._logliks(split, [record])
    assert observed == 6 and sizes == [observed]


@pytest.mark.parametrize(
    "argv",
    [
        ["qfi", "catalog:zeta_noon:3:300"],
        ["qfi", "catalog:zeta_noon:3:40", "--pipeline", "MZI"],
        ["fi-scan", "catalog:zeta_dual_fock:3:20", "--pipeline", "MZI", "--points", "101"],
        ["estimate", "catalog:zeta_dual_fock:3:30", "--pipeline", "MZI", "--phi-true", "0.3",
         "--trials", "10000", "--reps", "10", "--seed", "1"],
        ["estimate", "catalog:zeta_noon:3:40", "--phi-true", "0.3", "--trials", "200", "--reps", "130",
         "--seed", "5"],
    ],
    ids=["qfi", "qfi-mzi", "fi-scan-mzi", "estimate-mzi", "estimate-130-reps"],
)
def test_no_command_scans_a_table_twice(argv, monkeypatch, tmp_path):
    # a state finds its sectors once, when it is built, and every reader
    # takes them from it: no command rebuilds a table it holds (a copy, or a
    # sub-state of every sector) only to scan its photon numbers again. An
    # empty table has no sectors to scan.
    real_scan, scanned = TwoModeState.__post_init__, []

    def recorded(s):
        if len(s):
            scanned.append(s.n_total.tobytes())
        real_scan(s)

    monkeypatch.setattr(TwoModeState, "__post_init__", recorded)
    assert main([*argv, "--out", str(tmp_path / "out")]) in (0, 3)
    assert scanned and len(set(scanned)) == len(scanned)


def test_empty_state_has_no_sectors_and_no_fringes():
    n, lo, hi = EMPTY.sectors
    assert n.size == lo.size == hi.size == 0
    assert len(apply_beamsplitter(EMPTY)) == 0
    for pipeline in ("MZI", "MMZI"):
        # no outcome: empty tables, no fringes and no information
        assert likelihood_period(EMPTY, pipeline) == math.inf
        table = fisher._outcome_table(fisher._split(EMPTY, pipeline), 0.3)
        assert all(col.size == 0 for col in table)
        assert fisher.likelihood(EMPTY, 0.3, pipeline) == {}
        assert fisher.likelihood_with_derivative(EMPTY, 0.3, pipeline) == {}
        assert fisher.fi_scan(EMPTY, np.array([0.1, 0.2]), pipeline).tolist() == [0.0, 0.0]
        report = fisher.classical_fi(EMPTY, 0.3, pipeline)
        assert (report.fi, report.qfi) == (0.0, 0.0)
        assert fisher.fi_observable(EMPTY, 0.3, pipeline, lambda a, b: b - a).fi == 0.0
    # an empty record is cut to the empty sub-state, whose log-likelihood is 0
    assert not fisher._logliks(fisher._split(GAPPED, "MMZI"), [{}])(np.array([0.1, 0.2])).any()


@given(states())
@example(vacuum(MAX_SECTOR))
@example(GAPPED)
def test_state_sectors_match_scan(state):
    ref = scan_sectors(state)
    assert state.occupied_sectors() == [n for n, *_ in ref]
    comps = sector_decompose(state)
    assert [c.n_total for c in comps] == [n for n, *_ in ref]
    for comp, (n, na, nb, amps) in zip(comps, ref):
        prob = float(np.sum(np.abs(amps) ** 2))
        unit = amps / np.sqrt(prob)
        phase = unit[0] / abs(unit[0])
        assert comp.probability == prob
        assert comp.phase == complex(phase)
        assert comp.state.cutoff == n
        assert comp.state.na.tolist() == na.tolist()
        assert comp.state.nb.tolist() == nb.tolist()
        assert comp.state.amps.tolist() == (unit / phase).tolist()


@given(states(), pipelines)
@example(vacuum(MAX_SECTOR), "MZI")
@example(vacuum(MAX_SECTOR), "MMZI")
@example(GAPPED, "MZI")
@example(GAPPED, "MMZI")
def test_kernel_sectors_match_scan(state, pipeline):
    pre = apply_beamsplitter(state) if pipeline == "MZI" else state
    ref = scan_sectors(pre)
    spread = max(int(na.max() - na.min()) for _, na, _, _ in ref)
    assert likelihood_period(state, pipeline) == (2.0 * math.pi / spread if spread else math.inf)
    got = list(fisher._sectors(pre))
    assert [g[0] for g in got] == [n for n, *_ in ref]
    for (n, vec, m, bs_t), (_, na, _, amps) in zip(got, ref):
        assert vec.tolist() == amps.tolist()
        assert m.tolist() == (na - n / 2.0).tolist()
        assert np.array_equal(bs_t, splitter_columns(n, na).T)


@pytest.mark.parametrize(
    "na, nb, amps",
    [
        ([1, 0], [0, 1], [0.6, 0.8]),  # n_a falls inside a sector
        ([0, 0], [2, 1], [0.6, 0.8]),  # N falls
        ([0, 0], [1, 1], [0.6, 0.8]),  # duplicate occupation
        ([0, 1], [1, 0], [1.0, 0.0]),  # exact-zero amplitude
    ],
    ids=["n_a-order", "sector-order", "duplicate", "zero"],
)
def test_direct_state_must_be_canonical(na, nb, amps):
    with pytest.raises(ValueError):
        TwoModeState(np.array(na), np.array(nb), np.array(amps, dtype=complex), 2)


def test_direct_canonical_state_is_accepted():
    s = noon(2)
    assert TwoModeState(s.na, s.nb, s.amps, s.cutoff).occupied_sectors() == [2]
