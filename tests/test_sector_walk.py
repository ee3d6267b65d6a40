"""The sector walk against a brute-force scan, and the canonical-order
invariant of TwoModeState that the walk relies on.

Every reader of a state's sectors (fock.sector_bounds and the readers
built on it: occupied_sectors, sector_decompose, likelihood_period and the
fisher kernel's _sectors) must see exactly what a scan of every entry for
every photon number up to the cutoff sees. The readers that take a
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
    estimation,
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


@given(states())
@example(vacuum(MAX_SECTOR))
@example(GAPPED)
def test_sector_bounds_match_scan(state):
    n, lo, hi = fock.sector_bounds(state)
    ref = scan_sectors(state)
    assert n.tolist() == [m for m, *_ in ref]
    for start, stop, (_, na, nb, amps) in zip(lo.tolist(), hi.tolist(), ref):
        assert state.na[start:stop].tolist() == na.tolist()
        assert state.nb[start:stop].tolist() == nb.tolist()
        assert state.amps[start:stop].tolist() == amps.tolist()


def test_scalar_sector_readers_walk_no_sector(monkeypatch):
    # 200,000 sectors: the period, the sector list, the kinds and the
    # likelihood set-up of a record that touches three sectors all answer
    # from the one scan, with the per-sector walk made to raise
    def forbidden(*_args, **_kwargs):
        raise AssertionError("sector walk")

    for module in (fock, fisher, estimation):
        if hasattr(module, "sector_slices"):
            monkeypatch.setattr(module, "sector_slices", forbidden)
    k = 200_000
    state = zeta_noon(3.0, k)[0]
    assert likelihood_period(state, "MMZI") == 2.0 * math.pi / k
    assert state.occupied_sectors() == list(range(1, k + 1))
    two, general = fisher._sector_kinds(state)
    assert two.size == k and len(general) == 0
    loglik = estimation._loglik_grid(state, {(1, 0): 4, (0, 2): 3, (5, 0): 2})
    assert np.isfinite(loglik(np.array([0.3]))).all()


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
