"""The fisher phase kernel, pinned bit for bit.

fisher._amplitudes is the phase kernel from sectors and phases to outcome
amplitudes. It takes one exponential per distinct J3 eigenvalue, and the
FI scan passes it the phases a block at a time, yet the scan of the
general sectors must equal the per-sector formula over the whole grid (an
exponential of each sector's own eigenvalues, then the stencil
dz = -i J2 z of each sector's outcomes) to the last bit, on either side of
every block boundary. The derivative rule (fisher._derivative) must give
the same bits on a kernel block and on the flat outcome table, whatever
its chunking, and the sampler and the likelihood must read the table
without it.

Two-branch sectors (occupied n_a exactly {0, N}) left that table path for
a closed form, so they are held to the same per-sector formula within
1e-13 relative, not bit for bit: the closed form is exact where the table
rounds (an equal-weight sector gives (A+B) N^2 at every phase, where the
table's sum over N+1 outcomes leaves last-bit noise). That moved the
zeta_noon case wholly, and the N = 2 sector of the MZI zeta_dual_fock
case, from bit identity to this bound. The MZI single inputs |J,J> of
both dual-Fock cases then left it too, for the closed form 2J(J+1), and
are held to the same bound (the table path keeps its bits on the
pre-measurement state read as an MMZI source). The FI adds the
equal-weight two-branch sectors' total first (one number, broadcast to
every phase, with no exponential), then the unequal-weight two-branch
sectors, then the general ones, each kind in sector order. Where the kinds
interleave (GENERAL_FIRST, MIXED_WEIGHTS) the whole-state sum leaves
sector order and is held to the same bound, and MIXED_WEIGHTS to that
documented order bit for bit.
"""

import math

import numpy as np
import pytest

from qfilab import (
    TwoModeState,
    classical_fi,
    dual_fock,
    fi_scan,
    make_state,
    sector_fi_decomposition,
    zeta_dual_fock,
    zeta_noon,
)
from qfilab import fisher
from qfilab.cli import main
from qfilab.estimation import _sampler
from qfilab.fisher import (
    _AMP_NOISE,
    _PHASE_BLOCK,
    _amplitudes,
    _derivative,
    _outcome_table,
    _sectors,
    _split,
    premeasurement_state,
)
from sector_operators import j2_stencil, sector_kinds


def reference_fi_scan(pre, phis):
    """The per-sector formula: every phase at once, exp(-i phi m) of each
    sector's own eigenvalues, dz = -i J2 z of its outcomes as the stencil
    written per sector, then the transversal-limit reduction trusting
    a probability of at least 1e-12 or an amplitude above _AMP_NOISE; the
    floor is implied by the amplitude test, so fisher's one rule must give
    the same bits."""
    fi = np.zeros(phis.size)
    for n, vec, m, bs_t in _sectors(pre):
        out = (np.exp(-1j * np.outer(phis, m)) * vec) @ bs_t
        dout = j2_stencil(out, n)
        p = np.abs(out) ** 2
        dp = 2.0 * np.real(np.conj(out) * dout)
        trusted = (p >= 1e-12) | (np.abs(out) > _AMP_NOISE)
        plain = dp * dp / np.where(p > 0, p, 1.0)
        limit = 4.0 * np.abs(dout) ** 2
        fi += np.sum(np.where(trusted & (p > 0), plain, np.where(trusted, 0.0, limit)), axis=1)
    return fi


CASES = {
    "zeta_noon_mmzi": (zeta_noon(3.0, 200)[0], "MMZI"),
    "zeta_dual_fock_mzi": (zeta_dual_fock(3.0, 30)[0], "MZI"),
    "dual_fock_mzi": (dual_fock(7), "MZI"),
}
SIZES = [1, 181, _PHASE_BLOCK - 1, _PHASE_BLOCK, _PHASE_BLOCK + 1, 2 * _PHASE_BLOCK + 1]


def split_two_branch(pre):
    """pre as two states: its two-branch sectors, and every other sector."""
    two, _ = sector_kinds(pre)
    mask = np.zeros(len(pre), dtype=bool)
    mask[two] = mask[two + 1] = True
    return [TwoModeState(pre.na[m], pre.nb[m], pre.amps[m], pre.cutoff) for m in (mask, ~mask)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", list(CASES))
def test_fi_scan_is_bit_identical_to_the_per_sector_formula(case, size):
    state, pipeline = CASES[case]
    phis = np.linspace(0.0, 2.0 * math.pi, size)
    pre = premeasurement_state(state, pipeline)
    two_branch, rest = split_two_branch(pre)
    # the table path, bit for bit, on everything that is not two-branch
    # (the one single-input sector here, |0,0>, has J3 eigenvalue 0, so the
    # formula gives it exact zeros, as the reduction does by skipping it)
    assert np.array_equal(fi_scan(rest, phis, "MMZI"), reference_fi_scan(rest, phis))
    if case == "dual_fock_mzi":
        # |7,7> is one single input, which the MZI reads in closed form:
        # 2J(J+1) = 112 at every phase, the table formula to rounding
        assert len(two_branch) == 0
        assert np.all(fi_scan(state, phis, pipeline) == 112.0)
        np.testing.assert_allclose(fi_scan(state, phis, pipeline), reference_fi_scan(pre, phis),
                                   rtol=1e-13, atol=0.0)
    else:
        assert len(two_branch) > 0
        closed = fi_scan(two_branch, phis, "MMZI")
        np.testing.assert_allclose(closed, reference_fi_scan(two_branch, phis), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(fi_scan(state, phis, pipeline), reference_fi_scan(pre, phis),
                                   rtol=1e-13, atol=0.0)


# a general N = 2 sector below a two-branch N = 3 one; every CASES state
# puts its two-branch sectors first
GENERAL_FIRST = make_state([(1, 1, 0.6), (0, 2, 0.3j), (0, 3, 0.5), (3, 0, 0.4 - 0.2j)], 3)


@pytest.mark.parametrize("size", [181, 2 * _PHASE_BLOCK + 1])
def test_general_sector_below_a_two_branch_one(size):
    # the FI adds the two-branch total before the general sectors, out of
    # sector order here, so it may move from the per-sector formula and the
    # sector sum by rounding only
    two, general = sector_kinds(GENERAL_FIRST)
    assert GENERAL_FIRST.n_total[two].tolist() == [3] and general.occupied_sectors() == [2]
    phis = np.linspace(0.0, 2.0 * math.pi, size)
    np.testing.assert_allclose(fi_scan(GENERAL_FIRST, phis, "MMZI"), reference_fi_scan(GENERAL_FIRST, phis),
                               rtol=1e-13, atol=0.0)
    for phi in phis[:: size // 6].tolist():
        _, total = sector_fi_decomposition(GENERAL_FIRST, phi, "MMZI")
        assert math.isclose(classical_fi(GENERAL_FIRST, phi, "MMZI").fi, total, rel_tol=1e-13)


# equal-weight two-branch sectors (N = 1, 4) among unequal-weight ones
# (N = 2, 3), below a general N = 5 sector
MIXED_WEIGHTS = make_state([(0, 1, 0.3), (1, 0, 0.3j), (0, 2, 0.5), (2, 0, -0.2), (0, 3, 0.1 + 0.4j),
                            (3, 0, 0.35), (0, 4, 0.25), (4, 0, -0.25), (2, 3, 0.2), (4, 1, 0.1j)], 5)


def by_sector(state):
    """Each sector of state as a sub-state, its amplitudes not renormalized."""
    return [TwoModeState(state.na[lo:hi], state.nb[lo:hi], state.amps[lo:hi], state.cutoff)
            for _, lo, hi in zip(*(col.tolist() for col in state.sectors))]


@pytest.mark.parametrize("size", [181, 2 * _PHASE_BLOCK + 1, 40_000])
def test_mixed_weight_two_branch_sectors(size):
    two, general = sector_kinds(MIXED_WEIGHTS)
    a, b = MIXED_WEIGHTS.amps[two], MIXED_WEIGHTS.amps[two + 1]
    assert (np.abs(a) == np.abs(b)).tolist() == [True, False, False, True]
    assert general.occupied_sectors() == [5]
    phis = np.linspace(0.0, 2.0 * math.pi, size)
    fi = fi_scan(MIXED_WEIGHTS, phis, "MMZI")
    # the documented order, bit for bit: the equal-weight sectors' total,
    # then each unequal-weight sector and the general one, one after another
    fi1, fi2, fi3, fi4, fi5 = (fi_scan(s, phis, "MMZI") for s in by_sector(MIXED_WEIGHTS))
    assert np.array_equal(fi, (fi1 + fi4) + fi2 + fi3 + fi5)
    # the equal-weight sectors first leave sector order, so against the
    # per-sector formula and the sector sum the scan moves by rounding only
    np.testing.assert_allclose(fi, reference_fi_scan(MIXED_WEIGHTS, phis), rtol=1e-13, atol=0.0)
    for phi in phis[:: size // 6].tolist():
        _, total = sector_fi_decomposition(MIXED_WEIGHTS, phi, "MMZI")
        assert math.isclose(classical_fi(MIXED_WEIGHTS, phi, "MMZI").fi, total, rel_tol=1e-13)


def test_equal_weight_scan_evaluates_no_phase(monkeypatch):
    # every zeta_noon sector is equal-weight: the scan is one total,
    # broadcast to every phase, with no exponential at all
    state = zeta_noon(3.0, 200_000)[0]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("exponential evaluated")

    monkeypatch.setattr(np, "exp", forbidden)
    fi = fi_scan(state, np.linspace(0.0, 2.0 * math.pi, 4097), "MMZI")
    assert fi.shape == (4097,) and np.all(fi == fi[0])


def test_two_branch_scan_takes_no_splitter_column(monkeypatch, tmp_path):
    # qfi on the headline state: every sector is two-branch, so neither the
    # scan nor anything else builds a splitter column or an outcome table
    def forbidden(*_args, **_kwargs):
        raise AssertionError("splitter column built")

    monkeypatch.setattr("qfilab.fisher.splitter_columns", forbidden)
    assert main(["qfi", "catalog:zeta_noon:3:300", "--out", str(tmp_path / "q.json")]) == 3


@pytest.mark.parametrize("case", list(CASES))
def test_sampling_table_skips_the_derivative_and_keeps_p(case, monkeypatch):
    # the derivative is read from the table, never written into it: the
    # likelihoods list the same P bit for bit with and without it, and the
    # sampler and the plain likelihood never take it
    state, pipeline = CASES[case]
    with_dp = fisher.likelihood_with_derivative(state, 0.3, pipeline)

    def forbidden(*_args):
        raise AssertionError("derivative taken")

    monkeypatch.setattr(fisher, "_derivative", forbidden)
    plain = fisher.likelihood(state, 0.3, pipeline)
    assert list(plain) == list(with_dp)
    assert [p for p, _ in with_dp.values()] == list(plain.values())
    assert sum(_sampler(_split(state, pipeline), 0.3)(1000, 5).values()) == 1000


@pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
@pytest.mark.parametrize("case", list(CASES))
def test_table_derivative_equals_the_kernel_blocks(case, chunk, monkeypatch):
    # one pass of the rule over the flat table has, whatever its chunks,
    # the bytes of the rule taken over the whole table at once; its
    # coefficient is 0 across every sector edge, so each sector's dz equals
    # the rule on that sector alone (in value: the +-0 that the edge term
    # subtracts can flip the sign of a zero). On blocks of many phases, one
    # of 3 and one of 2049, every row of the rule's pass has the bytes of
    # the rule on that row, signed zeros too
    state, pipeline = CASES[case]
    split = _split(state, pipeline)
    na, nb, z = _outcome_table(split, 0.3)
    monkeypatch.setattr(fisher, "_TEMP_CELLS", chunk)
    pre = premeasurement_state(state, pipeline)
    for size in (3, _PHASE_BLOCK + 1):
        for n, out in _amplitudes(pre, np.linspace(0.0, 2.0 * math.pi, size)):
            k = np.arange(n + 1)
            assert _derivative(out, k, n - k).tobytes() == j2_stencil(out, n).tobytes()
    dz = _derivative(z, na, nb)
    e = 0.5 * np.sqrt((na[:-1] + 1.0) * nb[:-1])
    whole = np.zeros_like(z)
    whole[:-1] = z[1:] * e
    whole[1:] -= z[:-1] * e
    assert dz.tobytes() == whole.tobytes()
    blocks = {n: out for n, out in _amplitudes(split.table, np.array([0.3]))}
    for lo in np.flatnonzero(na == 0).tolist():  # every sector, the rotation's too
        n = int(nb[lo])
        sector = slice(lo, lo + n + 1)
        assert np.array_equal(dz[sector], j2_stencil(z[sector], n))
        if n in blocks:
            k = np.arange(n + 1)
            assert np.array_equal(dz[sector], _derivative(blocks[n], k, n - k)[0])
