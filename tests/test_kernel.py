"""The fisher phase kernel, pinned bit for bit.

fisher._amplitudes is the one code path from sectors and phases to outcome
amplitudes. It cuts the phases into blocks and takes one exponential per
distinct J3 eigenvalue, yet the FI scan of the general sectors must equal
the per-sector formula over the whole grid (an exponential of each
sector's own eigenvalues) to the last bit, on either side of every block
boundary; and the sampler's table, which skips the phase derivative, must
keep every bit of the amplitudes.

Two-branch sectors (occupied n_a exactly {0, N}) left that table path for
a closed form, so they are held to the same per-sector formula within
1e-13 relative, not bit for bit: the closed form is exact where the table
rounds (an equal-weight sector gives (A+B) N^2 at every phase, where the
table's sum over N+1 outcomes leaves last-bit noise). That moved the
zeta_noon case wholly, and the N = 2 sector of the MZI zeta_dual_fock
case, from bit identity to this bound; dual_fock via MZI has no
two-branch sector and stays bit for bit as a whole.
"""

import math

import numpy as np
import pytest

from qfilab import TwoModeState, dual_fock, fi_scan, zeta_dual_fock, zeta_noon
from qfilab.cli import main
from qfilab.fisher import (
    _AMP_NOISE,
    _PHASE_BLOCK,
    _outcome_table,
    _sector_kinds,
    _sectors,
    premeasurement_state,
)


def reference_fi_scan(pre, phis):
    """The per-sector formula: every phase at once, exp(-i phi m) of each
    sector's own eigenvalues, then the transversal-limit reduction trusting
    a probability of at least 1e-12 or an amplitude above _AMP_NOISE; the
    floor is implied by the amplitude test, so fisher's one rule must give
    the same bits."""
    fi = np.zeros(phis.size)
    for _, vec, m, bs_t in _sectors(pre):
        chi = np.exp(-1j * np.outer(phis, m)) * vec
        out, dout = chi @ bs_t, (chi * (-1j * m)) @ bs_t
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
    two, _ = _sector_kinds(pre)
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
        assert len(two_branch) == 0
        assert np.array_equal(fi_scan(state, phis, pipeline), reference_fi_scan(pre, phis))
    else:
        assert len(two_branch) > 0
        closed = fi_scan(two_branch, phis, "MMZI")
        np.testing.assert_allclose(closed, reference_fi_scan(two_branch, phis), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(fi_scan(state, phis, pipeline), reference_fi_scan(pre, phis),
                                   rtol=1e-13, atol=0.0)


def test_two_branch_scan_takes_no_splitter_column(monkeypatch, tmp_path):
    # qfi on the headline state: every sector is two-branch, so neither the
    # scan nor anything else builds a splitter column or an outcome table
    def forbidden(*_args, **_kwargs):
        raise AssertionError("splitter column built")

    monkeypatch.setattr("qfilab.fisher.splitter_columns", forbidden)
    assert main(["qfi", "catalog:zeta_noon:3:300", "--out", str(tmp_path / "q.json")]) == 3


@pytest.mark.parametrize("case", list(CASES))
def test_sampling_table_skips_the_derivative_and_keeps_p(case):
    state, pipeline = CASES[case]
    pre = premeasurement_state(state, pipeline)
    *full, dz = _outcome_table(pre, 0.3)
    *bare, none = _outcome_table(pre, 0.3, False)
    assert none is None and dz.shape == full[2].shape
    for got, want in zip(bare, full):
        assert np.array_equal(got, want)
