"""The fisher phase kernel, pinned bit for bit.

fisher._amplitudes is the one code path from sectors and phases to outcome
amplitudes. It cuts the phases into blocks and takes one exponential per
distinct J3 eigenvalue, yet fi_scan must equal the per-sector formula over
the whole grid (an exponential of each sector's own eigenvalues) to the
last bit, on either side of every block boundary; and the sampler's table,
which skips the phase derivative, must keep every bit of the amplitudes.
"""

import math

import numpy as np
import pytest

from qfilab import dual_fock, fi_scan, zeta_dual_fock, zeta_noon
from qfilab.fisher import (
    _AMP_NOISE,
    _PHASE_BLOCK,
    _outcome_table,
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


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", list(CASES))
def test_fi_scan_is_bit_identical_to_the_per_sector_formula(case, size):
    state, pipeline = CASES[case]
    phis = np.linspace(0.0, 2.0 * math.pi, size)
    expected = reference_fi_scan(premeasurement_state(state, pipeline), phis)
    assert np.array_equal(fi_scan(state, phis, pipeline), expected)


@pytest.mark.parametrize("case", list(CASES))
def test_sampling_table_skips_the_derivative_and_keeps_p(case):
    state, pipeline = CASES[case]
    pre = premeasurement_state(state, pipeline)
    *full, dz = _outcome_table(pre, 0.3)
    *bare, none = _outcome_table(pre, 0.3, False)
    assert none is None and dz.shape == full[2].shape
    for got, want in zip(bare, full):
        assert np.array_equal(got, want)
