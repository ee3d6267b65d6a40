"""The counting Fisher information against a 50-digit mpmath oracle.

The oracle shares no code with the library. For each sector it builds the
splitter exp(i pi J1 / 2) by mpmath.expm, applies it before the phase
exp(-i phi J3) for "MZI" and after it for both pipelines, and sums dP^2/P
over every outcome, or the limit 4|dz|^2 at an exact zero, with dz taken
from -i J3 before the final splitter. The state's float amplitudes and the
phase are taken as exact, and every step runs at 50 digits, so an
amplitude below 1e-40 is an exact zero that the 50-digit splitters left
at their rounding (an unoccupied input that two splitters around phi = 0
send to one outcome comes out near 1e-50).

A fixed set of small states is held to 1e-12 relative at seven phases,
by classical_fi and by fi_scan: two-branch sectors (noon and zeta_noon,
closed form), balanced single inputs (dual_fock and zeta_dual_fock via
MZI, the rotation), and two general states whose outcome amplitudes all
stay well away from zero at those phases (the phase kernel). The two
states of ROADMAP item 7, whose amplitudes come within rounding of zero,
are kept as strict xfails against the oracle until that item lands.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from qfilab import (
    classical_fi,
    dual_fock,
    fi_observable,
    fi_scan,
    make_state,
    noon,
    sector_fi_decomposition,
    zeta_dual_fock,
    zeta_noon,
)
from qfilab.fock import TwoModeState

DPS = 50
ZERO = 1e-40  # outcome |z| below which the oracle's own rounding hides an exact zero
# away from every zero of the d^J_{m,0}(phi) of dual_fock and
# zeta_dual_fock:3:4 (J <= 4), and from the dark fringes of noon
PHASES = (0.3, 0.45, 0.75, 1.4, 1.75, 2.2, 2.7)

GENERAL = {
    "general-mzi": (
        make_state(
            [(0, 1, 0.25), (1, 0, 0.35j), (0, 2, 0.6 + 0.1j), (1, 1, -0.3 + 0.4j), (2, 0, 0.2 - 0.5j)], cutoff=4
        ),
        "MZI",
    ),
    "general-mmzi": (
        make_state(
            [(0, 2, 0.5 - 0.2j), (1, 1, 0.45j), (2, 0, -0.3), (0, 3, 0.4 + 0.3j), (1, 2, -0.25 + 0.1j),
             (2, 1, 0.15 - 0.35j), (3, 0, 0.3 + 0.2j)],
            cutoff=4,
        ),
        "MMZI",
    ),
}

CASES = {
    **{f"noon-{n}": (noon(n), "MMZI") for n in range(1, 5)},
    **{f"dual_fock-{n}": (dual_fock(n), "MZI") for n in range(1, 4)},
    "zeta_dual_fock-3-4": (zeta_dual_fock(3.0, 4)[0], "MZI"),
    **{f"zeta_noon-3-8-{pipeline}": (zeta_noon(3.0, 8)[0], pipeline) for pipeline in ("MMZI", "MZI")},
    **GENERAL,
}

# ROADMAP item 7's states, both via MZI at phi = 0: amplitudes of 1e-12
# and a near-dark fringe, where the library's rounding shows
ITEM_7 = {
    "amplitude-noise": TwoModeState(
        np.array([0, 0, 1, 2]),
        np.array([0, 3, 2, 1]),
        np.array([
            0.053896986604926714 + 0.19070089464413978j,
            0.6241299470004567j,
            9.703756478475513e-13 * (1 + 1j),
            9.703756478475513e-13 - 0.7557711908203701j,
        ]),
        6,
    ),
    "near-dark-fringe": make_state([(0, 1, 1 + 1j), (1, 0, 8.42936971e-08 + 1.57009246e-16j)], 6),
}


@functools.lru_cache(maxsize=None)
def splitter(n):
    """expm(i pi J1 / 2) on the N-photon sector, indexed by n_a, at DPS digits."""
    with mpmath.workdps(DPS):
        j1 = mpmath.matrix(n + 1, n + 1)
        for k in range(n):
            j1[k + 1, k] = j1[k, k + 1] = mpmath.sqrt((k + 1) * (n - k)) / 2
        return mpmath.expm(1j * mpmath.pi / 2 * j1)


def oracle(state, phi, pipeline):
    """(counting FI, least outcome |z|) of state at phi, at DPS digits."""
    with mpmath.workdps(DPS):
        phase, fi, least = mpmath.mpf(float(phi)), mpmath.mpf(0), mpmath.inf
        for n in sorted({int(x) for x in state.n_total}):
            vec = mpmath.matrix(n + 1, 1)
            for (a, b), amp in state.items():
                if a + b == n:
                    vec[a] = mpmath.mpc(complex(amp))
            if pipeline == "MZI":
                vec = splitter(n) * vec
            m = [k - mpmath.mpf(n) / 2 for k in range(n + 1)]
            chi = mpmath.matrix([mpmath.expj(-phase * m[k]) * vec[k] for k in range(n + 1)])
            z = splitter(n) * chi
            dz = splitter(n) * mpmath.matrix([-1j * m[k] * chi[k] for k in range(n + 1)])
            for k in range(n + 1):
                p, dp = abs(z[k]) ** 2, 2 * mpmath.re(mpmath.conj(z[k]) * dz[k])
                fi += dp * dp / p if abs(z[k]) > ZERO else 4 * abs(dz[k]) ** 2
                least = min(least, abs(z[k]))
        return float(fi), float(least)


@pytest.mark.parametrize("state, pipeline", CASES.values(), ids=CASES.keys())
def test_counting_fi_matches_the_oracle(state, pipeline):
    scanned = fi_scan(state, np.array(PHASES), pipeline)
    for phi, scan in zip(PHASES, scanned.tolist()):
        exact, _ = oracle(state, phi, pipeline)
        assert math.isclose(classical_fi(state, phi, pipeline).fi, exact, rel_tol=1e-12)
        assert math.isclose(scan, exact, rel_tol=1e-12)


@pytest.mark.parametrize("state, pipeline", GENERAL.values(), ids=GENERAL.keys())
def test_general_states_keep_every_amplitude_off_zero(state, pipeline):
    # the premise of their cases: no outcome amplitude within 1e-8 of zero,
    # so the FI is well-conditioned there
    assert all(oracle(state, phi, pipeline)[1] > 1e-8 for phi in PHASES)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: outcome amplitudes near rounding noise carry their rounding into dP^2/P",
)
@pytest.mark.parametrize("state", ITEM_7.values(), ids=ITEM_7.keys())
def test_item_7_states_match_the_oracle(state):
    # the whole-state FI, the sector sum and an injective readout must all
    # meet the oracle
    exact, _ = oracle(state, 0.0, "MZI")
    whole = classical_fi(state, 0.0, "MZI").fi
    _, summed = sector_fi_decomposition(state, 0.0, "MZI")
    readout = fi_observable(state, 0.0, "MZI", lambda a, b: a + 10 * b).fi
    assert all(math.isclose(got, exact, rel_tol=1e-12) for got in (whole, summed, readout))
