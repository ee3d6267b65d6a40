import concurrent.futures
import math
import sys

import mpmath
import numpy as np
import pytest

from qfilab import catalog
from qfilab import (
    InvalidNError,
    PoleProximityError,
    TailTooHeavyError,
    apply_beamsplitter,
    distribution_from_state,
    dual_fock,
    dual_fock_after_bs_closed_form,
    expect,
    noon,
    sector_decompose,
    tmsv,
    tmsv_cutoff_for,
    tmsv_noon,
    zeta,
    zeta_dual_fock,
    zeta_noon,
    zeta_noon_doubled,
)

ALL_FAMILIES = [
    lambda: zeta_noon(3.0, 50),
    lambda: zeta_noon(4.0, 50),
    lambda: zeta_noon(1.5, 50),
    lambda: zeta_noon_doubled(3.0, 25),
    lambda: zeta_dual_fock(3.0, 25),
    lambda: zeta_dual_fock(5.0, 25),
    lambda: tmsv(2.0, 40),
    lambda: tmsv_noon(2.0, 40),
]


# ---------------------------------------------------------------------------
# zeta

def test_zeta_basel():
    assert zeta(2.0, 1e-10) == pytest.approx(math.pi**2 / 6, abs=1e-10)


def test_zeta_against_mpmath():
    for x in (1.1, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 5.0, 12.0, 40.0):
        assert zeta(x, 1e-12) == pytest.approx(float(mpmath.zeta(x)), abs=2e-12)


def test_zeta_three_reference_value():
    assert zeta(3.0, 1e-10) == pytest.approx(1.2020569032, abs=1e-9)


def test_zeta_pole_guard():
    with pytest.raises(PoleProximityError):
        zeta(1.0000001)
    with pytest.raises(PoleProximityError):
        zeta(0.5)


def test_zeta_bad_tol():
    with pytest.raises(ValueError):
        zeta(2.0, tol=-1.0)


def test_zeta_threads_get_the_serial_values():
    args = [2.0 + 0.125 * (i % 24) for i in range(480)]
    catalog._zeta_sum.cache_clear()
    serial = [zeta(x) for x in args]
    catalog._zeta_sum.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(zeta, args, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_zeta_cache_stays_bounded():
    for i in range(1000):
        zeta(2.0 + 1e-3 * i)
    assert catalog._zeta_sum.cache_info().currsize <= 64


# ---------------------------------------------------------------------------
# fixed-N constructors

def test_noon_basic():
    s = noon(1)
    assert abs(s.amplitude(1, 0) - 1 / math.sqrt(2)) < 1e-12
    assert abs(s.amplitude(0, 1) - 1 / math.sqrt(2)) < 1e-12
    assert expect(noon(4), "j3_sq") == pytest.approx(4.0, abs=1e-12)


def test_noon_guard():
    with pytest.raises(InvalidNError):
        noon(0)


def test_dual_fock():
    assert abs(dual_fock(1).amplitude(1, 1) - 1.0) < 1e-12
    assert abs(dual_fock(0).amplitude(0, 0) - 1.0) < 1e-12
    assert expect(dual_fock(3), "n_total") == pytest.approx(6.0, abs=1e-12)


# ---------------------------------------------------------------------------
# splitter image of |N,N>

def test_closed_form_n1_is_two_photon_branch_pair():
    s = dual_fock_after_bs_closed_form(1)
    assert abs(abs(s.amplitude(2, 0)) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(s.amplitude(0, 2)) - 1 / math.sqrt(2)) < 1e-12
    assert abs(s.amplitude(1, 1)) < 1e-12


def test_closed_form_n2_support_and_weights():
    s = dual_fock_after_bs_closed_form(2)
    assert {k for k, _ in s.items()} == {(4, 0), (2, 2), (0, 4)}
    weights = {
        k: abs(amp) ** 2 * (2 * 2 - 2 * k[0]) ** 2 for k, amp in s.items()
    }
    # per-component sensitivity weights (2N-4k)^2 with k = n_a/2
    assert weights[(4, 0)] == pytest.approx(16 * abs(s.amplitude(4, 0)) ** 2)
    assert weights[(0, 4)] == pytest.approx(16 * abs(s.amplitude(0, 4)) ** 2)
    assert weights[(2, 2)] == pytest.approx(0.0, abs=1e-20)


def test_closed_form_matches_unitary_oracle():
    for n in range(1, 16):
        closed = dual_fock_after_bs_closed_form(n)
        direct = apply_beamsplitter(dual_fock(n))
        assert abs(closed.overlap(direct)) >= 1.0 - 1e-10


def test_closed_form_guard():
    with pytest.raises(InvalidNError):
        dual_fock_after_bs_closed_form(0)


# ---------------------------------------------------------------------------
# squeezed-vacuum family

def test_tmsv_weights_mean_two():
    _, dist = tmsv(2.0, 40)
    # t = 1/2: component N carries (1/2)(1/2)^N
    for n2, w in dist.weights.items():
        assert w == pytest.approx(0.5 * 0.5 ** (n2 // 2), rel=1e-12)


def test_tmsv_geometric_ratio_constant():
    _, dist = tmsv(3.7, 60)
    t = 3.7 / (3.7 + 2.0)
    keys = sorted(dist.weights)
    ratios = [dist.weights[keys[i + 1]] / dist.weights[keys[i]] for i in range(len(keys) - 1)]
    assert all(abs(r - t) < 1e-12 for r in ratios)


def test_tmsv_mean_matches_request():
    state, _ = tmsv(2.0, 60)
    assert expect(state, "n_total") == pytest.approx(2.0, abs=1e-9)


def test_tmsv_small_mean_is_nearly_vacuum():
    state, _ = tmsv(1e-12, 4)
    assert abs(state.amplitude(0, 0)) > 1.0 - 1e-12


def test_tmsv_tail_guard():
    with pytest.raises(TailTooHeavyError):
        tmsv(2.0, 5)
    k = tmsv_cutoff_for(8.0)
    assert (8.0 / 10.0) ** (k + 1) <= 1e-10
    assert (8.0 / 10.0) ** k > 1e-10


# ---------------------------------------------------------------------------
# zeta families

def test_zeta_noon_sector_probabilities():
    k = 30
    _, dist = zeta_noon(3.0, k)
    state, _ = zeta_noon(3.0, k)
    n = np.arange(1, k + 1, dtype=float)
    oracle = n**-3.0 / np.sum(n**-3.0)
    probs = {c.n_total: c.probability for c in sector_decompose(state)}
    for i, nn in enumerate(range(1, k + 1)):
        assert probs[nn] == pytest.approx(oracle[i], abs=1e-12)
    support = dist.support_probabilities()
    for i, nn in enumerate(range(1, k + 1)):
        assert support[nn] == pytest.approx(oracle[i], abs=1e-12)


def test_zeta_noon_mean_x4_against_summation_oracle():
    _, dist = zeta_noon(4.0, 10_000)
    n = np.arange(1, 10_001, dtype=float)
    oracle = np.sum(n**-3.0) / np.sum(n**-4.0)
    assert dist.mean.value == pytest.approx(oracle, rel=1e-12)
    assert dist.mean.value == pytest.approx(
        float(mpmath.zeta(3) / mpmath.zeta(4)), abs=1e-6
    )


def test_zeta_noon_mean_sq_is_harmonic_ratio():
    for k in (100, 1000):
        _, dist = zeta_noon(3.0, k)
        n = np.arange(1, k + 1, dtype=float)
        assert dist.mean_square.value == pytest.approx(
            math.fsum(1.0 / n) / math.fsum(n**-3.0), rel=1e-12
        )


def test_zeta_noon_divergence_flags():
    _, d15 = zeta_noon(1.5, 20)
    assert d15.mean.divergent and d15.mean_square.divergent
    _, d3 = zeta_noon(3.0, 20)
    assert not d3.mean.divergent and d3.mean_square.divergent
    assert d3.mean.limit == pytest.approx(
        float(mpmath.zeta(2) / mpmath.zeta(3)), abs=1e-10
    )
    _, d4 = zeta_noon(4.0, 20)
    assert not d4.mean.divergent and not d4.mean_square.divergent
    assert d4.mean_square.limit == pytest.approx(
        float(mpmath.zeta(2) / mpmath.zeta(4)), abs=1e-10
    )


def test_zeta_noon_mean_sq_growth_rates():
    # x = 3: logarithmic growth; x = 2.5: ~K^0.5 growth; x = 4: convergent
    vals3 = [zeta_noon(3.0, k)[1].mean_square.value for k in (1000, 10_000)]
    assert vals3[1] - vals3[0] == pytest.approx(math.log(10) / 1.2020569, abs=2e-3)
    vals25 = [zeta_noon(2.5, k)[1].mean_square.value for k in (1000, 4000)]
    assert vals25[1] / vals25[0] == pytest.approx(2.0, rel=0.05)  # (4x)^0.5
    vals4 = [zeta_noon(4.0, k)[1].mean_square.value for k in (1000, 10_000)]
    assert vals4[1] - vals4[0] == pytest.approx(0.0, abs=1e-3)


def test_zeta_dual_fock_means():
    _, dist = zeta_dual_fock(3.0, 4000)
    assert dist.mean.limit == pytest.approx(
        2 * float(mpmath.zeta(2) / mpmath.zeta(3)), abs=1e-10
    )
    _, dist5 = zeta_dual_fock(5.0, 1000)
    n = np.arange(1, 1001, dtype=float)
    oracle = 2 * np.sum(n**-4.0) / np.sum(n**-5.0)
    assert dist5.mean.value == pytest.approx(oracle, rel=1e-12)
    assert dist5.mean.value == pytest.approx(
        2 * float(mpmath.zeta(4) / mpmath.zeta(5)), abs=1e-8
    )


def test_zeta_dual_fock_x3_second_moment_diverges():
    _, dist = zeta_dual_fock(3.0, 100)
    assert dist.mean_square.divergent
    assert dist.mean_square.limit is None


def test_doubled_branches_share_dual_fock_distribution():
    _, da = zeta_noon_doubled(3.0, 30)
    _, db = zeta_dual_fock(3.0, 30)
    assert da.weights.keys() == db.weights.keys()
    for key in da.weights:
        assert da.weights[key] == pytest.approx(db.weights[key], rel=1e-12)
    assert da.mean.value == pytest.approx(db.mean.value, rel=1e-12)


def test_zeta_guard_propagates():
    with pytest.raises(PoleProximityError):
        zeta_noon(1.0, 10)
    with pytest.raises(InvalidNError):
        zeta_noon(3.0, 0)


# ---------------------------------------------------------------------------
# distribution invariants

def test_weights_plus_tail_is_one():
    for build in ALL_FAMILIES:
        _, dist = build()
        total = sum(dist.weights.values()) + dist.tail_mass
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in dist.weights.values())
        assert dist.tail_mass >= 0


def test_variance_nonnegative():
    for build in ALL_FAMILIES:
        _, dist = build()
        assert dist.mean_square.value >= dist.mean.value**2 - 1e-12


def test_states_normalized_and_match_distribution():
    for build in ALL_FAMILIES:
        state, dist = build()
        assert abs(state.norm() - 1.0) < 1e-12
        support = dist.support_probabilities()
        probs = {c.n_total: c.probability for c in sector_decompose(state)}
        assert set(probs) == set(support)
        for n in probs:
            assert probs[n] == pytest.approx(support[n], abs=1e-12)


def test_distribution_from_state_point_mass():
    dist = distribution_from_state(noon(5))
    assert dist.weights == {5: pytest.approx(1.0)}
    assert dist.mean_square.value == pytest.approx(25.0, abs=1e-10)
    assert dist.tail_mass == 0.0


def test_tmsv_noon_moments_match_tmsv():
    _, da = tmsv_noon(2.0, 40)
    _, db = tmsv(2.0, 40)
    assert da.mean.value == pytest.approx(db.mean.value, rel=1e-12)
    assert da.mean_square.value == pytest.approx(db.mean_square.value, rel=1e-12)
    assert da.mean_square.limit == pytest.approx(12.0, rel=1e-12)
