import concurrent.futures
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfilab import catalog
from qfilab import (
    InvalidNError,
    PoleProximityError,
    TailTooHeavyError,
    apply_beamsplitter,
    distribution_from_state,
    dual_fock,
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
from qfilab.fock import _canonical_state, make_state

from sector_operators import dual_fock_after_bs

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


@pytest.mark.parametrize("x,message", [
    (-3.0, "zeta argument -3.0 is outside the domain x > 1"),
    (0.5, "zeta argument 0.5 is outside the domain x > 1"),
    (math.nan, "zeta argument nan is outside the domain x > 1"),
    (1.0000001, "zeta argument 1.0000001 is within 1e-06 of the x=1 pole"),
])
def test_zeta_names_its_domain(x, message):
    # an argument far below the pole, or NaN, is outside the domain, not
    # near the pole; only 1 < x <= 1 + ZETA_POLE_GUARD is
    with pytest.raises(PoleProximityError) as err:
        zeta(x)
    assert str(err.value) == message


def test_zeta_near_the_pole_keeps_its_default_tol():
    # fig3 reaches zeta(x - 2) just above the guard: 428 terms at tol 1e-12
    assert zeta(1.000002) == pytest.approx(float(mpmath.zeta(1.000002)), rel=1e-12)


def test_zeta_refuses_a_partial_sum_it_cannot_hold():
    # 7.6e8 terms near the pole at tol 1e-37, two float64 arrays of 5.7 GiB:
    # refused before any array exists. The child runs under a 1 GiB
    # address-space cap, so a sum that tries fails by a refused allocation
    # instead of filling the host
    code = "from qfilab import zeta\ntry:\n    zeta(1.000002, 1e-37)\nexcept ValueError as exc:\n    print(exc)\n"
    pythonpath = [str(Path(catalog.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"zeta(1.000002) within tol 1e-37 needs 7.6e+08 terms, more than {catalog.ZETA_MAX_TERMS}\n"


@pytest.mark.parametrize("x", [1e15, 1e100, 1e300, math.inf])
def test_zeta_at_huge_exponents_is_one(x):
    # above x ~ 1e100 the float bound on the term count overflows, and at
    # x = inf the tail's last term is inf * 0: both must give the limit 1
    assert zeta(x) == 1.0


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
# splitter image of |N,N>: the closed-form oracle of the tests, pinned
# against the library's splitter

def test_closed_form_n1_is_two_photon_branch_pair():
    s = dual_fock_after_bs(1)
    assert abs(abs(s.amplitude(2, 0)) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(s.amplitude(0, 2)) - 1 / math.sqrt(2)) < 1e-12
    assert abs(s.amplitude(1, 1)) < 1e-12


def test_closed_form_n2_support_and_weights():
    s = dual_fock_after_bs(2)
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
        closed = dual_fock_after_bs(n)
        direct = apply_beamsplitter(dual_fock(n))
        assert abs(closed.overlap(direct)) >= 1.0 - 1e-10


def test_closed_form_guard():
    with pytest.raises(InvalidNError):
        dual_fock_after_bs(0)


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


def test_tmsv_cutoff_refuses_a_mean_whose_ratio_rounds_to_one():
    assert tmsv_cutoff_for(1e16) == 103699213667968424
    for mean in (1e17, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"mean_total {mean:g}: no cutoff meets TMSV_TAIL_BOUND")):
            tmsv_cutoff_for(mean)
        with pytest.raises(ValueError, match="no cutoff meets"):  # not from inside TailTooHeavyError's message
            tmsv(mean, 5)


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


def _sector_sums(state):
    """Each sector's weight by its own np.sum, one sector at a time."""
    weights = np.abs(state.amps) ** 2
    return np.array([np.sum(weights[a:b]) for _, a, b in zip(*(col.tolist() for col in state.sectors))])


def test_distribution_from_state_sums_each_sector_as_np_sum():
    # one vectorized pass gives each sector's np.sum to the bit: on every
    # catalog family and on its MZI splitter image, whose sectors are dense
    # enough (up to 50 entries) for np.sum's pairwise blocks
    for state in [noon(5), dual_fock(4)] + [build()[0] for build in ALL_FAMILIES]:
        for s in (state, apply_beamsplitter(state)):
            probs = distribution_from_state(s).probs
            assert probs.dtype == np.float64 and probs.tobytes() == _sector_sums(s).tobytes()


def test_tmsv_noon_moments_match_tmsv():
    _, da = tmsv_noon(2.0, 40)
    _, db = tmsv(2.0, 40)
    assert da.mean.value == pytest.approx(db.mean.value, rel=1e-12)
    assert da.mean_square.value == pytest.approx(db.mean_square.value, rel=1e-12)
    assert da.mean_square.limit == pytest.approx(12.0, rel=1e-12)


# ---------------------------------------------------------------------------
# each weighted family's distribution against the formulas, written out

def reference_distribution(n, w, scale, tail_mass, family, divergent, limits):
    """Weights w of components n (float), each of scale * n photons,
    renormalized on their support, with both moments taken on the
    renormalized weights, as the family formulas give them."""
    totals = scale * n
    renorm = w / w.sum()
    m1, m2 = float(np.sum(totals * renorm)), float(np.sum(totals * totals * renorm))
    mean, mean_square = catalog.Moment(m1, divergent[0], limits[0]), catalog.Moment(m2, divergent[1], limits[1])
    return catalog.PhotonDistribution(totals.astype(np.int64), w, tail_mass, mean, mean_square, family)


def zeta_reference(x, cutoff, scale, label):
    z = zeta(x)
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    w = n ** (-x) / z
    limits = (scale * zeta(x - 1.0) / z if x > 2.0 + catalog.ZETA_POLE_GUARD else None,
              scale * scale * zeta(x - 2.0) / z if x > 3.0 + catalog.ZETA_POLE_GUARD else None)
    return reference_distribution(n, w, scale, max(0.0, 1.0 - float(w.sum())), f"{label}(x={x:g})",
                                  (x <= 2.0, x <= 3.0), limits)


def tmsv_reference(mean_total, cutoff, label):
    t = mean_total / (mean_total + 2.0)
    n = np.arange(cutoff + 1, dtype=np.float64)
    return reference_distribution(n, (1.0 - t) * t ** n, 2, float(t ** (cutoff + 1)),
                                  f"{label}(mean={mean_total:g})", (False, False),
                                  (mean_total, 2.0 * mean_total**2 + 2.0 * mean_total))


def assert_same_distribution(dist, reference):
    # repr of a float round-trips, so equal reprs are equal bits
    for got, want in ((dist.totals, reference.totals), (dist.probs, reference.probs)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for name in ("tail_mass", "mean", "mean_square", "family"):
        assert repr(getattr(dist, name)) == repr(getattr(reference, name)), name


@pytest.mark.parametrize("x", [1.5, 2.5, 3.0, 4.5])
@pytest.mark.parametrize("cutoff", [1, 300])
def test_zeta_family_distributions_follow_the_formulas_bit_for_bit(x, cutoff):
    assert_same_distribution(zeta_noon(x, cutoff)[1], zeta_reference(x, cutoff, 1, "zeta_noon"))
    for family in (zeta_noon_doubled, zeta_dual_fock):
        assert_same_distribution(family(x, cutoff)[1], zeta_reference(x, cutoff, 2, family.__name__))


@pytest.mark.parametrize("mean", [0.5, 2.0])
def test_tmsv_family_distributions_follow_the_formulas_bit_for_bit(mean):
    for cutoff in (tmsv_cutoff_for(mean), tmsv_cutoff_for(mean) + 40):
        for family in (tmsv, tmsv_noon):
            assert_same_distribution(family(mean, cutoff)[1], tmsv_reference(mean, cutoff, family.__name__))


# ---------------------------------------------------------------------------
# direct construction against the sort-and-merge reference

def two_branch_reference(totals, probs, cutoff):
    """A two-branch family's entries as listed before the family wrote its
    table in canonical order (every n_a = N branch, every n_a = 0 branch,
    then the vacuum, of amplitude 0.0 when there is none), put in order,
    pruned and normalized by the reference fock._canonical_state."""
    pos = totals > 0
    branch = np.sqrt(probs[pos] / 2.0)
    zeros = np.zeros_like(totals[pos])
    na = np.concatenate([totals[pos], zeros, [0]])
    nb = np.concatenate([zeros, totals[pos], [0]])
    amps = np.concatenate([branch, branch, [math.sqrt(probs[~pos].sum())]]).astype(np.complex128)
    return _canonical_state(na, nb, amps, cutoff)


def dual_fock_reference(totals, probs, cutoff):
    """A |N,N> family's entries through the reference fock._canonical_state."""
    idx = totals // 2
    return _canonical_state(idx, idx, np.sqrt(probs).astype(np.complex128), cutoff)


def assert_same_table(state, reference):
    for got, want in ((state.na, reference.na), (state.nb, reference.nb), (state.amps, reference.amps)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert state.cutoff == reference.cutoff


exponents = st.one_of(st.floats(1.01, 10.0), st.floats(10.0, 1e300))


@given(exponents, st.integers(1, 2000))
@example(1e300, 2000)
@example(1.01, 1)
@example(3.0, 2000)
def test_zeta_families_write_the_reference_table(x, cutoff):
    probs, dist = catalog._zeta_family(x, cutoff, 1, "zeta_noon")
    assert_same_table(zeta_noon(x, cutoff)[0], two_branch_reference(dist.totals, probs, cutoff))
    probs, dist = catalog._zeta_family(x, cutoff, 2, "zeta_noon_doubled")
    assert_same_table(zeta_noon_doubled(x, cutoff)[0], two_branch_reference(dist.totals, probs, 2 * cutoff))
    assert_same_table(zeta_dual_fock(x, cutoff)[0], dual_fock_reference(dist.totals, probs, 2 * cutoff))


@given(st.floats(1e-3, 50.0), st.integers(0, 200))
@example(1e-3, 0)  # a state of almost only vacuum
@example(2.0, 0)
def test_tmsv_families_write_the_reference_table(mean, extra):
    cutoff = min(2000, tmsv_cutoff_for(mean) + extra)
    probs, dist = catalog._tmsv_family(mean, cutoff, "tmsv")
    assert_same_table(tmsv(mean, cutoff)[0], dual_fock_reference(dist.totals, probs, 2 * cutoff))
    state = tmsv_noon(mean, cutoff)[0]
    assert state.na[0] == state.nb[0] == 0  # the vacuum component
    assert_same_table(state, two_branch_reference(dist.totals, probs, 2 * cutoff))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000, 2000])
def test_fixed_photon_families_write_the_reference_table(n):
    r = 1.0 / math.sqrt(2.0)
    if n:
        assert_same_table(noon(n), make_state([(n, 0, r), (0, n, r)], cutoff=n))
    assert_same_table(dual_fock(n), make_state([(n, n, 1.0)], cutoff=2 * n))
