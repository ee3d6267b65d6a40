import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qfilab import (
    TwoModeState,
    apply_beamsplitter,
    apply_phase,
    classical_fi,
    distribution_from_state,
    dual_fock,
    expect,
    fi_observable,
    fi_scan,
    fisher,
    likelihood,
    likelihood_with_derivative,
    make_state,
    max_qfi_bound,
    noon,
    qfi_pure,
    sector_fi_decomposition,
    tmsv,
    tmsv_noon,
    vacuum,
    zeta_dual_fock,
    zeta_noon,
    zeta_noon_doubled,
)

from sector_operators import schwinger_matrices

CATALOG = [
    ("noon1", noon(1), "MMZI"),
    ("noon3", noon(3), "MMZI"),
    ("dual_fock2", dual_fock(2), "MZI"),
    ("zeta_noon(3,12)", zeta_noon(3.0, 12)[0], "MMZI"),
    ("zeta_dual_fock(3,8)", zeta_dual_fock(3.0, 8)[0], "MZI"),
    ("zeta_noon_doubled(3,6)", zeta_noon_doubled(3.0, 6)[0], "MMZI"),
    ("tmsv(2,34)", tmsv(2.0, 34)[0], "MZI"),
    ("tmsv_noon(2,33)", tmsv_noon(2.0, 33)[0], "MMZI"),
]


def random_state(rng, max_sector=8):
    sectors = rng.choice(max_sector + 1, size=int(rng.integers(1, 4)), replace=False)
    entries = []
    for n in sectors:
        for k in range(int(n) + 1):
            entries.append((k, int(n) - k, complex(rng.normal(), rng.normal())))
    return make_state(entries, cutoff=max_sector)


# ---------------------------------------------------------------------------
# the counting measurement

def test_povm_completeness_counts():
    # a state on every sector up to the cutoff: the likelihood lists each
    # outcome (n_a, n_b) of the truncated space once
    cutoff = 5
    state = make_state([(a, n - a, 1.0) for n in range(cutoff + 1) for a in range(n + 1)], cutoff)
    outcomes = list(likelihood(state, 0.3, "MMZI"))
    assert len(outcomes) == len(set(outcomes)) == (cutoff + 1) * (cutoff + 2) // 2
    assert set(outcomes) == {(a, n - a) for n in range(cutoff + 1) for a in range(n + 1)}


# ---------------------------------------------------------------------------
# likelihoods

def test_likelihood_single_photon_closed_form():
    for phi in (0.0, 0.3, 1.2, 2.8, math.pi / 2):
        probs = likelihood(noon(1), phi, "MMZI")
        assert probs[(1, 0)] == pytest.approx((1 - math.sin(phi)) / 2, abs=1e-12)
        assert probs[(0, 1)] == pytest.approx((1 + math.sin(phi)) / 2, abs=1e-12)


def test_likelihood_sums_to_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = random_state(rng)
        for pipeline in ("MZI", "MMZI"):
            probs = likelihood(s, float(rng.uniform(0, 6)), pipeline)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_total_count_marginal_is_phase_independent():
    state, dist = zeta_noon(3.0, 10)
    support = dist.support_probabilities()
    for phi in (0.0, 0.7, 2.1):
        probs = likelihood(state, phi, "MMZI")
        marginal: dict[int, float] = {}
        for (a, b), p in probs.items():
            marginal[a + b] = marginal.get(a + b, 0.0) + p
        for n, p in marginal.items():
            assert p == pytest.approx(support[n], abs=1e-12)


def test_likelihood_mzi_dual_fock_against_dense_pipeline():
    # dense oracle: full sector matrix product B * diag(phase) * B
    state = dual_fock(1)
    for phi in (0.0, 0.4, 1.9):
        j1, _, _ = schwinger_matrices(2)
        bs = expm(0.5j * np.pi * j1)
        m = np.arange(3) - 1.0
        u = bs @ np.diag(np.exp(-1j * phi * m)) @ bs
        vec_in = np.zeros(3, dtype=complex)
        vec_in[1] = 1.0  # |1,1> has n_a = 1
        amps = u @ vec_in
        probs = likelihood(state, phi, "MZI")
        for n_a in range(3):
            assert probs[(n_a, 2 - n_a)] == pytest.approx(
                abs(amps[n_a]) ** 2, abs=1e-12
            )


# ---------------------------------------------------------------------------
# classical FI

def test_fi_single_photon_constant_one():
    for phi in np.linspace(0, 2 * math.pi, 17):
        rep = classical_fi(noon(1), float(phi), "MMZI")
        assert rep.fi == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.7])
def test_single_input_sectors_carry_exactly_zero_information(phi):
    # one occupied input per sector: one J3 eigenvalue, so the outcome
    # probabilities cannot depend on the phase (the outcome table left
    # ~3e-32 of rounding at 0.3 and 1.7)
    state = make_state([(0, 3, 1j), (4, 0, 0.5), (2, 5, 1.0)], 7)
    rep = classical_fi(state, phi, "MMZI")
    assert rep.fi == 0.0 and not rep.singular
    assert fi_scan(state, np.array([phi]), "MMZI")[0] == 0.0


def test_fi_noon_saturates_squared_photon_number():
    phis = np.linspace(0.0, 2 * math.pi, 301)
    for n in range(1, 7):
        scan = fi_scan(noon(n), phis, "MMZI")
        assert scan.max() == pytest.approx(n * n, rel=1e-9)


@pytest.mark.parametrize("cutoff", [40, 300])
def test_zeta_noon_scan_is_flat_at_the_photon_number_moment(cutoff):
    # every equal-branch two-branch sector carries N^2 at every phase on MMZI,
    # so the scan is flat at sum_N p_N N^2 = sum N^-1 / sum N^-3
    n = np.arange(1, cutoff + 1, dtype=float)
    expected = np.sum(1.0 / n) / np.sum(n**-3.0)
    scan = fi_scan(zeta_noon(3.0, cutoff)[0], np.linspace(0.0, 2 * math.pi, 181), "MMZI")
    assert np.abs(scan - expected).max() <= 1e-12 * expected
    assert np.ptp(scan) == 0.0  # the same bits at all 181 phases of the qfi command


@pytest.mark.parametrize(
    "state, dist",
    [zeta_noon(3.0, 40), zeta_noon(3.0, 300), tmsv_noon(1.0, 40)],
    ids=["zeta_noon_3_40", "zeta_noon_3_300", "tmsv_noon_1_40"],
)
def test_superposed_noon_states_attain_the_photon_number_bound(state, dist):
    # the paper's optimality claim: equal-weight two-branch superpositions
    # reach <N^2>, the largest QFI their photon distribution allows, and the
    # counting measurement reaches it at every phase of the qfi command's grid
    bound = dist.mean_square.value
    scan = fi_scan(state, np.linspace(0.0, 2.0 * math.pi, 181), "MMZI")
    assert np.abs(scan / bound - 1.0).max() <= 1e-13
    assert abs(qfi_pure(state) / bound - 1.0) <= 1e-13


def test_fi_vacuum_zero():
    assert classical_fi(vacuum(), 0.3, "MMZI").fi == pytest.approx(0.0, abs=1e-15)


def test_fi_scan_matches_pointwise():
    rng = np.random.default_rng(12)
    s = random_state(rng)
    phis = np.array([0.1, 0.9, 2.2])
    scan = fi_scan(s, phis, "MMZI")
    for phi, val in zip(phis, scan):
        assert classical_fi(s, float(phi), "MMZI").fi == pytest.approx(
            val, abs=1e-11
        )


def test_fi_bounded_by_qfi_random_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        s = random_state(rng)
        for phi in rng.uniform(0, 2 * math.pi, size=3):
            rep = classical_fi(s, float(phi), "MMZI")
            assert rep.fi <= rep.qfi + 1e-8


def test_analytic_derivative_matches_central_differences():
    h = 1e-5
    for _name, state, pipeline in CATALOG:
        for phi in (0.2, 0.9, 2.3):
            pd = likelihood_with_derivative(state, phi, pipeline)
            pp = likelihood(state, phi + h, pipeline)
            pm = likelihood(state, phi - h, pipeline)
            for key, (p, dp) in pd.items():
                if p <= 1e-8:
                    continue
                num = (pp[key] - pm[key]) / (2 * h)
                assert abs(dp - num) <= 1e-6 * max(abs(dp), abs(num)) + 1e-12


def test_sector_additivity_catalog():
    for _name, state, pipeline in CATALOG:
        for phi in np.linspace(0.03, 2.9, 4):
            rows, total = sector_fi_decomposition(state, float(phi), pipeline)
            whole = classical_fi(state, float(phi), pipeline).fi
            assert total == pytest.approx(whole, abs=1e-9)
            assert sum(p for _, p, _ in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: _fi_reduce trusts outcome amplitudes of 1e-12 to 1e-10, "
    "which carry ~1e-4 relative rounding error into dP^2/P",
)
def test_sector_additivity_near_amplitude_noise():
    # whole-state FI 5.073160875639421 against a sector sum of 5.072932583322995
    tiny = 9.703756478475513e-13
    state = TwoModeState(
        np.array([0, 0, 1, 2]),
        np.array([0, 3, 2, 1]),
        np.array([
            0.053896986604926714 + 0.19070089464413978j,
            0.6241299470004567j,
            tiny * (1 + 1j),
            tiny - 0.7557711908203701j,
        ]),
        6,
    )
    _, total = sector_fi_decomposition(state, 0.0, "MZI")
    whole = classical_fi(state, 0.0, "MZI").fi
    assert math.isclose(total, whole, rel_tol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: fi_observable sums dP^2/P over outcome-table amplitudes, "
    "which carry rounding at a near-dark fringe that the counting FI's closed form avoids",
)
def test_injective_readout_matches_counting_fi_near_a_dark_fringe():
    # a near-balanced two-branch sector after the first splitter, at phi = 0:
    # fi_observable 0.5000000018626451 against classical_fi 0.500000001317089
    state = make_state([(0, 1, 1 + 1j), (1, 0, 8.42936971e-08 + 1.57009246e-16j)], 6)
    readout = fi_observable(state, 0.0, "MZI", lambda a, b: a + 10 * b).fi
    assert math.isclose(readout, classical_fi(state, 0.0, "MZI").fi, rel_tol=1e-12)


def test_sector_decomposition_single_sector_row():
    rows, total = sector_fi_decomposition(noon(2), 0.6, "MMZI")
    assert len(rows) == 1
    assert rows[0][2] == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# QFI

def test_qfi_noon_law():
    for n in range(1, 11):
        assert qfi_pure(noon(n)) == pytest.approx(n * n, rel=1e-12)


def test_qfi_dual_fock_intermediate():
    for n in range(1, 11):
        inter = apply_beamsplitter(dual_fock(n))
        assert qfi_pure(inter) == pytest.approx(2 * n * n + 2 * n, rel=1e-9)


def test_qfi_tmsv_intermediate():
    for mean in (0.5, 2.0):
        state, _ = tmsv(mean, 80)
        inter = apply_beamsplitter(state)
        assert qfi_pure(inter) == pytest.approx(mean * mean + 2 * mean, rel=1e-6)


def test_max_qfi_bound_examples():
    _, dist = zeta_noon(3.0, 500)
    n = np.arange(1, 501, dtype=float)
    expected = math.fsum(1.0 / n) / math.fsum(n**-3.0)
    bound = max_qfi_bound(dist)
    assert bound.value == pytest.approx(expected, rel=1e-12)
    assert bound.divergent

    assert max_qfi_bound(distribution_from_state(noon(7))).value == pytest.approx(49.0)

    _, td = tmsv_noon(2.0, 40)
    assert max_qfi_bound(td).limit == pytest.approx(2 * 4 + 2 * 2, rel=1e-12)


def test_saturation_for_branch_superpositions():
    phis = np.linspace(0.0, 2 * math.pi, 201)
    state, dist = zeta_noon(4.0, 30)
    bound = max_qfi_bound(dist).value
    assert fi_scan(state, phis, "MMZI").max() >= (1 - 1e-6) * bound


# ---------------------------------------------------------------------------
# observable readouts

def test_injective_observable_equals_counting():
    state, _ = zeta_noon(3.0, 6)
    for phi in (0.3, 1.1):
        full = classical_fi(state, phi, "MMZI").fi
        rep = fi_observable(state, phi, "MMZI", lambda a, b: a + math.sqrt(2) * b)
        assert rep.fi == pytest.approx(full, rel=1e-10)


def test_parity_readout_noon2():
    saw_equality = False
    for phi in np.linspace(0.05, 3.1, 21):
        rep = fi_observable(noon(2), float(phi), "MMZI", lambda a, b: (-1) ** a)
        assert rep.fi <= 4.0 + 1e-8
        if rep.fi >= 4.0 - 1e-6:
            saw_equality = True
    assert saw_equality


@pytest.mark.parametrize("pipeline", ["MZI", "MMZI"])
@pytest.mark.parametrize("n", range(1, 7))
def test_injective_readout_equals_counting_at_dark_fringes(n, pipeline):
    # at these phases some outcomes sit at an amplitude zero; a merged
    # readout takes the counting rule there, transversal limit included
    for phi in (0.0, math.pi / 2, math.pi):
        full = classical_fi(noon(n), phi, pipeline).fi
        rep = fi_observable(noon(n), phi, pipeline, lambda a, b: a + math.sqrt(2) * b)
        assert math.isclose(rep.fi, full, rel_tol=1e-12)


def test_dark_fringe_readouts_take_the_transversal_limit():
    parity = fi_observable(noon(2), 0.0, "MMZI", lambda a, b: (-1) ** a)
    assert math.isclose(parity.fi, 4.0, rel_tol=1e-12)
    single = make_state([(1, 0, 1j)], 1)
    assert math.isclose(fi_observable(single, 0.0, "MZI", lambda a, b: a % 3).fi, 1.0, rel_tol=1e-12)


def test_constant_observable_carries_nothing():
    state, _ = zeta_noon(3.0, 6)
    rep = fi_observable(state, 0.8, "MMZI", lambda a, b: 1.0)
    assert rep.fi == pytest.approx(0.0, abs=1e-15)


def test_data_processing_inequality_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = random_state(rng)
        phi = float(rng.uniform(0, 6))
        full = classical_fi(s, phi, "MMZI").fi
        rep = fi_observable(s, phi, "MMZI", lambda a, b: a % 3)
        assert rep.fi <= full + 1e-8


# ---------------------------------------------------------------------------
# direct imbalance measurement on the encoded state

def test_j3_intermediate_is_blind():
    # the phase turns only the arguments of the encoded state's amplitudes,
    # so the J3 weights, and a J3 readout before the closing splitter, do
    # not depend on it, while the QFI is N^2
    for n in range(1, 7):
        state = noon(n)
        np.testing.assert_allclose(np.abs(apply_phase(state, 0.7).amps), np.abs(state.amps), rtol=1e-14)
        assert qfi_pure(state) == pytest.approx(n * n, rel=1e-12)
    state, _ = zeta_noon(3.0, 15)
    np.testing.assert_allclose(np.abs(apply_phase(state, 1.3).amps), np.abs(state.amps), rtol=1e-14)


def test_j3_intermediate_is_exactly_zero_on_random_states():
    rng = np.random.default_rng(6)
    for _ in range(40):
        s = random_state(rng, max_sector=6)
        turned = apply_phase(s, float(rng.uniform(0, 6)))
        assert np.array_equal(turned.na, s.na) and np.array_equal(turned.nb, s.nb)
        np.testing.assert_allclose(np.abs(turned.amps), np.abs(s.amps), rtol=1e-14)


# ---------------------------------------------------------------------------
# reports

def test_report_serialization():
    rep = classical_fi(noon(2), 0.5, "MMZI")
    d = rep.to_json_dict()
    assert set(d) == {"phi", "fi", "qfi", "crb", "povm", "pipeline"}
    assert d["pipeline"] == "MMZI" and d["povm"] == "counting:na_nb"
    assert d["crb"] == pytest.approx(1.0 / math.sqrt(rep.fi))
    assert rep.crb_m(4) == pytest.approx(rep.crb_single / 2)


def test_mzi_scan_retains_no_splitter_memory():
    # splitter columns live only while their sector is evaluated, so the
    # scan of sectors up to 200 photons leaves nothing behind but its result
    state = zeta_dual_fock(3.0, 100)[0]
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    fi_scan(dual_fock(1), phis, "MZI")  # warm-up: first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scan = fi_scan(state, phis, "MZI")
        retained = tracemalloc.get_traced_memory()[0] - before - scan.nbytes
    finally:
        tracemalloc.stop()
    assert retained < 2**20


@pytest.mark.parametrize("derivative, most", [(False, 40), (True, 56)], ids=["table", "with-derivative"])
def test_outcome_table_holds_each_number_once(derivative, most):
    # na, nb and z take 32 B per outcome, dz 16 more: the table is written
    # in place, so no concatenation, sort or gather of outcome size may
    # double it on the way
    split = fisher._split(zeta_noon(3.0, 2000)[0], "MMZI")
    fisher._outcome_table(fisher._split(noon(2), "MMZI"), 0.3, derivative)  # warm-up
    tracemalloc.start()
    try:
        table = fisher._outcome_table(split, 0.3, derivative)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[0].size == 2_003_000
    assert peak <= most * table[0].size
