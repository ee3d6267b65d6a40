"""Acceptance gate: every headline quantitative claim this library is built
around, pinned at its stated tolerance. Run with `pytest -s` to see one
PASS line per criterion."""

import json
import math
import time

import numpy as np
import pytest

from qfilab import (
    apply_beamsplitter,
    apply_phase,
    classical_fi,
    default_window,
    dual_fock,
    fi_scan,
    likelihood,
    likelihood_with_derivative,
    make_state,
    max_qfi_bound,
    mle_phase,
    noon,
    qfi_pure,
    sample_outcomes,
    sector_fi_decomposition,
    tmsv,
    tmsv_cutoff_for,
    tmsv_noon,
    zeta_dual_fock,
    zeta_noon,
    zeta_noon_doubled,
)
from qfilab.cli import main

from sector_operators import dual_fock_after_bs

TMSV_MEANS = (0.5, 1.0, 2.0, 4.0, 8.0)

CATALOG = [
    ("noon1", noon(1), "MMZI"),
    ("noon3", noon(3), "MMZI"),
    ("dual_fock2", dual_fock(2), "MZI"),
    ("dual_fock_bs2", dual_fock_after_bs(2), "MMZI"),
    ("zeta_noon(3,12)", zeta_noon(3.0, 12)[0], "MMZI"),
    ("zeta_dual_fock(3,8)", zeta_dual_fock(3.0, 8)[0], "MZI"),
    ("zeta_noon_doubled(3,6)", zeta_noon_doubled(3.0, 6)[0], "MMZI"),
    ("tmsv(2,34)", tmsv(2.0, 34)[0], "MZI"),
    ("tmsv_noon(2,33)", tmsv_noon(2.0, 33)[0], "MMZI"),
]


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def random_state(rng, max_sector=8):
    sectors = rng.choice(max_sector + 1, size=int(rng.integers(1, 4)), replace=False)
    entries = []
    for n in sectors:
        for k in range(int(n) + 1):
            entries.append((k, int(n) - k, complex(rng.normal(), rng.normal())))
    return make_state(entries, cutoff=max_sector)


def read_csv(path):
    columns, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return columns, rows


def test_01_noon_qfi_law():
    start = time.monotonic()
    for n in range(1, 41):
        qfi = qfi_pure(noon(n))
        assert abs(qfi - n * n) <= 1e-9 * n * n
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(1, "two-branch state QFI equals N^2 (N = 1..40)")


def test_02_dual_fock_intermediate_qfi():
    for n in range(1, 16):
        target = 2 * n * n + 2 * n
        qfi = qfi_pure(apply_beamsplitter(dual_fock(n)))
        assert abs(qfi - target) <= 1e-9 * target
        # weighted component sum from the closed-form coefficients
        closed = dual_fock_after_bs(n)
        weighted = sum(
            abs(amp) ** 2 * (2 * n - 2 * na) ** 2 for (na, _nb), amp in closed.items()
        )
        assert abs(weighted - target) <= 1e-9 * target
    _report(2, "splitter image of |N,N> has QFI 2N^2+2N (N = 1..15)")


def test_03_closed_form_vs_unitary_oracle():
    for n in range(1, 16):
        closed = dual_fock_after_bs(n)
        direct = apply_beamsplitter(dual_fock(n))
        assert abs(closed.overlap(direct)) >= 1.0 - 1e-10
    _report(3, "closed-form splitter image overlaps the unitary oracle")


def test_04_tmsv_intermediate_qfi():
    mismatches = []
    for mean in TMSV_MEANS:
        cutoff = tmsv_cutoff_for(mean)
        state, dist = tmsv(mean, cutoff)
        qfi = qfi_pure(apply_beamsplitter(state))
        target = mean * mean + 2 * mean
        assert abs(qfi - target) <= 1e-6 * target
        # second convention seen for this bound, kept for comparison:
        # <N^2> + 2<N> of the photon distribution (= 2m^2 + 4m here)
        variant = dist.mean_square.value + 2 * dist.mean.value
        mismatches.append((mean, target, variant))
        assert variant > target
    for mean, target, variant in mismatches:
        print(
            f"  tmsv mean={mean}: qfi(state)={target:.6g}, "
            f"distribution variant <N^2>+2<N>={variant:.6g}"
        )
    _report(4, "squeezed-vacuum intermediate QFI equals mean^2+2*mean")


def test_05_tmsv_weighted_branch_qfi():
    for mean in TMSV_MEANS:
        cutoff = tmsv_cutoff_for(mean)
        state, _ = tmsv_noon(mean, cutoff)
        target = 2 * mean * mean + 2 * mean
        assert abs(qfi_pure(state) - target) <= 1e-6 * target
    _report(5, "branch family with squeezed-vacuum weights reaches 2m^2+2m")


def test_06_zeta_headline_constants():
    start = time.monotonic()
    zeta2 = float(np.pi**2 / 6.0)
    zeta3 = 1.2020569031595943
    crossing = zeta2 / zeta3
    assert abs(crossing - 1.36843) < 1e-4

    dists = {k: zeta_noon(3.0, k)[1] for k in (10**3, 10**4, 10**5, 10**6)}
    assert abs(dists[10**6].mean.value - crossing) < 1e-4

    values = {}
    for k, dist in dists.items():
        n = np.arange(1, k + 1, dtype=np.float64)
        oracle = math.fsum(1.0 / n) / math.fsum(n**-3.0)
        assert abs(dist.mean_square.value - oracle) <= 1e-8 * oracle
        assert dist.mean_square.divergent
        values[k] = dist.mean_square.value

    per_decade = math.log(10.0) / zeta3  # about 1.9155
    steps = [
        values[10**4] - values[10**3],
        values[10**5] - values[10**4],
        values[10**6] - values[10**5],
    ]
    for step in steps:
        assert abs(step - per_decade) < 2e-3
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _report(6, "zeta family: finite mean 1.36843, log-divergent second moment")


def test_07_crossing_points(tmp_path):
    out_a = tmp_path / "fig3a.csv"
    assert main(["fig3a", "--out", str(out_a)]) == 0
    _, rows_a = read_csv(out_a)
    finite_rows = 0
    for mean, _snl, _hl, _t, _tn, zn in rows_a:
        if mean >= 1.369:
            assert zn == 0.0
        if zn > 0:
            finite_rows += 1
    assert finite_rows > 0

    # a row pinned exactly at the quoted crossing value
    out_pin = tmp_path / "pin.csv"
    assert main(["fig3a", "--x-min", "1.369", "--x-max", "2.0", "--points", "2",
                 "--out", str(out_pin)]) == 0
    _, pinned = read_csv(out_pin)
    assert pinned[0][0] == 1.369 and pinned[0][5] == 0.0

    out_b = tmp_path / "fig3b.csv"
    assert main(["fig3b", "--out", str(out_b)]) == 0
    _, rows_b = read_csv(out_b)
    crossing2 = 2 * 1.3684327776
    strict_rows = 0
    for mean, noon_crb, dual_crb in rows_b:
        if mean >= 2.737:
            assert noon_crb == 0.0 and dual_crb == 0.0
        if mean < crossing2 - 1e-9:
            assert noon_crb < dual_crb
            strict_rows += 1
    assert strict_rows > 0
    _report(7, "bound curves hit exact zero at means 1.369 / 2.737")


def test_08_fi_bounded_by_qfi_suite():
    rng = np.random.default_rng(20240901)
    for _ in range(200):
        state = random_state(rng)
        for phi in rng.uniform(0.0, 2.0 * math.pi, size=5):
            rep = classical_fi(state, float(phi), "MMZI")
            assert rep.fi <= rep.qfi + 1e-8
    _report(8, "FI <= QFI on 200 random states")


def test_09_sector_additivity():
    for _name, state, pipeline in CATALOG:
        for phi in np.linspace(0.05, 2.95, 10):
            _rows, total = sector_fi_decomposition(state, float(phi), pipeline)
            whole = classical_fi(state, float(phi), pipeline).fi
            assert abs(total - whole) <= 1e-9
    _report(9, "FI equals its probability-weighted per-sector sum")


def test_10_saturation_of_max_qfi_bound():
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)

    state, dist = zeta_noon(4.0, 30)
    bound = max_qfi_bound(dist).value
    assert fi_scan(state, phis, "MMZI").max() >= (1 - 1e-4) * bound

    cutoff = tmsv_cutoff_for(2.0)
    state2, dist2 = tmsv_noon(2.0, cutoff)
    bound2 = max_qfi_bound(dist2).value
    assert fi_scan(state2, phis, "MMZI").max() >= (1 - 1e-4) * bound2
    _report(10, "counting measurement saturates the distribution bound")


def test_11_analytic_derivative_check():
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
    _report(11, "analytic likelihood derivatives match central differences")


def test_12_monte_carlo_crb_approach():
    start = time.monotonic()
    state = noon(1)
    window = default_window(state, 0.3)
    sq_errors = []
    for rep in range(200):
        seed = np.random.SeedSequence(42, spawn_key=(0, rep))
        outcomes = sample_outcomes(state, 0.3, "MMZI", 10_000, seed)
        sq_errors.append((mle_phase(outcomes, state, "MMZI", window) - 0.3) ** 2)
    rmse = math.sqrt(float(np.mean(sq_errors)))
    target = 1.0 / math.sqrt(10_000 * 1.0)  # FI of this state is exactly 1
    assert abs(rmse - target) <= 0.1 * target, f"rmse {rmse:.5f} vs {target}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    _report(12, "MLE RMSE within 10% of the 10^4-trial bound 0.01")


def test_13_j3_intermediate_blindness():
    # the phase turns only the arguments of the encoded state's amplitudes,
    # so a J3 readout before the closing splitter has phase-free weights
    for n in range(1, 7):
        state = noon(n)
        for phi in (0.0, 0.6, 2.9):
            np.testing.assert_allclose(np.abs(apply_phase(state, phi).amps), np.abs(state.amps), rtol=1e-14)
        assert qfi_pure(state) == pytest.approx(n * n, rel=1e-12)
    _report(13, "imbalance readout before the splitter carries no phase info")
