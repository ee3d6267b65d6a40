import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm

from qfilab import (
    CutoffViolationError,
    EmptyStateError,
    apply_beamsplitter,
    apply_phase,
    beamsplitter_matrix,
    expect,
    load_state,
    make_state,
    noon,
    save_state,
    sector_decompose,
    splitter_columns,
    state_from_json_dict,
    state_to_json_dict,
    vacuum,
    zeta_noon,
)
from qfilab import fisher, fock
from qfilab.fock import DEFAULT_PRUNE_THRESHOLD

from sector_operators import schwinger_matrices

RT2 = math.sqrt(2.0)


def random_state(rng, max_sector=8):
    sectors = rng.choice(max_sector + 1, size=int(rng.integers(1, 4)), replace=False)
    entries = []
    for n in sectors:
        for k in range(int(n) + 1):
            entries.append((k, int(n) - k, complex(rng.normal(), rng.normal())))
    return make_state(entries, cutoff=max_sector)


# ---------------------------------------------------------------------------
# construction

def test_make_state_normalizes():
    s = make_state([(1, 0, 1.0), (0, 1, 1.0)], cutoff=4)
    assert abs(s.amplitude(1, 0) - 1 / RT2) < 1e-12
    assert abs(s.amplitude(0, 1) - 1 / RT2) < 1e-12
    assert abs(s.norm() - 1.0) < 1e-12


def test_make_state_already_normalized():
    s = make_state([(3, 0, 1 / RT2), (0, 3, 1 / RT2)], cutoff=3)
    assert abs(s.norm() - 1.0) < 1e-12
    assert len(s) == 2


def test_make_state_cutoff_violation():
    with pytest.raises(CutoffViolationError):
        make_state([(5, 0, 1.0)], cutoff=4)
    with pytest.raises(CutoffViolationError):
        make_state([(-1, 0, 1.0)], cutoff=4)


def test_make_state_empty():
    with pytest.raises(EmptyStateError):
        make_state([], cutoff=2)
    with pytest.raises(EmptyStateError):
        make_state([(0, 0, 0.0), (1, 1, 0.0)], cutoff=2)


@pytest.mark.parametrize("amp", [complex("nan"), 1j * math.inf, complex(-math.inf, 0.0)])
def test_make_state_rejects_non_finite_amplitudes(amp):
    # pruning against a NaN or infinite peak would drop every entry and
    # leave an empty state with a NaN norm
    with pytest.raises(ValueError, match=r"entry \(1, 2\) has a non-finite amplitude"):
        make_state([(0, 3, 1.0), (1, 2, amp)], cutoff=3)


def test_make_state_rejects_duplicates_whose_sum_overflows():
    # each entry is finite, their merge is not: the check runs on the merged
    # amplitudes, so this is the same ValueError, not an empty state
    with pytest.raises(ValueError, match=r"entry \(0, 0\) has a non-finite amplitude"):
        make_state([(0, 0, 1e308), (0, 0, 1e308), (1, 0, 1.0)], 1)


def test_make_state_merges_duplicates():
    s = make_state([(1, 0, 0.5), (1, 0, 0.5), (0, 1, 1.0)], cutoff=2)
    assert abs(s.amplitude(1, 0) - s.amplitude(0, 1)) < 1e-12


amplitudes = st.builds(
    complex,
    st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False)),
    st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False)),
)


@st.composite
def entry_lists(draw):
    """(n_a, n_b, amplitude) entries over a few pairs, each pair listed one
    to four times, in any order."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6, unique=True))
    entries = [(a, b, draw(amplitudes)) for a, b in pairs for _ in range(draw(st.integers(1, 4)))]
    return draw(st.permutations(entries))


def reference_state(entries, cutoff):
    """(na, nb, amps) of make_state by brute force: each pair's amplitudes
    summed in input order with Python complex sums, pruned against the
    largest, sorted by (N, n_a) and normalized by the same numpy expression,
    after dividing by the largest where squares would leave the float range."""
    merged = {}
    for a, b, amp in entries:
        merged[(a, b)] = merged.get((a, b), 0j) + amp
    mags = np.abs(np.array(list(merged.values())))
    assume(mags.max() > 0.0)
    kept = sorted((a + b, a, b, amp) for ((a, b), amp), mag in zip(merged.items(), mags)
                  if mag > DEFAULT_PRUNE_THRESHOLD * mags.max())
    amps = np.array([amp for *_, amp in kept])
    if not 1e-100 < mags.max() < 1e100:
        amps = amps / mags.max()
    return [k[1] for k in kept], [k[2] for k in kept], amps / np.sqrt(np.sum(np.abs(amps) ** 2))


@given(entry_lists())
def test_make_state_matches_a_brute_force_merge(entries):
    na, nb, amps = reference_state(entries, 6)
    state = make_state(entries, 6)
    assert state.na.tolist() == na and state.nb.tolist() == nb
    # == on every part: exact, though a signed zero is not told apart
    assert np.array_equal(state.amps, amps)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_make_state_normalizes_amplitudes_whose_squares_leave_the_float_range(scale):
    s = make_state([(0, 0, 1j * scale), (1, 0, 3.0 * scale)], cutoff=1)
    np.testing.assert_allclose(s.amps, np.array([1j, 3.0]) / math.sqrt(10.0), rtol=1e-15)


@pytest.mark.parametrize("scale", [1e-310, 1e-320])
def test_make_state_scales_a_subnormal_peak_exactly(scale):
    # dividing by a subnormal peak overflowed to inf and then NaN; the peak
    # is scaled by a power of two instead, which is exact, with no warning
    s = make_state([(0, 2, scale), (2, 0, 1j * scale)], 2)
    np.testing.assert_allclose(s.amps, make_state([(0, 2, 1.0), (2, 0, 1j)], 2).amps, rtol=1e-15, atol=0.0)


def test_canonical_order():
    s = make_state([(2, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)], cutoff=2)
    assert [k for k, _ in s.items()] == [(0, 1), (1, 0), (0, 2), (2, 0)]


def test_prune_threshold():
    s = make_state([(0, 0, 1.0), (1, 1, 1e-18)], cutoff=2)
    assert len(s) == 1


# ---------------------------------------------------------------------------
# phase shift

def test_phase_single_photon():
    s = make_state([(1, 0, 1.0)], cutoff=1)
    out = apply_phase(s, 0.7)
    assert abs(out.amplitude(1, 0) - np.exp(-0.7j / 2)) < 1e-12


def test_phase_noon_relative_phase():
    for n in (1, 3, 5):
        phi = 0.43
        out = apply_phase(noon(n), phi)
        rel = out.amplitude(0, n) / out.amplitude(n, 0)
        assert abs(rel - np.exp(1j * n * phi)) < 1e-12


def test_phase_zero_is_identity():
    rng = np.random.default_rng(5)
    s = random_state(rng)
    assert apply_phase(s, 0.0).allclose(s, tol=1e-15)


def test_phase_composition():
    rng = np.random.default_rng(6)
    for _ in range(5):
        s = random_state(rng)
        a, b = rng.uniform(-3, 3, size=2)
        lhs = apply_phase(apply_phase(s, a), b)
        rhs = apply_phase(s, a + b)
        assert lhs.allclose(rhs, tol=1e-12)


# ---------------------------------------------------------------------------
# beam splitter

def test_beamsplitter_single_photon():
    out = apply_beamsplitter(make_state([(1, 0, 1.0)], cutoff=1))
    assert abs(out.amplitude(1, 0) - 1 / RT2) < 1e-12
    assert abs(out.amplitude(0, 1) - 1j / RT2) < 1e-12


def test_beamsplitter_hong_ou_mandel():
    out = apply_beamsplitter(make_state([(1, 1, 1.0)], cutoff=2))
    assert abs(out.amplitude(2, 0) - 1j / RT2) < 1e-12
    assert abs(out.amplitude(0, 2) - 1j / RT2) < 1e-12
    assert abs(out.amplitude(1, 1)) < 1e-12


def test_beamsplitter_vacuum():
    out = apply_beamsplitter(vacuum())
    assert abs(out.amplitude(0, 0) - 1.0) < 1e-15


def test_unitarity_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_state(rng)
        phi = rng.uniform(-4, 4)
        assert abs(apply_phase(s, phi).norm() - 1.0) < 1e-12
        assert abs(apply_beamsplitter(s).norm() - 1.0) < 1e-12


def test_beamsplitter_preserves_photon_distribution():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = random_state(rng)
        before = {c.n_total: c.probability for c in sector_decompose(s)}
        after = {c.n_total: c.probability for c in sector_decompose(apply_beamsplitter(s))}
        assert set(before) == set(after)
        for n in before:
            assert abs(before[n] - after[n]) < 1e-12


def test_beamsplitter_matches_matrix_exponential():
    # independent scaling-and-squaring oracle on the tridiagonal generator
    # every column, so the recurrence of non-two-branch inputs is covered
    for n in range(1, 61):
        j1, _, _ = schwinger_matrices(n)
        oracle = expm(0.5j * np.pi * j1)
        assert np.abs(beamsplitter_matrix(n) - oracle).max() < 1e-10
        assert np.abs(splitter_columns(n, [0, n]) - oracle[:, [0, n]]).max() < 1e-10


def test_two_branch_splitter_columns_closed_form():
    # binomial magnitudes and i^k phases against the eigendecomposition
    for n in list(range(60)) + [100, 200, 300, 400]:
        dense = beamsplitter_matrix(n)
        assert np.abs(splitter_columns(n, [0, n]) - dense[:, [0, n]]).max() < 1e-12
        assert np.abs(splitter_columns(n, [n]) - dense[:, [n]]).max() < 1e-12


@pytest.mark.parametrize("k", [100, 1000])
def test_two_branch_outcome_table_takes_lgamma_calls_linear_in_the_cutoff(monkeypatch, k):
    # every sector of zeta_noon is two-branch: one shared log-factorial
    # table serves them all, with math.lgamma called O(K) times, not once
    # per outcome (K^2 / 2); its entries are the floats lgamma gives
    calls = []
    real = math.lgamma

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(fock, "_LOG_FACTORIALS", np.zeros(1))
    monkeypatch.setattr(math, "lgamma", counted)
    state = zeta_noon(3.0, k)[0]
    fisher._outcome_table(fisher._split(state, "MMZI"), 0.3)
    assert k < len(calls) < 2 * (k + 1)
    assert fock._log_factorials(k).tolist() == [real(x + 1.0) for x in range(k + 1)]


def test_general_splitter_columns_slice_the_dense_matrix():
    dense = beamsplitter_matrix(7)
    for cols in ([1], [0, 3, 7], [2, 5], [0, 1, 2, 3, 4, 5, 6]):
        assert np.array_equal(splitter_columns(7, cols), dense[:, cols])


@pytest.mark.parametrize("n", [2000, 4000])
def test_recurrence_columns_stay_finite_unitary_and_match_the_closed_form(n):
    # far beyond the scale where an unscaled recurrence overflows (2^(N/2))
    cols = np.unique(np.r_[0, 1, 2, np.arange(3, n - 2, 97), n // 2, n - 2, n - 1, n])
    got = splitter_columns(n, cols)
    assert np.isfinite(got).all()
    assert np.abs(got.conj().T @ got - np.eye(cols.size)).max() < 1e-13
    # columns 0 and N through the recurrence (asked for beside column 1)
    # against the two-branch closed form; entries below 1e-280 are compared
    # absolutely, where the closed form itself has lost its relative digits
    closed = splitter_columns(n, [0, n])
    edge = got[:, [0, -1]]
    big = np.abs(closed) > 1e-280
    assert np.all(np.abs(edge - closed)[big] <= 1e-11 * np.abs(closed)[big])
    assert np.abs(edge - closed)[~big].max() <= 1e-280


@pytest.mark.parametrize("n", [2, 10, 64, 502])
def test_balanced_input_column_has_exact_zeros_at_odd_outputs(n):
    # m = 0: the recurrence links k - 1 to k + 1 only, so the odd entries
    # of the |N/2, N/2> column are exact zeros, which pruning then drops
    col = splitter_columns(n, [n // 2])[:, 0]
    assert np.all(col[1::2] == 0)
    assert np.all(col[::2] != 0)


def test_schwinger_commutators():
    for n in range(1, 21):
        j1, j2, j3 = schwinger_matrices(n)
        assert np.abs(j1 @ j2 - j2 @ j1 - 1j * j3).max() < 1e-12
        assert np.abs(j2 @ j3 - j3 @ j2 - 1j * j1).max() < 1e-12
        assert np.abs(j3 @ j1 - j1 @ j3 - 1j * j2).max() < 1e-12


def test_j3_eigenvalues_exact():
    s = make_state([(4, 1, 1.0)], cutoff=5)
    assert expect(s, "j3") == pytest.approx((4 - 1) / 2, abs=0)


# ---------------------------------------------------------------------------
# expectations

def test_expect_examples():
    assert expect(noon(3), "n_total") == pytest.approx(3.0, abs=1e-12)
    for n in (1, 2, 4):
        assert expect(noon(n), "j3_sq") == pytest.approx(n * n / 4.0, abs=1e-12)
        assert expect(noon(n), "j3") == pytest.approx(0.0, abs=1e-12)
    s = make_state([(2, 1, 1.0)], cutoff=3)
    assert expect(s, "parity_a") == pytest.approx(1.0, abs=0)
    assert expect(s, "delta") == pytest.approx(-1.0, abs=0)


def test_expect_unknown_observable():
    with pytest.raises(ValueError):
        expect(vacuum(), "n_a_times_n_b")


# ---------------------------------------------------------------------------
# sector decomposition

def test_sector_decompose_single_sector():
    comps = sector_decompose(noon(2))
    assert len(comps) == 1
    assert comps[0].n_total == 2
    assert comps[0].probability == pytest.approx(1.0, abs=1e-12)


def test_sector_decompose_two_sectors():
    s = make_state([(1, 0, 1.0), (2, 0, 1.0)], cutoff=2)
    comps = sector_decompose(s)
    assert [c.n_total for c in comps] == [1, 2]
    for c in comps:
        assert c.probability == pytest.approx(0.5, abs=1e-12)
        assert abs(c.state.norm() - 1.0) < 1e-12


def test_sector_decompose_reassembles():
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = random_state(rng)
        rebuilt = {}
        for c in sector_decompose(s):
            scale = c.phase * math.sqrt(c.probability)
            for key, amp in c.state.items():
                rebuilt[key] = rebuilt.get(key, 0) + scale * amp
        for key, amp in s.items():
            assert abs(rebuilt[key] - amp) < 1e-12


# ---------------------------------------------------------------------------
# JSON state files

def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    s = random_state(rng)
    path = tmp_path / "state.json"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.cutoff == s.cutoff
    assert loaded.allclose(s, tol=1e-12)


def test_json_writer_byte_stable(tmp_path):
    s = make_state([(0, 2, 0.3), (2, 0, 0.5j), (1, 0, 1.0)], cutoff=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(s, p1)
    save_state(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_reader_normalizes(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(
        json.dumps(
            {
                "cutoff": 2,
                "entries": [
                    {"na": 1, "nb": 0, "re": 2.0, "im": 0.0},
                    {"na": 0, "nb": 1, "re": 0.0, "im": 2.0},
                ],
            }
        )
    )
    s = load_state(path)
    assert abs(s.norm() - 1.0) < 1e-12
    assert abs(abs(s.amplitude(1, 0)) - 1 / RT2) < 1e-12


@pytest.mark.parametrize("integral", [1, 1.0, "1", True], ids=["int", "float", "str", "bool"])
def test_json_reader_accepts_integral_occupations_and_cutoff(integral):
    entry = {"na": integral, "nb": 0, "re": 1.0, "im": 0.0}
    s = state_from_json_dict({"cutoff": integral, "entries": [entry]})
    assert s.cutoff == 1 and type(s.cutoff) is int
    assert s.na.tolist() == [1] and s.nb.tolist() == [0]


@pytest.mark.parametrize(
    "value", [1.5, 0.999, "1.5", float("inf"), float("nan")], ids=["1.5", "0.999", "str", "inf", "nan"]
)
@pytest.mark.parametrize("field", ["cutoff", "na", "nb"])
def test_json_reader_rejects_non_integral_occupations_and_cutoff(field, value):
    data = {"cutoff": 3, "entries": [{"na": 1, "nb": 1, "re": 1.0, "im": 0.0}]}
    if field == "cutoff":
        data["cutoff"] = value
    else:
        data["entries"][0][field] = value
    name = field if field == "cutoff" else f"entries[0].{field}"
    with pytest.raises(ValueError, match=rf"malformed state file: {re.escape(name)} must be an integer"):
        state_from_json_dict(data)


def test_json_dict_sorted_by_sector_then_na():
    s = make_state([(2, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)], cutoff=3)
    entries = state_to_json_dict(s)["entries"]
    keys = [(e["na"] + e["nb"], e["na"]) for e in entries]
    assert keys == sorted(keys)


def test_states_are_immutable():
    s = noon(2)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0
