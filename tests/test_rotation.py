"""The MZI's single-input sector kind, against oracles that share no code
with it.

Two splitters around the phase act on one Fock input |n_a, n_b> as a
rotation exp(-i phi J2) of the swapped input, so fisher reads a sector of
the source with one occupied input before any first splitter: its counting
FI is n_a + n_b + 2 n_a n_b at every phase (2J(J+1) for |J,J>), its fringe
spread is N, and the outcome probabilities of a balanced input |J,J> are
|d^J_{m,0}(phi)|^2, from a three-term recurrence. Pinned here: the
rotation's P and dP against dense expm splitters for every |J,J> with
N <= 60, its elements at J = 2000 against mpmath's Legendre functions and
unitarity, the FI closed form against the table route (first splitter,
then the phase kernel) for every single input with N <= 30, on states
that mix single-input, two-branch and general sectors, every MZI reader
built from kinds against the first splitter plus the MMZI readers, and
|N,N> through the MZI against the closed-form splitter image of |N,N>
through the MMZI. The MZI qfi field, 4 Var(J2) of the input, is pinned
to a pairwise sum in Python ints, also where N(N+1)/2 passes int64.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qfilab import (
    apply_beamsplitter,
    classical_fi,
    dual_fock,
    fi_scan,
    likelihood,
    likelihood_period,
    likelihood_with_derivative,
    make_state,
    qfi_pure,
    sector_decompose,
    zeta_dual_fock,
)
from qfilab import fisher
from qfilab.cli import main
from qfilab.fisher import _rotation, premeasurement_state
from sector_operators import counting_amplitudes, dual_fock_after_bs

ORACLE_PHASES = [0.0, 1e-9, 0.3, math.pi / 2, math.pi - 1e-9, math.pi, 2.5]


@pytest.mark.parametrize("state", [dual_fock(j) for j in range(31)] + [zeta_dual_fock(3.0, 30)[0]],
                         ids=[f"dual_fock_{j}" for j in range(31)] + ["zeta_dual_fock_3_30"])
def test_rotation_matches_dense_splitters(state):
    # every |J,J> with N = 2J <= 60, and their zeta-weighted superposition;
    # dP pins the sign of the neighbour formula for the derivative
    assert_mzi_table_matches_dense_splitters(state)


def assert_mzi_table_matches_dense_splitters(state):
    """The MZI likelihoods of state list every port split of every occupied
    sector once, in (N, n_a) order, with P and dP within 1e-12 of dense
    splitters at ORACLE_PHASES."""
    dense = counting_amplitudes(state, ORACLE_PHASES, "MZI")
    want = [(a, n - a) for n in sorted(set(state.n_total.tolist())) for a in range(n + 1)]
    for i, phi in enumerate(ORACLE_PHASES):
        assert list(likelihood(state, phi, "MZI")) == want
        got = likelihood_with_derivative(state, phi, "MZI")
        assert list(got) == want
        for key, (p, dp) in got.items():
            z, dz = dense[key]
            assert abs(p - abs(z[i]) ** 2) <= 1e-12
            assert abs(dp - 2.0 * np.real(np.conj(z[i]) * dz[i])) <= 1e-12


@pytest.mark.parametrize("phi", [0.0, -0.0, 1e-200, -1e-190])
def test_rotation_is_the_permutation_where_sin_phi_vanishes(phi):
    # at (or, below 2^-600, as good as at) phi = 0 the MZI returns |J,J>
    # itself: P exactly 1 and 0, and dP exactly 0
    for j in (1, 4, 30):
        for (a, _), (p, dp) in likelihood_with_derivative(dual_fock(j), phi, "MZI").items():
            assert (p, dp) == ((1.0, 0.0) if a == j else (0.0, 0.0))


def ladder(j, phis):
    """d^J_{J-t,0}(phi) for t = 0..J, rows phases."""
    out = np.zeros((len(phis), j + 1))
    for t, _, d in _rotation(np.array([j]), np.asarray(phis, dtype=float)):
        out[:, t] = d[0]
    return out


def test_rotation_at_j_2000_matches_mpmath_legendre():
    # d^J_{m,0} = sqrt((J-m)!/(J+m)!) P_J^m(cos phi), at 50 digits; for even
    # J the ladder's positive seed d^J_{J,0} has the standard sign. The
    # values include the tail 1e-22 beyond the turning point and a point
    # near a node of the oscillation, held to 1e-14 absolute there
    j = 2000
    spots = {0.3: (0, 17, 500, 700), 1.0: (1, 100, 700)}
    got = ladder(j, list(spots))
    with mpmath.workdps(50):
        for row, (phi, ms) in enumerate(spots.items()):
            x = mpmath.cos(mpmath.mpf(phi))
            for m in ms:
                norm = mpmath.sqrt(mpmath.factorial(j - m) / mpmath.factorial(j + m))
                ref = norm * mpmath.legenp(j, m, x, type=2)
                assert math.isclose(got[row, j - m], float(ref), rel_tol=1e-12, abs_tol=1e-14), (phi, m)


def test_rotation_at_j_2000_is_unitary():
    # sum over m of d^2 is 1, also where the seed |sin(phi)/2|^J lies far
    # below the float range (phi within 1e-9 of 0 or pi) and at float pi,
    # whose sine is 1.2e-16
    phis = [1e-9, 0.3, 1.0, math.pi / 2, 2.5, math.pi - 1e-9, math.pi]
    d = ladder(2000, phis)
    norms = 2.0 * np.sum(d[:, :-1] ** 2, axis=1) + d[:, -1] ** 2
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_single_input_fi_closed_form_matches_the_table_route():
    # every |n_a, n_b> with N <= 30: the FI of kinds, n_a + n_b + 2 n_a n_b
    # at every phase, against the first splitter and the phase kernel
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    for n in range(31):
        for a in range(n + 1):
            state = make_state([(a, n - a, 1.0)], n)
            closed = fi_scan(state, phis, "MZI")
            assert np.all(closed == float(n + 2 * a * (n - a)))
            table = fi_scan(premeasurement_state(state, "MZI"), phis, "MMZI")
            np.testing.assert_allclose(table, closed, rtol=1e-12, atol=1e-12)


parts = st.floats(-1.0, 1.0, allow_nan=False)
# exact multiples of pi/4 put outcomes on analytic zeros; the rest are generic
phases = st.one_of(
    st.integers(0, 7).map(lambda k: k * math.pi / 4),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
NEAR_IDENTITY = make_state([(3, 3, 1.0), (1, 0, 0.3), (0, 1, 0.2j), (0, 4, 0.5), (4, 0, 0.1), (2, 5, 0.4)], 8)


@st.composite
def mixed_states(draw):
    """Up to four sectors of at most 8 photons, each a balanced single input
    |J,J>, an unbalanced single input, a two-branch pair or a general
    support."""
    entries = []
    for n in draw(st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["balanced", "single", "two-branch", "general"]))
        if kind == "balanced" and n % 2 == 0:
            picked = [n // 2]
        elif kind in ("balanced", "single"):
            picked = [draw(st.integers(0, n))]
        elif kind == "two-branch":
            picked = sorted({0, n})
        else:
            picked = draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True))
        entries += [(k, n - k, complex(draw(parts), draw(parts))) for k in picked]
    assume(max(abs(e[2]) for e in entries) > 1e-3)
    return make_state(entries, cutoff=8)


@given(mixed_states(), phases)
@example(NEAR_IDENTITY, 1e-300)  # below _FLAT: the rotation is the permutation
@example(NEAR_IDENTITY, math.pi)
def test_mzi_readers_from_kinds_equal_the_first_splitter_then_mmzi(state, phi):
    # Not held within ~1e-10 of 0 or pi: there the table route trusts outcome
    # amplitudes of 1e-13 to 1e-10 that carry 1e-16 absolute rounding
    # (ROADMAP item 7), so at 1e-11 its FI of NEAR_IDENTITY is 3e-12 off
    # the single inputs' closed form, which has no such band
    pre = apply_beamsplitter(state)
    got, want = classical_fi(state, phi, "MZI"), classical_fi(pre, phi, "MMZI")
    assert math.isclose(got.fi, want.fi, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(got.qfi, want.qfi, rel_tol=1e-12, abs_tol=1e-12)
    probs, ref = likelihood(state, phi, "MZI"), likelihood(pre, phi, "MMZI")
    assert set(ref) <= set(probs)  # the first splitter prunes, the kinds list every port split
    assert all(abs(p - ref.get(k, 0.0)) <= 1e-12 for k, p in probs.items())


# sectors 2 to 5 alternate in kind: rotation, general, rotation, unbalanced single input
INTERLEAVED = make_state([(1, 1, 1.0), (0, 3, 0.6), (1, 2, 0.4j), (2, 2, 0.5), (1, 4, 0.3)], 6)


@given(mixed_states())
@example(INTERLEAVED)
def test_table_of_interleaved_kinds_is_in_canonical_order(state):
    # the rotation's outcomes and the phase kernel's land in one table
    assert_mzi_table_matches_dense_splitters(state)


def test_mzi_qfi_equals_four_var_j2_without_a_splitter(monkeypatch):
    # B^dagger J3 B = -J2, so the MZI's QFI reads the input itself
    state = make_state([(0, 0, 0.3), (1, 2, 0.5), (2, 1, 0.2j), (0, 3, -0.4), (2, 2, 0.6), (4, 0, 0.1)], 4)
    want = qfi_pure(apply_beamsplitter(state))

    def forbidden(*_args):
        raise AssertionError("splitter applied")

    monkeypatch.setattr(fisher, "apply_beamsplitter", forbidden)
    assert math.isclose(qfi_pure(state, "MZI"), want, rel_tol=1e-13)


def j2_variance_pairwise(state):
    """Var(J2) from every pair of entries one or two apart in n_a within a
    sector, the ladder factors (k+1)(N-k) in Python ints."""
    amps = {(int(n), int(a)): complex(c) for n, a, c in zip(state.n_total, state.na, state.amps)}

    def e(k, n):  # <k+1|J2|k> = -i e_k
        return 0.5 * math.sqrt((k + 1) * (n - k))

    mean, square = [], []
    for (n, a), c in amps.items():
        square.append(abs(c) ** 2 * (e(a, n) ** 2 + e(a - 1, n) ** 2))
        if (n, a + 1) in amps:
            mean.append(2.0 * e(a, n) * (amps[n, a + 1].conjugate() * c).imag)
        if (n, a + 2) in amps:
            square.append(-2.0 * e(a, n) * e(a + 1, n) * (c.conjugate() * amps[n, a + 2]).real)
    return math.fsum(square) - math.fsum(mean) ** 2


def test_mzi_qfi_pairs_entries_beyond_int64_outcome_keys():
    # N(N+1)/2 + n_a wraps round in int64 above N ~ 3.04e9, where a key
    # search missed neighbour pairs (1.3e-10 relative off)
    n = 3 * 10**9
    state = make_state([(n, n, 1), (n + 1, n - 1, 0.7j), (n + 2, n - 2, 0.3), (2, 1, 0.5), (3, 0, 0.5j)], 9 * 10**9)
    want = j2_variance_pairwise(state)
    assert math.isclose(fisher._j2_variance(state), want, rel_tol=1e-15)


@given(mixed_states())
def test_j2_variance_equals_the_pairwise_sum(state):
    want = j2_variance_pairwise(state)
    assert math.isclose(fisher._j2_variance(state), want, rel_tol=1e-12, abs_tol=1e-12)


def test_single_input_spread_is_its_photon_number():
    # the rotation reaches every port split of the sector, so the fastest
    # fringe of |3,3> has frequency 6, and of |5,0> frequency 5
    assert likelihood_period(dual_fock(3), "MZI") == 2.0 * math.pi / 6
    assert likelihood_period(make_state([(5, 0, 1.0), (1, 1, 1.0)], 5), "MZI") == 2.0 * math.pi / 5


def test_cli_default_dual_fock_mzi_qfi_is_a_closed_form_sum(tmp_path, monkeypatch):
    # K = 1000, every sector a single input: no splitter column is built,
    # and the report's fi and qfi are sum P(N) 2N(N+1) over the sectors
    def forbidden(*_args):
        raise AssertionError("splitter column built")

    monkeypatch.setattr(fisher, "splitter_columns", forbidden)
    out = tmp_path / "q.json"
    assert main(["qfi", "catalog:zeta_dual_fock:3", "--pipeline", "MZI", "--out", str(out)]) == 3
    report = json.loads(out.read_text(encoding="utf-8"))
    comps = sector_decompose(zeta_dual_fock(3.0, 1000)[0])
    expected = math.fsum(c.probability * c.n_total * (c.n_total // 2 + 1) for c in comps)
    assert report["phi"] == 0.0
    assert math.isclose(report["fi"], expected, rel_tol=1e-13)
    assert math.isclose(report["divergence"]["truncated_qfi"], expected, rel_tol=1e-13)


def test_dual_fock_via_mzi_equals_its_closed_form_splitter_image_via_mmzi():
    # the rotation reads |N,N> with no splitter; the MMZI reads the closed
    # form of its first-splitter image through the phase kernel
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    for n in range(1, 16):
        image = dual_fock_after_bs(n)
        np.testing.assert_allclose(fi_scan(dual_fock(n), phis, "MZI"), fi_scan(image, phis, "MMZI"),
                                   rtol=1e-12, atol=0.0, err_msg=f"N={n}")
        assert math.isclose(qfi_pure(dual_fock(n), "MZI"), qfi_pure(image, "MMZI"), rel_tol=1e-12), n


def test_the_closed_form_splitter_image_is_no_catalog_family(capsys):
    assert main(["qfi", "catalog:dual_fock_bs:3"]) == 2
    assert "unknown catalog family" in capsys.readouterr().err
