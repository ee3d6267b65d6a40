"""Property tests over random small states on both pipelines.

Each property ties two routes to the same number: the pointwise and the
vectorized Fisher information, the quantum bound, the sector split, the
MLE's log-likelihood against the likelihood,
and the array outcome table and the sampler against outcome-by-outcome
references, the phase derivative rule against the dense -i J2 and a
40-digit mpmath expm, and the closed form of two-branch sectors against
the table route and a 50-digit mpmath FI. One property is the paper's "only": the
counting FI reaches <N^2> only on equal-weight two-branch sectors.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qfilab import (
    TwoModeState,
    apply_beamsplitter,
    beamsplitter_matrix,
    classical_fi,
    distribution_from_state,
    expect,
    fi_observable,
    fi_scan,
    likelihood,
    likelihood_with_derivative,
    make_state,
    qfi_pure,
    sample_outcomes,
    sector_decompose,
    sector_fi_decomposition,
    zeta_dual_fock,
    zeta_noon,
)
from qfilab import fisher
from qfilab.estimation import MLE_ZOOM_POINTS
from qfilab.fisher import (
    _PHASE_BLOCK,
    _amplitudes,
    _derivative,
    _logliks,
    _outcome_table,
    _split,
    premeasurement_state,
)
from sector_operators import j2_stencil, schwinger_matrices, sector_kinds

MAX_SECTOR = 6
AMP_NOISE = 1e-13  # amplitude scale below which an outcome sits at a zero

pipelines = st.sampled_from(("MZI", "MMZI"))
# exact multiples of pi/4 put outcomes on analytic zeros; the rest are generic
phases = st.one_of(
    st.integers(0, 7).map(lambda k: k * math.pi / 4),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
parts = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def states(draw):
    """Up to three occupied sectors. Each is a two-branch pair n_a in {0, N},
    which the fisher kernel serves from closed-form splitter columns, or is
    dense or reduced to a few entries, which slice the dense splitter."""
    sectors = draw(
        st.lists(st.integers(0, MAX_SECTOR), min_size=1, max_size=3, unique=True)
    )
    entries = []
    for n in sectors:
        if draw(st.booleans()):
            picked = sorted({0, n})
        else:
            picked = draw(
                st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True)
            )
        for k in picked:
            entries.append((k, n - k, complex(draw(parts), draw(parts))))
    assume(max(abs(e[2]) for e in entries) > 1e-3)
    return make_state(entries, cutoff=MAX_SECTOR)


def reference_fi(state, phi, pipeline, p_floor=1e-12):
    """Outcome-by-outcome FI from the analytic amplitudes.

    Trusted outcomes (P at or above p_floor, or an amplitude above noise
    scale) contribute dP^2/P; an outcome at an amplitude zero
    contributes its transversal limit 4|dz|^2.
    """
    fi = 0.0
    for (a, b), (p, dp) in likelihood_with_derivative(state, phi, pipeline).items():
        if p >= p_floor:
            fi += dp * dp / p
            continue
        # below the floor, recover |z| and |dz| from the sector amplitudes
        z, dz = _outcome_amplitude(state, phi, pipeline, a, b)
        if abs(z) > AMP_NOISE:
            fi += dp * dp / p if p > 0.0 else 0.0
        else:
            fi += 4.0 * abs(dz) ** 2
    return fi


def _outcome_amplitude(state, phi, pipeline, n_a, n_b):
    """Amplitude z of one outcome and its phase derivative dz."""
    pre = apply_beamsplitter(state) if pipeline == "MZI" else state
    n = n_a + n_b
    vec = np.zeros(n + 1, dtype=complex)
    for (a, b), amp in pre.items():
        if a + b == n:
            vec[a] = amp
    m = np.arange(n + 1) - n / 2.0
    chi = np.exp(-1j * phi * m) * vec
    row = beamsplitter_matrix(n)[n_a]
    return complex(row @ chi), complex(row @ (-1j * m * chi))


def mpmath_two_branch_fi(sector, phi):
    """Counting FI of a two-branch sector at 50 digits, outcome by outcome.

    Up to a global phase, outcome k has z_k = sqrt(C(N,k)/2^N) (i^k a +
    i^(N-k) b e^{-iN phi}) from the splitter columns of inputs n_a = 0 (a)
    and n_a = N (b), and dz_k = -iN times its b term; the sum is dP^2/P,
    or the limit 4|dz|^2 at an exact zero. The phase factor e^{-iN phi} is
    the double that every route evaluates alike, taken as exact: near a
    fringe the FI moves by its own relative 1e-16/theta with that rounding.
    """
    i_pow = [1, mpmath.j, -1, -mpmath.j]
    n = int(sector.n_total[0])
    turn = complex(np.exp(-1j * np.outer([float(phi)], [n]))[0, 0])
    with mpmath.workdps(50):
        a, b = (mpmath.mpc(complex(x)) for x in sector.amps)
        fi = mpmath.mpf(0)
        for k in range(n + 1):
            mag = mpmath.sqrt(mpmath.binomial(n, k) / mpmath.mpf(2) ** n)
            zb = mag * i_pow[(n - k) % 4] * b * mpmath.mpc(turn)
            z, dz = mag * i_pow[k % 4] * a + zb, -1j * n * zb
            p, dp = abs(z) ** 2, 2 * mpmath.re(mpmath.conj(z) * dz)
            fi += dp * dp / p if p > 0 else 4 * abs(dz) ** 2
        return float(fi)


def close(a, b, rel=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


@given(states(), phases, pipelines)
def test_classical_fi_matches_scan_and_reference(state, phi, pipeline):
    rep = classical_fi(state, phi, pipeline)
    scan = fi_scan(state, np.array([phi]), pipeline)
    assert rep.fi == float(scan[0])  # one reduction serves both
    assert close(rep.fi, reference_fi(state, phi, pipeline), rel=1e-10)


@given(states(), phases, pipelines)
@example(make_state([(0, 1, 1.0), (1, 0, 0.6j)], MAX_SECTOR), 0.7, "MMZI")  # N = 1
@example(make_state([(0, 4, 1.0), (4, 0, 0.5)], MAX_SECTOR), 0.0, "MMZI")  # A != B, theta = 0
@example(make_state([(0, 4, 1.0), (4, 0, 1.0)], MAX_SECTOR), 0.0, "MMZI")  # A == B, theta = 0
@example(make_state([(0, 5, 1.0), (5, 0, 1e-3)], MAX_SECTOR), 1.1, "MMZI")  # a 1e-6 branch weight
# near-equal branches at a near-dark fringe: A - B and Im(w) both ~1e-7
@example(make_state([(0, 1, 1 + 1j), (1, 0, 8.42936971e-08 + 1.57009246e-16j)], MAX_SECTOR), 0.0, "MZI")
@example(make_state([(0, 1, 1 + 1j), (1, 0, 1.1920929e-07j)], MAX_SECTOR), 0.0, "MZI")
def test_two_branch_closed_form_matches_table_and_mpmath(state, phi, pipeline):
    # each two-branch sector of the pre-measurement state on its own: the
    # closed form (classical_fi) against a 50-digit sum over the outcomes,
    # to 1e-13 relative or 1e-15 of the sector's (A+B) N^2 (Im(w) carries
    # an absolute 1e-16 |a||b|, which is all of a fringe at theta ~ 1e-14),
    # and against the outcome table (reference_fi) wherever the table is
    # not the one further from that sum (a trusted dark outcome of 1e-7
    # carries ~1e-9 relative rounding into the table)
    pre = premeasurement_state(state, pipeline)
    two, _ = sector_kinds(pre)
    for i in two.tolist():
        sector = TwoModeState(pre.na[i:i + 2], pre.nb[i:i + 2], pre.amps[i:i + 2], pre.cutoff)
        rep = classical_fi(sector, phi, "MMZI")
        exact = mpmath_two_branch_fi(sector, phi)
        scale = float(np.sum(np.abs(sector.amps) ** 2)) * int(sector.n_total[0]) ** 2
        assert math.isclose(rep.fi, exact, rel_tol=1e-13, abs_tol=1e-15 * scale)
        table = reference_fi(sector, phi, "MMZI")
        assert close(rep.fi, table, rel=1e-13) or abs(rep.fi - exact) < abs(table - exact)


@given(st.integers(1, 40), parts, parts, st.integers(0, 3))
def test_equal_weight_two_branch_scan_is_exactly_flat(n, re, im, turn):
    # |b| == |a| to the bit (b swaps or negates a's parts): the factor s2/den
    # is exactly 1.0 at every phase, also at and next to the dark fringes,
    # where the rounding of |b e^{-iN phi}| leaves A - B ~ 1e-16 behind
    a = complex(re, im)
    assume(abs(a) > 1e-3)
    b = [complex(im, re), complex(-im, re), a.conjugate(), -a][turn]
    state = TwoModeState(np.array([0, n]), np.array([n, 0]), np.array([a, b]), n)
    dark = (np.angle(np.conj(a) * b * 1j**n) + 2.0 * math.pi * np.arange(-n, n + 1)) / n
    phis = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 181), dark, dark + 1e-12])
    assert np.all(fi_scan(state, phis, "MMZI") == np.sum(np.abs(state.amps) ** 2) * (n * n))


FRINGE = (math.pi / 2 - math.atan2(0.8, 0.6)) / 5  # theta = 0 for a = 0.6 + 0.8j, real b, N = 5


@pytest.mark.parametrize(
    "faint, phi",
    [(1e-3, 0.3), (1e-3, 1.1), (1e-3, 2.0), (1e-3, 4.4), (1e-6, 1.1), (1e-6, FRINGE + 2e-3)],
)
def test_two_branch_closed_form_with_a_faint_branch_matches_mpmath(faint, phi):
    # branch weights 1 and faint^2: the FI is ~4 faint^2 of the sector's N^2
    # (1e-4 of that again 2e-3 off a fringe), held to 1e-13 relative with
    # no absolute slack
    sector = make_state([(0, 5, 0.6 + 0.8j), (5, 0, faint)], 5)
    assert math.isclose(classical_fi(sector, phi, "MMZI").fi, mpmath_two_branch_fi(sector, phi),
                        rel_tol=1e-13, abs_tol=0.0)


def test_two_branch_closed_form_is_exact_at_a_dark_fringe():
    # theta = 0 exactly (real amplitudes, N = 4, phi = 0): unequal branches
    # give FI 0, equal ones the limit (A+B) N^2, with no rounding either way
    unequal = make_state([(0, 4, 1.0), (4, 0, 0.5)], 4)
    assert classical_fi(unequal, 0.0, "MMZI").fi == 0.0
    equal = make_state([(0, 4, 1.0), (4, 0, 1.0)], 4)
    weights = np.abs(equal.amps) ** 2
    assert classical_fi(equal, 0.0, "MMZI").fi == (weights[0] + weights[1]) * 16


@given(states(), phases, pipelines)
def test_fi_bounded_by_qfi(state, phi, pipeline):
    rep = classical_fi(state, phi, pipeline)
    assert rep.fi <= rep.qfi + 1e-9 * max(1.0, rep.qfi)


@given(states())
def test_distribution_from_state_matches_per_sector_sums(state):
    # the one vectorized pass sums each sector as its own np.sum does, to the
    # bit, for the distribution and the sector components alike
    weights = np.abs(state.amps) ** 2
    sums = [np.sum(weights[a:b]) for _, a, b in zip(*(col.tolist() for col in state.sectors))]
    assert distribution_from_state(state).probs.tolist() == sums
    assert [c.probability for c in sector_decompose(state)] == sums


@given(states(), pipelines)
def test_qfi_bounded_by_photon_number_moment(state, pipeline):
    # with test_fi_bounded_by_qfi, the ordering behind the paper's claim:
    # counting FI <= 4 Var(J3) <= <N^2>, since |J3| <= N/2 in every sector
    qfi = qfi_pure(premeasurement_state(state, pipeline))
    assert qfi <= expect(state, "n_total_sq") * (1.0 + 1e-12)


# two unequal sectors whose <J3> cancel (weights 0.3, 0.5 on N = 1 and
# 0.15, 0.05 on N = 2): QFI = <N^2> = 1.6, yet no phase gives FI = 1.6
CANCELLING = make_state([(0, 1, math.sqrt(0.3)), (1, 0, math.sqrt(0.5)),
                         (0, 2, math.sqrt(0.15)), (2, 0, math.sqrt(0.05))], MAX_SECTOR)


def sector_fi_ceiling(state):
    """The largest counting FI any phase can give, summed sector by sector:
    P_N 4 Var_N(J3), the sector's QFI. It is at most P_N N^2, with equality
    exactly when the sector is two-branch (n_a in {0, N}) with equal weights,
    and for a two-branch sector it is (A+B) N^2 4AB/(A+B)^2, the closed form's
    peak over the phase."""
    w, m, n = np.abs(state.amps) ** 2, state.j3_values, state.n_total
    sectors = np.unique(n, return_inverse=True)[1]
    p, first, second = (np.bincount(sectors, weights=x) for x in (w, w * m, w * m * m))
    return float(np.sum(4.0 * (second - first * first / p)))


def equal_weight_two_branch(state):
    """Whether every occupied sector with N >= 1 is {|0,N>, |N,0>} with
    equal weights."""
    w = np.abs(state.amps) ** 2
    for n in set(state.n_total.tolist()) - {0}:
        at = state.n_total == n
        if sorted(state.na[at].tolist()) != [0, n] or w[at][0] != w[at][1]:
            return False
    return True


@given(states())
@example(make_state([(0, 3, 1.0), (3, 0, 0.5)], MAX_SECTOR))  # one sector, branch weights unequal
@example(make_state([(0, 3, 1.0), (1, 2, 0.5), (3, 0, 1.0)], MAX_SECTOR))  # a third entry
@example(CANCELLING)  # QFI = <N^2>, FI < <N^2>
def test_counting_fi_reaches_the_photon_moment_only_on_equal_weight_two_branch_sectors(state):
    # the paper's "only": the peak counting FI over the phase reaches
    # sum P_N N^2 if and only if every occupied N >= 1 sector is two-branch
    # with A == B. Otherwise its ceiling falls short by the weight off the
    # {0, N} support and the branch imbalance; a draw that falls short by
    # less than 1e-6 (a faint third entry, branches equal to a few bits)
    # is beyond what a 1e-9 comparison can tell, and is skipped
    target = float(np.sum(np.abs(state.amps) ** 2 * state.n_total ** 2))
    equal = equal_weight_two_branch(state)
    assume(equal or sector_fi_ceiling(state) <= (1.0 - 1e-6) * target)
    peak = float(fi_scan(state, np.linspace(0.0, 2.0 * math.pi, 181), "MMZI").max())
    assert (peak >= (1.0 - 1e-9) * target) == equal


def test_cancelling_sectors_reach_the_photon_moment_in_qfi_only():
    # the third example above: 4 Var(J3) = <N^2> since <J3> = 0 and
    # |J3| = N/2 on every entry, but each sector's branches are unequal
    target = float(np.sum(np.abs(CANCELLING.amps) ** 2 * CANCELLING.n_total ** 2))
    assert qfi_pure(CANCELLING) == pytest.approx(target, rel=1e-12)
    assert sector_fi_ceiling(CANCELLING) < 0.9 * target


@given(states(), phases, pipelines)
def test_sector_additivity(state, phi, pipeline):
    rows, total = sector_fi_decomposition(state, phi, pipeline)
    whole = classical_fi(state, phi, pipeline).fi
    assert close(total, whole, rel=1e-9)
    assert close(sum(p for _, p, _ in rows), 1.0)


@given(
    states(),
    pipelines,
    st.lists(phases, min_size=1, max_size=4),
    st.lists(st.integers(1, 50), min_size=1, max_size=12),
)
def test_loglik_grid_matches_likelihood(state, pipeline, phis, counts):
    # observe only outcomes that are clearly possible at every phase, so the
    # log floor never decides the comparison
    probs = [likelihood(state, phi, pipeline) for phi in phis]
    possible = [k for k in probs[0] if min(p[k] for p in probs) > 1e-6]
    assume(possible)
    outcomes = {k: c for k, c in zip(possible, counts)}
    grid = loglik_alone(_split(state, pipeline), outcomes, np.array(phis))
    for value, p in zip(grid, probs):
        expected = sum(c * math.log(p[k]) for k, c in outcomes.items())
        assert close(float(value), expected, rel=1e-10)


def loglik_alone(split, record, phis):
    """One record's log-likelihood on phis, through kernels set up for it
    alone."""
    return _logliks(split, [record])(phis)[0]


def shared_pass_equals_each_record_alone(state, pipeline, records, phis):
    split = _split(state, pipeline)
    shared = _logliks(split, records)(phis)
    for row, record in zip(shared, records):
        assert np.array_equal(row, loglik_alone(split, record, phis))


def lockstep_equals_each_record_alone(split, records, grids, own):
    """records[own[i]] on grids[i], all in one call as the MLE's zoom makes
    it, row for row the bits of each record alone on its own grid."""
    rows = _logliks(split, records)(np.concatenate(grids), own)
    assert rows.shape == (len(own), MLE_ZOOM_POINTS)
    for row, r, grid in zip(rows, own, grids):
        assert np.array_equal(row, loglik_alone(split, records[r], grid))


def zoomed_grids(phi, count):
    """count grids of MLE_ZOOM_POINTS phases from phi on, 1 to 10**-(count-1) wide."""
    return [phi + i + np.linspace(0.0, 10.0**-i, MLE_ZOOM_POINTS) for i in range(count)]


# Each record is drawn as (outcome index, count) pairs, the index taken
# modulo the number of the state's outcomes, so records of one state
# observe overlapping, disjoint or single outcomes and sectors.
records = st.lists(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 50)), min_size=1, max_size=8),
    min_size=1, max_size=4,
)


@given(states(), pipelines, records, phases, st.sampled_from([1, 33, _PHASE_BLOCK + 1]), st.data())
def test_shared_pass_equals_each_record_alone(state, pipeline, drawn, phi, size, data):
    # one pass of each kernel for all records, over the union of their
    # sectors, gives each record's log-likelihood bit for bit; so does the
    # lockstep zoom, some of the records in any order, each on its own grid
    outcomes = list(likelihood(state, phi, pipeline))
    recs = [{outcomes[i % len(outcomes)]: c for i, c in pairs} for pairs in drawn]
    shared_pass_equals_each_record_alone(state, pipeline, recs, phi + np.linspace(0.0, 1.0, size))
    own = data.draw(st.lists(st.sampled_from(range(len(recs))), min_size=1, unique=True))
    lockstep_equals_each_record_alone(_split(state, pipeline), recs, zoomed_grids(phi, len(own)), own)


# MZI: |1,1> and |2,2> are rotation sectors; N = 3 and N = 5 reach the
# phase kernel, the latter as a two-branch input
MIXED = make_state([(1, 1, 1.0), (2, 2, 0.3), (0, 3, 0.5), (1, 2, 0.7j), (0, 5, 0.4), (5, 0, -0.2)], 6)


@pytest.mark.parametrize(
    "recs",
    [
        [{(0, 2): 3, (1, 1): 4}, {(3, 0): 2, (1, 2): 5}],  # rotation only; kernel only: disjoint
        [{(2, 2): 7}, {(1, 2): 1}, {(0, 5): 2, (1, 3): 1, (4, 0): 6}],  # one outcome each, then both kinds
        [{(0, 2): 0, (2, 0): 3, (3, 2): 1}, {(0, 3): 0}],  # zero counts
    ],
    ids=["disjoint-kinds", "single-outcomes", "zero-counts"],
)
def test_shared_pass_equals_each_record_alone_on_both_kinds(recs):
    phis = np.linspace(-0.4, 0.9, 10_000)
    for pipeline in ("MZI", "MMZI"):
        shared_pass_equals_each_record_alone(MIXED, pipeline, recs, phis)
        own = list(range(len(recs)))[::-1]
        lockstep_equals_each_record_alone(_split(MIXED, pipeline), recs, zoomed_grids(-0.4, len(own)), own)


# Larger records than the drawn ones, so that a product over the union of
# the grids would round differently from the product over a record's own:
# many observed outcomes per kernel sector, and many rotation sectors at
# one ladder step. Via MZI every sector of zeta_dual_fock is a rotation
# sector |J, J>, and every sector of zeta_noon a general one of the phase
# kernel. The ladder's running bound passes _RESCALE_ABOVE sooner on a
# steep grid (large |cot phi|) than on a flat one: record 0 (J = 80) alone
# on its flat grid is never rescaled, while record 2 on the steepest grid
# is, and so is every row of their lockstep call.
LADDER = zeta_dual_fock(3.0, 80)[0], [
    {(80, 80): 2, (100, 60): 1, (3, 1): 4, **{(2 * j, 0): 1 for j in range(1, 81, 3)}},
    {(40, 40): 3, (1, 1): 2},
    {(150, 10): 1, (75, 85): 2, **{(2 * j - 5, 5): 2 for j in range(5, 80, 4)}},
    {(20, 20): 5, (50, 10): 1},
]


def every_outcome(a, b, lo, hi):
    """Every outcome of the sectors lo <= N < hi, counted 1 + (a n_a + b N) % 97."""
    return {(k, n - k): 1 + (a * k + b * n) % 97 for n in range(lo, hi) for k in range(n + 1)}


DENSE = zeta_noon(3.0, 60)[0], [every_outcome(29, 13, 1, 61), {(1, 0): 5}, every_outcome(31, 7, 20, 40),
                                every_outcome(17, 3, 1, 30)]
STEEP_AND_FLAT = [
    np.linspace(1e-3, 2e-3, MLE_ZOOM_POINTS),
    np.linspace(0.3, 0.3 + 1e-9, MLE_ZOOM_POINTS),
    np.linspace(math.pi / 2 - 0.01, math.pi / 2 + 0.01, MLE_ZOOM_POINTS),
    np.linspace(-1.2, -0.4, MLE_ZOOM_POINTS),
]


@pytest.mark.parametrize(
    "case,rescale_above",
    [(LADDER, fisher._RESCALE_ABOVE), (LADDER, 2.0**8), (DENSE, fisher._RESCALE_ABOVE)],
    ids=["rotation", "rotation-rescaled-often", "phase-kernel"],
)
def test_lockstep_equals_each_record_alone_on_large_records(monkeypatch, case, rescale_above):
    monkeypatch.setattr(fisher, "_RESCALE_ABOVE", rescale_above)
    state, recs = case
    lockstep_equals_each_record_alone(_split(state, "MZI"), recs, STEEP_AND_FLAT, [2, 0, 3, 1])


# phi = 0 and pi put outcomes on analytic zeros, pi/2 makes the splitter
# images real or imaginary, and +-1e-300 take the rotation's flat branch
RULE_PHASES = [0.0, math.pi / 2, math.pi, 1e-300, -1e-300]


@given(states(), pipelines)
def test_derivative_is_minus_i_j2_sector_by_sector(state, pipeline):
    # the rule on the flat table (rotation sectors included) and on the
    # kernel's (phases x N+1) blocks, against the dense -i J2 of each sector
    for phi in RULE_PHASES:
        na, nb, z = _outcome_table(_split(state, pipeline), phi)
        dz = _derivative(z, na, nb)
        for lo in np.flatnonzero(na == 0).tolist():
            n = int(nb[lo])
            sector = slice(lo, lo + n + 1)
            dense = -1j * (schwinger_matrices(n)[1] @ z[sector])
            np.testing.assert_allclose(dz[sector], dense, rtol=0.0, atol=1e-15)
    for n, out in _amplitudes(premeasurement_state(state, pipeline), np.array(RULE_PHASES)):
        k = np.arange(n + 1)
        dense = -1j * (out @ schwinger_matrices(n)[1].T)
        np.testing.assert_allclose(_derivative(out, k, n - k), dense, rtol=0.0, atol=1e-15)


@functools.lru_cache(maxsize=None)
def mp_splitter(n):
    """expm(i pi J1 / 2) on the N-photon sector at 40 digits."""
    with mpmath.workdps(40):
        j1 = mpmath.matrix(n + 1, n + 1)
        for k in range(n):
            j1[k + 1, k] = j1[k, k + 1] = mpmath.sqrt((k + 1) * (n - k)) / 2
        return mpmath.expm(1j * mpmath.pi / 2 * j1)


def mp_counting(state, phi, pipeline):
    """{(n_a, n_b): (P, dP)} at 40 digits from dense mpmath splitters around
    exp(-i phi J3), dP from the derivative -i J3 taken before the final
    splitter; shares no code with the library's kernel, rotation or rule."""
    rows = {}
    with mpmath.workdps(40):
        for n in sorted({int(x) for x in state.n_total}):
            split = mp_splitter(n)
            vec = mpmath.matrix(n + 1, 1)
            for (a, b), amp in state.items():
                if a + b == n:
                    vec[a] = mpmath.mpc(complex(amp))
            if pipeline == "MZI":
                vec = split * vec
            m = [k - mpmath.mpf(n) / 2 for k in range(n + 1)]
            chi = mpmath.matrix([mpmath.expj(-mpmath.mpf(phi) * m[k]) * vec[k] for k in range(n + 1)])
            z = split * chi
            dz = split * mpmath.matrix([-1j * m[k] * chi[k] for k in range(n + 1)])
            for k in range(n + 1):
                rows[(k, n - k)] = (abs(z[k]) ** 2, 2 * mpmath.re(mpmath.conj(z[k]) * dz[k]))
    return rows


@given(states(), st.one_of(phases, st.sampled_from(RULE_PHASES)), pipelines)
def test_likelihood_derivative_matches_mpmath_expm(state, phi, pipeline):
    # dP from the rule, to 1e-14 absolute on a normalized state, whichever
    # kind (rotation, kernel) made the amplitudes
    exact = mp_counting(state, phi, pipeline)
    got = likelihood_with_derivative(state, phi, pipeline)
    assert set(got) == set(exact)
    for key, (p, dp) in got.items():
        assert abs(p - float(exact[key][0])) <= 1e-14
        assert abs(dp - float(exact[key][1])) <= 1e-14


def reference_table(state, phi, pipeline):
    """Rows (n_a, n_b, P, dP) built outcome by outcome from the sector
    amplitudes and the rule's per-sector formula, in canonical (N, n_a)
    order."""
    rows = []
    for n, out in _amplitudes(premeasurement_state(state, pipeline), np.array([float(phi)])):
        p = np.abs(out[0]) ** 2
        dp = 2.0 * np.real(np.conj(out[0]) * j2_stencil(out[0], n))
        for k in range(n + 1):
            rows.append((k, n - k, float(p[k]), float(dp[k])))
    return rows


@given(states(), phases, pipelines)
def test_outcome_table_matches_reference(state, phi, pipeline):
    # the phase kernel's table on the pre-measurement state, read as an MMZI source
    na, nb, z = _outcome_table(_split(premeasurement_state(state, pipeline), "MMZI"), phi)
    p, dp = np.abs(z) ** 2, 2.0 * np.real(np.conj(z) * _derivative(z, na, nb))
    assert list(zip(*(col.tolist() for col in (na, nb, p, dp)))) == reference_table(state, phi, pipeline)


@given(states(), phases, pipelines, st.integers(1, 10_000), st.integers(0, 2**32))
def test_sampling_matches_multinomial_over_likelihood(state, phi, pipeline, m, seed):
    probs = likelihood(state, phi, pipeline)
    pvec = np.array(list(probs.values()))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    counts = rng.multinomial(m, pvec / pvec.sum())
    expected = {k: int(c) for k, c in zip(probs, counts) if c > 0}
    assert sample_outcomes(state, phi, pipeline, m, seed) == expected


READOUTS = [lambda a, b: a % 3, lambda a, b: (-1) ** a, lambda a, b: a + math.sqrt(2) * b]


@given(states(), phases, pipelines, st.sampled_from(READOUTS))
@example(make_state([(1, 0, 1j)], 1), 0.0, "MZI", READOUTS[0])  # a dark port: FI 1, not 0
def test_fi_observable_matches_grouped_reference(state, phi, pipeline, f):
    # merge outcome by outcome, then sum the groups in sorted-value order; a
    # group at amplitude noise takes the transversal limit 4 sum |dz|^2,
    # with dz from the dense oracle
    groups = {}
    for (a, b), (p, dp) in likelihood_with_derivative(state, phi, pipeline).items():
        acc = groups.setdefault(float(f(a, b)), [0.0, 0.0, []])
        acc[0] += p
        acc[1] += dp
        acc[2].append((a, b))
    expected, at_noise = 0.0, False
    for val in sorted(groups):
        p, dp, members = groups[val]
        if p > AMP_NOISE ** 2:
            expected += dp * dp / p
        else:
            dz = [_outcome_amplitude(state, phi, pipeline, a, b)[1] for a, b in members]
            expected += 4.0 * sum(abs(d) ** 2 for d in dz)
            at_noise = True
    got = fi_observable(state, phi, pipeline, f).fi
    assert close(got, expected) if at_noise else got == expected
