"""Property tests over random small states on both pipelines.

Each property ties two routes to the same number: the pointwise and the
vectorized Fisher information, the two outcome labelings, the quantum
bound, the sector split, the estimation path's log-likelihood against
the fisher path's likelihood, and the array outcome table and the sampler
against outcome-by-outcome references.
"""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qfilab import (
    CountingPOVM,
    apply_beamsplitter,
    beamsplitter_matrix,
    classical_fi,
    expect,
    fi_observable,
    fi_scan,
    likelihood,
    likelihood_with_derivative,
    make_state,
    qfi_pure,
    sample_outcomes,
    sector_fi_decomposition,
)
from qfilab.estimation import _loglik_grid
from qfilab.fisher import _amplitudes, _outcome_table, premeasurement_state

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
    """Outcome-by-outcome FI and singular flag from the analytic amplitudes.

    Trusted outcomes (P at or above p_floor, or an amplitude above noise
    scale) contribute dP^2/P; an outcome at an amplitude zero
    contributes its transversal limit 4|dz|^2 and is singular when
    |dP| > 2|z||dz| is violated at noise scale.
    """
    fi, singular = 0.0, False
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
            singular = singular or abs(dp) > 2.0 * AMP_NOISE * abs(dz) + 1e-30
    return fi, singular


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


def close(a, b, rel=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


@given(states(), phases, pipelines)
def test_classical_fi_matches_scan_and_reference(state, phi, pipeline):
    rep = classical_fi(state, phi, pipeline)
    scan = fi_scan(state, np.array([phi]), pipeline)
    ref_fi, ref_singular = reference_fi(state, phi, pipeline)
    assert rep.fi == float(scan[0])  # one reduction serves both
    assert close(rep.fi, ref_fi, rel=1e-10)
    assert rep.singular == ref_singular


@given(states(), phases, pipelines)
def test_labelings_carry_equal_information(state, phi, pipeline):
    a = classical_fi(state, phi, pipeline, povm=CountingPOVM("na_nb"))
    b = classical_fi(state, phi, pipeline, povm=CountingPOVM("n_delta"))
    assert close(a.fi, b.fi)
    assert a.singular == b.singular


@given(states(), phases, pipelines)
def test_fi_bounded_by_qfi(state, phi, pipeline):
    rep = classical_fi(state, phi, pipeline)
    assert rep.fi <= rep.qfi + 1e-9 * max(1.0, rep.qfi)


@given(states(), pipelines)
def test_qfi_bounded_by_photon_number_moment(state, pipeline):
    # with test_fi_bounded_by_qfi, the ordering behind the paper's claim:
    # counting FI <= 4 Var(J3) <= <N^2>, since |J3| <= N/2 in every sector
    qfi = qfi_pure(premeasurement_state(state, pipeline))
    assert qfi <= expect(state, "n_total_sq") * (1.0 + 1e-12)


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
    grid = _loglik_grid(premeasurement_state(state, pipeline), outcomes)(np.array(phis))
    for value, p in zip(grid, probs):
        expected = sum(c * math.log(p[k]) for k, c in outcomes.items())
        assert close(float(value), expected, rel=1e-10)


def reference_table(state, phi, pipeline):
    """Rows (n_a, n_b, P, dP) built outcome by outcome from the sector
    amplitudes, in canonical (N, n_a) order."""
    rows = []
    for _, n, out, dout in _amplitudes(premeasurement_state(state, pipeline), np.array([float(phi)])):
        p = np.abs(out[0]) ** 2
        dp = 2.0 * np.real(np.conj(out[0]) * dout[0])
        for k in range(n + 1):
            rows.append((k, n - k, float(p[k]), float(dp[k])))
    return rows


@given(states(), phases, pipelines)
def test_outcome_table_matches_reference(state, phi, pipeline):
    na, nb, z, dz = _outcome_table(premeasurement_state(state, pipeline), phi)
    p, dp = np.abs(z) ** 2, 2.0 * np.real(np.conj(z) * dz)
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
