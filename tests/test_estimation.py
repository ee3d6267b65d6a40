import math

import numpy as np
import pytest

from qfilab import fisher
from qfilab import (
    DegenerateLikelihoodError,
    classical_fi,
    default_window,
    likelihood,
    likelihood_period,
    mle_phase,
    noon,
    run_estimation,
    sample_outcomes,
    vacuum,
    zeta_dual_fock,
    zeta_noon,
)


def test_sampling_deterministic():
    s = noon(1)
    a = sample_outcomes(s, 0.77, "MMZI", 5000, seed=3)
    b = sample_outcomes(s, 0.77, "MMZI", 5000, seed=3)
    assert a == b
    c = sample_outcomes(s, 0.77, "MMZI", 5000, seed=4)
    assert a != c


def test_sampling_counts_total():
    s, _ = zeta_noon(3.0, 6)
    out = sample_outcomes(s, 0.4, "MMZI", 1234, seed=0)
    assert sum(out.values()) == 1234


def test_sampling_rejects_zero_trials():
    with pytest.raises(ValueError):
        sample_outcomes(noon(1), 0.0, "MMZI", 0, seed=0)


def test_sampling_deterministic_outcome_at_unit_probability():
    # at phi = pi/2 the (0,1) outcome has probability 1
    out = sample_outcomes(noon(1), math.pi / 2, "MMZI", 500, seed=8)
    assert out == {(0, 1): 500}


def test_sampled_frequencies_track_likelihood():
    m = 100_000
    s = noon(1)
    out = sample_outcomes(s, 0.77, "MMZI", m, seed=5)
    probs = likelihood(s, 0.77, "MMZI")
    for key, p in probs.items():
        sigma = math.sqrt(m * p * (1 - p))
        assert abs(out.get(key, 0) - m * p) <= 3 * sigma + 1


def test_likelihood_period():
    assert likelihood_period(noon(1)) == pytest.approx(2 * math.pi)
    assert likelihood_period(noon(4)) == pytest.approx(math.pi / 2)
    assert math.isinf(likelihood_period(vacuum()))


@pytest.mark.parametrize("pipeline", ["mzi", "bogus"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: likelihood_period(noon(4), p),
        lambda p: mle_phase({(2, 2): 30, (4, 0): 5}, noon(4), p, (0.2, 0.4)),
        lambda p: run_estimation(noon(2), 0.4, p, 200, seed=1, window=(0.3, 0.5)),
    ],
    ids=["likelihood_period", "mle_phase", "run_estimation"],
)
def test_unknown_pipeline_rejected(call, pipeline):
    with pytest.raises(ValueError, match="pipeline must be one of"):
        call(pipeline)


def test_mzi_run_applies_the_first_splitter_once(monkeypatch):
    calls = []
    real = fisher.apply_beamsplitter
    monkeypatch.setattr(fisher, "apply_beamsplitter", lambda s: calls.append(s) or real(s))
    [run] = run_estimation(zeta_dual_fock(3.0, 8)[0], 0.3, "MZI", 2000, seed=7)
    assert run.pipeline == "MZI"
    assert len(calls) == 1


def test_likelihood_period_builds_no_splitter_columns(monkeypatch):
    def refuse(*_):
        raise AssertionError("likelihood_period asked for splitter columns")

    monkeypatch.setattr(fisher, "splitter_columns", refuse)
    assert likelihood_period(zeta_dual_fock(3.0, 8)[0], "MZI") == math.pi / 8
    assert likelihood_period(zeta_noon(3.0, 40)[0]) == 2 * math.pi / 40


def test_mle_unique_peak_from_pure_record():
    # every draw lands on (0,1); the window-wide maximizer is pi/2
    phi_hat = mle_phase({(0, 1): 200}, noon(1), "MMZI", (0.0, math.pi))
    assert phi_hat == pytest.approx(math.pi / 2, abs=1e-6)


def test_mle_refinement_accuracy():
    s = noon(1)
    outcomes = sample_outcomes(s, 0.31, "MMZI", 200_000, seed=12)
    phi_hat = mle_phase(outcomes, s, "MMZI", default_window(s, 0.31))
    assert phi_hat == pytest.approx(0.31, abs=5e-3)


def test_mle_empty_record_degenerate():
    with pytest.raises(DegenerateLikelihoodError):
        mle_phase({}, noon(1), "MMZI", (0.0, 1.0))


def test_mle_flat_likelihood_degenerate():
    # a single-outcome record from the vacuum carries no phase dependence
    with pytest.raises(DegenerateLikelihoodError):
        mle_phase({(0, 0): 50}, vacuum(), "MMZI", (0.0, 1.0))


def test_mle_window_wider_than_period_rejected():
    with pytest.raises(ValueError):
        mle_phase({(2, 0): 5}, noon(2), "MMZI", (0.0, 2 * math.pi))


def test_mle_refuses_a_window_its_floats_cannot_resolve():
    # floats at 3e15 lie 0.5 apart: the default window of noon(3), 0.52
    # wide, rounds to 1.0 and holds three floats, as run_estimation refuses
    s = noon(3)
    window = default_window(s, 3e15)
    outcomes = sample_outcomes(s, 3e15, "MMZI", 1000, seed=0)
    with pytest.raises(ValueError, match=r"too large for the window \[2999999999999999\.5, 3000000000000000\.5\]"):
        mle_phase(outcomes, s, "MMZI", window)


def test_period_and_default_window_are_python_floats():
    for state, pipeline in ((noon(4), "MMZI"), (zeta_dual_fock(3.0, 8)[0], "MZI"), (vacuum(), "MMZI")):
        assert type(likelihood_period(state, pipeline)) is float
        assert all(type(edge) is float for edge in default_window(state, 0.3, pipeline))


def test_mle_rejects_outcomes_outside_the_occupied_sectors():
    # strays from sectors 2 and 3, interleaved with each other and with a
    # valid sector-1 outcome, are named in histogram order
    record = {(1, 0): 4, (0, 2): 1, (3, 0): 2, (0, 1): 3, (2, 0): 5}
    with pytest.raises(ValueError) as exc:
        mle_phase(record, noon(1), "MMZI", (0.0, 1.0))
    assert str(exc.value) == "outcomes [(0, 2), (3, 0), (2, 0)] lie outside the occupied sectors"


def test_mle_rejects_a_stray_outcome_before_any_splitter_column(monkeypatch):
    # every record is checked before the observed sub-state or any splitter
    # column is built: the stray is refused without one
    def forbidden(*_args, **_kwargs):
        raise AssertionError("splitter column built for a record that is refused")

    monkeypatch.setattr(fisher, "splitter_columns", forbidden)
    state = zeta_noon(3.0, 40)[0]
    record = {(1, 0): 4, (0, 2): 3, (41, 0): 1, (5, 0): 2}
    with pytest.raises(ValueError, match=r"outcomes \[\(41, 0\)\] lie outside the occupied sectors"):
        mle_phase(record, state, "MMZI", default_window(state, 0.3))


@pytest.mark.parametrize(
    "record",
    [
        {(2, 0): 7, (-1, 3): 3},  # would read the n_a = 2 column from the end
        {(2, 0): 7, (3, -1): 3},  # would index past the sector
        {(2, 0): 7, (0, 2): -3},  # would pull the estimate to the window edge
    ],
    ids=["negative-n_a", "negative-n_b", "negative-count"],
)
def test_mle_rejects_negative_port_counts_and_counts(record):
    with pytest.raises(ValueError, match="port counts and counts must be >= 0"):
        mle_phase(record, noon(2), "MMZI", (0.1, 0.5))


def test_mle_stays_inside_window():
    s = noon(1)
    for seed in range(5):
        outcomes = sample_outcomes(s, 0.3, "MMZI", 40, seed=seed)
        lo, hi = default_window(s, 0.3)
        phi_hat = mle_phase(outcomes, s, "MMZI", (lo, hi))
        assert lo <= phi_hat <= hi


def test_run_serialization_reproducible():
    a = run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, reps=4)[3]
    b = run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, reps=4)[3]
    assert a.to_json_line() == b.to_json_line()
    c = run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, reps=5)[4]
    assert a.to_json_line() != c.to_json_line()


def test_run_estimation_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps must be >= 1"):
        run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, reps=0)


def test_run_records_metadata():
    [run] = run_estimation(noon(2), 0.4, "MMZI", 200, seed=1)
    assert run.rng_algorithm == "philox4x64"
    assert run.period == pytest.approx(math.pi)
    assert run.window[0] <= run.phi_hat <= run.window[1]
    assert run.crb_m == pytest.approx(1.0 / (200 * 4.0), rel=1e-9)
    payload = run.to_json_dict()
    assert payload["rng"] == "philox4x64"
    assert sum(run.outcomes.values()) == 200


def mean_squared_error(state, phi_true, m_trials, reps, seed, m_index=0):
    """Mean squared error of reps windowed MLEs from m_trials draws each at
    phi_true on the MMZI, record rep drawn from the substream
    SeedSequence(seed, spawn_key=(m_index, rep)): one trial count of a
    convergence study, composed of sample_outcomes and mle_phase."""
    window = default_window(state, phi_true)
    sq = []
    for rep in range(reps):
        sub = np.random.SeedSequence(seed, spawn_key=(m_index, rep))
        outcomes = sample_outcomes(state, phi_true, "MMZI", m_trials, sub)
        sq.append((mle_phase(outcomes, state, "MMZI", window) - phi_true) ** 2)
    return float(np.mean(sq))


def test_convergence_study_ratios_near_one():
    fi = classical_fi(noon(1), 0.3, "MMZI").fi
    assert 1.0 / (100 * fi) == pytest.approx(1e-2, rel=1e-9)
    assert 1.0 / (1000 * fi) == pytest.approx(1e-3, rel=1e-9)
    ratio = mean_squared_error(noon(1), 0.3, 1000, 200, seed=0, m_index=1) * (1000 * fi)
    assert 0.9 <= ratio <= 1.5


def test_convergence_study_noon2_half_period_window():
    fi = classical_fi(noon(2), 0.4, "MMZI").fi
    ratio = mean_squared_error(noon(2), 0.4, 1000, 100, seed=11) * (1000 * fi)
    assert ratio == pytest.approx(1.0, abs=0.4)


def test_mse_nonincreasing_in_trials():
    mses = [mean_squared_error(noon(1), 0.3, m, 100, seed=2, m_index=mi)
            for mi, m in enumerate([100, 1000, 10_000])]
    assert mses[0] > mses[1] > mses[2]


def test_run_estimation_refuses_an_uninformative_state():
    # the vacuum's record carries no phase: its first record raises, with
    # the message mle_phase gives
    with pytest.raises(DegenerateLikelihoodError, match="log-likelihood is constant over the window"):
        run_estimation(vacuum(), 0.3, "MMZI", 50, seed=1, reps=3)
