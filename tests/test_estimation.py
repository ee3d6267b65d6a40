import math

import numpy as np
import pytest

from qfilab import fisher, fock
from qfilab import (
    DegenerateLikelihoodError,
    crb_convergence_study,
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


def test_two_branch_estimation_builds_no_dense_splitter(monkeypatch):
    monkeypatch.setattr(fock, "_BS_CACHE", {})
    run = run_estimation(zeta_noon(3.0, 200)[0], 0.3, "MMZI", 2000, seed=3)
    assert run.window[0] <= run.phi_hat <= run.window[1]
    assert list(fock._BS_CACHE) == []


def test_mzi_run_applies_the_first_splitter_once(monkeypatch):
    calls = []
    real = fisher.apply_beamsplitter
    monkeypatch.setattr(fisher, "apply_beamsplitter", lambda s: calls.append(s) or real(s))
    run = run_estimation(zeta_dual_fock(3.0, 8)[0], 0.3, "MZI", 2000, seed=7)
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


def test_mle_stays_inside_window():
    s = noon(1)
    for seed in range(5):
        outcomes = sample_outcomes(s, 0.3, "MMZI", 40, seed=seed)
        lo, hi = default_window(s, 0.3)
        phi_hat = mle_phase(outcomes, s, "MMZI", (lo, hi))
        assert lo <= phi_hat <= hi


def test_run_serialization_reproducible():
    a = run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, repetition=3)
    b = run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, repetition=3)
    assert a.to_json_line() == b.to_json_line()
    c = run_estimation(noon(1), 0.3, "MMZI", 500, seed=7, repetition=4)
    assert a.to_json_line() != c.to_json_line()


def test_run_records_metadata():
    run = run_estimation(noon(2), 0.4, "MMZI", 200, seed=1)
    assert run.rng_algorithm == "philox4x64"
    assert run.period == pytest.approx(math.pi)
    assert run.window[0] <= run.phi_hat <= run.window[1]
    assert run.crb_m == pytest.approx(1.0 / (200 * 4.0), rel=1e-9)
    payload = run.to_json_dict()
    assert payload["rng"] == "philox4x64"
    assert sum(run.outcomes.values()) == 200


def test_convergence_study_ratios_near_one():
    rows = crb_convergence_study(
        noon(1), 0.3, "MMZI", [100, 1000], repetitions=200, seed=0
    )
    assert rows[0].crb_m == pytest.approx(1e-2, rel=1e-9)
    assert rows[1].crb_m == pytest.approx(1e-3, rel=1e-9)
    assert 0.9 <= rows[1].ratio <= 1.5
    assert not rows[0].flagged


def test_convergence_study_noon2_half_period_window():
    rows = crb_convergence_study(
        noon(2), 0.4, "MMZI", [1000], repetitions=100, seed=11
    )
    assert rows[0].ratio == pytest.approx(1.0, abs=0.4)


def test_mse_nonincreasing_in_trials():
    rows = crb_convergence_study(
        noon(1), 0.3, "MMZI", [100, 1000, 10_000], repetitions=100, seed=2
    )
    mses = [r.empirical_mse for r in rows]
    assert mses[0] > mses[1] > mses[2]


def test_study_rejects_tiny_trial_counts():
    with pytest.raises(ValueError):
        crb_convergence_study(noon(1), 0.3, "MMZI", [5], repetitions=3, seed=0)


def test_study_flags_uninformative_point():
    rows = crb_convergence_study(vacuum(), 0.3, "MMZI", [50], repetitions=3, seed=1)
    assert rows[0].flagged
    assert rows[0].ratio is None and rows[0].crb_m is None
