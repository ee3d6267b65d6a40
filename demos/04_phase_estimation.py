"""Seeded Monte-Carlo phase estimation: sample counting outcomes, run the
windowed maximum-likelihood estimator, and watch the empirical error
approach the Cramer-Rao bound as trials accumulate."""

from qfilab import (
    default_window,
    mle_phase,
    noon,
    run_estimation,
    sample_outcomes,
)

state = noon(1)
phi_true = 0.3

# Outcome records are histograms; identical seeds give identical records.
outcomes = sample_outcomes(state, phi_true, "MMZI", m_trials=2000, seed=7)
print(f"2000 draws at phi={phi_true}: {outcomes}")

window = default_window(state, phi_true)
phi_hat = mle_phase(outcomes, state, "MMZI", window)
print(f"windowed MLE on {tuple(round(w, 3) for w in window)}: "
      f"phi_hat = {phi_hat:.5f}\n")

# One bundled run records everything needed to reproduce it; reps=3 would
# return three records from the spawn keys (0,), (1,) and (2,) of seed 7.
[run] = run_estimation(state, phi_true, "MMZI", m_trials=2000, seed=7)
print("run record:", run.to_json_line(), "\n")



def mse_and_bound(state, phi_true, m_trials, seed):
    """Mean squared error of 100 seeded runs, and their m-trial bound."""
    runs = run_estimation(state, phi_true, "MMZI", m_trials, seed=seed, reps=100)
    return sum(run.empirical_mse for run in runs) / len(runs), runs[0].crb_m


# The bound is asymptotic: the MSE/CRB ratio sits near 1. Each ratio is an
# average of 100 runs, so it carries a sampling error of about 14 %, and at
# few trials the window also clips the worst estimates.
print(f"{'trials':>8} {'empirical mse':>15} {'crb':>12} {'ratio':>8}")
for m_trials in (100, 1000, 10_000):
    mse, crb = mse_and_bound(state, phi_true, m_trials, seed=3)
    print(f"{m_trials:>8} {mse:>15.3e} {crb:>12.3e} {mse / crb:>8.3f}")

# A two-photon branch state has twice the fringe frequency, so its window
# must shrink with it; run_estimation handles that through default_window.
mse, crb = mse_and_bound(noon(2), 0.4, 1000, seed=5)
print(f"\n2-photon branches, 1000 trials: ratio {mse / crb:.3f} "
      f"(bound is 4x tighter than the single photon)")
