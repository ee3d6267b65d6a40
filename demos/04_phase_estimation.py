"""Seeded Monte-Carlo phase estimation: sample counting outcomes, run the
windowed maximum-likelihood estimator, and watch the empirical error
approach the Cramer-Rao bound as trials accumulate."""

from qfilab import (
    crb_convergence_study,
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

# The bound is asymptotic: the MSE/CRB ratio drifts toward 1 from above.
rows = crb_convergence_study(
    state, phi_true, "MMZI", m_list=[100, 1000, 10_000], repetitions=100, seed=3
)
print(f"{'trials':>8} {'empirical mse':>15} {'crb':>12} {'ratio':>8}")
for row in rows:
    print(f"{row.m_trials:>8} {row.empirical_mse:>15.3e} "
          f"{row.crb_m:>12.3e} {row.ratio:>8.3f}")

# A two-photon branch state has twice the fringe frequency, so its window
# must shrink with it; the study handles that through default_window.
rows = crb_convergence_study(
    noon(2), 0.4, "MMZI", m_list=[1000], repetitions=100, seed=5
)
print(f"\n2-photon branches, 1000 trials: ratio {rows[0].ratio:.3f} "
      f"(bound is 4x tighter than the single photon)")
