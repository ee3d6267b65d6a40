"""Classical versus quantum Fisher information for counting measurements:
saturation by branch superpositions, per-sector additivity, scalar
readouts, and why measuring the imbalance too early sees nothing."""

import numpy as np

from qfilab import (
    apply_beamsplitter,
    apply_phase,
    classical_fi,
    dual_fock,
    fi_observable,
    fi_scan,
    max_qfi_bound,
    noon,
    qfi_pure,
    sector_fi_decomposition,
    zeta_noon,
)

# For an N-photon two-branch state the counting measurement extracts N^2
# at every phase: the quantum optimum.
for n in (1, 2, 4):
    rep = classical_fi(noon(n), 0.7, "MMZI")
    print(f"N={n}: FI={rep.fi:.6f}  QFI={rep.qfi:.6f}  "
          f"single-trial bound {rep.crb_single:.4f} rad")

# An equal-occupation input through the full interferometer does better
# than N^2 at the same photon cost: 2N^2 + 2N after the first splitter.
n = 3
inter = apply_beamsplitter(dual_fock(n))
print(f"\n|{n},{n}> intermediate QFI: {qfi_pure(inter):.4f} (2N^2+2N = {2*n*n+2*n})")

# Across sectors the information is probability-additive.
state, dist = zeta_noon(3.0, 8)
rows, total = sector_fi_decomposition(state, 0.9, "MMZI")
print("\nper-sector split of the x=3 branch family at phi=0.9:")
for n_total, prob, fi_n in rows[:4]:
    print(f"   N={n_total}: P={prob:.4f}  FI_N={fi_n:.4f}")
print(f"   ... weighted total {total:.6f} "
      f"= whole-state FI {classical_fi(state, 0.9, 'MMZI').fi:.6f}")
bound = max_qfi_bound(dist)
print(f"   distribution bound <N^2> = {bound.value:.4f} "
      f"(family divergent: {bound.divergent})")

# A scalar readout f(n_a, n_b) can at best match the counting measurement;
# it does when f separates the occupied outcomes.
phi = 1.1
full = classical_fi(state, phi, "MMZI").fi
inj = fi_observable(state, phi, "MMZI", lambda a, b: a + np.sqrt(2) * b)
par = fi_observable(state, phi, "MMZI", lambda a, b: (-1) ** a)
print(f"\nreadout comparison at phi={phi}: counting {full:.5f}, "
      f"injective combination {inj.fi:.5f}, mode-a parity {par.fi:.5f}")

# Measuring the imbalance J3 on the phase-encoded state before the closing
# splitter is blind: the phase only moves amplitude arguments, so the J3
# weights |amp|^2 are the same at every phase, and their FI is 0.
encoded = apply_phase(noon(4), 0.7)
shift = np.max(np.abs(np.abs(encoded.amps) - np.abs(noon(4).amps)))
print(f"\nimbalance weights before the splitter move by {shift:.1e} "
      f"while QFI={qfi_pure(noon(4)):.1f}")

# FI never exceeds QFI; scan a generic two-sector state to see the gap.
phis = np.linspace(0, 2 * np.pi, 7)
scan = fi_scan(state, phis, "MMZI")
print("\nFI(phi) for the branch family:", np.round(scan, 6))
