"""Tour the photon-number-weighted state families and their moment
bookkeeping, including the divergence flags that replace float infinities."""

from qfilab import (
    dual_fock_after_bs_closed_form,
    tmsv,
    tmsv_cutoff_for,
    tmsv_noon,
    zeta,
    zeta_dual_fock,
    zeta_noon,
)

print(f"zeta(2) = {zeta(2.0):.12f}  (pi^2/6)")
print(f"zeta(3) = {zeta(3.0):.12f}")
print(f"mean photon number of the x=3 branch family: "
      f"zeta(2)/zeta(3) = {zeta(2.0) / zeta(3.0):.5f}\n")

# The zeta-weighted branch family: finite mean, divergent second moment.
for cutoff in (10**3, 10**4, 10**5):
    _, dist = zeta_noon(3.0, cutoff)
    m2 = dist.mean_square
    print(f"x=3, cutoff {cutoff:>6}: mean={dist.mean.value:.6f} "
          f"tail={dist.tail_mass:.2e} mean_sq={m2.value:.4f} "
          f"(divergent={m2.divergent})")
print("the second moment climbs by ~1.9155 per decade: that growth, at a "
      "mean photon number pinned near 1.36843, is the headline effect\n")

# For x > 3 both moments converge.
_, dist4 = zeta_noon(4.0, 2000)
print(f"x=4: mean={dist4.mean.value:.6f} -> limit {dist4.mean.limit:.6f}; "
      f"mean_sq={dist4.mean_square.value:.6f} -> limit {dist4.mean_square.limit:.6f}\n")

# Squeezed vacuum: geometric weights over equal occupations; the helper
# picks the cutoff that meets the catalog's tail bound (1e-10).
mean = 2.0
cutoff = tmsv_cutoff_for(mean)
state, dist = tmsv(mean, cutoff)
print(f"tmsv(mean=2): cutoff {cutoff}, tail {dist.tail_mass:.2e}, "
      f"mean {dist.mean.value:.9f}")
_, nd = tmsv_noon(mean, cutoff)
print(f"branch family with the same weights: mean_sq limit "
      f"{nd.mean_square.limit:.1f} (= 2*mean^2 + 2*mean)\n")

# The equal-occupation zeta family doubles the mean at the same weights.
_, dd = zeta_dual_fock(3.0, 1000)
print(f"zeta_dual_fock(3): mean -> {dd.mean.limit:.5f} (twice the branch family)")

# Closed-form splitter image of |N,N>: only even occupations survive.
closed = dual_fock_after_bs_closed_form(2)
print("\nsplitter image of |2,2> from the closed form:")
for (na, nb), amp in closed.items():
    print(f"   |{na},{nb}>  |amp|^2 = {abs(amp) ** 2:.4f}")
