"""Constructors for the state families under study.

Families fall into two groups that share their photon-number weights:

* path-entangled two-branch (NOON-type) superpositions, which are sources
  for the modified interferometer whose first splitter is replaced by the
  source itself, and
* equal-occupation (dual Fock) superpositions, which enter a standard
  interferometer through its first splitter.

Weight sequences are either geometric (two-mode squeezed vacuum) or
power-law 1/N^x normalized by the Riemann zeta function. One builder
(_weighted_family) renormalizes a truncated family on the retained support
and takes its moments; the discarded weight is reported as tail mass so
truncation error stays auditable. Moments whose infinite-cutoff limit grows
without bound are flagged divergent, not returned as float infinities. A
state's own distribution reads fock's one sector-weight pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import TwoModeState, _normalized_state, _sector_weights

ZETA_POLE_GUARD = 1e-6
ZETA_MAX_TERMS = 10_000_000  # most terms a partial sum may hold: two float64 arrays of 80 MB
TMSV_TAIL_BOUND = 1e-10  # largest geometric tail a truncated tmsv may discard


class PoleProximityError(ValueError):
    """zeta(x) requested outside x > 1, or within ZETA_POLE_GUARD of the pole."""


class InvalidNError(ValueError):
    """Photon number outside the family's domain."""


class TailTooHeavyError(ValueError):
    """Requested truncation tail bound is unachievable at this cutoff."""


# ---------------------------------------------------------------------------
# Riemann zeta for real x > 1

def zeta(x: float, tol: float = 1e-12) -> float:
    """Riemann zeta for real argument x > 1.

    Partial sum of K terms plus a first-order Euler-Maclaurin tail
    K^(1-x)/(x-1) - K^(-x)/2 + x*K^(-x-1)/12; K is chosen from tol via the
    next-order remainder bound, so the result is within tol of the true
    value. x must exceed 1 + ZETA_POLE_GUARD (PoleProximityError, NaN
    too), and K may not exceed ZETA_MAX_TERMS (ValueError).
    """
    x = float(x)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not x > 1.0 + ZETA_POLE_GUARD:
        where = f"within {ZETA_POLE_GUARD} of the x=1 pole" if x > 1.0 else "outside the domain x > 1"
        raise PoleProximityError(f"zeta argument {x} is {where}")
    return _zeta_sum(x, float(tol))


# A root solve asks for the same few arguments in a row and then never
# again, so a small table catches the repeats without growing with the sweep.
@functools.lru_cache(maxsize=64)
def _zeta_sum(x: float, tol: float) -> float:
    """zeta(x) for checked arguments: partial sum plus tail, of at most ZETA_MAX_TERMS terms."""
    # remainder after the K^(-x-1) correction is < x(x+1)(x+2)/720 * K^(-x-3); where the bound on K
    # overflows (x above ~1e100), 32 terms are exact to an ulp, and at x = inf the last term's limit is 0
    bound = (x * (x + 1) * (x + 2) / (180.0 * tol)) ** (1.0 / (x + 3))
    k_terms = max(32, math.ceil(bound)) if math.isfinite(bound) else 32
    if k_terms > ZETA_MAX_TERMS:  # refused before any array exists
        raise ValueError(f"zeta({x}) within tol {tol:g} needs {k_terms:.3g} terms, more than {ZETA_MAX_TERMS}")
    n = np.arange(1, k_terms + 1, dtype=np.float64)
    partial = float(np.sum(n ** (-x)))
    kf = float(k_terms)
    tail = kf ** (1.0 - x) / (x - 1.0) - 0.5 * kf ** (-x) + (x / 12.0 * kf ** (-x - 1.0) if x < math.inf else 0.0)
    return partial + tail


# ---------------------------------------------------------------------------
# photon-number distributions

@dataclass(frozen=True)
class Moment:
    """A distribution moment with explicit divergence bookkeeping.

    value is the moment of the truncated, renormalized distribution (what
    the returned state actually realizes). divergent marks families whose
    untruncated moment grows without bound as the cutoff increases. limit
    holds the infinite-cutoff value when it is finite and available in
    closed form, else None.
    """

    value: float
    divergent: bool = False
    limit: float | None = None


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Total-photon-number weights of a (possibly truncated) family.

    totals[i] photons carry probs[i], the untruncated family's probability
    on the retained support, so sum(probs) + tail_mass == 1. weights and
    support_probabilities() give them as dicts keyed by N, built on each
    call; the latter renormalized, as the truncated state carries them.
    """

    totals: np.ndarray
    probs: np.ndarray
    tail_mass: float
    mean: Moment
    mean_square: Moment
    family: str = ""

    @property
    def weights(self) -> dict[int, float]:
        return dict(zip(self.totals.tolist(), self.probs.tolist()))

    def support_probabilities(self) -> dict[int, float]:
        total = sum(self.probs.tolist())
        return {n: w / total for n, w in self.weights.items()}


def _moments(n: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    return float(np.sum(n * p)), float(np.sum(n * n * p))


def distribution_from_state(state: TwoModeState) -> PhotonDistribution:
    """Empirical photon-number distribution of a concrete state (no tail):
    the sector weights of fock._sector_weights."""
    n, p = state.sectors[0], _sector_weights(state)
    m1, m2 = _moments(n.astype(float), p)
    return PhotonDistribution(n, p, 0.0, Moment(m1, limit=m1), Moment(m2, limit=m2), "state")


# ---------------------------------------------------------------------------
# fixed-photon-number states

def noon(n: int) -> TwoModeState:
    """Two-branch path-entangled state (|N,0> + |0,N>)/sqrt(2)."""
    if n < 1:
        raise InvalidNError("noon requires N >= 1; use vacuum() for N = 0")
    return _two_branch_state(np.array([n], dtype=np.int64), np.array([1.0]), n)


def dual_fock(n: int) -> TwoModeState:
    """Equal-occupation state |N,N>."""
    if n < 0:
        raise InvalidNError("dual_fock requires N >= 0")
    return _dual_fock_state(np.array([n], dtype=np.int64), np.array([1.0]), 2 * n)


# ---------------------------------------------------------------------------
# weighted families

def _two_branch_state(
    totals: np.ndarray, probs: np.ndarray, cutoff: int
) -> TwoModeState:
    """Superposition of (|N,0>+|0,N>)/sqrt(2) branches with given sector
    probabilities, for increasing int64 totals, a first total of 0 the
    vacuum; written in canonical order, (0, N) before (N, 0)."""
    v = int(totals[0] == 0)  # entries before the first branch: the vacuum's
    na, nb = np.zeros((2, 2 * totals.size - v), dtype=np.int64)
    amps = np.empty(na.size, dtype=np.complex128)
    na[v + 1::2] = nb[v::2] = totals[v:]
    amps[:v] = np.sqrt(probs[:v])
    amps[v::2] = amps[v + 1::2] = np.sqrt(probs[v:] / 2.0)
    return _normalized_state(na, nb, amps, cutoff)


def _dual_fock_state(n: np.ndarray, probs: np.ndarray, cutoff: int) -> TwoModeState:
    """Superposition of |N,N> components, N increasing int64, with given probabilities."""
    return _normalized_state(n, n, np.sqrt(probs).astype(np.complex128), cutoff)


def _weighted_family(
    totals: np.ndarray, w: np.ndarray, tail_mass: float, family: str, mean: tuple, mean_square: tuple
) -> tuple[np.ndarray, PhotonDistribution]:
    """Weights w of components of totals (float) photons renormalized on that
    support, and the family's distribution, whose moments are taken on them
    and flagged by their (divergent, limit) pairs mean and mean_square."""
    renorm = w / w.sum()
    m1, m2 = _moments(totals, renorm)
    return renorm, PhotonDistribution(totals.astype(np.int64), w, tail_mass, Moment(m1, *mean),
                                      Moment(m2, *mean_square), family)


def _zeta_family(
    x: float, cutoff: int, scale: int, label: str
) -> tuple[np.ndarray, PhotonDistribution]:
    """The weights N^-x of N = 1..cutoff renormalized on that support, and
    the distribution of a zeta family whose component N carries scale*N
    total photons (scale 1 for plain, 2 for doubled families)."""
    if cutoff < 1:
        raise InvalidNError("cutoff must be >= 1")
    z = zeta(x)
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    w = n ** (-x) / z
    lim1 = scale * zeta(x - 1.0) / z if x > 2.0 + ZETA_POLE_GUARD else None
    lim2 = scale * scale * zeta(x - 2.0) / z if x > 3.0 + ZETA_POLE_GUARD else None
    return _weighted_family(scale * n, w, max(0.0, 1.0 - float(w.sum())), f"{label}(x={x:g})",
                            (x <= 2.0, lim1), (x <= 3.0, lim2))


def zeta_noon(x: float, cutoff: int) -> tuple[TwoModeState, PhotonDistribution]:
    """Superposition of two-branch states N = 1..cutoff with weights
    proportional to N^-x, renormalized on the retained support.

    The mean photon number converges for x > 2 (to zeta(x-1)/zeta(x));
    the second moment converges only for x > 3, so for x <= 3 the family
    realizes an arbitrarily large mean-square photon number at finite
    mean, which is the whole point of this family.
    """
    renorm, dist = _zeta_family(x, cutoff, 1, "zeta_noon")
    return _two_branch_state(dist.totals, renorm, cutoff), dist


def zeta_noon_doubled(x: float, cutoff: int) -> tuple[TwoModeState, PhotonDistribution]:
    """zeta-weighted superposition whose N-th component is the two-branch
    state with 2N photons; shares its photon distribution with
    zeta_dual_fock so the two are directly comparable."""
    renorm, dist = _zeta_family(x, cutoff, 2, "zeta_noon_doubled")
    return _two_branch_state(dist.totals, renorm, 2 * cutoff), dist


def zeta_dual_fock(x: float, cutoff: int) -> tuple[TwoModeState, PhotonDistribution]:
    """zeta-weighted superposition of |N,N>, N = 1..cutoff (2N photons each)."""
    renorm, dist = _zeta_family(x, cutoff, 2, "zeta_dual_fock")
    return _dual_fock_state(dist.totals // 2, renorm, 2 * cutoff), dist


def tmsv_cutoff_for(mean_total: float) -> int:
    """Smallest component cutoff K with geometric tail t^(K+1) <= TMSV_TAIL_BOUND.
    ValueError where t = mean/(mean + 2) rounds to 1 (means above ~1.8e16),
    as then no cutoff meets the bound."""
    if mean_total <= 0:
        raise ValueError("mean_total must be positive")
    t = mean_total / (mean_total + 2.0)
    if not t < 1.0:
        raise ValueError(f"mean_total {mean_total:g}: no cutoff meets TMSV_TAIL_BOUND {TMSV_TAIL_BOUND:g},"
                         " as the geometric ratio mean/(mean + 2) rounds to 1")
    k = max(0, math.ceil(math.log(TMSV_TAIL_BOUND) / math.log(t)) - 1)
    while t ** (k + 1) > TMSV_TAIL_BOUND:
        k += 1
    return k


def _tmsv_family(
    mean_total: float, cutoff: int, label: str
) -> tuple[np.ndarray, PhotonDistribution]:
    """The geometric weights of N = 0..cutoff renormalized on that support,
    and the distribution of a family whose component N carries 2N total
    photons."""
    if mean_total <= 0:
        raise ValueError("mean_total must be positive")
    if cutoff < 0:
        raise InvalidNError("cutoff must be >= 0")
    t = mean_total / (mean_total + 2.0)
    tail = t ** (cutoff + 1)
    if tail > TMSV_TAIL_BOUND:
        raise TailTooHeavyError(
            f"geometric tail {tail:.3e} exceeds bound {TMSV_TAIL_BOUND:.3e} at cutoff {cutoff};"
            f" need cutoff >= {tmsv_cutoff_for(mean_total)}"
        )
    n = np.arange(cutoff + 1, dtype=np.float64)
    return _weighted_family(2 * n, (1.0 - t) * t ** n, float(tail), f"{label}(mean={mean_total:g})",
                            (False, mean_total), (False, 2.0 * mean_total**2 + 2.0 * mean_total))


def tmsv(mean_total: float, cutoff: int) -> tuple[TwoModeState, PhotonDistribution]:
    """Two-mode squeezed vacuum truncated at component |cutoff, cutoff>.

    Component |N,N> carries weight (1-t) t^N with t = 1/(1 + 2/mean_total),
    which makes the untruncated mean total photon number equal mean_total.
    Raises TailTooHeavyError when the discarded geometric tail would exceed
    TMSV_TAIL_BOUND; tmsv_cutoff_for gives the smallest cutoff that meets it.
    """
    renorm, dist = _tmsv_family(mean_total, cutoff, "tmsv")
    return _dual_fock_state(dist.totals // 2, renorm, 2 * cutoff), dist


def tmsv_noon(mean_total: float, cutoff: int) -> tuple[TwoModeState, PhotonDistribution]:
    """Two-branch superposition carrying the same photon distribution as
    tmsv(mean_total): component N is the 2N-photon two-branch state (the
    N = 0 component is the vacuum). Attains the largest sensitivity
    compatible with that distribution. The cutoff obeys the same
    TMSV_TAIL_BOUND as tmsv."""
    renorm, dist = _tmsv_family(mean_total, cutoff, "tmsv_noon")
    return _two_branch_state(dist.totals, renorm, 2 * cutoff), dist
