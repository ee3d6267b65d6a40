"""Closed-form phase-uncertainty benchmark curves versus mean photon number.

All curves are Cramer-Rao bounds 1/sqrt(QFI) of specific families, plotted
against the family's mean total photon number:

* snl   1/sqrt(mean)            uncorrelated-photon reference
* hl    1/mean                  conventional fixed-number limit
* two-mode squeezed vacuum through a standard interferometer:
  QFI = mean^2 + 2*mean
* two-branch superposition with the squeezed-vacuum photon distribution:
  QFI = 2*mean^2 + 2*mean (the largest value that distribution allows)
* zeta-weighted families, parameterized by the weight exponent x: the mean
  pins x through mean = scale * zeta(x-1)/zeta(x), and the information
  bound is finite only for x > 3. At and beyond the crossing mean (x <= 3)
  the second moment grows without bound with the cutoff, the bound is
  exactly 0, and the divergence is recorded as provenance instead of an
  inf or nan leaking into the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ZETA_POLE_GUARD, zeta

# exponent range searched when inverting mean -> x; mean(80) - 1 < 1e-24
_X_LO = 3.0 + 2.0 * ZETA_POLE_GUARD
_X_HI = 80.0


class SpecError(ValueError):
    """A requested sweep point is unreachable for the family."""


def snl(mean: float) -> float:
    return 1.0 / math.sqrt(mean)


def hl(mean: float) -> float:
    return 1.0 / mean


def tmsv_crb(mean: float) -> float:
    """Squeezed-vacuum bound from QFI = mean^2 + 2*mean."""
    return 1.0 / math.sqrt(mean * mean + 2.0 * mean)


def tmsv_noon_crb(mean: float) -> float:
    """Best bound over states sharing the squeezed-vacuum photon
    distribution: QFI = 2*mean^2 + 2*mean."""
    return 1.0 / math.sqrt(2.0 * mean * mean + 2.0 * mean)


def zeta_family_mean(x: float, scale: int, tol: float = 1e-12) -> float:
    """Mean photon number scale * zeta(x-1)/zeta(x) of a zeta family."""
    return scale * zeta(x - 1.0, tol) / zeta(x, tol)


def crossing_mean(scale: int = 1, tol: float = 1e-12) -> float:
    """Mean above which the family's information bound diverges:
    scale * zeta(2)/zeta(3) (about 1.36843 for scale 1)."""
    return scale * zeta(2.0, tol) / zeta(3.0, tol)


def truncated_mean_square_trend(
    x: float, cutoffs, scale: int = 1
) -> list[tuple[int, float]]:
    """Second moment of the truncated family at increasing cutoffs; the
    unbounded growth of this sequence is the divergence evidence attached
    to zero rows."""
    rows = []
    for k in cutoffs:
        n = np.arange(1, int(k) + 1, dtype=np.float64)
        w = n ** (-x)
        rows.append((int(k), float(scale * scale * np.sum(n * n * w) / np.sum(w))))
    return rows


def solve_exponent_for_mean(mean: float, scale: int = 1,
                            tol: float = 1e-12) -> float | None:
    """Invert mean = scale * zeta(x-1)/zeta(x) on the finite-bound range
    x > 3. Returns None when the mean sits at or beyond the crossing
    (including the pole-guard band just below it, width about 1e-6);
    raises SpecError for means the family cannot reach at all."""
    if mean <= scale:
        raise SpecError(f"family mean is always above {scale}; requested {mean:g}")
    if mean >= zeta_family_mean(_X_LO, scale, tol):
        return None
    from scipy.optimize import brentq  # deferred: the heaviest scipy import, fig3 only

    return float(
        brentq(
            lambda x: zeta_family_mean(x, scale, tol) - mean,
            _X_LO,
            _X_HI,
            xtol=1e-13,
        )
    )


@dataclass(frozen=True)
class CurvePoint:
    mean_n: float
    values: dict[str, float]
    divergent_columns: tuple[str, ...]
    exponent: float | None


def fig3a_point(mean_n: float, tol: float = 1e-12) -> CurvePoint:
    """One sweep row of the single-family comparison curve set."""
    x = solve_exponent_for_mean(mean_n, scale=1, tol=tol)
    if x is None:
        zn, divergent = 0.0, ("zeta_noon_crb",)
    else:
        zn = 1.0 / math.sqrt(zeta(x - 2.0, tol) / zeta(x, tol))
        divergent = ()
    return CurvePoint(
        mean_n=mean_n,
        values={
            "snl": snl(mean_n),
            "hl": hl(mean_n),
            "tmsv_crb": tmsv_crb(mean_n),
            "tmsv_noon_crb": tmsv_noon_crb(mean_n),
            "zeta_noon_crb": zn,
        },
        divergent_columns=divergent,
        exponent=x,
    )


def fig3b_point(mean_n: float, tol: float = 1e-12) -> CurvePoint:
    """One sweep row comparing the doubled two-branch family against the
    equal-occupation family with the same photon distribution."""
    x = solve_exponent_for_mean(mean_n, scale=2, tol=tol)
    if x is None:
        return CurvePoint(
            mean_n=mean_n,
            values={"noon_crb": 0.0, "dualfock_crb": 0.0},
            divergent_columns=("noon_crb", "dualfock_crb"),
            exponent=None,
        )
    r2 = zeta(x - 2.0, tol) / zeta(x, tol)
    r1 = zeta(x - 1.0, tol) / zeta(x, tol)
    return CurvePoint(
        mean_n=mean_n,
        values={
            "noon_crb": 1.0 / math.sqrt(4.0 * r2),
            "dualfock_crb": 1.0 / math.sqrt(2.0 * r2 + 2.0 * r1),
        },
        divergent_columns=(),
        exponent=x,
    )
