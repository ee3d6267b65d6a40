"""Classical and quantum Fisher information for counting measurements.

Pipelines
---------
Two measurement pipelines are supported. "MZI" sends the input through a
50:50 splitter, the differential phase, and a second splitter before
photon counting at both ports. "MMZI" applies the phase directly to the
source state and then a single splitter; the entangled source plays the
role of the first splitter.

The per-port counts (n_a, n_b) and the total/difference pair (N, Delta)
label the same projective outcomes, so either labeling gives the same
information; both are available.

Derivatives of outcome probabilities are analytic: the derivative of the
phase-encoded state is -i*J3 applied before the final splitter, so for an
outcome amplitude z one has dP = 2 Re(conj(z) dz). When P falls below
FI_P_FLOOR the term dP^2/P is kept as long as the amplitude itself is above
rounding-noise scale (dP scales like sqrt(P), so the ratio stays
faithful); at an amplitude zero the contribution takes its analytic
transversal limit 4 |dz|^2, which is finite whenever the amplitudes are
smooth. A point is flagged singular only if the computed numbers violate
the bound |dP| <= 2 |z| |dz| that smoothness implies.

Likelihoods, outcome sampling, scalar readouts and the Fisher information
all go through one sector kernel, _amplitudes, which yields the outcome
amplitudes and their phase derivatives over a phase grid, sector by
sector; this is valid because both unitaries preserve the total photon
number. Within a sector it contracts only the occupied input columns of
the final splitter, so a two-branch sector costs two closed-form columns
(fock.splitter_columns) instead of a dense (N+1)x(N+1) matrix. One
vectorized reduction, _fi_reduce, turns the amplitudes into the Fisher
information and the singular flag for both classical_fi (one phase) and
fi_scan (a grid). The estimation module's likelihood period and
log-likelihood grid are built on the same sectors (_sectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import Moment, PhotonDistribution
from .fock import (
    TwoModeState,
    apply_beamsplitter,
    apply_phase,
    expect,
    sector_blocks,
    sector_decompose,
    splitter_columns,
)

PIPELINES = ("MZI", "MMZI")
FI_P_FLOOR = 1e-12


class NonpositiveQFIError(ValueError):
    """Zeno time is undefined for a vanishing or negative information."""


def _check_pipeline(pipeline: str) -> None:
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")


@dataclass(frozen=True)
class CountingPOVM:
    """Joint photon-counting measurement at both output ports.

    labeling selects how outcomes are keyed: "na_nb" for per-port counts
    or "n_delta" for (total, difference). The two are related by the
    bijection N = n_a + n_b, Delta = n_b - n_a, so they carry identical
    information.
    """

    labeling: str = "na_nb"

    def __post_init__(self):
        if self.labeling not in ("na_nb", "n_delta"):
            raise ValueError("labeling must be 'na_nb' or 'n_delta'")

    @property
    def povm_id(self) -> str:
        return f"counting:{self.labeling}"

    def key(self, n_a: int, n_b: int) -> tuple[int, int]:
        if self.labeling == "na_nb":
            return (n_a, n_b)
        return (n_a + n_b, n_b - n_a)

    def to_na_nb(self, outcome: tuple[int, int]) -> tuple[int, int]:
        if self.labeling == "na_nb":
            return outcome
        n, delta = outcome
        return ((n - delta) // 2, (n + delta) // 2)

    def outcomes(self, cutoff: int) -> list[tuple[int, int]]:
        """Every outcome of the truncated space, in canonical (N, n_a) order."""
        out = []
        for n in range(cutoff + 1):
            for n_a in range(n + 1):
                out.append(self.key(n_a, n - n_a))
        return out


@dataclass(frozen=True)
class FisherReport:
    """Information content of one measurement configuration at one phase."""

    phi: float
    fi: float
    qfi: float
    povm: str
    pipeline: str
    qfi_divergent: bool = False
    singular: bool = False

    @property
    def crb_single(self) -> float:
        """Single-trial phase bound 1/sqrt(FI); inf when FI vanishes."""
        return 1.0 / math.sqrt(self.fi) if self.fi > 0 else math.inf

    def crb_m(self, m_trials: int) -> float:
        """Phase bound after m_trials independent repetitions."""
        if m_trials < 1:
            raise ValueError("m_trials must be >= 1")
        return 1.0 / math.sqrt(m_trials * self.fi) if self.fi > 0 else math.inf

    def to_json_dict(self) -> dict:
        crb: float | None
        if self.qfi_divergent:
            crb = 0.0
        elif self.fi > 0:
            crb = self.crb_single
        else:
            crb = None
        return {
            "phi": self.phi,
            "fi": self.fi,
            "qfi": "divergent" if self.qfi_divergent else self.qfi,
            "crb": crb,
            "povm": self.povm,
            "pipeline": self.pipeline,
        }


# ---------------------------------------------------------------------------
# pipeline internals

def premeasurement_state(state: TwoModeState, pipeline: str) -> TwoModeState:
    """The state the phase acts on: for "MZI" the input after the first splitter."""
    _check_pipeline(pipeline)
    return apply_beamsplitter(state) if pipeline == "MZI" else state


def _sectors(state: TwoModeState, pipeline: str):
    """Yield (N, vec, m, bs_t) for each occupied sector of the pre-measurement
    state, restricted to its occupied inputs: their amplitudes, their J3
    eigenvalues, and bs_t[j, k] the final splitter from input j to n_a = k."""
    for n, vec, m in sector_blocks(premeasurement_state(state, pipeline)):
        nz = np.flatnonzero(vec)
        yield n, vec[nz], m[nz], splitter_columns(n, nz).T


def _amplitudes(state: TwoModeState, phis: np.ndarray, pipeline: str):
    """Yield (N, out, dout) for each occupied sector of the pre-measurement
    state: out[i, n_a] is the amplitude of outcome (n_a, N - n_a) at phis[i]
    and dout[i, n_a] its derivative with respect to the phase."""
    for n, vec, m, bs_t in _sectors(state, pipeline):
        chi = np.exp(-1j * np.outer(phis, m)) * vec
        yield n, chi @ bs_t, (chi * (-1j * m)) @ bs_t


def likelihood(
    state: TwoModeState, phi: float, pipeline: str, povm: CountingPOVM | None = None
) -> dict[tuple[int, int], float]:
    """Outcome probabilities of the counting measurement.

    The outcome set is restricted to occupied total-photon sectors; within
    a sector every port split is listed, including zero-probability ones.
    """
    pairs = likelihood_with_derivative(state, phi, pipeline, povm)
    return {key: p for key, (p, _) in pairs.items()}


def likelihood_with_derivative(
    state: TwoModeState, phi: float, pipeline: str, povm: CountingPOVM | None = None
) -> dict[tuple[int, int], tuple[float, float]]:
    """Outcome probabilities together with analytic d/dphi."""
    povm = povm or CountingPOVM()
    pairs = {}
    for n, out, dout in _amplitudes(state, np.array([float(phi)]), pipeline):
        p = np.abs(out[0]) ** 2
        dp = 2.0 * np.real(np.conj(out[0]) * dout[0])
        for k in range(n + 1):
            pairs[povm.key(k, n - k)] = (float(p[k]), float(dp[k]))
    return pairs


_AMP_NOISE = 1e-13  # amplitudes below this are eigensolver rounding noise


def _fi_reduce(
    state: TwoModeState, phis: np.ndarray, pipeline: str
) -> tuple[np.ndarray, np.ndarray]:
    """Counting-measurement FI at each phase and whether the limit algebra
    failed there.

    dp scales like sqrt(p), so dp^2/p stays numerically faithful for any
    amplitude large enough to carry a meaningful phase direction. Once the
    amplitude sits at rounding-noise scale the point is an analytic zero
    of the outcome, where the contribution tends to the transversal limit
    4 |dz|^2 (zero when the outcome is never occupied, since then dz
    vanishes identically too). Only those untrusted entries are checked
    against |dp| <= 2 |z| |dz|. They are not rare: the binomial tails of a
    large two-branch sector sit below the floor at every phase, so the
    check is a masked reduction rather than a gather.
    """
    fi = np.zeros(phis.size)
    singular = np.zeros(phis.size, dtype=bool)
    for _, out, dout in _amplitudes(state, phis, pipeline):
        p = np.abs(out) ** 2
        dp = 2.0 * np.real(np.conj(out) * dout)
        trusted = (p >= FI_P_FLOOR) | (np.abs(out) > _AMP_NOISE)
        plain = dp * dp / np.where(p > 0, p, 1.0)
        abs_dout = np.abs(dout)
        limit = 4.0 * abs_dout ** 2
        fi += np.sum(np.where(trusted & (p > 0), plain, np.where(trusted, 0.0, limit)), axis=1)
        violated = np.abs(dp) > 2.0 * _AMP_NOISE * abs_dout + 1e-30
        singular |= np.any(violated, axis=1, where=~trusted)
    return fi, singular


def classical_fi(
    state: TwoModeState,
    phi: float,
    pipeline: str,
    povm: CountingPOVM | None = None,
) -> FisherReport:
    """Fisher information of the counting measurement at phase phi.

    The companion qfi field is 4 Var(J3) of the phase-encoded state of the
    chosen pipeline, so fi <= qfi holds configuration by configuration.
    Both outcome labelings key the same projectors, so the labeling only
    names the POVM in the report.
    """
    povm = povm or CountingPOVM()
    fi, singular = _fi_reduce(state, np.array([float(phi)]), pipeline)
    return FisherReport(
        phi=float(phi),
        fi=float(fi[0]),
        qfi=qfi_pure(premeasurement_state(state, pipeline)),
        povm=povm.povm_id,
        pipeline=pipeline,
        singular=bool(singular[0]),
    )


def fi_scan(state: TwoModeState, phis: np.ndarray, pipeline: str) -> np.ndarray:
    """Vectorized counting-measurement FI over a phase grid."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return _fi_reduce(state, phis, pipeline)[0]


def qfi_pure(state: TwoModeState) -> float:
    """Quantum Fisher information 4 Var(J3) of a pure state.

    This is the phase information attained by the optimal measurement on
    the phase-encoded state; pass the post-splitter state for an MZI input.
    """
    j3 = expect(state, "j3")
    return 4.0 * (expect(state, "j3_sq") - j3 * j3)


def max_qfi_bound(dist: PhotonDistribution) -> Moment:
    """Largest quantum Fisher information compatible with a photon-number
    distribution: the distribution's second moment. Divergence of that
    moment is propagated as a flag, never as a float infinity."""
    return dist.mean_square


def sector_fi_decomposition(
    state: TwoModeState, phi: float, pipeline: str
) -> tuple[list[tuple[int, float, float]], float]:
    """Per-sector information split: rows (N, P(N), FI_N) and their
    probability-weighted total, which equals the whole-state FI because
    both unitaries preserve the total photon number."""
    rows = []
    total = 0.0
    for comp in sector_decompose(state):
        rep = classical_fi(comp.state, phi, pipeline)
        rows.append((comp.n_total, comp.probability, rep.fi))
        total += comp.probability * rep.fi
    return rows, total


def fi_observable(
    state: TwoModeState,
    phi: float,
    pipeline: str,
    f: Callable[[int, int], float],
) -> FisherReport:
    """Fisher information of a scalar readout f(n_a, n_b).

    Outcomes sharing an f value are merged before the information sum, so
    the result can only fall below the full counting measurement, with
    equality when f is injective on the occupied outcomes.
    """
    groups: dict[float, list[float]] = {}
    for (a, b), (p, dp) in likelihood_with_derivative(state, phi, pipeline).items():
        acc = groups.setdefault(float(f(a, b)), [0.0, 0.0])
        acc[0] += p
        acc[1] += dp
    fi = 0.0
    for val in sorted(groups):
        p, dp = groups[val]
        # dp scales like sqrt(p), so the ratio stays finite down to p -> 0;
        # an exact zero contributes nothing at probability level
        if p > 0.0:
            fi += dp * dp / p
    return FisherReport(
        phi=float(phi),
        fi=float(fi),
        qfi=qfi_pure(premeasurement_state(state, pipeline)),
        povm="observable:f(na,nb)",
        pipeline=pipeline,
    )


def j3_measurement_fi(state: TwoModeState, phi: float) -> FisherReport:
    """Fisher information of measuring J3 on the phase-encoded state itself,
    before any closing splitter.

    The phase only changes amplitude arguments, never the J3-eigenvalue
    weights, so this distribution is phase independent and the information
    is identically zero for every state: imbalance readout becomes
    informative only after the closing splitter, where it is the counting
    measurement in (N, Delta) labels.
    """
    chi = apply_phase(state, phi)
    groups: dict[int, list[float]] = {}
    for (a, b), amp in chi.items():
        m2 = a - b  # twice the J3 eigenvalue, kept integer
        acc = groups.setdefault(m2, [0.0, 0.0])
        p = abs(amp) ** 2
        acc[0] += p
        # d/dphi of |amp * exp(-i*phi*m)|^2 is exactly zero
        acc[1] += 2.0 * (np.conj(amp) * (-1j * (m2 / 2.0) * amp)).real
    fi = 0.0
    for m2 in sorted(groups):
        p, dp = groups[m2]
        if p > 0:
            fi += dp * dp / p
    return FisherReport(
        phi=float(phi),
        fi=float(fi),
        qfi=qfi_pure(state),
        povm="j3_intermediate",
        pipeline="MMZI",
    )


class ZenoTime(NamedTuple):
    value: float
    qfi_divergent: bool


def zeno_time(m_measurements: int, qfi: float | Moment) -> ZenoTime:
    """Zeno timescale 2/sqrt(m * QFI).

    A divergent QFI collapses the timescale to exactly 0, reported with a
    flag rather than as an underflowed float.
    """
    if m_measurements < 1:
        raise ValueError("m_measurements must be >= 1")
    if isinstance(qfi, Moment):
        if qfi.divergent:
            return ZenoTime(0.0, True)
        qfi = qfi.value
    q = float(qfi)
    if q <= 0.0:
        raise NonpositiveQFIError("zeno time needs a positive QFI")
    return ZenoTime(2.0 / math.sqrt(m_measurements * q), False)
