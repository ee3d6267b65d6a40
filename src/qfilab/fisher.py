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

Likelihoods, outcome sampling, scalar readouts, the Fisher information
and the estimation module's log-likelihood grid all get their outcome
amplitudes from one kernel, _amplitudes, sector by sector (both unitaries
preserve the total photon number). Its sectors (_sectors) are the
contiguous slices of the state's canonical table (fock.sector_slices): the
occupied inputs, their J3 eigenvalues, and the matching columns of the
final splitter (fock.splitter_columns), built afresh and never cached: two
closed-form columns for a two-branch sector, one O(N) recurrence per
occupied input otherwise, never a dense (N+1)x(N+1) matrix. The kernel
cuts the phases into near-equal blocks of at most _PHASE_BLOCK, so memory
does not grow with the grid, never leaving a one-phase block (a one-row
matmul takes BLAS's matrix-vector path, whose last bits differ). Per block
it takes one exponential per distinct J3 eigenvalue and gathers each
sector's columns with take(), which keeps them C-ordered, so every bit
equals an exponential per sector input; it computes the phase derivative
only for callers that read it. Per outcome it is read as flat arrays in
(N, n_a) order (_outcome_table, of which the likelihood dicts are views),
and over a phase grid through one reduction to the FI and singular flag
(_fi_reduce, shared by classical_fi and fi_scan). The kernel takes the
pre-measurement state and no pipeline: each public entry point applies an
MZI's first splitter once (premeasurement_state) and passes the result on.
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
    sector_decompose,
    sector_slices,
    splitter_columns,
)

PIPELINES = ("MZI", "MMZI")
FI_P_FLOOR = 1e-12
_PHASE_BLOCK = 2048  # most phases per exponential table in _amplitudes


class NonpositiveQFIError(ValueError):
    """Zeno time is undefined for a vanishing or negative information."""


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
        """Phase bound after m_trials independent repetitions, as a standard
        deviation 1/sqrt(m_trials * FI); EstimationRun.crb_m is its square,
        the variance bound 1/(M * FI)."""
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
    """The state the phase acts on: for "MZI" the input after the first
    splitter, which takes only the columns of each sector's occupied inputs."""
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    return apply_beamsplitter(state) if pipeline == "MZI" else state


def _sectors(pre: TwoModeState, observed=None):
    """Yield (N, vec, m, bs_t) for each occupied sector of the pre-measurement
    state pre, restricted to its occupied inputs: their amplitudes, their J3
    eigenvalues, and bs_t[j, k] the final splitter from input j to n_a = k.
    Given observed, a dict N -> list of n_a, only the sectors in it are
    walked and bs_t keeps only their listed columns."""
    for n, sl in sector_slices(pre):
        if observed is None or n in observed:
            na = pre.na[sl]
            bs_t = splitter_columns(n, na).T
            yield n, pre.amps[sl], na - n / 2.0, bs_t if observed is None else bs_t[:, observed[n]]


def _amplitudes(pre: TwoModeState, phis: np.ndarray, sectors=None, derivative=True):
    """Yield (rows, N, out, dout) per block of phases and sector: out[i, k]
    is the amplitude at phis[rows][i] of the sector's k-th splitter column
    (outcome (k, N - k) when every column is kept), dout its phase
    derivative or None without derivative. sectors is a list of _sectors
    tuples that a caller evaluating them many times walked once; by default
    each block walks pre's sectors afresh, holding one sector's columns."""
    unique_m = np.unique(pre.j3_values if sectors is None else np.concatenate([s[2] for s in sectors]))
    blocks = -(-phis.size // _PHASE_BLOCK) or 1
    for b in range(blocks):
        rows = slice(b * phis.size // blocks, (b + 1) * phis.size // blocks)
        table = np.exp(-1j * np.outer(phis[rows], unique_m))
        for n, vec, m, bs_t in _sectors(pre) if sectors is None else sectors:
            chi = table.take(unique_m.searchsorted(m), axis=1) * vec
            yield rows, n, chi @ bs_t, (chi * (-1j * m)) @ bs_t if derivative else None


def _outcome_table(pre: TwoModeState, phi: float, derivative=True):
    """Every outcome of the occupied sectors as flat arrays (na, nb, p, dp)
    in canonical (N, n_a) order: the port counts, the probability at phi and
    its analytic derivative (None without derivative). Zero-probability port
    splits are included."""
    na, nb, p, dp = [], [], [], []
    for _, n, out, dout in _amplitudes(pre, np.array([float(phi)]), derivative=derivative):
        na.append(np.arange(n + 1))
        nb.append(n - na[-1])
        p.append(np.abs(out[0]) ** 2)
        if derivative:
            dp.append(2.0 * np.real(np.conj(out[0]) * dout[0]))
    return (*(np.concatenate(col) for col in (na, nb, p)), np.concatenate(dp) if derivative else None)


def likelihood(
    state: TwoModeState, phi: float, pipeline: str, povm: CountingPOVM | None = None
) -> dict[tuple[int, int], float]:
    """Outcome probabilities of the counting measurement keyed by povm: a
    dict view of _outcome_table, so every port split of each occupied
    total-photon sector is listed, including zero-probability ones."""
    return {k: p for k, (p, _) in likelihood_with_derivative(state, phi, pipeline, povm).items()}


def likelihood_with_derivative(
    state: TwoModeState, phi: float, pipeline: str, povm: CountingPOVM | None = None
) -> dict[tuple[int, int], tuple[float, float]]:
    """Outcome probabilities together with analytic d/dphi, keyed by povm."""
    povm = povm or CountingPOVM()
    na, nb, p, dp = (x.tolist() for x in _outcome_table(premeasurement_state(state, pipeline), phi))
    return {povm.key(a, b): (x, dx) for a, b, x, dx in zip(na, nb, p, dp)}


_AMP_NOISE = 1e-13  # amplitudes below this are splitter-column rounding noise


def _fi_reduce(pre: TwoModeState, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    for rows, _, out, dout in _amplitudes(pre, phis):
        p = np.abs(out) ** 2
        dp = 2.0 * np.real(np.conj(out) * dout)
        trusted = (p >= FI_P_FLOOR) | (np.abs(out) > _AMP_NOISE)
        plain = dp * dp / np.where(p > 0, p, 1.0)
        abs_dout = np.abs(dout)
        limit = 4.0 * abs_dout ** 2
        fi[rows] += np.sum(np.where(trusted & (p > 0), plain, np.where(trusted, 0.0, limit)), axis=1)
        violated = np.abs(dp) > 2.0 * _AMP_NOISE * abs_dout + 1e-30
        singular[rows] |= np.any(violated, axis=1, where=~trusted)
        del p, dp, plain, abs_dout, limit  # not held while the next sector's arrays are made
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
    pre = premeasurement_state(state, pipeline)
    fi, singular = _fi_reduce(pre, np.array([float(phi)]))
    return FisherReport(
        phi=float(phi),
        fi=float(fi[0]),
        qfi=qfi_pure(pre),
        povm=povm.povm_id,
        pipeline=pipeline,
        singular=bool(singular[0]),
    )


def fi_scan(state: TwoModeState, phis: np.ndarray, pipeline: str) -> np.ndarray:
    """Vectorized counting-measurement FI over a phase grid."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return _fi_reduce(premeasurement_state(state, pipeline), phis)[0]


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


def _grouped_fi(values, p, dp) -> float:
    """Fisher information of the readout that merges outcomes sharing a value:
    p and dp summed per value, then dp^2/p summed in sorted-value order."""
    keys, group = np.unique(values, return_inverse=True)
    gp = np.bincount(group, weights=p, minlength=keys.size).tolist()
    gdp = np.bincount(group, weights=dp, minlength=keys.size).tolist()
    fi = 0.0
    for p_k, dp_k in zip(gp, gdp):
        # dp scales like sqrt(p), so the ratio stays finite down to p -> 0;
        # an exact zero contributes nothing at probability level
        if p_k > 0.0:
            fi += dp_k * dp_k / p_k
    return fi


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
    pre = premeasurement_state(state, pipeline)
    na, nb, p, dp = _outcome_table(pre, phi)
    values = [float(f(a, b)) for a, b in zip(na.tolist(), nb.tolist())]
    return FisherReport(
        phi=float(phi),
        fi=_grouped_fi(values, p, dp),
        qfi=qfi_pure(pre),
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
    m2 = chi.na - chi.nb  # twice the J3 eigenvalue, kept integer
    p, dp = [], []
    for amp, m in zip(chi.amps.tolist(), m2.tolist()):
        p.append(abs(amp) ** 2)
        # d/dphi of |amp * exp(-i*phi*m)|^2 is exactly zero
        dp.append(2.0 * (np.conj(amp) * (-1j * (m / 2.0) * amp)).real)
    return FisherReport(
        phi=float(phi),
        fi=_grouped_fi(m2, p, dp),
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
