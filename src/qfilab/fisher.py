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
outcome amplitude z one has P = |z|^2 and dP = 2 Re(conj(z) dz). One rule
(_fi_terms) makes every Fisher-information term, of a counting outcome or
of a group of outcomes a readout merges: dP^2/P while the amplitude,
sqrt(P) of the group, is above rounding-noise scale _AMP_NOISE (dP scales
like sqrt(P), so the ratio stays faithful down to there), and at noise
scale the analytic transversal limit 4 sum |dz|^2, which is finite
whenever the amplitudes are smooth. A counting point is flagged singular
only if the computed numbers violate the bound |dP| <= 2 |z| |dz| that
smoothness implies.

Likelihoods, outcome sampling, scalar readouts, the Fisher information
and the estimation module's log-likelihood grid all get their outcome
amplitudes from one kernel, _amplitudes, sector by sector (both unitaries
preserve the total photon number). Its sectors (_sectors) are the
contiguous slices of the state's canonical table (fock.sector_bounds): the
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
only for callers that read it. Per outcome it is read as flat arrays of
amplitudes in (N, n_a) order (_outcome_table: the likelihood dicts, the
sampler and the scalar readouts) and by the estimation grid, which all
stay on this table path for every sector. The kernel takes the
pre-measurement state and no pipeline: each public entry point applies an
MZI's first splitter once (premeasurement_state) and passes the result on.

The counting FI over a phase grid (_fi_reduce, shared by classical_fi and
fi_scan, so by the qfi and fi-scan commands) sorts the sectors of the
pre-measurement state into three kinds (_sector_kinds) and sums kind by
kind. A two-branch sector (occupied n_a exactly {0, N}) records the phase
only through the parity of n_a, and its FI has a closed form in its two
amplitudes (_two_branch_fi), with no splitter column, no matmul and no
scipy. A single-input sector has phase-independent probabilities and adds
exactly 0. Every other, general, sector goes through the kernel above.
The FI is the two-branch closed-form total plus the general sectors, each
summed in sector order, so an equal-weight two-branch state, whose
sectors each give (A+B) N^2 at every phase, scans exactly flat. Where a
general sector lies below a two-branch one, this order differs from the
sector order by rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import Moment, PhotonDistribution
from .fock import (
    _I_POWERS,
    TwoModeState,
    apply_beamsplitter,
    expect,
    sector_bounds,
    sector_decompose,
    splitter_columns,
)

PIPELINES = ("MZI", "MMZI")
_PHASE_BLOCK = 2048  # most phases per exponential table in _amplitudes
_CLOSED_FORM_CELLS = 1 << 16  # most (phase, sector) cells per closed-form temporary


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
    totals, lo, hi = sector_bounds(pre)
    if observed is not None:
        keep = np.isin(totals, list(observed))
        totals, lo, hi = totals[keep], lo[keep], hi[keep]
    for n, start, stop in zip(totals.tolist(), lo.tolist(), hi.tolist()):
        na = pre.na[start:stop]
        bs_t = splitter_columns(n, na).T
        yield n, pre.amps[start:stop], na - n / 2.0, bs_t if observed is None else bs_t[:, observed[n]]


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
    """Every outcome of the occupied sectors as flat arrays (na, nb, z, dz)
    in canonical (N, n_a) order: the port counts, the outcome amplitude at
    phi and its phase derivative (None without derivative), so P = |z|^2
    and dP = 2 Re(conj(z) dz). Zero-probability port splits are included."""
    na, nb, z, dz = [], [], [], []
    for _, n, out, dout in _amplitudes(pre, np.array([float(phi)]), derivative=derivative):
        na.append(np.arange(n + 1))
        nb.append(n - na[-1])
        z.append(out[0])
        dz.append(dout[0] if derivative else None)
    return (*(np.concatenate(col) for col in (na, nb, z)), np.concatenate(dz) if derivative else None)


def likelihood(
    state: TwoModeState, phi: float, pipeline: str, povm: CountingPOVM | None = None
) -> dict[tuple[int, int], float]:
    """Outcome probabilities of the counting measurement keyed by povm: a
    dict view of _outcome_table, so every port split of each occupied
    total-photon sector is listed, including zero-probability ones."""
    povm = povm or CountingPOVM()
    na, nb, z, _ = _outcome_table(premeasurement_state(state, pipeline), phi, False)
    return {povm.key(a, b): x for a, b, x in zip(na.tolist(), nb.tolist(), (np.abs(z) ** 2).tolist())}


def likelihood_with_derivative(
    state: TwoModeState, phi: float, pipeline: str, povm: CountingPOVM | None = None
) -> dict[tuple[int, int], tuple[float, float]]:
    """Outcome probabilities together with analytic d/dphi, keyed by povm."""
    povm = povm or CountingPOVM()
    na, nb, z, dz = _outcome_table(premeasurement_state(state, pipeline), phi)
    p, dp = (np.abs(z) ** 2).tolist(), (2.0 * np.real(np.conj(z) * dz)).tolist()
    return {povm.key(a, b): (x, dx) for a, b, x, dx in zip(na.tolist(), nb.tolist(), p, dp)}


_AMP_NOISE = 1e-13  # amplitudes below this are splitter-column rounding noise


def _fi_terms(p, dp, dz_sq):
    """Fisher-information terms of outcomes, or of groups of merged outcomes,
    from their probabilities p, derivatives dp and summed |dz|^2; and which
    terms were trusted.

    dp scales like sqrt(p), so dp^2/p stays numerically faithful while the
    amplitude sqrt(p) is large enough to carry a meaningful phase
    direction. At rounding-noise scale (p <= _AMP_NOISE^2, which for p =
    |z|^2 is exactly |z| <= _AMP_NOISE) the point is an analytic zero,
    where the term tends to the transversal limit 4 |dz|^2 (zero when the
    outcome is never occupied, since then dz vanishes identically too).
    """
    trusted = p > _AMP_NOISE ** 2
    return np.where(trusted, dp * dp / np.where(trusted, p, 1.0), 4.0 * dz_sq), trusted


def _sector_kinds(pre: TwoModeState) -> tuple[np.ndarray, TwoModeState]:
    """Sort the sectors of pre by kind: the index of the n_a = 0 entry of
    each two-branch sector (occupied n_a exactly {0, N}, N >= 1), and pre
    restricted to its general sectors (any other support of two or more
    inputs). A single-input sector is in neither: its outcome
    probabilities do not depend on the phase, so its FI is exactly 0."""
    _, first, stop = sector_bounds(pre)
    size = stop - first
    pairs = first[size == 2]
    two = pairs[(pre.na[pairs] == 0) & (pre.nb[pairs + 1] == 0)]
    general = np.repeat(size > 1, size)
    general[two] = general[two + 1] = False
    return two, TwoModeState(pre.na[general], pre.nb[general], pre.amps[general], pre.cutoff)


def _two_branch_fi(pre: TwoModeState, two: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The counting FI at phis of the two-branch sectors of pre whose n_a = 0
    entries sit at indices two, in closed form, summed as a running total
    in sector order.

    With amplitudes a (n_a = 0) and b (n_a = N), A = |a|^2, B = |b|^2 and
    w = a* b i^N e^{-iN phi}, the outcome k of the sector has
    P_k = C(N,k) 2^-N |a + (-1)^k b i^N e^{-iN phi}|^2, so the record
    depends on the phase only through the parity of n_a, and the sector's
    FI is (A+B) N^2 s2/((A-B)^2 + s2) with s2 = 4 Im(w)^2 = 4AB sin^2(theta),
    theta the phase of w. With A == B the factor s2/((A-B)^2 + s2) is 1 at
    every phase, its limit at s2 == 0 included, so such a sector adds
    (A+B) N^2 without evaluating the phase. Otherwise, with
    u, v = a +- b i^N e^{-iN phi}, conj(u) v is (A-B) - 2i Im(w): A-B is
    read from it, and Im(w) from it or from w, whichever product (|u||v| = |q|
    or 2|a||b|) is smaller, so near a dark fringe, where u or v is small,
    neither term comes out of a cancellation; at s2 == 0 the factor is 0.
    No limit branch of _fi_terms is involved, so these sectors are never
    singular. The phases go in blocks of at most _PHASE_BLOCK, so each
    running-total step spans many sectors (a cumsum over a short row is
    slow), and the (phases x sectors) temporaries hold at most about
    _CLOSED_FORM_CELLS entries.
    """
    n = pre.n_total[two]
    a, b = pre.amps[two], pre.amps[two + 1] * _I_POWERS[n % 4]
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    weight, ab4, moving = (pa + pb) * (n * n), 4.0 * pa * pb, pa != pb
    fi = np.empty(phis.size)
    for r in range(0, phis.size, _PHASE_BLOCK):
        rows = phis[r:r + _PHASE_BLOCK]
        acc = np.zeros(rows.size)
        step = max(1, _CLOSED_FORM_CELLS // rows.size)
        for c in range(0, n.size, step):
            cut = np.arange(c, min(c + step, n.size))
            m = cut[moving[cut]]
            turned = b[m] * np.exp(-1j * np.outer(rows, n[m]))
            u, v = a[m] + turned, a[m] - turned
            q = np.conj(u) * v
            gap, q_im2 = q.real * q.real, q.imag * q.imag
            w_im = a[m].real * turned.imag - a[m].imag * turned.real
            s2 = np.where(gap + q_im2 < ab4[m], q_im2, 4.0 * w_im * w_im)
            moved = s2 > 0.0
            terms = np.tile(weight[cut], (rows.size, 1))
            terms[:, moving[cut]] *= np.where(moved, s2 / np.where(moved, gap + s2, 1.0), 0.0)
            # a running total, so every phase adds its sectors in the same order
            acc = np.cumsum(np.column_stack((acc, terms)), axis=1)[:, -1]
        fi[r:r + rows.size] = acc
    return fi


def _fi_reduce(pre: TwoModeState, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counting-measurement FI at each phase, summed kind by kind, and
    whether the limit algebra failed there: the closed-form total of the
    two-branch sectors (_two_branch_fi), then each general sector from the
    phase kernel, in sector order; single-input sectors add exactly 0.
    Only the untrusted entries of _fi_terms are checked against
    |dp| <= 2 |z| |dz|, as a masked reduction rather than a gather.
    """
    two, general = _sector_kinds(pre)
    fi = _two_branch_fi(pre, two, phis)
    singular = np.zeros(phis.size, dtype=bool)
    for rows, _, out, dout in _amplitudes(general, phis):
        dp = 2.0 * np.real(np.conj(out) * dout)
        abs_dout = np.abs(dout)
        terms, trusted = _fi_terms(np.abs(out) ** 2, dp, abs_dout ** 2)
        fi[rows] += np.sum(terms, axis=1)
        singular[rows] |= np.any(np.abs(dp) > 2.0 * _AMP_NOISE * abs_dout + 1e-30, axis=1, where=~trusted)
        del dp, abs_dout, terms, trusted  # not held while the next sector's arrays are made
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


def fi_observable(
    state: TwoModeState,
    phi: float,
    pipeline: str,
    f: Callable[[int, int], float],
) -> FisherReport:
    """Fisher information of a scalar readout f(n_a, n_b).

    Outcomes sharing an f value are merged before the information sum, so
    the result can only fall below the full counting measurement, with
    equality when f is injective on the occupied outcomes, at a dark fringe
    too: a group takes the counting rule (_fi_terms), limit included. P, dP
    and |dz|^2 are summed per value, and the groups' terms added in
    sorted-value order (a running total, not a pairwise sum).
    """
    pre = premeasurement_state(state, pipeline)
    na, nb, z, dz = _outcome_table(pre, phi)
    keys, group = np.unique([float(f(a, b)) for a, b in zip(na.tolist(), nb.tolist())], return_inverse=True)
    summed = (np.bincount(group, weights=w, minlength=keys.size)
              for w in (np.abs(z) ** 2, 2.0 * np.real(np.conj(z) * dz), np.abs(dz) ** 2))
    terms, _ = _fi_terms(*summed)
    return FisherReport(
        phi=float(phi),
        fi=float(np.cumsum(terms)[-1]),
        qfi=qfi_pure(pre),
        povm="observable:f(na,nb)",
        pipeline=pipeline,
    )


def j3_measurement_fi(state: TwoModeState, phi: float) -> FisherReport:
    """Fisher information of measuring J3 on the phase-encoded state itself,
    before any closing splitter.

    The phase only changes amplitude arguments, never the J3-eigenvalue
    weights, so this distribution is phase independent and the
    information is exactly 0.0 for every state. Imbalance readout becomes
    informative only after the closing splitter, where it is the counting
    measurement in (N, Delta) labels.
    """
    return FisherReport(
        phi=float(phi),
        fi=0.0,
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
