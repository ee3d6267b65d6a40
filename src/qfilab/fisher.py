"""Classical and quantum Fisher information for counting measurements.

Pipelines
---------
Two measurement pipelines are supported. "MZI" sends the input through a
50:50 splitter, the differential phase, and a second splitter before
photon counting at both ports. "MMZI" applies the phase directly to the
source state and then a single splitter; the entangled source plays the
role of the first splitter.

Outcomes are keyed by the per-port counts (n_a, n_b). The phase alone
leaves every |amplitude| of the encoded state unchanged (fock.apply_phase),
so a J3 readout before the closing splitter carries no information; the
counting readout after it does.

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

Sector kinds
------------
Both unitaries preserve the total photon number, so every reader works
sector by sector, and each sector is read by its kind. _split sorts a
state once per call, or once per estimation command, applying an MZI's
first splitter there and only where a kind needs it:

- single input (MZI only): a sector of the source with one occupied input
  |n_a, n_b>. Two splitters around the phase act on it as the rotation
  exp(-i phi J2) of the swapped input, so it never meets the first
  splitter. Its counting FI is n_a + n_b + 2 n_a n_b at every phase and
  its fringe spread is N. A balanced input |J, J> (every sector of
  dual_fock, zeta_dual_fock and tmsv) takes its outcome amplitudes
  d^J_{m,0}(phi) from a real three-term recurrence (_rotation),
  vectorized over sectors and phases; an unbalanced one still takes the
  first splitter and the kernel below for its outcome table.
- two-branch: a sector of the pre-measurement state with occupied n_a
  exactly {0, N}. It records the phase only through the parity of n_a,
  and its FI has a closed form in its two amplitudes (_two_branch_fi),
  with no splitter column and no matmul.
- single input of the pre-measurement state: phase-independent
  probabilities, FI exactly 0.
- general: every other sector, through the phase kernel _amplitudes.

The MZI qfi field needs no kind and no splitter: the first splitter turns
J3 into -J2, so it is 4 Var(J2) of the input (_j2_variance), O(entries).

The phase kernel, _phased, takes the pre-measurement state; its sectors
(_sectors) are the contiguous slices of the state's canonical table
(fock.sector_bounds): the occupied inputs, their J3 eigenvalues and the
matching columns of the final splitter (fock.splitter_columns), built
afresh and never cached. It yields each sector's inputs after the phase,
which _amplitudes multiplies by the splitter columns and the estimation
grid by each record's observed ones. A caller that needs some sectors
passes their sub-state: the FI its general sectors, the estimation grid
the ones its records observed. It cuts the phases into near-equal blocks
of at most _PHASE_BLOCK (_phase_blocks), never a one-phase block (a
one-row matmul takes BLAS's matrix-vector path, whose last bits differ).
Per block it takes one exponential per distinct J3 eigenvalue (found by
a sort, _distinct, as np.unique would import numpy.ma) and gathers each
sector's columns with take(), which keeps them C-ordered, so every bit
equals an exponential per sector input. The likelihoods, the sampler and
the readouts read flat (N, n_a)-ordered arrays (_outcome_table), which
each kernel sector and each rotation step write in place.

The counting FI over a phase grid (_fi_reduce, shared by classical_fi and
fi_scan, so by the qfi and fi-scan commands) sums kind by kind, in this
order: the phase-independent total of the MZI single inputs and of the
equal-weight two-branch sectors (each (A+B) N^2), summed once and
broadcast, so a state of such sectors scans exactly flat; the
unequal-weight two-branch sectors; the general sectors; each kind in
sector order. Where the kinds interleave, this differs from the sector
order by rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import Moment, PhotonDistribution
from .fock import (
    _I_POWERS,
    _RESCALE_ABOVE,
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


class _Split(NamedTuple):
    """A state sorted by sector kind for one pipeline (_split).

    single: for "MZI", the source's single-input sectors. Two splitters
    around the phase act on one Fock input |n_a, n_b> as a rotation
    exp(-i phi J2) of the swapped input, so no reader sends these through
    the first splitter: their FI and fringe spread have closed forms, and
    the outcome amplitudes of a balanced input n_a = n_b = J come from
    the rotation (_rotation). Empty for "MMZI".
    pre: the pre-measurement state of every other sector.
    table: pre plus the splitter image of the unbalanced single inputs,
    which the outcome-table readers still take through the phase kernel.
    """

    single: TwoModeState
    pre: TwoModeState
    table: TwoModeState


def _split(state: TwoModeState, pipeline: str) -> _Split:
    """state sorted into _Split's kinds; the first splitter, if any, is
    applied here, once, and only to the sectors that need it."""
    if pipeline != "MZI":
        pre = premeasurement_state(state, pipeline)  # rejects an unknown pipeline
        return _Split(state.subset(slice(0)), pre, pre)
    _, lo, hi = sector_bounds(state)
    alone = np.zeros(len(state), dtype=bool)
    alone[lo[hi - lo == 1]] = True
    table = apply_beamsplitter(state.subset(~(alone & (state.na == state.nb))))
    pre = table.subset(~np.isin(table.n_total, state.n_total[alone]))
    return _Split(state.subset(alone), pre, table)


def _sectors(pre: TwoModeState):
    """Yield (N, vec, m, bs_t) for each occupied sector of the pre-measurement
    state pre, restricted to its occupied inputs: their amplitudes, their J3
    eigenvalues, and bs_t[j, k] the final splitter from input j to n_a = k.
    A caller that needs only some sectors passes their sub-state."""
    for n, start, stop in zip(*(col.tolist() for col in sector_bounds(pre))):
        na = pre.na[start:stop]
        yield n, pre.amps[start:stop], na - n / 2.0, splitter_columns(n, na).T


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, the bits np.unique gives, from one sort
    and one comparison of neighbours (np.unique would import numpy.ma)."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-np.inf) != 0.0]


def _phase_blocks(size: int) -> list[slice]:
    """Near-equal row slices of at most _PHASE_BLOCK phases, never a
    one-phase block unless there is one phase (a one-row matmul takes
    BLAS's matrix-vector path, whose last bits differ)."""
    blocks = -(-size // _PHASE_BLOCK) or 1
    return [slice(b * size // blocks, (b + 1) * size // blocks) for b in range(blocks)]


def _phased(pre: TwoModeState, phis: np.ndarray, held=None):
    """Yield (rows, N, m, chi, bs_t) per block of phases and sector: chi[i, j]
    is the sector's j-th occupied input amplitude after the phase
    phis[rows][i], m their J3 eigenvalues, bs_t their splitter columns. held
    is pre's kernel set up once by a caller that evaluates it many times: its
    distinct J3 eigenvalues and per sector (N, vec, m, gather indices, bs_t);
    by default each block walks pre's sectors afresh, holding one sector's
    columns."""
    if not len(pre):
        return
    unique_m = _distinct(pre.j3_values) if held is None else held[0]
    for rows in _phase_blocks(phis.size):
        table = np.exp(-1j * np.outer(phis[rows], unique_m))
        walk = held[1] if held is not None else (
            (n, vec, m, unique_m.searchsorted(m), bs_t) for n, vec, m, bs_t in _sectors(pre))
        for n, vec, m, ix, bs_t in walk:
            yield rows, n, m, table.take(ix, axis=1) * vec, bs_t


def _amplitudes(pre: TwoModeState, phis: np.ndarray, derivative=True):
    """Yield (rows, N, out, dout) per block of phases and sector: out[i, k]
    is the amplitude at phis[rows][i] of outcome (k, N - k), dout its phase
    derivative or None without derivative (_phased, walking pre afresh)."""
    for rows, n, m, chi, bs_t in _phased(pre, phis):
        yield rows, n, chi @ bs_t, (chi * (-1j * m)) @ bs_t if derivative else None


_FLAT = 2.0**-600  # |sin phi| below which the rotation is the permutation to every bit of P


def _rotation(j: np.ndarray, phis: np.ndarray, derivative=True, cols=None):
    """Yield (rows, t, sel, d, dd) per block of phases and step t = 0, 1, ...:
    d[c, i] is the Wigner element d^J_{J-t,0}(phis[rows][i]) of the balanced
    single input |J, J> with J = j[sel[c]] (j ascending), and dd its phase
    derivative, or None without derivative. sel is every sector with
    J >= t, or cols[t] when a caller reads only those (a step with none
    is not yielded).

    The MZI sends |J, J> to exp(-i phi J2)|J, J> up to a constant phase,
    so outcome (J + m, J - m) has amplitude d^J_{m,0}(phi), the same at
    -m up to the sign (-1)^m. The elements follow from
    e_{m-1} d_{m-1} = -2 m cot(phi) d_m - e_m d_{m+1}, e_m = <m+1|J+|m>,
    run down from m = J, where d grows or oscillates, so the run is
    stable, and dd = (e_m d_{m+1} - e_{m-1} d_{m-1})/2. The seed
    |d^J_{J,0}| = sqrt(C(2J,J)) |sin(phi)/2|^J is taken in log2 space,
    its binomial as a running product of (2i-1)/(2i), which rounds far
    less than lgamma at large J. Values are held as a mantissa times
    2^scale per sector and phase, so a ladder that starts below the float
    range underflows only at its true size; a running bound on the
    mantissas' growth decides when they are rescaled against overflow.
    Rows are sectors and columns phases, so each step works on one
    contiguous block. Where |sin(phi)| < _FLAT the rotation is the
    identity, handled exactly.
    """
    if not j.size:
        return
    top, jf = int(j[-1]), j.astype(float)
    first = np.searchsorted(j, np.arange(top + 1))  # sectors from first[t] on are live at step t
    width = j.size - first
    start = np.concatenate(([0], np.cumsum(width)))  # step t's coefficients: [start[t], start[t + 1])
    t = np.repeat(np.arange(top + 1.0), width)
    jt = jf[np.arange(start[-1]) - np.repeat(start[:-1] - first, width)]
    up = np.sqrt(t * (2.0 * jt - t + 1.0))
    down = np.sqrt((t + 1.0) * (2.0 * jt - t))
    down[down == 0.0] = 1.0  # only J = 0, whose terms vanish
    turn, back = -2.0 * (jt - t) / down, -up / down
    reach = np.maximum.reduceat(np.abs(turn), start[:-1]), np.maximum.reduceat(np.abs(back), start[:-1])
    k = np.arange(1, top + 1)
    lead = 0.5 * np.log2(np.cumprod(np.concatenate(([1.0], (2 * k - 1) / (2 * k)))))[j, None]
    up, down, turn, back = (col[:, None] for col in (up, down, turn, back))
    for rows in _phase_blocks(phis.size):
        sin, cos = np.sin(phis[rows]), np.cos(phis[rows])
        flat = np.abs(sin) < _FLAT
        frac, power = np.frexp(np.where(flat, 1.0, np.abs(sin)))
        cot = np.where(flat, 0.0, cos / np.where(flat, 1.0, sin))
        seed = lead + jf[:, None] * np.log2(frac)
        whole = np.floor(seed)
        cur, scale = np.where(flat, 0.0, np.exp2(seed - whole)), whole.astype(np.int64) + j[:, None] * power
        prev, nxt = np.zeros(seed.shape), np.empty(seed.shape)
        bound, steep = 2.0, float(np.abs(cot).max(initial=0.0))  # |prev|, |cur| <= bound
        for step in range(top + 1):
            lo, seg = int(first[step]), slice(start[step], start[step + 1])
            p, c, n = prev[lo:], cur[lo:], nxt[lo:]
            np.multiply(turn[seg], cot, out=n)
            n *= c
            if derivative:
                n += back[seg] * p
                dd = 0.5 * (up[seg] * p - down[seg] * n)
            else:
                p *= back[seg]
                n += p
            sel = np.arange(lo, j.size) if cols is None else cols[step]
            if sel.size:
                d = np.ldexp(c[sel - lo], scale[sel])
                dd = np.ldexp(dd[sel - lo], scale[sel]) if derivative else None
                if flat.any():
                    d = np.where(flat, (jf[sel] == step)[:, None], d)
                    if derivative:
                        dd = np.where(flat, (jf[sel] == step + 1)[:, None] * (-0.5 * down[seg][sel - lo]), dd)
                yield rows, step, sel, d, dd
            prev, cur, nxt = cur, nxt, prev
            bound *= max(1.0, steep * reach[0][step] + reach[1][step])
            if bound > _RESCALE_ABOVE:
                _, shift = np.frexp(np.maximum(np.abs(prev[lo:]), np.abs(cur[lo:])))
                prev[lo:], cur[lo:] = np.ldexp(prev[lo:], -shift), np.ldexp(cur[lo:], -shift)
                scale[lo:] += shift
                bound = 1.0


def _outcome_table(split: _Split, phi: float, derivative=True):
    """Every outcome of the occupied sectors as flat arrays (na, nb, z, dz)
    in canonical (N, n_a) order: the port counts, the outcome amplitude at
    phi and its phase derivative (None without derivative), so P = |z|^2
    and dP = 2 Re(conj(z) dz). Zero-probability port splits are included.
    The kernel's sectors and the rotation's never share an N, so each is
    written in place. A rotation sector's z and dz share a phase factor
    that does not depend on phi and that neither P nor dP sees."""
    phis = np.array([float(phi)])
    rot = split.single.subset(split.single.na == split.single.nb)
    j = rot.na
    ns = np.sort(np.concatenate((sector_bounds(split.table)[0], 2 * j)))
    start = np.cumsum(ns + 1) - ns - 1  # where each sector's n_a = 0 outcome lands
    na = np.arange(np.sum(ns + 1)) - np.repeat(start, ns + 1)
    nb = np.repeat(ns, ns + 1) - na
    z, dz = np.empty(na.size, complex), np.empty(na.size, complex) if derivative else None
    cols = (z, dz) if derivative else (z,)
    for _, n, *values in _amplitudes(split.table, phis, derivative):
        lo = start[ns.searchsorted(n)]
        for col, value in zip(cols, values):
            col[lo:lo + n + 1] = value[0]
    centre = start[ns.searchsorted(2 * j)] + j  # where each ladder's n_a = J outcome lands
    for _, t, sel, *values in _rotation(j, phis, derivative):
        m = j[sel] - t
        for col, value in zip(cols, values):
            col[centre[sel] + m] = rot.amps[sel] * value[:, 0]
            col[centre[sel] - m] = rot.amps[sel] * (value[:, 0] * (1.0 - 2.0 * (m % 2)))
    return na, nb, z, dz


def likelihood(state: TwoModeState, phi: float, pipeline: str) -> dict[tuple[int, int], float]:
    """Outcome probabilities of the counting measurement keyed by the port
    counts (n_a, n_b): a dict view of _outcome_table, so every port split of
    each occupied total-photon sector is listed, including zero-probability
    ones."""
    na, nb, z, _ = _outcome_table(_split(state, pipeline), phi, False)
    return dict(zip(zip(na.tolist(), nb.tolist()), (np.abs(z) ** 2).tolist()))


def likelihood_with_derivative(
    state: TwoModeState, phi: float, pipeline: str
) -> dict[tuple[int, int], tuple[float, float]]:
    """Outcome probabilities together with analytic d/dphi, keyed by (n_a, n_b)."""
    na, nb, z, dz = _outcome_table(_split(state, pipeline), phi)
    p, dp = (np.abs(z) ** 2).tolist(), (2.0 * np.real(np.conj(z) * dz)).tolist()
    return dict(zip(zip(na.tolist(), nb.tolist()), zip(p, dp)))


def _period(split: _Split) -> float:
    """likelihood_period of a split state: a single input's spread is its N,
    since the rotation reaches every port split of its sector."""
    _, lo, hi = sector_bounds(split.pre)
    spread = int(np.max(np.concatenate((split.single.n_total, split.pre.na[hi - 1] - split.pre.na[lo])), initial=0))
    return 2.0 * math.pi / spread if spread else math.inf


def likelihood_period(state: TwoModeState, pipeline: str = "MMZI") -> float:
    """Fundamental phase period of the counting likelihood.

    Interference fringes oscillate at integer multiples of the J3-eigenvalue
    differences inside each occupied sector; the fastest is the largest
    occupied n_a spread. A state with one entry, or none, has no fringes
    (infinite period).
    """
    return _period(_split(state, pipeline))


_AMP_NOISE = 1e-13  # amplitudes below this are splitter-column rounding noise


def _running_total(x: np.ndarray) -> float:
    """x added one entry after another (np.sum adds pairwise); 0.0 if empty."""
    return float(np.concatenate(([0.0], x)).cumsum()[-1])


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
    return two, pre.subset(general)


def _two_branch_fi(pre: TwoModeState, two: np.ndarray, phis: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """The counting FI at phis of the two-branch sectors of pre whose n_a = 0
    entries sit at indices two, in closed form.

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
    singular. The phase-independent terms lead, then the equal-weight
    sectors, are summed first (_running_total) and broadcast to every
    phase; then the others, in chunks of about
    _CLOSED_FORM_CELLS cells laid out sectors x phases, whose rows numpy
    adds one after another, so every phase sums in sector order.
    """
    n = pre.n_total[two]
    a, b = pre.amps[two], pre.amps[two + 1] * _I_POWERS[n % 4]
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    weight, ab4, flat = (pa + pb) * (n * n), 4.0 * pa * pb, pa == pb
    fi = np.full(phis.size, _running_total(np.concatenate((lead, weight[flat]))))
    n, a, b, weight, ab4 = (col[~flat, None] for col in (n, a, b, weight, ab4))  # a row per sector
    step = max(1, _CLOSED_FORM_CELLS // max(1, phis.size))
    for c in range(0, len(n), step):
        cut = slice(c, c + step)
        turned = b[cut] * np.exp(-1j * (n[cut] * phis))
        u, v = a[cut] + turned, a[cut] - turned
        q = np.conj(u) * v
        gap, q_im2 = q.real * q.real, q.imag * q.imag
        w_im = a[cut].real * turned.imag - a[cut].imag * turned.real
        s2 = np.where(gap + q_im2 < ab4[cut], q_im2, 4.0 * w_im * w_im)
        moved = s2 > 0.0
        terms = weight[cut] * np.where(moved, s2 / np.where(moved, gap + s2, 1.0), 0.0)
        terms[0] += fi
        fi = terms.sum(axis=0)
    return fi


def _fi_reduce(split: _Split, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counting-measurement FI at each phase, summed kind by kind, and
    whether the limit algebra failed there. An MZI single input |n_a, n_b>
    adds its phase-independent n_a + n_b + 2 n_a n_b (2J(J+1) for |J,J>),
    its weight times 4 Var(J2); these come first, with the two-branch
    sectors of the pre-measurement state in closed form (_two_branch_fi);
    then each general sector from the phase kernel, in sector order. A
    single-input sector of the pre-measurement state adds exactly 0. Only
    the untrusted entries of _fi_terms are checked against
    |dp| <= 2 |z| |dz|, as a masked reduction rather than a gather.
    """
    single, pre = split.single, split.pre
    two, general = _sector_kinds(pre)
    lead = np.abs(single.amps) ** 2 * (single.n_total + 2 * single.na * single.nb)
    fi = _two_branch_fi(pre, two, phis, lead)
    singular = np.zeros(phis.size, dtype=bool)
    for rows, _, out, dout in _amplitudes(general, phis):
        dp = 2.0 * np.real(np.conj(out) * dout)
        abs_dout = np.abs(dout)
        terms, trusted = _fi_terms(np.abs(out) ** 2, dp, abs_dout ** 2)
        fi[rows] += np.sum(terms, axis=1)
        singular[rows] |= np.any(np.abs(dp) > 2.0 * _AMP_NOISE * abs_dout + 1e-30, axis=1, where=~trusted)
        del dp, abs_dout, terms, trusted  # not held while the next sector's arrays are made
    return fi, singular


def classical_fi(state: TwoModeState, phi: float, pipeline: str) -> FisherReport:
    """Fisher information of the counting measurement at phase phi.

    The companion qfi field is 4 Var(J3) of the phase-encoded state of the
    chosen pipeline, so fi <= qfi holds configuration by configuration.
    """
    fi, singular = _fi_reduce(_split(state, pipeline), np.array([float(phi)]))
    return FisherReport(
        phi=float(phi),
        fi=float(fi[0]),
        qfi=qfi_pure(state, pipeline),
        povm="counting:na_nb",
        pipeline=pipeline,
        singular=bool(singular[0]),
    )


def fi_scan(state: TwoModeState, phis: np.ndarray, pipeline: str) -> np.ndarray:
    """Vectorized counting-measurement FI over a phase grid."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return _fi_reduce(_split(state, pipeline), phis)[0]


def qfi_pure(state: TwoModeState, pipeline: str = "MMZI") -> float:
    """Quantum Fisher information of a pure state under a pipeline's phase.

    This is the phase information attained by the optimal measurement on
    the phase-encoded state: 4 Var(J3) of the state itself for "MMZI".
    For "MZI" it is 4 Var(J3) after the first splitter B, which is
    4 Var(J2) of the input, since B^dagger J3 B = -J2; so no splitter is
    applied (_j2_variance).
    """
    if pipeline == "MZI":
        return 4.0 * _j2_variance(state)
    pre = premeasurement_state(state, pipeline)  # the state itself; rejects an unknown pipeline
    j3 = expect(pre, "j3")
    return 4.0 * (expect(pre, "j3_sq") - j3 * j3)


def _j2_variance(state: TwoModeState) -> float:
    """Var(J2) of a state in O(entries). Within a sector J2 is tridiagonal
    in n_a, <k+1|J2|k> = -i e_k with e_k = sqrt((k+1)(N-k))/2, so <J2>
    pairs entries one apart in n_a and <J2^2> (diagonal e_{k-1}^2 + e_k^2,
    <k+2|J2^2|k> = -e_k e_{k+1}) entries two apart."""
    na, n, c = state.na, state.n_total, state.amps
    key = n * (n + 1) // 2 + na  # the entry's place among all outcomes in (N, n_a) order

    def pairs(gap):  # entries k and the entry k + gap of the same sector, if occupied
        at = np.minimum(np.searchsorted(key, key + gap), key.size - 1)
        lo = np.flatnonzero((key[at] == key + gap) & (na + gap <= n))
        return lo, at[lo], na[lo], n[lo]

    e = 0.5 * np.sqrt((na + 1.0) * (n - na))
    lo, hi, _, _ = pairs(1)
    mean = np.sum(2.0 * e[lo] * np.imag(np.conj(c[hi]) * c[lo]))
    lo, hi, k, m = pairs(2)
    e_next = 0.5 * np.sqrt((k + 2.0) * (m - k - 1.0))
    square = np.sum(np.abs(c) ** 2 * (e * e + 0.25 * na * (n - na + 1.0)))
    square -= np.sum(2.0 * e[lo] * e_next * np.real(np.conj(c[lo]) * c[hi]))
    return float(square - mean * mean)


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
    sorted-value order (_running_total).
    """
    na, nb, z, dz = _outcome_table(_split(state, pipeline), phi)
    keys, group = np.unique([float(f(a, b)) for a, b in zip(na.tolist(), nb.tolist())], return_inverse=True)
    summed = (np.bincount(group, weights=w, minlength=keys.size)
              for w in (np.abs(z) ** 2, 2.0 * np.real(np.conj(z) * dz), np.abs(dz) ** 2))
    terms, _ = _fi_terms(*summed)
    return FisherReport(
        phi=float(phi),
        fi=_running_total(terms),
        qfi=qfi_pure(state, pipeline),
        povm="observable:f(na,nb)",
        pipeline=pipeline,
    )
