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

Derivatives of outcome probabilities are analytic. In both pipelines the
phase acts on the counted outcomes as exp(-i phi J2) (the final splitter
turns J3 into J2), so an outcome amplitude z has the phase derivative
dz = -i J2 z, a real three-term stencil of the amplitudes themselves
(_derivative, the one code that computes it, on a kernel block or the
flat outcome table alike); then P = |z|^2 and dP = 2 Re(conj(z) dz). One
rule (_fi_terms) makes every
Fisher-information term, of a counting outcome or of a group of outcomes a
readout merges: dP^2/P while the amplitude, sqrt(P) of the group, is above
rounding-noise scale _AMP_NOISE (dP scales like sqrt(P), so the ratio
stays faithful down to there), and at noise scale the analytic
transversal limit 4 sum |dz|^2, which is finite whenever the amplitudes
are smooth.

Sector kinds
------------
Both unitaries preserve the total photon number, so every reader works
sector by sector, on the sectors its state found when it was built
(fock.TwoModeState.sectors), and reads each by the kind _split decided
and recorded for it (_Split), once per call or per estimation command;
_split applies an MZI's first splitter only where a kind needs it:

- single input (MZI only): a sector of the source with one occupied input
  |n_a, n_b>. Two splitters around the phase act on it as the rotation
  exp(-i phi J2) of the swapped input, so it never meets the first
  splitter. Its counting FI is n_a + n_b + 2 n_a n_b at every phase and
  its fringe spread is N. A balanced input |J, J> (every sector of
  dual_fock, zeta_dual_fock and tmsv) takes its outcome amplitudes
  d^J_{m,0}(phi) from a real three-term recurrence (_rotation),
  vectorized over sectors and phases (_ROTATION); an unbalanced one still
  takes the first splitter and the kernel below for its outcome table
  (_IMAGE).
- two-branch (_TWO_BRANCH): a sector of the pre-measurement state with
  occupied n_a exactly {0, N}. It records the phase only through the
  parity of n_a, and its FI has a closed form in its two amplitudes
  (_two_branch_fi), with no splitter column and no matmul.
- one input of the pre-measurement state (_FIXED): FI exactly 0.
- general (_GENERAL): every other sector, through the kernel _amplitudes.

The MZI qfi field needs no kind and no splitter: the first splitter turns
J3 into -J2, so it is 4 Var(J2) of the input (_j2_variance), O(entries).

The phase kernel (_amplitudes, and the MLE's _logliks) takes the
pre-measurement state, or the sub-state of the sectors a caller needs, one
contiguous slice per sector (_sectors) with the final splitter's columns of
its occupied inputs (fock.splitter_columns), built afresh and never cached.
It takes one exponential per distinct J3 eigenvalue (_distinct) and gathers
each sector's with take(), which keeps them C-ordered, so every bit equals
an exponential per sector input. Both kernels evaluate exactly the phases
they are passed; a reader of many phases cuts them once into blocks
(_phase_blocks): _fi_reduce, the function _logliks returns, and
estimation._estimates. The likelihoods, the sampler and the readouts read
flat (N, n_a)-ordered arrays (_outcome_table), which each kernel sector
and each rotation step write in place.

The MLE's log-likelihood is set up once per chunk of records (_logliks):
one pass reads each histogram once, checks it before any splitter column
is built, and sends each outcome to a phase-kernel column or a rotation
rung of its record; then the kernels are set up for the observed sectors
alone. One pass of each kernel serves every record of the chunk, on one
shared grid or each on its own grid, end to end, and a record's row is
the same to the last bit alone or with others.

The counting FI over a phase grid (_fi_reduce, behind classical_fi and
fi_scan) skips the single inputs' splitter images and sums kind by kind:
the phase-independent total of the MZI single inputs and of the
equal-weight two-branch sectors, summed once and broadcast, so a state
of such sectors scans exactly flat; then the unequal-weight two-branch
sectors; then the general sectors; each kind in sector order, which
differs from the sector order by rounding only.
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
    sector_decompose,
    splitter_columns,
)

PIPELINES = ("MZI", "MMZI")
_PHASE_BLOCK = 2048  # most phases a reader passes the kernels at once (_phase_blocks)
_TEMP_CELLS = 1 << 16  # most elements of one temporary: a _derivative chunk of one row, a _two_branch_fi chunk
_LOG_FLOOR = 1e-300  # least probability a log-likelihood takes the log of


@dataclass(frozen=True)
class FisherReport:
    """Information content of one measurement configuration at one phase."""

    phi: float
    fi: float
    qfi: float
    povm: str
    pipeline: str
    qfi_divergent: bool = False

    @property
    def crb_single(self) -> float:
        """Single-trial phase bound 1/sqrt(FI); inf when FI vanishes."""
        return 1.0 / math.sqrt(self.fi) if self.fi > 0 else math.inf

    def to_json_dict(self) -> dict:
        crb = 0.0 if self.qfi_divergent else self.crb_single if self.fi > 0 else None
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


_ROTATION, _IMAGE, _FIXED, _TWO_BRANCH, _GENERAL = np.arange(5, dtype=np.int8)  # sector kinds (module docstring)


class _Split(NamedTuple):
    """A state sorted by sector kind for one pipeline (_split).

    single: for "MZI", the source's single-input sectors, which no reader
    sends through the first splitter (module docstring). Empty for "MMZI".
    table: the pre-measurement state of every other sector, plus the
    splitter image of the unbalanced single inputs (kind _IMAGE).
    n, kind: every outcome sector's N, in increasing N, and its kind: the
    sectors of table are those not of kind _ROTATION, the balanced inputs
    of single those of that kind, each in order.
    """

    single: TwoModeState
    table: TwoModeState
    n: np.ndarray
    kind: np.ndarray


def _split(state: TwoModeState, pipeline: str) -> _Split:
    """state sorted into _Split's kinds, once; any first splitter goes only where a kind needs it."""
    n, lo, hi = state.sectors
    alone = (hi - lo == 1) & (pipeline == "MZI")
    rotated = alone & (state.na[lo] == state.nb[lo])
    single = state.subset(np.repeat(alone, hi - lo))
    table = premeasurement_state(state.subset(np.repeat(~rotated, hi - lo)), pipeline)  # rejects an unknown pipeline
    tn, tlo, thi = table.sectors
    size = thi - tlo
    two = (size == 2) & (table.na[tlo] == 0) & (table.nb[thi - 1] == 0)
    kind = np.select([size == 1, np.isin(tn, n[alone]), two], [_FIXED, _IMAGE, _TWO_BRANCH], _GENERAL)
    at = tn.searchsorted(n[rotated])  # where the rotated sectors go among table's
    return _Split(single, table, np.insert(tn, at, n[rotated]), np.insert(kind, at, _ROTATION))


def _sectors(pre: TwoModeState):
    """Yield (N, vec, m, bs_t) for each occupied sector of the pre-measurement
    state pre, restricted to its occupied inputs: their amplitudes, their J3
    eigenvalues, and bs_t[j, k] the final splitter from input j to n_a = k.
    A caller that needs only some sectors passes their sub-state."""
    for n, start, stop in zip(*(col.tolist() for col in pre.sectors)):
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


def _amplitudes(pre: TwoModeState, phis: np.ndarray):
    """Yield (N, out) per sector of pre: out[i, k] is the amplitude at
    phis[i] of outcome (k, N - k), from one exponential table, holding one
    sector's columns at a time."""
    unique_m = _distinct(pre.j3_values)
    table = np.exp(-1j * np.outer(phis, unique_m))
    for n, vec, m, bs_t in _sectors(pre):
        yield n, (table.take(unique_m.searchsorted(m), axis=1) * vec) @ bs_t


def _derivative(z: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """The phase derivative dz = -i J2 z of outcome amplitudes z whose last
    axis runs over whole sectors in (N, n_a) order, na and nb its port
    counts: a (phases x N+1) kernel block or the flat outcome table alike.
    It is the stencil dz_k = e_k z_{k+1} - e_{k-1} z_{k-1},
    e_k = sqrt((k+1)(N-k))/2, and e_N = 0, so no term crosses a sector
    edge. One pass over the last axis takes chunks [lo, hi) of _TEMP_CELLS
    outcomes, the last first: it writes e_k z_{k+1} at k, then subtracts
    e_k z_k at k + 1, which the chunk after it (or the final 0) wrote."""
    dz = np.empty(z.shape, complex)
    dz[..., -1:] = 0.0
    for lo in reversed(range(0, na.size - 1, _TEMP_CELLS)):
        hi = min(lo + _TEMP_CELLS, na.size - 1)
        e = 0.5 * np.sqrt((na[lo:hi] + 1.0) * nb[lo:hi])
        np.multiply(z[..., lo + 1:hi + 1], e, out=dz[..., lo:hi])
        dz[..., lo + 1:hi + 1] -= z[..., lo:hi] * e
    return dz


_FLAT = 2.0**-600  # |sin phi| below which the rotation is the permutation to every bit of P


def _rotation(j: np.ndarray, phis: np.ndarray, cols=None):
    """Yield (t, sel, d) per step t = 0, 1, ...: d[c, i] is the Wigner
    element d^J_{J-t,0}(phis[i]) of the balanced single input |J, J> with
    J = j[sel[c]] (j ascending). sel is every sector with J >= t, or cols[t]
    when a caller reads only those (a step with none is not yielded).

    The MZI sends |J, J> to exp(-i phi J2)|J, J> up to a constant phase,
    so outcome (J + m, J - m) has amplitude d^J_{m,0}(phi), the same at
    -m up to the sign (-1)^m. The elements follow from
    e_{m-1} d_{m-1} = -2 m cot(phi) d_m - e_m d_{m+1}, e_m = <m+1|J+|m>,
    run down from m = J, where d grows or oscillates, so the run is
    stable. The seed |d^J_{J,0}| = sqrt(C(2J,J)) |sin(phi)/2|^J is taken
    in log2 space, its binomial as a running product of (2i-1)/(2i), which
    rounds far less than lgamma at large J. Values are held as a mantissa times
    2^scale per sector and phase, so a ladder that starts below the float
    range underflows only at its true size; a running bound on the
    mantissas' growth decides when they are rescaled against overflow.
    Rows are sectors and columns phases, so each step works on one
    contiguous block. Each step makes its own coefficients and growth
    bound from its live sectors' J, so between steps the ladder holds only
    its running state: three rows of mantissas and the scales per sector
    and phase, and per-phase vectors. Where |sin(phi)| < _FLAT the rotation
    is the identity, handled exactly.
    """
    if not j.size:
        return
    top, jf = int(j[-1]), j.astype(float)
    first = np.searchsorted(j, np.arange(top + 1))  # sectors from first[t] on are live at step t
    k = np.arange(1, top + 1)
    lead = 0.5 * np.log2(np.cumprod(np.concatenate(([1.0], (2 * k - 1) / (2 * k)))))[j, None]
    sin, cos = np.sin(phis), np.cos(phis)
    flat = np.abs(sin) < _FLAT
    frac, power = np.frexp(np.where(flat, 1.0, np.abs(sin)))
    cot = np.where(flat, 0.0, cos / np.where(flat, 1.0, sin))
    cur = lead + jf[:, None] * np.log2(frac)  # the seed's log2, split into mantissa and 2^scale
    scale = np.floor(cur)
    cur, scale = np.where(flat, 0.0, np.exp2(cur - scale)), scale.astype(np.int64) + j[:, None] * power
    prev, nxt = np.zeros(cur.shape), np.empty(cur.shape)
    bound, steep = 2.0, float(np.abs(cot).max(initial=0.0))  # |prev|, |cur| <= bound
    for step in range(top + 1):
        lo = int(first[step])
        jt, p, c, n = jf[lo:], prev[lo:], cur[lo:], nxt[lo:]
        up = np.sqrt(step * (2.0 * jt - step + 1.0))
        down = np.sqrt((step + 1.0) * (2.0 * jt - step))
        down[down == 0.0] = 1.0  # only J = 0, whose terms vanish
        turn, back = -2.0 * (jt - step) / down, -up / down
        np.multiply(turn[:, None], cot, out=n)
        n *= c
        p *= back[:, None]
        n += p
        bound *= max(1.0, steep * np.abs(turn).max() + np.abs(back).max())
        sel = np.arange(lo, j.size) if cols is None else cols[step]
        if sel.size:
            d = np.ldexp(c[sel - lo], scale[sel])
            if flat.any():
                d = np.where(flat, (jf[sel] == step)[:, None], d)
            yield step, sel, d
        prev, cur, nxt = cur, nxt, prev
        if bound > _RESCALE_ABOVE:
            _, shift = np.frexp(np.maximum(np.abs(prev[lo:]), np.abs(cur[lo:])))
            prev[lo:], cur[lo:] = np.ldexp(prev[lo:], -shift), np.ldexp(cur[lo:], -shift)
            scale[lo:] += shift
            bound = 1.0


def _outcome_table(split: _Split, phi: float):
    """Every outcome of the occupied sectors as flat arrays (na, nb, z) in
    canonical (N, n_a) order: the port counts and the outcome amplitude at
    phi, so P = |z|^2 (and dz = _derivative(z, na, nb)). Zero-probability
    port splits are included. The kernel's sectors and the rotation's never
    share an N, so each is written in place. A rotation sector's amplitudes
    share a phase factor that does not depend on phi and that neither P nor
    dP sees."""
    phis = np.array([float(phi)])
    ns, rotated = split.n, split.kind == _ROTATION
    start = np.cumsum(ns + 1) - ns - 1  # where each sector's n_a = 0 outcome lands
    na = np.arange(np.sum(ns + 1)) - np.repeat(start, ns + 1)
    nb = np.repeat(ns, ns + 1) - na
    z = np.empty(na.size, complex)
    for lo, (n, out) in zip(start[~rotated].tolist(), _amplitudes(split.table, phis)):
        z[lo:lo + n + 1] = out[0]
    balanced = split.single.na == split.single.nb
    j, amps = split.single.na[balanced], split.single.amps[balanced]
    centre = start[rotated] + j  # where each ladder's n_a = J outcome lands
    for t, sel, d in _rotation(j, phis):
        m = j[sel] - t
        z[centre[sel] + m] = amps[sel] * d[:, 0]
        z[centre[sel] - m] = amps[sel] * (d[:, 0] * (1.0 - 2.0 * (m % 2)))
    return na, nb, z


def _table_with_derivative(split: _Split, phi: float):
    """The outcome table (na, nb, z) of split at phi and dz = _derivative(z,
    na, nb), set to exactly 0 on each sector of kind _FIXED: the phase
    cannot move its probabilities, and the stencil cancels there only to
    rounding (_fi_reduce skips such sectors by kind)."""
    na, nb, z = _outcome_table(split, phi)
    dz = _derivative(z, na, nb)
    dz[np.repeat(split.kind == _FIXED, split.n + 1)] = 0.0
    return na, nb, z, dz


def _logliks(split: _Split, records) -> Callable[..., np.ndarray]:
    """Log-likelihoods of outcome histograms on phase grids, a row per
    record. One pass reads each histogram once: it checks the histogram
    (integer port counts >= 0, not bool, finite counts >= 0, every outcome
    in an occupied sector) and sends each outcome to its share, a column of
    the record's entry for its phase-kernel sector, in the record's outcome
    order (users), or its count to its rotation rung, keyed (ladder step,
    record), m and -m together, as P is even in m (rungs). Then, once, the
    kernels are set up for the sectors any record observed: the phase
    kernel's distinct J3 eigenvalues, gather indices and splitter columns,
    and the rotation's |J,J> sectors and weights. The returned function evaluates every
    record on phis, block by block; with own, a list of record indices,
    phis holds one equal grid per listed record, end to end, and row i is
    own[i]'s on its own grid. A record adds its counts on its own span by
    the products it would take alone (a matmul's bits depend on its
    operands' shapes and layout), and sector rows do not interact, so its
    row equals its row alone, bit for bit, unless a phase block cuts it."""
    rotated = dict(zip(split.n.tolist(), (split.kind == _ROTATION).tolist()))  # occupied N -> read by the rotation
    observed, users, rungs = set(), {}, {}  # N; N -> record -> [(n_a, count)]; (step, record) -> J -> count
    for r, outcomes in enumerate(records):
        stray = []
        for (a, b), cnt in outcomes.items():
            if isinstance(a, bool) or isinstance(b, bool) or not (
                    isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
                raise ValueError(f"outcome {(a, b)}: port counts must be integers")
            if not math.isfinite(cnt):
                raise ValueError(f"outcome {(a, b)} with count {cnt}: counts must be finite")
            if a < 0 or b < 0 or cnt < 0:
                raise ValueError(f"outcome {(a, b)} with count {cnt}: port counts and counts must be >= 0")
            n = a + b
            if n not in rotated:
                stray.append((a, b))
            elif not rotated[n]:
                users.setdefault(n, {}).setdefault(r, []).append((a, cnt))
            elif cnt:
                rung = rungs.setdefault((n // 2 - abs(a - n // 2), r), {})
                rung[n // 2] = rung.get(n // 2, 0.0) + cnt
            observed.add(n)
        if stray:
            raise ValueError(f"outcomes {stray} lie outside the occupied sectors")
    observed = sorted(observed)
    sub = split.table.subset(np.isin(split.table.n_total, observed))
    unique_m = _distinct(sub.j3_values)
    kernel = {n: (vec, unique_m.searchsorted(m), bs_t) for n, vec, m, bs_t in _sectors(sub)}
    for n, groups in users.items():  # each record's (record, columns, counts) entry, columns in its outcome order
        users[n] = [(r, kernel[n][2][:, [a for a, _ in g]], np.array([c for _, c in g], dtype=float))
                    for r, g in groups.items()]
    rot = (split.single.na == split.single.nb) & np.isin(split.single.n_total, observed)
    j, weight = split.single.na[rot], np.abs(split.single.amps[rot]) ** 2
    seen = [set() for _ in range(j.max(initial=-1) + 1)]  # the J whose rungs each step reads
    for (t, _), rung in rungs.items():
        seen[t].update(rung)
    seen = [sorted(js) for js in seen]
    by_step = [[] for _ in seen]  # per step: (record, its rungs' rows among the step's, their counts)
    for (t, r), rung in sorted(rungs.items()):
        js, counts = zip(*sorted(rung.items()))
        by_step[t].append((r, np.searchsorted(seen[t], js), np.array(counts, dtype=float)))
    seen = [j.searchsorted(js) for js in seen]  # each J's place among the observed |J,J>

    def loglik(phis: np.ndarray, own=None) -> np.ndarray:
        width = phis.size // (1 if own is None else len(own))
        listed = range(len(records)) if own is None else own
        start = {r: (i, 0 if own is None else i * width) for i, r in enumerate(listed)}  # record -> row, first phase
        ll = np.zeros((len(start), width))

        def spans(rows: slice, entries):  # (row, its columns, the block's rows, *entry) where a span meets rows
            for r, *entry in entries:
                i, lo = start.get(r, (None, 0))
                a, b = max(lo, rows.start), min(lo + width, rows.stop)
                if i is not None and a < b:
                    yield (i, slice(a - lo, b - lo), slice(a - rows.start, b - rows.start), *entry)

        for rows in _phase_blocks(phis.size):
            table = np.exp(-1j * np.outer(phis[rows], unique_m))
            for n, (vec, ix, _) in kernel.items():
                chis = {}  # a span's sector inputs after the phase, made once for the records it serves
                for i, out, part, cols, counts in spans(rows, users[n]):
                    key = (part.start, part.stop)
                    if key not in chis:
                        chis[key] = table[part].take(ix, axis=1) * vec
                    ll[i, out] += np.log(np.maximum(np.abs(chis[key] @ cols) ** 2, _LOG_FLOOR)) @ counts
            for t, sel, d in _rotation(j, phis[rows], seen):
                logp = np.log(np.maximum(weight[sel, None] * (d * d), _LOG_FLOOR))
                for i, out, part, ix, counts in spans(rows, by_step[t]):
                    ll[i, out] += counts @ np.ascontiguousarray(logp[ix][:, part])
        return ll

    return loglik


def likelihood(state: TwoModeState, phi: float, pipeline: str) -> dict[tuple[int, int], float]:
    """Outcome probabilities of the counting measurement keyed by the port
    counts (n_a, n_b): a dict view of _outcome_table, so every port split of
    each occupied total-photon sector is listed, including zero-probability
    ones."""
    na, nb, z = _outcome_table(_split(state, pipeline), phi)
    return dict(zip(zip(na.tolist(), nb.tolist()), (np.abs(z) ** 2).tolist()))


def likelihood_with_derivative(
    state: TwoModeState, phi: float, pipeline: str
) -> dict[tuple[int, int], tuple[float, float]]:
    """Outcome probabilities together with analytic d/dphi, keyed by (n_a, n_b)."""
    na, nb, z, dz = _table_with_derivative(_split(state, pipeline), phi)
    p, dp = (np.abs(z) ** 2).tolist(), (2.0 * np.real(np.conj(z) * dz)).tolist()
    return dict(zip(zip(na.tolist(), nb.tolist()), zip(p, dp)))


def _period(split: _Split) -> float:
    """likelihood_period of a split state: a single input's spread is its N,
    since the rotation reaches every port split of its sector, and no
    splitter image in split.table spreads wider than its N."""
    _, lo, hi = split.table.sectors
    spread = int(np.max(np.concatenate((split.single.n_total, split.table.na[hi - 1] - split.table.na[lo])), initial=0))
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


def _running_total(x: np.ndarray, start: float = 0.0) -> float:
    """x added one entry after another onto start (np.sum adds pairwise)."""
    return float(np.concatenate(([start], x)).cumsum()[-1])


def _fi_terms(p, dp, dz_sq):
    """Fisher-information terms of outcomes, or of groups of merged outcomes,
    from their probabilities p, derivatives dp and summed |dz|^2.

    dp scales like sqrt(p), so dp^2/p stays numerically faithful while the
    amplitude sqrt(p) is large enough to carry a meaningful phase
    direction. At rounding-noise scale (p <= _AMP_NOISE^2, which for p =
    |z|^2 is exactly |z| <= _AMP_NOISE) the point is an analytic zero,
    where the term tends to the transversal limit 4 |dz|^2 (zero when the
    outcome is never occupied, since then dz vanishes identically too).
    """
    trusted = p > _AMP_NOISE ** 2
    return np.where(trusted, dp * dp / np.where(trusted, p, 1.0), 4.0 * dz_sq)


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
    No limit branch of _fi_terms is involved. The phase-independent terms
    lead, then the equal-weight sectors, are summed first (_running_total),
    _TEMP_CELLS sectors at a time, and broadcast to every phase; then the
    others, in chunks of about _TEMP_CELLS cells laid out sectors x phases,
    whose rows numpy adds one after another, so every phase sums in sector
    order.
    """
    total, steep = _running_total(lead), [two[:0]]
    for c in range(0, two.size, _TEMP_CELLS):
        at = two[c:c + _TEMP_CELLS]
        n, pa, pb = pre.na[at + 1], np.abs(pre.amps[at]) ** 2, np.abs(pre.amps[at + 1]) ** 2  # B = |b i^N|^2 to the bit
        total = _running_total(((pa + pb) * (n * n.astype(float)))[pa == pb], total)
        steep.append(at[pa != pb])
    two = np.concatenate(steep)
    n = pre.na[two + 1]
    a, b = pre.amps[two], pre.amps[two + 1] * _I_POWERS[n % 4]
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    fi = np.full(phis.size, total)
    n, a, b, weight, ab4 = (col[:, None] for col in (n, a, b, (pa + pb) * (n * n.astype(float)), 4.0 * pa * pb))
    step = max(1, _TEMP_CELLS // max(1, phis.size))
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


def _fi_reduce(split: _Split, phis: np.ndarray) -> np.ndarray:
    """Counting-measurement FI at each phase, summed kind by kind. An MZI
    single input |n_a, n_b> adds its phase-independent n_a + n_b + 2 n_a n_b
    (2J(J+1) for |J,J>), its weight times 4 Var(J2); these come first, with
    the two-branch sectors of the pre-measurement state in closed form
    (_two_branch_fi); then each general sector from the phase kernel and the
    derivative rule, in sector order, block by block (_phase_blocks), if
    any. A sector of kind _FIXED adds exactly 0, and one of kind _IMAGE
    nothing: its single input is read in closed form."""
    single, table, _, kind = split
    kind = kind[kind != _ROTATION]  # table's sectors, in order
    _, lo, hi = table.sectors
    general = table.subset(np.repeat(kind == _GENERAL, hi - lo))
    lead = np.abs(single.amps) ** 2 * (single.n_total + 2.0 * single.na * single.nb)
    fi = _two_branch_fi(table, lo[kind == _TWO_BRANCH], phis, lead)
    for rows in _phase_blocks(phis.size) if len(general) else ():
        for n, out in _amplitudes(general, phis[rows]):
            k = np.arange(n + 1)
            dout = _derivative(out, k, n - k)
            terms = _fi_terms(np.abs(out) ** 2, 2.0 * np.real(np.conj(out) * dout), np.abs(dout) ** 2)
            fi[rows] += np.sum(terms, axis=1)
            del dout, terms  # not held while the next sector's arrays are made
    return fi


def classical_fi(state: TwoModeState, phi: float, pipeline: str) -> FisherReport:
    """Fisher information of the counting measurement at phase phi.

    The companion qfi field is 4 Var(J3) of the phase-encoded state of the
    chosen pipeline, so fi <= qfi holds configuration by configuration.
    """
    fi = _fi_reduce(_split(state, pipeline), np.array([float(phi)]))
    return FisherReport(
        phi=float(phi),
        fi=float(fi[0]),
        qfi=qfi_pure(state, pipeline),
        povm="counting:na_nb",
        pipeline=pipeline,
    )


def fi_scan(state: TwoModeState, phis: np.ndarray, pipeline: str) -> np.ndarray:
    """Vectorized counting-measurement FI over a phase grid."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return _fi_reduce(_split(state, pipeline), phis)


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
    p, m = np.abs(pre.amps) ** 2, pre.j3_values  # one pass, with fock.expect's operands for j3 and j3_sq
    j3 = float(np.sum(p * m))
    return 4.0 * (float(np.sum(p * m ** 2)) - j3 * j3)


def _j2_variance(state: TwoModeState) -> float:
    """Var(J2) of a state in O(entries). Within a sector J2 is tridiagonal
    in n_a, <k+1|J2|k> = -i e_k with e_k = sqrt((k+1)(N-k))/2, so <J2>
    pairs entries one apart in n_a and <J2^2> (diagonal e_{k-1}^2 + e_k^2,
    <k+2|J2^2|k> = -e_k e_{k+1}) entries two apart."""
    na, n, c = state.na, state.n_total, state.amps

    def pairs(gap):  # entries k and the entry k + gap of the same sector, if occupied
        # entries are sorted by (N, n_a) with no duplicates, so that entry
        # sits 1 to gap places on
        partner = np.full(n.size, -1)
        for step in range(1, gap + 1):
            at = np.flatnonzero((n[step:] == n[:-step]) & (na[step:] == na[:-step] + gap))
            partner[at] = at + step
        lo = np.flatnonzero(partner >= 0)
        return lo, partner[lo], na[lo], n[lo]

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
    rows = [(c.n_total, c.probability, float(fi_scan(c.state, phi, pipeline)[0])) for c in sector_decompose(state)]
    total = 0.0
    for _, probability, fi in rows:
        total += probability * fi
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
    na, nb, z, dz = _table_with_derivative(_split(state, pipeline), phi)
    keys, group = np.unique([float(f(a, b)) for a, b in zip(na.tolist(), nb.tolist())], return_inverse=True)
    summed = (np.bincount(group, weights=w, minlength=keys.size)
              for w in (np.abs(z) ** 2, 2.0 * np.real(np.conj(z) * dz), np.abs(dz) ** 2))
    terms = _fi_terms(*summed)
    return FisherReport(
        phi=float(phi),
        fi=_running_total(terms),
        qfi=qfi_pure(state, pipeline),
        povm="observable:f(na,nb)",
        pipeline=pipeline,
    )
