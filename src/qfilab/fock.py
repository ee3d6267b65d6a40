"""Truncated two-mode Fock space: sparse states, phase shifts, beam splitters.

The two optical paths are bosonic modes a and b. A pure state is a sparse
table of complex amplitudes over occupation pairs (n_a, n_b), n_a + n_b <=
cutoff, sorted by (N, n_a) with N = n_a + n_b. Both interferometer unitaries
are block diagonal over the N sectors (the phase shift exp(-i*phi*J3) is
diagonal, the 50:50 splitter exp(i*pi*J1/2) an (N+1)x(N+1) block), and each
occupied sector is one contiguous slice of the table. A state finds them
all in one vectorized scan when it is built (TwoModeState.sectors), and
every sector walk reads that table: the splitter, the one sector-weight
pass, the sector split and the fisher kernel on the sub-state it is
passed. splitter_columns gives the occupied inputs' splitter columns,
never cached: the two-branch ones (n_a = 0, N) in closed form over one
growing table of log-factorials, any other in O(N) by a recurrence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_NORM_TOL = 1e-9  # `state validate` reports a file renormalized beyond this
DEFAULT_PRUNE_THRESHOLD = 1e-15  # relative to the largest |amplitude|


class EmptyStateError(ValueError):
    """Raised when every supplied amplitude is zero."""


class CutoffViolationError(ValueError):
    """Raised when an occupation pair lies outside the declared cutoff."""


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Sparse pure state of two bosonic modes.

    Entries are kept in canonical order (sorted by total photon number,
    then by n_a), duplicates merged, and amplitudes below the prune
    threshold dropped, so two states with the same physical content have
    identical tables; direct construction rejects (ValueError) a table out
    of that order, with duplicates or with an exact-zero amplitude. Arrays
    are read-only; every operation returns a new state, which makes states
    safe to share between worker threads. sectors, found when the state is
    built, are the occupied sectors as arrays (N, lo, hi) in increasing N:
    entries lo[i]:hi[i], in increasing n_a, are sector N[i]'s.
    """

    na: np.ndarray
    nb: np.ndarray
    amps: np.ndarray
    cutoff: int
    sectors: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n_total = self.n_total
        n_step = np.diff(n_total)
        out_of_order = (n_step < 0) | ((n_step == 0) & (self.na[1:] <= self.na[:-1]))
        if np.any(out_of_order) or np.any(self.amps == 0):
            raise ValueError("entries need strictly increasing (N, n_a) and nonzero amplitudes")
        # each sector's start, then the end (the end alone if no entry): the one scan for sectors
        edges = np.flatnonzero(np.concatenate(([True], n_step != 0, [True])))[:n_total.size + 1]
        sectors = (n_total[edges[:-1]], edges[:-1], edges[1:])
        for arr in (self.na, self.nb, self.amps, *sectors):
            arr.flags.writeable = False
        object.__setattr__(self, "sectors", sectors)

    @property
    def n_total(self) -> np.ndarray:
        return self.na + self.nb

    @property
    def j3_values(self) -> np.ndarray:
        """J3 eigenvalue (n_a - n_b)/2 of each entry."""
        return 0.5 * (self.na - self.nb)

    def __len__(self) -> int:
        return int(self.na.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def amplitude(self, n_a: int, n_b: int) -> complex:
        hit = np.flatnonzero((self.na == n_a) & (self.nb == n_b))
        return complex(self.amps[hit[0]]) if hit.size else 0j

    def items(self):
        """Iterate ((n_a, n_b), amplitude) in canonical order."""
        for a, b, c in zip(self.na, self.nb, self.amps):
            yield (int(a), int(b)), complex(c)

    def subset(self, keep: np.ndarray) -> "TwoModeState":
        """The entries that the boolean mask keep selects, not renormalized
        (a sub-state of whole sectors for the fisher kernels): self if all."""
        return self if keep.all() else TwoModeState(self.na[keep], self.nb[keep], self.amps[keep], self.cutoff)

    def occupied_sectors(self) -> list[int]:
        return self.sectors[0].tolist()

    def allclose(self, other: "TwoModeState", tol: float = 1e-12) -> bool:
        keys = {k for k, _ in self.items()} | {k for k, _ in other.items()}
        return all(
            abs(self.amplitude(*k) - other.amplitude(*k)) <= tol for k in keys
        )

    def overlap(self, other: "TwoModeState") -> complex:
        """Inner product <self|other> over the union of occupations."""
        acc = 0j
        for (a, b), amp in self.items():
            acc += np.conj(amp) * other.amplitude(a, b)
        return complex(acc)


def _canonical_state(
    na: np.ndarray,
    nb: np.ndarray,
    amps: np.ndarray,
    cutoff: int,
) -> TwoModeState:
    """Sort by (N, n_a), merge duplicates, prune and normalize; a NaN or
    infinite amplitude, given or from a merge that overflows, is a
    ValueError naming its entry."""
    if cutoff < 0:
        raise CutoffViolationError("cutoff must be >= 0")
    na = np.asarray(na, dtype=np.int64)
    nb = np.asarray(nb, dtype=np.int64)
    amps = np.asarray(amps, dtype=np.complex128)
    if na.size == 0:
        raise EmptyStateError("state needs at least one nonzero amplitude")
    if np.any(na < 0) or np.any(nb < 0):
        raise CutoffViolationError("occupation numbers must be >= 0")
    if np.any(na + nb > cutoff):
        bad = int(np.argmax(na + nb > cutoff))
        raise CutoffViolationError(
            f"entry ({int(na[bad])}, {int(nb[bad])}) exceeds cutoff {cutoff}"
        )

    # a stable sort keeps duplicates adjacent in input order, and np.add.at
    # adds them one after another (np.add.reduceat adds a run's tail pairwise)
    order = np.lexsort((na, na + nb))
    na, nb, amps = na[order], nb[order], amps[order]
    first = (np.diff(na, prepend=-1) != 0) | (np.diff(nb, prepend=-1) != 0)
    if not first.all():
        merged = np.zeros(np.count_nonzero(first), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, on the merged amplitudes
            np.add.at(merged, np.cumsum(first) - 1, amps)
        na, nb, amps = na[first], nb[first], merged
    finite = np.isfinite(amps)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"entry ({int(na[bad])}, {int(nb[bad])}) has a non-finite amplitude {amps[bad]}")
    return _normalized_state(na, nb, amps, cutoff)


def _normalized_state(na: np.ndarray, nb: np.ndarray, amps: np.ndarray, cutoff: int) -> TwoModeState:
    """_canonical_state's pruning and normalization of a canonical table with finite
    amplitudes; amps, given up by the caller, is normalized in place if all are kept."""
    mags = np.abs(amps)
    peak = mags.max()
    if peak == 0.0:
        raise EmptyStateError("state needs at least one nonzero amplitude")
    keep = mags > DEFAULT_PRUNE_THRESHOLD * peak
    del mags
    if not keep.all():
        na, nb, amps = na[keep], nb[keep], amps[keep]
    # scaled exactly, by the power of two that puts even a subnormal peak in [0.5, 1)
    parts = amps.view(float)
    np.ldexp(parts, -np.frexp(peak)[1], out=parts)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return TwoModeState(na, nb, amps, int(cutoff))


def make_state(entries, cutoff: int) -> TwoModeState:
    """Build a normalized canonical state from (n_a, n_b, amplitude) triples.

    Amplitudes at or below DEFAULT_PRUNE_THRESHOLD times the largest
    |amplitude| are dropped before normalizing. Raises EmptyStateError if
    all amplitudes vanish and CutoffViolationError for occupations outside
    0 <= n_a, n_b with n_a + n_b <= cutoff.
    """
    entries = list(entries)
    if not entries:
        raise EmptyStateError("no entries supplied")
    na = np.array([e[0] for e in entries])
    nb = np.array([e[1] for e in entries])
    amps = np.array([e[2] for e in entries], dtype=np.complex128)
    if np.any(na != np.floor(na)) or np.any(nb != np.floor(nb)):
        raise CutoffViolationError("occupation numbers must be integers")
    return _canonical_state(na.astype(np.int64), nb.astype(np.int64), amps, cutoff)


def vacuum(cutoff: int = 0) -> TwoModeState:
    """The |0,0> state (legal everywhere; all its information measures are 0)."""
    return make_state([(0, 0, 1.0)], cutoff)


# ---------------------------------------------------------------------------
# sector operators

def beamsplitter_matrix(n_total: int) -> np.ndarray:
    """Dense unitary of exp(i*pi*J1/2) on the N-photon sector, indexed by n_a:
    every column of splitter_columns, 16 (N+1)^2 bytes, built afresh."""
    return splitter_columns(n_total, np.arange(n_total + 1))


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])
_LOG_FACTORIALS = np.zeros(1)  # ln(x!) = math.lgamma(x + 1.0) for x = 0, 1, ...; grown by _log_factorials
_RESCALE_EVERY = 16  # recurrence steps between overflow checks
# 16 steps grow a column by far less than 2^100, so its entries and
# their squares in the norm stay finite
_RESCALE_ABOVE = 2.0**200


def _log_factorials(n: int) -> np.ndarray:
    """ln(x!) for x = 0..n, a read-only slice of one module table that at
    least doubles when it grows, so the sectors of an outcome table make
    O(cutoff) math.lgamma calls in all, not N + 1 per sector (a vectorized
    gammaln would cost more to import than it saves here)."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n >= table.size:
        more = [math.lgamma(x + 1.0) for x in range(table.size, max(n + 1, 2 * table.size))]
        table = np.concatenate((table, more))
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[:n + 1]


def splitter_columns(n_total: int, cols) -> np.ndarray:
    """Columns cols of beamsplitter_matrix(n_total), shape (N+1, len(cols)).

    When every column is n_a = 0 or n_a = N (a two-branch input) the
    columns come from the closed form |U[k, 0]| = |U[k, N]| =
    sqrt(C(N, k))/2^(N/2) with phases i^k and i^(N-k), evaluated in log
    space from a table of math.lgamma values (_log_factorials). Any other
    column c is the J2 eigenvector of eigenvalue m = c - N/2,
    U[k, c] = i^(k+c) w_k with w real and
    e_{k-1} w_{k-1} + m w_k + e_k w_{k+1} = 0, e the J1 off-diagonal: O(N)
    per column, no matrix and no eigensolver. The recurrence runs from k = 0
    to the centre, where the column grows or oscillates, so it is stable;
    the run from k = N is its mirror, w_{N-k} = (-1)^c w_k, since U is
    symmetric. Columns are rescaled against overflow and normalized with
    w_0 > 0, as U[0, c] = i^c sqrt(C(N, c))/2^(N/2). ValueError unless
    N >= 0 and every column is an integer in 0..N.
    """
    cols = np.asarray(cols)
    if n_total < 0 or cols.size and (cols.dtype.kind not in "iu" or cols.min() < 0 or cols.max() > n_total):
        raise ValueError(f"splitter columns {cols.tolist()} of N = {n_total}: need N >= 0 and integer columns in 0..N")
    cols = cols.astype(np.int64, copy=False)
    k = np.arange(n_total + 1)
    if np.all((cols == 0) | (cols == n_total)):
        log_fact = _log_factorials(n_total)
        mag = np.exp(0.5 * (log_fact[-1] - log_fact - log_fact[::-1]) - 0.5 * n_total * np.log(2.0))
        power = np.where(cols == 0, k[:, None], n_total - k[:, None])
        return mag[:, None] * _I_POWERS[power % 4]
    e = 0.5 * np.sqrt((k[:-1] + 1.0) * (n_total - k[:-1]))
    m = cols - n_total / 2.0
    half = n_total // 2
    w = np.empty((n_total + 1, cols.size))
    w[0] = 1.0
    w[1] = -m / e[0]
    for j in range(1, half):
        w[j + 1] = -(e[j - 1] * w[j - 1] + m * w[j]) / e[j]
        if j % _RESCALE_EVERY == 0:
            peak = np.maximum(np.abs(w[j]), np.abs(w[j + 1]))
            big = peak > _RESCALE_ABOVE
            if big.any():
                w[: j + 2, big] /= peak[big]
    w[half + 1:] = w[n_total - half - 1::-1] * (1.0 - 2.0 * (cols % 2))
    # each column summed contiguously, so its bits do not depend on the others
    w /= np.sqrt(np.square(np.ascontiguousarray(w.T)).sum(axis=1))
    return w * _I_POWERS[(k[:, None] + cols) % 4]


# ---------------------------------------------------------------------------
# unitaries and expectations

def apply_phase(state: TwoModeState, phi: float) -> TwoModeState:
    """Differential phase shift exp(-i*phi*J3): amplitude at (n_a, n_b) picks
    up exp(-i*phi*(n_a - n_b)/2). Norm and photon distribution unchanged."""
    phases = np.exp(-1j * phi * state.j3_values)
    return TwoModeState(state.na, state.nb, state.amps * phases, state.cutoff)


def apply_beamsplitter(state: TwoModeState) -> TwoModeState:
    """50:50 beam splitter exp(i*pi*J1/2), applied sector by sector.

    Commutes with total photon number, so the sector probabilities are
    untouched and the cutoff never grows.
    """
    if not len(state):
        return state
    na_parts, nb_parts, amp_parts = [], [], []
    for n, lo, hi in zip(*(col.tolist() for col in state.sectors)):
        na_parts.append(np.arange(n + 1, dtype=np.int64))
        nb_parts.append(n - na_parts[-1])
        amp_parts.append(splitter_columns(n, state.na[lo:hi]) @ state.amps[lo:hi])
    na, nb, amps = (np.concatenate(p) for p in (na_parts, nb_parts, amp_parts))
    keep = np.abs(amps) > DEFAULT_PRUNE_THRESHOLD * np.abs(amps).max()
    # sectors in increasing N, each filled in increasing n_a: already canonical
    return TwoModeState(na[keep], nb[keep], amps[keep], state.cutoff)


# name -> the observable's value on each entry of a state
_OBSERVABLE_VALUES = {
    "n_total": lambda s: s.n_total,
    "n_total_sq": lambda s: s.n_total.astype(float) ** 2,
    "j3": lambda s: s.j3_values,
    "j3_sq": lambda s: s.j3_values**2,
    "delta": lambda s: s.nb - s.na,
    "parity_a": lambda s: 1.0 - 2.0 * (s.na % 2),
}
OBSERVABLES = tuple(_OBSERVABLE_VALUES)


def expect(state: TwoModeState, observable: str) -> float:
    """Expectation of an occupation-diagonal observable.

    Supported names: n_total, n_total_sq, j3, j3_sq, delta (n_b - n_a),
    parity_a ((-1)**n_a).
    """
    if observable not in _OBSERVABLE_VALUES:
        raise ValueError(f"unknown observable {observable!r}; use one of {OBSERVABLES}")
    return float(np.sum(np.abs(state.amps) ** 2 * _OBSERVABLE_VALUES[observable](state)))


@dataclass(frozen=True)
class SectorComponent:
    """One fixed-photon-number component of a state.

    The original state is recovered as sum over components of
    phase * sqrt(probability) * state; the recorded phase is the global
    phase removed to make the leading amplitude real positive.
    """

    n_total: int
    probability: float
    state: TwoModeState
    phase: complex


def _sector_weights(state: TwoModeState) -> np.ndarray:
    """Each sector's sum of |amplitude|^2 in sector order, bit for bit its np.sum:
    one pairwise np.add.reduceat pass with a 0.0 put before each sector, as
    np.sum starts from 0.0 (a bare reduceat starts from the first weight)."""
    lo = state.sectors[1]
    return np.add.reduceat(np.insert(np.abs(state.amps) ** 2, lo, 0.0), lo + np.arange(lo.size))


def sector_decompose(state: TwoModeState) -> list[SectorComponent]:
    """Split a state into normalized fixed-N components with probabilities."""
    comps = []
    for n, lo, hi, prob in zip(*(col.tolist() for col in (*state.sectors, _sector_weights(state)))):
        amps = state.amps[lo:hi] / np.sqrt(prob)
        phase = amps[0] / abs(amps[0])
        sector = TwoModeState(state.na[lo:hi], state.nb[lo:hi], amps / phase, n)
        comps.append(SectorComponent(n, prob, sector, complex(phase)))
    return comps


# ---------------------------------------------------------------------------
# JSON state files

def state_to_json_dict(state: TwoModeState) -> dict:
    return {
        "cutoff": int(state.cutoff),
        "entries": [
            {"na": a, "nb": b, "re": amp.real, "im": amp.imag}
            for (a, b), amp in state.items()
        ],
    }


def _integral(value, field: str, limit=math.inf) -> int:
    """An occupation or cutoff field as an int; a ValueError naming the field
    when it is not integral, rather than int()'s silent truncation, or when
    its magnitude reaches limit."""
    if isinstance(value, bool):  # JSON true and false, which Python counts as ints
        raise ValueError(f"malformed state file: {field} must be an integer, got {value!r}")
    if not isinstance(value, int):
        number = float(value)
        if not number.is_integer():
            raise ValueError(f"malformed state file: {field} must be an integer, got {value!r}")
        value = number
    if abs(value) >= limit:
        raise ValueError(f"malformed state file: {field} {value!r} is out of range")
    return int(value)


def _real(value, field: str) -> float:
    """An amplitude part as float() reads it, refusing JSON true and false."""
    if isinstance(value, bool):
        raise ValueError(f"malformed state file: {field} must be a number, got {value!r}")
    return float(value)


def _json_entries(data: dict) -> tuple[int, list[tuple[int, int, complex]]]:
    """The cutoff and the (n_a, n_b, amplitude) triples of a state
    dictionary, converted as state_from_json_dict reads them."""
    try:
        cutoff = _integral(data["cutoff"], "cutoff")
        entries = [
            # occupations below 2**62, so that n_a + n_b fits a state's int64 arrays
            (_integral(e["na"], f"entries[{i}].na", 2**62), _integral(e["nb"], f"entries[{i}].nb", 2**62),
             _real(e["re"], f"entries[{i}].re") + 1j * _real(e["im"], f"entries[{i}].im"))
            for i, e in enumerate(data["entries"])
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    return cutoff, entries


def state_from_json_dict(data: dict) -> TwoModeState:
    """Parse, canonicalize and renormalize a state dictionary."""
    cutoff, entries = _json_entries(data)
    return make_state(entries, cutoff)


def save_state(state: TwoModeState, path) -> None:
    """Write the canonical JSON form; entry order is (N, n_a) so the file
    is byte stable for a given state."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(state), fh, indent=1)
        fh.write("\n")


def load_state(path) -> TwoModeState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json_dict(json.load(fh))
