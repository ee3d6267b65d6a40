"""Truncated two-mode Fock space: sparse states, phase shifts, beam splitters.

The two optical paths are bosonic modes a and b. A pure state is a sparse
table of complex amplitudes over occupation pairs (n_a, n_b), n_a + n_b <=
cutoff, sorted by (N, n_a) with N = n_a + n_b. Both interferometer unitaries
are block diagonal over the N sectors (the phase shift exp(-i*phi*J3) is
diagonal, the 50:50 splitter exp(i*pi*J1/2) an (N+1)x(N+1) block), and each
occupied sector is one contiguous slice of the table: sector_bounds finds
them all in one vectorized scan, and sector_slices walks them for the
per-sector readers. splitter_columns gives the splitter columns of occupied
inputs alone, the two-branch ones (n_a = 0, N) in closed form and any other
from a three-term recurrence, O(N) each; nothing is cached, so memory stays
that of the columns a caller holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    safe to share between worker threads.
    """

    na: np.ndarray
    nb: np.ndarray
    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        n_step = np.diff(self.n_total)
        out_of_order = (n_step < 0) | ((n_step == 0) & (np.diff(self.na) <= 0))
        if np.any(out_of_order) or np.any(self.amps == 0):
            raise ValueError("entries need strictly increasing (N, n_a) and nonzero amplitudes")
        for arr in (self.na, self.nb, self.amps):
            arr.flags.writeable = False

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

    def occupied_sectors(self) -> list[int]:
        return sector_bounds(self)[0].tolist()

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


def sector_bounds(state: TwoModeState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupied sectors as arrays (N, lo, hi) in increasing N: entries
    lo[i]:hi[i] of the state's arrays, in increasing n_a, are sector N[i]'s.
    One vectorized scan; the only place sector boundaries are computed."""
    nt = state.n_total
    lo = np.flatnonzero(np.diff(nt, prepend=-1))
    return nt[lo], lo, np.append(lo[1:], nt.size)


def sector_slices(state: TwoModeState):
    """Yield (N, sl) for each occupied sector in increasing N: sl slices the
    sector's entries, in increasing n_a, out of the state's arrays."""
    for n, lo, hi in zip(*(col.tolist() for col in sector_bounds(state))):
        yield n, slice(lo, hi)


def _canonical_state(
    na: np.ndarray,
    nb: np.ndarray,
    amps: np.ndarray,
    cutoff: int,
) -> TwoModeState:
    """Merge duplicates, prune, sort by (N, n_a) and normalize; a NaN or
    infinite amplitude is a ValueError naming its entry."""
    if cutoff < 0:
        raise CutoffViolationError("cutoff must be >= 0")
    na = np.asarray(na, dtype=np.int64)
    nb = np.asarray(nb, dtype=np.int64)
    amps = np.asarray(amps, dtype=np.complex128)
    if na.size == 0:
        raise EmptyStateError("state needs at least one nonzero amplitude")
    if np.any(na < 0) or np.any(nb < 0):
        raise CutoffViolationError("occupation numbers must be >= 0")
    finite = np.isfinite(amps)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"entry ({int(na[bad])}, {int(nb[bad])}) has a non-finite amplitude {amps[bad]}")
    if np.any(na + nb > cutoff):
        bad = int(np.argmax(na + nb > cutoff))
        raise CutoffViolationError(
            f"entry ({int(na[bad])}, {int(nb[bad])}) exceeds cutoff {cutoff}"
        )

    # merge duplicate occupation pairs
    key = na * (cutoff + 1) + nb
    uniq, inv = np.unique(key, return_inverse=True)
    if uniq.size != key.size:
        merged = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(merged, inv, amps)
        amps = merged
        na = uniq // (cutoff + 1)
        nb = uniq % (cutoff + 1)

    mags = np.abs(amps)
    peak = mags.max()
    if peak == 0.0:
        raise EmptyStateError("state needs at least one nonzero amplitude")
    keep = mags > DEFAULT_PRUNE_THRESHOLD * peak
    na, nb, amps = na[keep], nb[keep], amps[keep]

    order = np.lexsort((na, na + nb))
    na, nb, amps = na[order], nb[order], amps[order]
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
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
_RESCALE_EVERY = 16  # recurrence steps between overflow checks
# 16 steps grow a column by far less than 2^100, so its entries and
# their squares in the norm stay finite
_RESCALE_ABOVE = 2.0**200


def splitter_columns(n_total: int, cols) -> np.ndarray:
    """Columns cols of beamsplitter_matrix(n_total), shape (N+1, len(cols)).

    When every column is n_a = 0 or n_a = N (a two-branch input) the
    columns come from the closed form |U[k, 0]| = |U[k, N]| =
    sqrt(C(N, k))/2^(N/2) with phases i^k and i^(N-k), evaluated in log
    space. Any other column c is the J2 eigenvector of eigenvalue
    m = c - N/2, U[k, c] = i^(k+c) w_k with w real and
    e_{k-1} w_{k-1} + m w_k + e_k w_{k+1} = 0, e the J1 off-diagonal: O(N)
    per column, no matrix and no eigensolver. The recurrence runs from k = 0
    to the centre, where the column grows or oscillates, so it is stable;
    the run from k = N is its mirror, w_{N-k} = (-1)^c w_k, since U is
    symmetric. Columns are rescaled against overflow and normalized with
    w_0 > 0, as U[0, c] = i^c sqrt(C(N, c))/2^(N/2).
    """
    cols = np.asarray(cols, dtype=np.int64)
    k = np.arange(n_total + 1)
    if np.all((cols == 0) | (cols == n_total)):
        from scipy.special import gammaln  # deferred: keeps scipy out of `import qfilab`

        mag = np.exp(
            0.5 * (gammaln(n_total + 1.0) - gammaln(k + 1.0) - gammaln(n_total - k + 1.0))
            - 0.5 * n_total * np.log(2.0)
        )
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
    na_parts, nb_parts, amp_parts = [], [], []
    for n, sl in sector_slices(state):
        na_parts.append(np.arange(n + 1, dtype=np.int64))
        nb_parts.append(n - na_parts[-1])
        amp_parts.append(splitter_columns(n, state.na[sl]) @ state.amps[sl])
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


def sector_decompose(state: TwoModeState) -> list[SectorComponent]:
    """Split a state into normalized fixed-N components with probabilities."""
    comps = []
    for n, sl in sector_slices(state):
        prob = float(np.sum(np.abs(state.amps[sl]) ** 2))
        amps = state.amps[sl] / np.sqrt(prob)
        phase = amps[0] / abs(amps[0])
        sector = TwoModeState(state.na[sl], state.nb[sl], amps / phase, n)
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


def _integral(value, field: str) -> int:
    """An occupation or cutoff field as an int; a ValueError naming the field
    when it is not integral, rather than int()'s silent truncation."""
    if isinstance(value, int):
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"malformed state file: {field} must be an integer, got {value!r}")
    return int(number)


def _json_entries(data: dict) -> tuple[int, list[tuple[int, int, complex]]]:
    """The cutoff and the (n_a, n_b, amplitude) triples of a state
    dictionary, converted as state_from_json_dict reads them."""
    try:
        cutoff = _integral(data["cutoff"], "cutoff")
        entries = [
            (_integral(e["na"], f"entries[{i}].na"), _integral(e["nb"], f"entries[{i}].nb"),
             float(e["re"]) + 1j * float(e["im"]))
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
