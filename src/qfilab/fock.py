"""Truncated two-mode Fock space: sparse states, phase shifts, beam splitters.

The two optical paths are bosonic modes a and b. A pure state is a sparse
table of complex amplitudes over occupation pairs (n_a, n_b) with
n_a + n_b <= cutoff. Both interferometer unitaries are block diagonal over
total-photon-number sectors: the phase shift exp(-i*phi*J3) is diagonal in
the occupation basis, and the 50:50 splitter exp(i*pi*J1/2) acts inside
each sector as an (N+1)x(N+1) unitary. Callers that only need the columns
of the occupied inputs ask splitter_columns for them: the two-branch
columns n_a = 0 and n_a = N are binomial laws in closed form, and only
other supports build and cache the dense matrix.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

DEFAULT_NORM_TOL = 1e-9  # `state validate` reports a file renormalized beyond this
DEFAULT_PRUNE_THRESHOLD = 1e-15  # relative to the largest |amplitude|

OBSERVABLES = ("n_total", "n_total_sq", "j3", "j3_sq", "delta", "parity_a")


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
    identical tables. Arrays are read-only; every operation returns a new
    state, which makes states safe to share between worker threads.
    """

    na: np.ndarray
    nb: np.ndarray
    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
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
        return sorted({int(n) for n in self.n_total})

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
    """Merge duplicates, prune, sort by (N, n_a) and normalize."""
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

_BS_CACHE: dict[int, np.ndarray] = {}
_BS_LOCK = threading.Lock()


def _j1_offdiagonal(n_total: int) -> np.ndarray:
    k = np.arange(n_total)
    return 0.5 * np.sqrt((k + 1.0) * (n_total - k))


def beamsplitter_matrix(n_total: int) -> np.ndarray:
    """Dense unitary of exp(i*pi*J1/2) on the N-photon sector, indexed by n_a.

    Built once per sector size by eigendecomposition of the symmetric
    tridiagonal J1 block and cached read-only for the life of the process,
    safe for concurrent readers. Sector N holds 16 (N+1)^2 bytes, about
    16 K^3/3 bytes over sectors up to K; splitter_columns avoids the matrix
    for two-branch inputs.
    """
    mat = _BS_CACHE.get(n_total)
    if mat is None:
        with _BS_LOCK:
            mat = _BS_CACHE.get(n_total)
            if mat is None:
                if n_total == 0:
                    mat = np.ones((1, 1), dtype=np.complex128)
                else:
                    evals, vecs = eigh_tridiagonal(
                        np.zeros(n_total + 1), _j1_offdiagonal(n_total)
                    )
                    mat = (vecs * np.exp(0.5j * np.pi * evals)) @ vecs.T
                mat.flags.writeable = False
                _BS_CACHE[n_total] = mat
    return mat


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def splitter_columns(n_total: int, cols) -> np.ndarray:
    """Columns cols of beamsplitter_matrix(n_total), shape (N+1, len(cols)).

    When every column is n_a = 0 or n_a = N (a two-branch input) the
    columns come from the closed form |U[k, 0]| = |U[k, N]| =
    sqrt(C(N, k))/2^(N/2) with phases i^k and i^(N-k), evaluated in log
    space, and nothing is cached. Any other support slices the cached dense
    matrix, returned itself (read-only, no copy) when cols lists every
    column in order. The path depends only on cols, never on the cache.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if np.all((cols == 0) | (cols == n_total)):
        k = np.arange(n_total + 1)
        mag = np.exp(
            0.5 * (gammaln(n_total + 1.0) - gammaln(k + 1.0) - gammaln(n_total - k + 1.0))
            - 0.5 * n_total * np.log(2.0)
        )
        power = np.where(cols == 0, k[:, None], n_total - k[:, None])
        return mag[:, None] * _I_POWERS[power % 4]
    mat = beamsplitter_matrix(n_total)
    if np.array_equal(cols, np.arange(n_total + 1)):
        return mat
    return mat[:, cols]


# ---------------------------------------------------------------------------
# unitaries and expectations

def apply_phase(state: TwoModeState, phi: float) -> TwoModeState:
    """Differential phase shift exp(-i*phi*J3): amplitude at (n_a, n_b) picks
    up exp(-i*phi*(n_a - n_b)/2). Norm and photon distribution unchanged."""
    phases = np.exp(-1j * phi * state.j3_values)
    return TwoModeState(state.na, state.nb, state.amps * phases, state.cutoff)


def sector_blocks(state: TwoModeState):
    """Yield (N, vec, m) for each occupied sector in increasing N.

    vec holds the sector's amplitudes densely indexed by n_a (zeros where
    the state has no entry) and m = n_a - N/2 are the J3 eigenvalues.
    """
    nt = state.n_total
    for n in state.occupied_sectors():
        idx = np.flatnonzero(nt == n)
        vec = np.zeros(n + 1, dtype=np.complex128)
        vec[state.na[idx]] = state.amps[idx]
        yield n, vec, np.arange(n + 1) - n / 2.0


def apply_beamsplitter(state: TwoModeState) -> TwoModeState:
    """50:50 beam splitter exp(i*pi*J1/2), applied sector by sector.

    Commutes with total photon number, so the sector probabilities are
    untouched and the cutoff never grows.
    """
    na_parts, nb_parts, amp_parts = [], [], []
    for n, vec, _ in sector_blocks(state):
        na_parts.append(np.arange(n + 1, dtype=np.int64))
        nb_parts.append(n - na_parts[-1])
        amp_parts.append(beamsplitter_matrix(n) @ vec)
    na = np.concatenate(na_parts)
    nb = np.concatenate(nb_parts)
    amps = np.concatenate(amp_parts)
    keep = np.abs(amps) > DEFAULT_PRUNE_THRESHOLD * np.abs(amps).max()
    # sectors were visited in increasing N and filled in increasing n_a,
    # so the concatenation is already canonical
    return TwoModeState(na[keep], nb[keep], amps[keep], state.cutoff)


def expect(state: TwoModeState, observable: str) -> float:
    """Expectation of an occupation-diagonal observable.

    Supported names: n_total, n_total_sq, j3, j3_sq, delta (n_b - n_a),
    parity_a ((-1)**n_a).
    """
    p = np.abs(state.amps) ** 2
    if observable == "n_total":
        vals = state.n_total
    elif observable == "n_total_sq":
        vals = state.n_total.astype(float) ** 2
    elif observable == "j3":
        vals = state.j3_values
    elif observable == "j3_sq":
        vals = state.j3_values**2
    elif observable == "delta":
        vals = state.nb - state.na
    elif observable == "parity_a":
        vals = 1.0 - 2.0 * (state.na % 2)
    else:
        raise ValueError(f"unknown observable {observable!r}; use one of {OBSERVABLES}")
    return float(np.sum(p * vals))


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
    nt = state.n_total
    comps = []
    for n in state.occupied_sectors():
        idx = np.flatnonzero(nt == n)
        amps = state.amps[idx]
        prob = float(np.sum(np.abs(amps) ** 2))
        amps = amps / np.sqrt(prob)
        lead = amps[0]
        phase = lead / abs(lead)
        comps.append(
            SectorComponent(
                n_total=int(n),
                probability=prob,
                state=TwoModeState(state.na[idx], state.nb[idx], amps / phase, int(n)),
                phase=complex(phase),
            )
        )
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


def state_from_json_dict(data: dict) -> TwoModeState:
    """Parse, canonicalize and renormalize a state dictionary."""
    try:
        cutoff = int(data["cutoff"])
        entries = [
            (int(e["na"]), int(e["nb"]), float(e["re"]) + 1j * float(e["im"]))
            for e in data["entries"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
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
